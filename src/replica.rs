//! The replication feed: leader-side fan-out of committed batches and a
//! reconnecting follower that mirrors the session.
//!
//! The `follow` verb switches a TCP connection from request/reply to a
//! one-way stream. The leader first answers with either `feed ok`
//! (the follower's epoch matches the pinned view) or a full `feed
//! resync` block (graph, ranks, deltas, named views — everything
//! [`UpdateSession::restore`] needs), then pushes one frame per applied
//! mutation:
//!
//! ```text
//! delta epoch=<e> del=<d> ins=<i>   + d+i `u v` lines (deletions first)
//! feedview add <name> epoch=<e> sources=<s>   + s `v w` lines
//! feedview drop <name> epoch=<e>
//! ```
//!
//! Floats travel as `{:e}` — the shortest form that parses back to the
//! same bits — so a one-threaded follower tracks the leader
//! bit-for-bit. The follower recomputes view creations statically
//! rather than shipping rank vectors: at the same graph state and one
//! thread that is deterministic, hence bit-equal.
//!
//! The [`FeedHub`] is the in-process junction: the writer publishes
//! every logged mutation (the same [`WalRecord`] values the WAL gets),
//! each following connection owns a subscription queue. Queues are
//! unbounded but only ever hold the frames a live TCP connection has
//! not drained yet; a follower that disappears is dropped at the next
//! failed send. [`FeedHub::close`] unblocks every stream so server
//! shutdown cannot deadlock on an idle follower.
//!
//! [`Follower`] is the other end: it dials the leader, requests
//! `follow <epoch>` when it already has state (plain `follow`
//! otherwise), applies frames through the ordinary session path, and
//! publishes the result locally through a [`RankReader`]. Connection
//! loss, epoch gaps, and rejected frames all funnel into the same
//! recovery: reconnect with bounded exponential backoff and let the
//! leader decide between `feed ok` and a fresh resync.

use crate::durable::teleport_from_normalized;
use crate::protocol::field;
use lfpr_core::session::UpdateSession;
use lfpr_core::{Algorithm, PagerankOptions, RankDelta, RankReader, RankView};
use lfpr_graph::io::wal::WalRecord;
use lfpr_graph::reorder::SharedReordering;
use lfpr_graph::{BatchUpdate, DynGraph, Reordering};
use std::io::{self, BufRead, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Duration;

// ---------------------------------------------------------------------------
// Leader side: the hub and the per-connection stream.
// ---------------------------------------------------------------------------

/// Fan-out point between the single writer and any number of following
/// connections. Cloning shares the hub.
#[derive(Clone, Default)]
pub struct FeedHub {
    inner: Arc<Mutex<HubState>>,
}

#[derive(Default)]
struct HubState {
    subs: Vec<Sender<Arc<WalRecord>>>,
    closed: bool,
}

impl FeedHub {
    /// A fresh hub with no subscribers.
    pub fn new() -> FeedHub {
        FeedHub::default()
    }

    /// Register a follower queue. On a closed hub the queue is born
    /// disconnected, so the subscriber's first `recv` returns
    /// immediately instead of blocking a dying server.
    pub fn subscribe(&self) -> Receiver<Arc<WalRecord>> {
        let (tx, rx) = mpsc::channel();
        let mut st = self.inner.lock().expect("feed hub poisoned");
        if !st.closed {
            st.subs.push(tx);
        }
        rx
    }

    /// Queue one applied mutation for every live follower. Cheap (one
    /// Arc clone per subscriber) and a no-op without subscribers.
    pub fn publish(&self, rec: WalRecord) {
        let mut st = self.inner.lock().expect("feed hub poisoned");
        if st.subs.is_empty() {
            return;
        }
        let rec = Arc::new(rec);
        st.subs.retain(|tx| tx.send(Arc::clone(&rec)).is_ok());
    }

    /// Drop every subscription and refuse new ones: all blocked feed
    /// streams wake with a disconnect. Called by server shutdown
    /// *before* joining workers.
    pub fn close(&self) {
        let mut st = self.inner.lock().expect("feed hub poisoned");
        st.closed = true;
        st.subs.clear();
    }

    /// How many follower queues are attached right now.
    pub fn subscriber_count(&self) -> usize {
        self.inner.lock().expect("feed hub poisoned").subs.len()
    }
}

/// Serve one `follow` connection: subscribe, pin the latest view,
/// answer `feed ok`/`feed resync`, then stream frames until the client
/// hangs up or the hub closes. Returns the number of live frames sent.
///
/// Subscription happens *before* the view is pinned, so no mutation can
/// fall between the snapshot and the stream; the overlap is resolved by
/// skipping frames the pinned view already contains.
pub fn stream_feed<W: Write>(
    reader: &RankReader,
    hub: &FeedHub,
    algorithm: Algorithm,
    since: Option<u64>,
    reorder: &SharedReordering,
    out: &mut W,
) -> io::Result<u64> {
    let rx = hub.subscribe();
    let pinned = reader.view();
    let epoch = pinned.epoch();
    if since == Some(epoch) {
        writeln!(out, "feed ok epoch={epoch}")?;
    } else {
        write_resync(out, &pinned, algorithm, reorder)?;
    }
    out.flush()?;
    let mut sent = 0u64;
    while let Ok(rec) = rx.recv() {
        if !record_is_fresh(&rec, &pinned) {
            continue;
        }
        write_feed_event(out, &rec)?;
        out.flush()?;
        sent += 1;
    }
    Ok(sent)
}

/// Whether a published record post-dates `pinned` — the overlap filter
/// between subscribing to the hub and pinning the view. Shared by
/// [`stream_feed`] and the event-driven server's follower connections.
pub(crate) fn record_is_fresh(rec: &WalRecord, pinned: &RankView) -> bool {
    match rec {
        // A commit the pinned view already reflects was queued between
        // subscribe and pin.
        WalRecord::Commit { epoch, .. } => *epoch > pinned.epoch(),
        // View ops do not bump the epoch; membership in the pinned view
        // is the tie-breaker for frames at the pin epoch.
        WalRecord::ViewAdd { epoch, name, .. } => *epoch > pinned.epoch() || !pinned.has_view(name),
        WalRecord::ViewDrop { epoch, name } => *epoch > pinned.epoch() || pinned.has_view(name),
    }
}

/// Encode one live feed frame.
pub fn write_feed_event<W: Write>(out: &mut W, rec: &WalRecord) -> io::Result<()> {
    match rec {
        WalRecord::Commit { epoch, batch } => {
            writeln!(
                out,
                "delta epoch={epoch} del={} ins={}",
                batch.deletions.len(),
                batch.insertions.len()
            )?;
            for &(u, v) in batch.deletions.iter().chain(&batch.insertions) {
                writeln!(out, "{u} {v}")?;
            }
        }
        WalRecord::ViewAdd {
            epoch,
            name,
            sources,
        } => {
            writeln!(
                out,
                "feedview add {name} epoch={epoch} sources={}",
                sources.len()
            )?;
            for &(v, w) in sources {
                writeln!(out, "{v} {w:e}")?;
            }
        }
        WalRecord::ViewDrop { epoch, name } => {
            writeln!(out, "feedview drop {name} epoch={epoch}")?;
        }
    }
    Ok(())
}

/// Encode a full state transfer from a pinned view: everything a
/// follower needs to [`UpdateSession::restore`] the leader's exact
/// state at this epoch.
///
/// A reordered leader appends ` perm=<n>` to the head and ships its
/// external→internal permutation (one internal id per line, in external
/// order) right after it, so the follower can translate client-facing
/// ids at its own serve boundary; everything else in the block — and
/// every live frame — stays in internal id space. Unreordered leaders
/// emit the exact historical byte layout.
pub fn write_resync<W: Write>(
    out: &mut W,
    view: &RankView,
    algorithm: Algorithm,
    reorder: &SharedReordering,
) -> io::Result<()> {
    let snapshot = view.snapshot();
    let names = view.view_names();
    write!(
        out,
        "feed resync epoch={} algo={algorithm} n={} m={} deltas={} views={}",
        view.epoch(),
        snapshot.num_vertices(),
        snapshot.num_edges(),
        view.deltas().len(),
        names.len()
    )?;
    match reorder {
        None => writeln!(out)?,
        Some(r) => {
            writeln!(out, " perm={}", r.len())?;
            for &int in r.perm() {
                writeln!(out, "{int}")?;
            }
        }
    }
    for (u, v) in snapshot.edges() {
        writeln!(out, "{u} {v}")?;
    }
    for r in view.ranks() {
        writeln!(out, "{r:e}")?;
    }
    for d in view.deltas() {
        writeln!(out, "{} {:e} {:e}", d.vertex, d.old, d.new)?;
    }
    for (name, _) in &names {
        let sources: Vec<(u32, f64)> = view
            .teleport_in(name)
            .and_then(|t| t.weights().map(|w| w.sources().to_vec()))
            .unwrap_or_default();
        let deltas = view.deltas_in(name).expect("view listed");
        writeln!(
            out,
            "view {name} sources={} deltas={}",
            sources.len(),
            deltas.len()
        )?;
        for (v, w) in sources {
            writeln!(out, "{v} {w:e}")?;
        }
        for r in view.ranks_in(name).expect("view listed") {
            writeln!(out, "{r:e}")?;
        }
        for d in deltas {
            writeln!(out, "{} {:e} {:e}", d.vertex, d.old, d.new)?;
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Frame parsing (follower side).
// ---------------------------------------------------------------------------

fn field_str<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    line.split_whitespace().find_map(|tok| {
        let (k, v) = tok.split_once('=')?;
        (k == key).then_some(v)
    })
}

fn parse_edge(line: &str) -> Result<(u32, u32), String> {
    let mut it = line.split_whitespace();
    let bad = || format!("bad edge line {line:?}");
    let u = it.next().and_then(|t| t.parse().ok()).ok_or_else(bad)?;
    let v = it.next().and_then(|t| t.parse().ok()).ok_or_else(bad)?;
    if it.next().is_some() {
        return Err(bad());
    }
    Ok((u, v))
}

fn parse_delta(line: &str) -> Result<RankDelta, String> {
    let mut it = line.split_whitespace();
    let bad = || format!("bad delta line {line:?}");
    let vertex = it.next().and_then(|t| t.parse().ok()).ok_or_else(bad)?;
    let old = it.next().and_then(|t| t.parse().ok()).ok_or_else(bad)?;
    let new = it.next().and_then(|t| t.parse().ok()).ok_or_else(bad)?;
    if it.next().is_some() {
        return Err(bad());
    }
    Ok(RankDelta { vertex, old, new })
}

fn parse_weighted(line: &str) -> Result<(u32, f64), String> {
    let mut it = line.split_whitespace();
    let bad = || format!("bad source line {line:?}");
    let v = it.next().and_then(|t| t.parse().ok()).ok_or_else(bad)?;
    let w = it.next().and_then(|t| t.parse().ok()).ok_or_else(bad)?;
    if it.next().is_some() {
        return Err(bad());
    }
    Ok((v, w))
}

/// Pull `count` payload lines with a line source.
fn take_lines<E>(
    mut next: impl FnMut() -> Result<Option<String>, E>,
    count: usize,
    what: &str,
) -> Result<Vec<String>, String>
where
    E: fmt::Display,
{
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        match next() {
            Ok(Some(line)) => out.push(line),
            Ok(None) => return Err(format!("feed ended inside {what}")),
            Err(e) => return Err(format!("feed failed inside {what}: {e}")),
        }
    }
    Ok(out)
}

use std::fmt;

/// Parse a full `feed resync` block (head already read) into a live
/// session, reading payload lines from `next`. The second element is
/// the leader's id permutation when the head carries `perm=` (a
/// reordered leader) — the follower installs it at its own serve
/// boundary; the session itself stays in internal id space.
pub fn read_resync<E: fmt::Display>(
    head: &str,
    runtime: PagerankOptions,
    mut next: impl FnMut() -> Result<Option<String>, E>,
) -> Result<(UpdateSession, Option<Reordering>), String> {
    let bad = |what: &str| format!("bad resync head ({what}): {head:?}");
    let epoch = field(head, "epoch").ok_or_else(|| bad("epoch"))?;
    let algorithm: Algorithm = field_str(head, "algo")
        .ok_or_else(|| bad("algo"))?
        .parse()
        .map_err(|e| format!("resync names unknown algorithm: {e}"))?;
    let n = field(head, "n").ok_or_else(|| bad("n"))? as usize;
    let m = field(head, "m").ok_or_else(|| bad("m"))? as usize;
    let n_deltas = field(head, "deltas").ok_or_else(|| bad("deltas"))? as usize;
    let n_views = field(head, "views").ok_or_else(|| bad("views"))? as usize;

    let reorder = match field(head, "perm") {
        None => None,
        Some(p) => {
            let perm = take_lines(&mut next, p as usize, "permutation")?
                .iter()
                .map(|l| {
                    l.trim()
                        .parse::<u32>()
                        .map_err(|_| format!("bad permutation line {l:?}"))
                })
                .collect::<Result<Vec<_>, _>>()?;
            Some(
                Reordering::from_perm(perm)
                    .map_err(|e| format!("resync permutation invalid: {e}"))?,
            )
        }
    };

    let edges = take_lines(&mut next, m, "edge list")?
        .iter()
        .map(|l| parse_edge(l))
        .collect::<Result<Vec<_>, _>>()?;
    let ranks = parse_rank_lines(take_lines(&mut next, n, "rank vector")?)?;
    let deltas = take_lines(&mut next, n_deltas, "delta list")?
        .iter()
        .map(|l| parse_delta(l))
        .collect::<Result<Vec<_>, _>>()?;

    let graph = DynGraph::from_edges(n, edges).map_err(|e| format!("resync graph invalid: {e}"))?;
    let mut session = UpdateSession::restore(graph, algorithm, runtime, &ranks, epoch)?;
    session.enable_delta_tracking();
    session.restore_deltas(deltas);

    for _ in 0..n_views {
        let head = match next() {
            Ok(Some(line)) => line,
            Ok(None) => return Err("feed ended inside view list".into()),
            Err(e) => return Err(format!("feed failed inside view list: {e}")),
        };
        let name = head
            .strip_prefix("view ")
            .and_then(|rest| rest.split_whitespace().next())
            .ok_or_else(|| format!("bad view head {head:?}"))?
            .to_string();
        let n_sources = field(&head, "sources").ok_or_else(|| format!("bad view head {head:?}"))?;
        let n_vdeltas = field(&head, "deltas").ok_or_else(|| format!("bad view head {head:?}"))?;
        let sources = take_lines(&mut next, n_sources as usize, "view sources")?
            .iter()
            .map(|l| parse_weighted(l))
            .collect::<Result<Vec<_>, _>>()?;
        let vranks = parse_rank_lines(take_lines(&mut next, n, "view ranks")?)?;
        let vdeltas = take_lines(&mut next, n_vdeltas as usize, "view deltas")?
            .iter()
            .map(|l| parse_delta(l))
            .collect::<Result<Vec<_>, _>>()?;
        session.restore_view(&name, teleport_from_normalized(&sources)?, &vranks, vdeltas)?;
    }
    Ok((session, reorder))
}

fn parse_rank_lines(lines: Vec<String>) -> Result<Vec<f64>, String> {
    lines
        .iter()
        .map(|l| {
            l.trim()
                .parse::<f64>()
                .map_err(|_| format!("bad rank line {l:?}"))
        })
        .collect()
}

/// One parsed live frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// `delta epoch=<e> del=<d> ins=<i>` + edge lines.
    Delta { epoch: u64, batch: BatchUpdate },
    /// `feedview add <name> epoch=<e> sources=<s>` + source lines.
    ViewAdd {
        epoch: u64,
        name: String,
        sources: Vec<(u32, f64)>,
    },
    /// `feedview drop <name> epoch=<e>`.
    ViewDrop { epoch: u64, name: String },
}

/// Parse one live frame from its head line, pulling payload lines from
/// `next`. `Ok(None)` means the line is not a feed frame at all.
pub fn read_frame<E: fmt::Display>(
    head: &str,
    mut next: impl FnMut() -> Result<Option<String>, E>,
) -> Result<Option<Frame>, String> {
    if head.starts_with("delta ") {
        let epoch = field(head, "epoch").ok_or_else(|| format!("bad delta head {head:?}"))?;
        let del = field(head, "del").ok_or_else(|| format!("bad delta head {head:?}"))? as usize;
        let ins = field(head, "ins").ok_or_else(|| format!("bad delta head {head:?}"))? as usize;
        let lines = take_lines(&mut next, del + ins, "delta frame")?;
        let edges = lines
            .iter()
            .map(|l| parse_edge(l))
            .collect::<Result<Vec<_>, _>>()?;
        let mut batch = BatchUpdate::new();
        batch.deletions = edges[..del].to_vec();
        batch.insertions = edges[del..].to_vec();
        return Ok(Some(Frame::Delta { epoch, batch }));
    }
    if let Some(rest) = head.strip_prefix("feedview add ") {
        let name = rest
            .split_whitespace()
            .next()
            .ok_or_else(|| format!("bad feedview head {head:?}"))?
            .to_string();
        let epoch = field(head, "epoch").ok_or_else(|| format!("bad feedview head {head:?}"))?;
        let count = field(head, "sources").ok_or_else(|| format!("bad feedview head {head:?}"))?;
        let sources = take_lines(&mut next, count as usize, "feedview frame")?
            .iter()
            .map(|l| parse_weighted(l))
            .collect::<Result<Vec<_>, _>>()?;
        return Ok(Some(Frame::ViewAdd {
            epoch,
            name,
            sources,
        }));
    }
    if let Some(rest) = head.strip_prefix("feedview drop ") {
        let name = rest
            .split_whitespace()
            .next()
            .ok_or_else(|| format!("bad feedview head {head:?}"))?
            .to_string();
        let epoch = field(head, "epoch").ok_or_else(|| format!("bad feedview head {head:?}"))?;
        return Ok(Some(Frame::ViewDrop { epoch, name }));
    }
    Ok(None)
}

/// Outcome of applying one frame to the follower session.
#[derive(Debug, PartialEq, Eq)]
pub enum Applied {
    /// State advanced (or the frame was a harmless duplicate).
    Ok,
    /// The frame does not fit this session (epoch gap, rejected batch):
    /// the follower must resync from scratch.
    NeedResync(String),
}

/// Apply one frame through the ordinary session path. Duplicates (a
/// re-sent epoch, a view that already exists) are skips, exactly like
/// WAL replay; anything the session refuses demands a resync.
pub fn apply_frame(session: &mut UpdateSession, frame: Frame) -> Applied {
    match frame {
        Frame::Delta { epoch, batch } => {
            if epoch <= session.steps() {
                return Applied::Ok;
            }
            if epoch != session.steps() + 1 {
                return Applied::NeedResync(format!(
                    "epoch gap: have {}, leader sent {epoch}",
                    session.steps()
                ));
            }
            match session.step(&batch) {
                Ok(_) => Applied::Ok,
                Err(e) => Applied::NeedResync(format!("leader delta {epoch} rejected: {e}")),
            }
        }
        Frame::ViewAdd {
            epoch,
            name,
            sources,
        } => {
            if epoch < session.steps() || session.has_view(&name) {
                return Applied::Ok;
            }
            let teleport = match teleport_from_normalized(&sources) {
                Ok(t) => t,
                Err(e) => return Applied::NeedResync(format!("view {name} unbuildable: {e}")),
            };
            match session.add_view(&name, teleport) {
                Ok(()) => Applied::Ok,
                Err(e) => Applied::NeedResync(format!("view {name} rejected: {e}")),
            }
        }
        Frame::ViewDrop { epoch, name } => {
            if epoch < session.steps() || !session.has_view(&name) {
                return Applied::Ok;
            }
            match session.drop_view(&name) {
                Ok(()) => Applied::Ok,
                Err(e) => Applied::NeedResync(format!("view drop {name} rejected: {e}")),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The follower.
// ---------------------------------------------------------------------------

/// Connection and retry tunables for a [`Follower`].
#[derive(Debug, Clone)]
pub struct FollowerOptions {
    /// Leader address (`host:port`).
    pub leader: String,
    /// Session options for the mirrored state: the kernel options a
    /// default `lfpr serve` leader runs, at one thread for bit-exact
    /// tracking.
    pub runtime: PagerankOptions,
    /// TCP connect timeout per attempt.
    pub connect_timeout: Duration,
    /// Read poll granularity — how quickly `stop()` is noticed.
    pub read_timeout: Duration,
    /// Consecutive failed connect attempts before giving up.
    pub max_attempts: u32,
    /// First reconnect delay; doubles per consecutive failure.
    pub backoff_base: Duration,
    /// Upper bound on the reconnect delay.
    pub backoff_cap: Duration,
}

impl FollowerOptions {
    /// Defaults for a given leader address: the default leader's kernel
    /// at 1 thread, 3 s connects, 200 ms read polls, 30 attempts backing
    /// off 100 ms → 5 s.
    pub fn new(leader: impl Into<String>) -> FollowerOptions {
        FollowerOptions {
            leader: leader.into(),
            runtime: crate::ServeConfig::new(crate::GraphSource::Recovered)
                .pagerank_options()
                .with_threads(1),
            connect_timeout: Duration::from_secs(3),
            read_timeout: Duration::from_millis(200),
            max_attempts: 30,
            backoff_base: Duration::from_millis(100),
            backoff_cap: Duration::from_secs(5),
        }
    }
}

/// Lifetime counters a follower reports when stopped.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FollowerStats {
    /// Full state transfers received (initial sync included).
    pub resyncs: u64,
    /// Live delta frames applied.
    pub deltas_applied: u64,
    /// Times the connection was re-established after a loss.
    pub reconnects: u64,
}

/// A background thread mirroring a leader's session, serving the result
/// through a local [`RankReader`].
pub struct Follower {
    stop: Arc<AtomicBool>,
    epoch: Arc<AtomicU64>,
    reconnects: Arc<AtomicU64>,
    shared: Arc<Mutex<Option<(RankReader, Algorithm, SharedReordering)>>>,
    handle: JoinHandle<Result<FollowerStats, String>>,
}

impl Follower {
    /// Start following. Returns immediately; [`reader`](Self::reader)
    /// turns `Some` once the first sync lands.
    pub fn spawn(opts: FollowerOptions) -> Follower {
        let stop = Arc::new(AtomicBool::new(false));
        let epoch = Arc::new(AtomicU64::new(0));
        let reconnects = Arc::new(AtomicU64::new(0));
        let shared: Arc<Mutex<Option<(RankReader, Algorithm, SharedReordering)>>> =
            Arc::new(Mutex::new(None));
        let handle = {
            let (stop, epoch, reconnects, shared) = (
                Arc::clone(&stop),
                Arc::clone(&epoch),
                Arc::clone(&reconnects),
                Arc::clone(&shared),
            );
            thread::Builder::new()
                .name("lfpr-follower".into())
                .spawn(move || follower_loop(opts, &stop, &epoch, &reconnects, &shared))
                .expect("spawn follower thread")
        };
        Follower {
            stop,
            epoch,
            reconnects,
            shared,
            handle,
        }
    }

    /// The last epoch applied locally (0 before the first sync).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Times the connection has been re-established so far.
    pub fn reconnects(&self) -> u64 {
        self.reconnects.load(Ordering::Acquire)
    }

    /// A reader over the mirrored state plus the leader's algorithm
    /// and id permutation (if the leader reorders) — `None` until the
    /// first resync completes. The reader stays live across reconnects
    /// and resyncs within one spawn.
    pub fn reader(&self) -> Option<(RankReader, Algorithm, SharedReordering)> {
        self.shared.lock().expect("follower slot poisoned").clone()
    }

    /// Ask the thread to stop and collect its stats. An unreachable
    /// leader surfaces here as `Err`.
    pub fn stop(self) -> Result<FollowerStats, String> {
        self.stop.store(true, Ordering::Release);
        self.handle
            .join()
            .map_err(|_| "follower panicked".to_string())?
    }
}

/// What one connection attempt produced.
enum StreamEnd {
    /// Stop flag observed — shut down.
    Stopped,
    /// Connection lost (or stream refused): reconnect after backoff.
    Lost,
    /// The session cannot continue (gap / rejected frame): reconnect
    /// and take a fresh resync.
    Resync(String),
    /// The leader answered with a protocol error line: fatal.
    Refused(String),
}

fn follower_loop(
    opts: FollowerOptions,
    stop: &AtomicBool,
    epoch_out: &AtomicU64,
    reconnects_out: &AtomicU64,
    shared: &Mutex<Option<(RankReader, Algorithm, SharedReordering)>>,
) -> Result<FollowerStats, String> {
    let mut session: Option<UpdateSession> = None;
    let mut stats = FollowerStats::default();
    let mut failures = 0u32;
    let mut connected_once = false;
    loop {
        if stop.load(Ordering::Acquire) {
            return Ok(stats);
        }
        let conn = match dial(&opts) {
            Ok(conn) => conn,
            Err(e) => {
                failures += 1;
                if failures >= opts.max_attempts {
                    return Err(format!(
                        "cannot reach leader {} after {failures} attempts: {e}",
                        opts.leader
                    ));
                }
                sleep_backoff(&opts, failures, stop);
                continue;
            }
        };
        failures = 0;
        if connected_once {
            stats.reconnects += 1;
            reconnects_out.store(stats.reconnects, Ordering::Release);
        }
        connected_once = true;
        match run_stream(
            conn,
            &opts,
            &mut session,
            &mut stats,
            stop,
            epoch_out,
            shared,
        ) {
            StreamEnd::Stopped => return Ok(stats),
            StreamEnd::Lost => {
                // Keep the session: the next hello offers `follow
                // <epoch>` and may be answered with a cheap `feed ok`.
                sleep_backoff(&opts, 1, stop);
            }
            StreamEnd::Resync(why) => {
                eprintln!("# follower resyncing: {why}");
                session = None;
                sleep_backoff(&opts, 1, stop);
            }
            StreamEnd::Refused(line) => {
                return Err(format!("leader refused follow: {line}"));
            }
        }
    }
}

fn dial(opts: &FollowerOptions) -> io::Result<TcpStream> {
    let addr =
        opts.leader.to_socket_addrs()?.next().ok_or_else(|| {
            io::Error::new(io::ErrorKind::NotFound, "address resolved to nothing")
        })?;
    let conn = TcpStream::connect_timeout(&addr, opts.connect_timeout)?;
    conn.set_nodelay(true)?;
    conn.set_read_timeout(Some(opts.read_timeout))?;
    Ok(conn)
}

fn sleep_backoff(opts: &FollowerOptions, failures: u32, stop: &AtomicBool) {
    let exp = failures.saturating_sub(1).min(16);
    let delay = opts
        .backoff_base
        .saturating_mul(1u32 << exp)
        .min(opts.backoff_cap);
    let step = Duration::from_millis(20);
    let mut waited = Duration::ZERO;
    while waited < delay && !stop.load(Ordering::Acquire) {
        let chunk = step.min(delay - waited);
        thread::sleep(chunk);
        waited += chunk;
    }
}

/// Drive one connection until it ends. Timeout errors only poll the
/// stop flag; a partially read line survives timeouts because
/// `read_line` appends to the same buffer.
fn run_stream(
    conn: TcpStream,
    opts: &FollowerOptions,
    session: &mut Option<UpdateSession>,
    stats: &mut FollowerStats,
    stop: &AtomicBool,
    epoch_out: &AtomicU64,
    shared: &Mutex<Option<(RankReader, Algorithm, SharedReordering)>>,
) -> StreamEnd {
    let mut writer = match conn.try_clone() {
        Ok(w) => w,
        Err(_) => return StreamEnd::Lost,
    };
    let mut input = io::BufReader::new(conn);
    let request = match session {
        Some(s) => format!("follow {}", s.steps()),
        None => "follow".to_string(),
    };
    if writeln!(writer, "{request}").is_err() {
        return StreamEnd::Lost;
    }
    let mut buf = String::new();
    let head = match poll_line(&mut input, &mut buf, stop) {
        Ok(Some(line)) => line,
        Ok(None) => return StreamEnd::Lost,
        Err(Stopped) => return StreamEnd::Stopped,
    };

    if head.starts_with("feed resync ") {
        let mut interrupted = false;
        let next = || -> Result<Option<String>, &'static str> {
            match poll_line(&mut input, &mut buf, stop) {
                Ok(v) => Ok(v),
                Err(Stopped) => {
                    interrupted = true;
                    Err("stopped")
                }
            }
        };
        match read_resync(&head, opts.runtime.clone(), next) {
            Ok((mut fresh, reorder)) => {
                let reader = fresh.reader();
                *shared.lock().expect("follower slot poisoned") =
                    Some((reader, fresh.algorithm(), reorder.map(Arc::new)));
                epoch_out.store(fresh.steps(), Ordering::Release);
                *session = Some(fresh);
                stats.resyncs += 1;
            }
            Err(_) if interrupted => return StreamEnd::Stopped,
            Err(e) => return StreamEnd::Resync(e),
        }
    } else if head.starts_with("feed ok") {
        if session.is_none() {
            return StreamEnd::Resync("feed ok without local state".into());
        }
    } else {
        return StreamEnd::Refused(head);
    }

    // Live frames.
    loop {
        let head = match poll_line(&mut input, &mut buf, stop) {
            Ok(Some(line)) => line,
            Ok(None) => return StreamEnd::Lost,
            Err(Stopped) => return StreamEnd::Stopped,
        };
        let mut interrupted = false;
        let next = || -> Result<Option<String>, &'static str> {
            match poll_line(&mut input, &mut buf, stop) {
                Ok(v) => Ok(v),
                Err(Stopped) => {
                    interrupted = true;
                    Err("stopped")
                }
            }
        };
        let frame = match read_frame(&head, next) {
            Ok(Some(frame)) => frame,
            Ok(None) => return StreamEnd::Resync(format!("unexpected feed line {head:?}")),
            Err(_) if interrupted => return StreamEnd::Stopped,
            Err(e) => return StreamEnd::Resync(e),
        };
        let is_delta = matches!(frame, Frame::Delta { .. });
        let s = session.as_mut().expect("session exists while streaming");
        match apply_frame(s, frame) {
            Applied::Ok => {
                if is_delta {
                    stats.deltas_applied += 1;
                }
                epoch_out.store(s.steps(), Ordering::Release);
            }
            Applied::NeedResync(why) => return StreamEnd::Resync(why),
        }
    }
}

struct Stopped;

/// Read one line, retrying through read-timeout polls until the stop
/// flag trips. `Ok(None)` is EOF or a hard socket error (both mean the
/// connection is over).
fn poll_line(
    input: &mut io::BufReader<TcpStream>,
    buf: &mut String,
    stop: &AtomicBool,
) -> Result<Option<String>, Stopped> {
    buf.clear();
    loop {
        match input.read_line(buf) {
            Ok(0) => return Ok(None),
            Ok(_) => return Ok(Some(buf.trim_end_matches(['\r', '\n']).to_string())),
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if stop.load(Ordering::Acquire) {
                    return Err(Stopped);
                }
            }
            Err(_) => return Ok(None),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lfpr_core::Teleport;
    use lfpr_graph::generators::erdos_renyi;
    use lfpr_graph::selfloops::add_self_loops;
    use lfpr_graph::BatchSpec;

    fn opts1() -> PagerankOptions {
        PagerankOptions::default()
            .with_threads(1)
            .with_chunk_size(64)
    }

    fn leader_session(seed: u64) -> UpdateSession {
        let mut g = erdos_renyi(60, 300, seed);
        add_self_loops(&mut g);
        let mut s = UpdateSession::new(g, Algorithm::DfLF, opts1());
        s.enable_delta_tracking();
        s
    }

    #[test]
    fn hub_close_unblocks_subscribers() {
        let hub = FeedHub::new();
        let rx = hub.subscribe();
        assert_eq!(hub.subscriber_count(), 1);
        let waiter = thread::spawn(move || rx.recv().is_err());
        hub.close();
        assert!(waiter.join().unwrap(), "recv must fail after close");
        // A late subscriber on a closed hub does not block either.
        assert!(hub.subscribe().recv().is_err());
        assert_eq!(hub.subscriber_count(), 0);
    }

    #[test]
    fn hub_drops_dead_subscribers_on_publish() {
        let hub = FeedHub::new();
        let rx = hub.subscribe();
        drop(rx);
        let rx2 = hub.subscribe();
        hub.publish(WalRecord::ViewDrop {
            epoch: 1,
            name: "x".into(),
        });
        assert_eq!(hub.subscriber_count(), 1, "dead queue dropped");
        assert!(rx2.recv().is_ok());
    }

    #[test]
    fn resync_round_trips_bit_exactly() {
        let mut leader = leader_session(11);
        leader
            .add_view("ego", Teleport::personalized([(3, 1.0), (7, 2.0)]).unwrap())
            .unwrap();
        for round in 0..3u64 {
            let batch = BatchSpec::mixed(0.03, round).generate(leader.graph());
            leader.step(&batch).unwrap();
        }
        let view = leader.reader().view();
        let mut wire = Vec::new();
        write_resync(&mut wire, &view, leader.algorithm(), &None).unwrap();
        let text = String::from_utf8(wire).unwrap();
        let mut lines = text.lines();
        let head = lines.next().unwrap().to_string();
        let mut next = {
            let mut it = lines;
            move || -> Result<Option<String>, &'static str> { Ok(it.next().map(str::to_string)) }
        };
        let (follower, reorder) = read_resync(&head, opts1(), &mut next).unwrap();
        assert!(reorder.is_none(), "unreordered leader ships no perm");
        assert_eq!(follower.steps(), leader.steps());
        for (a, b) in leader.ranks().iter().zip(follower.ranks()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        for (a, b) in leader
            .view_ranks("ego")
            .unwrap()
            .iter()
            .zip(follower.view_ranks("ego").unwrap())
        {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(leader.movers(5), follower.movers(5));
        assert_eq!(leader.view_movers("ego", 5), follower.view_movers("ego", 5));
        assert!(next().unwrap().is_none(), "resync consumed exactly");
    }

    #[test]
    fn resync_ships_the_leader_permutation() {
        let mut leader = leader_session(14);
        for round in 0..2u64 {
            let batch = BatchSpec::mixed(0.03, 40 + round).generate(leader.graph());
            leader.step(&batch).unwrap();
        }
        let n = leader.graph().num_vertices() as u32;
        // An arbitrary (reversing) bijection stands in for a real
        // locality reorder — the feed only transports it.
        let perm: Vec<u32> = (0..n).rev().collect();
        let reorder = Some(Arc::new(Reordering::from_perm(perm.clone()).unwrap()));
        let view = leader.reader().view();
        let mut wire = Vec::new();
        write_resync(&mut wire, &view, leader.algorithm(), &reorder).unwrap();
        let text = String::from_utf8(wire).unwrap();
        assert!(
            text.lines().next().unwrap().contains(" perm="),
            "head advertises the permutation"
        );
        let mut lines = text.lines();
        let head = lines.next().unwrap().to_string();
        let mut next = {
            let mut it = lines;
            move || -> Result<Option<String>, &'static str> { Ok(it.next().map(str::to_string)) }
        };
        let (follower, got) = read_resync(&head, opts1(), &mut next).unwrap();
        let got = got.expect("permutation survives the wire");
        assert_eq!(got.perm(), &perm[..]);
        assert_eq!(follower.steps(), leader.steps());
        for (a, b) in leader.ranks().iter().zip(follower.ranks()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert!(next().unwrap().is_none(), "resync consumed exactly");
    }

    #[test]
    fn frames_round_trip_and_apply_bit_exactly() {
        let mut leader = leader_session(12);
        let view = leader.reader().view();
        // Build the follower from an initial resync.
        let mut wire = Vec::new();
        write_resync(&mut wire, &view, leader.algorithm(), &None).unwrap();
        let text = String::from_utf8(wire).unwrap();
        let mut lines = text.lines();
        let head = lines.next().unwrap().to_string();
        let (mut follower, _) = read_resync(&head, opts1(), {
            let mut it = lines;
            move || -> Result<Option<String>, &'static str> { Ok(it.next().map(str::to_string)) }
        })
        .unwrap();

        // Stream three commits and a view lifecycle through frames.
        let t = Teleport::personalized([(5, 1.0)]).unwrap();
        leader.add_view("ego", t.clone()).unwrap();
        let sources = t.weights().unwrap().sources().to_vec();
        let mut events = vec![WalRecord::ViewAdd {
            epoch: leader.steps(),
            name: "ego".into(),
            sources,
        }];
        for round in 0..3u64 {
            let batch = BatchSpec::mixed(0.03, 30 + round).generate(leader.graph());
            leader.step(&batch).unwrap();
            events.push(WalRecord::Commit {
                epoch: leader.steps(),
                batch,
            });
        }
        for rec in &events {
            let mut wire = Vec::new();
            write_feed_event(&mut wire, rec).unwrap();
            let text = String::from_utf8(wire).unwrap();
            let mut lines = text.lines();
            let head = lines.next().unwrap().to_string();
            let frame = read_frame(&head, {
                let mut it = lines;
                move || -> Result<Option<String>, &'static str> {
                    Ok(it.next().map(str::to_string))
                }
            })
            .unwrap()
            .expect("a feed frame");
            assert_eq!(apply_frame(&mut follower, frame), Applied::Ok);
        }
        assert_eq!(follower.steps(), leader.steps());
        for (a, b) in leader.ranks().iter().zip(follower.ranks()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        for (a, b) in leader
            .view_ranks("ego")
            .unwrap()
            .iter()
            .zip(follower.view_ranks("ego").unwrap())
        {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn epoch_gaps_and_duplicates_are_detected() {
        let mut leader = leader_session(13);
        let view = leader.reader().view();
        let mut wire = Vec::new();
        write_resync(&mut wire, &view, leader.algorithm(), &None).unwrap();
        let text = String::from_utf8(wire).unwrap();
        let mut lines = text.lines();
        let head = lines.next().unwrap().to_string();
        let (mut follower, _) = read_resync(&head, opts1(), {
            let mut it = lines;
            move || -> Result<Option<String>, &'static str> { Ok(it.next().map(str::to_string)) }
        })
        .unwrap();
        // Duplicate (epoch 0 again) is a silent skip.
        assert_eq!(
            apply_frame(
                &mut follower,
                Frame::Delta {
                    epoch: 0,
                    batch: BatchUpdate::new()
                }
            ),
            Applied::Ok
        );
        // Jumping to epoch 5 with nothing in between demands a resync.
        match apply_frame(
            &mut follower,
            Frame::Delta {
                epoch: 5,
                batch: BatchUpdate::new(),
            },
        ) {
            Applied::NeedResync(why) => assert!(why.contains("epoch gap"), "{why}"),
            other => panic!("expected resync, got {other:?}"),
        }
    }

    #[test]
    fn follower_gives_up_after_bounded_attempts() {
        // Nothing listens on this port; the follower must fail after
        // max_attempts, not spin forever.
        let mut opts = FollowerOptions::new("127.0.0.1:1");
        opts.max_attempts = 3;
        opts.backoff_base = Duration::from_millis(1);
        opts.backoff_cap = Duration::from_millis(2);
        opts.connect_timeout = Duration::from_millis(200);
        let f = Follower::spawn(opts);
        let err = f.handle.join().unwrap().unwrap_err();
        assert!(err.contains("after 3 attempts"), "{err}");
    }
}
