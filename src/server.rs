//! Event-driven TCP serving: an epoll connection engine in front of the
//! single-writer session, with writer-side commit coalescing.
//!
//! The previous server pinned one blocking OS thread per in-flight
//! connection, so `--workers` capped concurrency at a handful of
//! clients. This version serves thousands of mostly-idle connections
//! from a fixed set of event-loop threads:
//!
//! * **event loops** — each runs a level-triggered [`Poller`] (raw
//!   `epoll(7)` on Linux, `poll(2)` elsewhere; see [`crate::net`]) over
//!   the shared nonblocking listener, a wakeup fd, and its accepted
//!   connections. A connection is a small state machine — reading
//!   request lines, awaiting the writer, or streaming the replica feed
//!   — with bounded read/write buffers. A slow client backpressures
//!   into its own write buffer (reads pause past a high-water mark)
//!   instead of blocking the loop; a follower that cannot keep up is
//!   dropped rather than allowed to wedge everyone else.
//! * **one writer thread** still owns the [`UpdateSession`]. Mutations
//!   arrive as [`WriterRequest`]s whose replies are completion
//!   callbacks: the loop parks the connection, the writer files the
//!   outcome, and an eventfd wakeup resumes it — no polling anywhere.
//!   Per wakeup the writer drains *every* queued request and coalesces
//!   the commits into one merged batch ([`coalesce_batches`]): one
//!   trial-validation per client batch, then a single snapshot
//!   commit, rank refresh, WAL append + fsync, and feed frame for the
//!   whole round. Each accepted client is acked with the merged epoch;
//!   a rejected sub-batch is erred back to its own client (its staged
//!   edits restored) without poisoning the others.
//! * reads never touch the writer: every command answers from the
//!   epoch-published [`RankView`] exactly as before, and subscription
//!   pushes ride the writer's wakeup, so subscribers hear about rank
//!   changes without polling.
//!
//! A client disconnecting mid-request, mid-response, or mid-commit only
//! drops that connection: the fd is deregistered and closed, its
//! subscriptions die with its state, and a commit already queued still
//! applies (the completion for a vanished token is discarded — the
//! outcome is simply unobserved, exactly like the blocking server's
//! reply into a closed socket).

use crate::durable::{Durability, WalStats};
use crate::net::{raise_nofile_limit, Event, Interest, Poller, Waker};
use crate::protocol::{parse_request, Response};
use crate::replica::{record_is_fresh, write_feed_event, write_resync, FeedHub};
use crate::serve::{
    apply_logged, finish_mutation, proactive_push, process, reply, translate_request, Action,
    Backend, CommitOutcome, ConnState, MutKind, ServeSummary, WriterOk, WriterOp, WriterOutcome,
    WriterReply, WriterRequest,
};
use crate::shard::{serve_shard_client_reordered, ShardRouter};
use lfpr_core::session::{RankReader, RankView, UpdateSession};
use lfpr_core::Algorithm;
use lfpr_graph::io::wal::WalRecord;
use lfpr_graph::reorder::SharedReordering;
use lfpr_graph::{BatchUpdate, DynGraph, Edge};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;

#[cfg(unix)]
use std::os::unix::io::{AsRawFd, RawFd};
#[cfg(not(unix))]
type RawFd = i32;

/// Token of the shared listener in every loop's poller.
const LISTENER_TOKEN: u64 = 0;
/// Token of each loop's wakeup fd.
const WAKER_TOKEN: u64 = 1;
/// First connection token; tokens grow monotonically and are never
/// reused, so a stale event or completion for a recycled fd is
/// unroutable instead of an ABA hazard.
const FIRST_CONN_TOKEN: u64 = 2;

/// Poll timeout: wakeups (writer rounds, shutdown) arrive via the
/// waker fd, so this is only a belt-and-braces liveness bound.
const WAIT_MS: i32 = 500;
/// Pause reading from a connection whose pending replies exceed this.
const WBUF_PAUSE: usize = 256 * 1024;
/// Resume reading once pending replies drain below this.
const WBUF_RESUME: usize = 64 * 1024;
/// Drop a follower whose unsent feed exceeds this (a resync of a big
/// graph is legitimately large; unbounded lag is not).
const FOLLOW_CAP: usize = 64 * 1024 * 1024;
/// Kill a connection sending an unbounded line (no protocol line is
/// remotely this long).
const RBUF_CAP: usize = 1024 * 1024;
/// Soft fd-limit target requested at server start (best-effort).
const NOFILE_WANT: u64 = 4096;

/// How [`spawn_with`] shapes the server.
pub struct ServerOptions {
    /// Event-loop thread count (at least 1). Connections cost one fd
    /// each, not one thread: this stays small even for thousands of
    /// mostly-idle clients.
    pub workers: usize,
    /// Write-ahead logging: one append + fsync per merged commit,
    /// log-before-ack for every client in the round.
    pub durable: Option<Durability>,
    /// Client-facing id translation for a reordered session.
    pub reorder: SharedReordering,
    /// Merge all queued commits per writer wakeup into one batch. On
    /// by default; `false` restores one-apply-per-request (for A/B
    /// measurement — `serve_bench --no-coalesce`).
    pub coalesce: bool,
}

impl ServerOptions {
    /// Defaults: `workers` loops, no WAL, no reorder, coalescing on.
    pub fn new(workers: usize) -> ServerOptions {
        ServerOptions {
            workers,
            durable: None,
            reorder: None,
            coalesce: true,
        }
    }
}

/// A running event-driven TCP server (see the module docs for the
/// threading model). Obtained from [`spawn`]; dropped handles leave the
/// threads serving — call [`stop`](Self::stop) for a graceful shutdown
/// or [`wait`](Self::wait) to serve until the process ends.
pub struct TcpServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    loops: Vec<JoinHandle<()>>,
    writer: JoinHandle<UpdateSession>,
    totals: Arc<Mutex<ServeSummary>>,
    feed: FeedHub,
    wakers: Vec<Arc<Waker>>,
}

impl TcpServer {
    /// The bound address (resolves port 0 to the actual port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Aggregate counters across all closed connections so far.
    pub fn totals(&self) -> ServeSummary {
        *self.totals.lock().expect("totals poisoned")
    }

    /// Graceful shutdown: stop the loops (remaining connections are
    /// closed after a best-effort flush), let the writer drain, and
    /// hand back the session plus aggregate counters.
    pub fn stop(self) -> (UpdateSession, ServeSummary) {
        self.stop.store(true, Ordering::Release);
        // Close the feed hub first so followers see end-of-feed, then
        // wake every loop out of its poller wait.
        self.feed.close();
        for w in &self.wakers {
            w.wake();
        }
        for l in self.loops {
            let _ = l.join();
        }
        // The loops held the only writer senders; the writer's recv
        // loop ends, flushes any WAL, and returns the session.
        let session = self.writer.join().expect("writer thread panicked");
        let totals = *self.totals.lock().expect("totals poisoned");
        (session, totals)
    }

    /// Serve until every thread exits — effectively forever, unless
    /// [`stop`](Self::stop) is called or the writer dies (which shuts
    /// the loops down so the exit is visible). Used by the CLI.
    pub fn wait(self) {
        for l in self.loops {
            let _ = l.join();
        }
        if self.writer.join().is_err() {
            eprintln!("# server stopped: writer thread panicked");
        }
    }
}

/// Start serving `listener` with `workers` event loops plus one writer
/// thread owning `session`.
pub fn spawn(
    session: UpdateSession,
    listener: TcpListener,
    workers: usize,
) -> std::io::Result<TcpServer> {
    spawn_with(session, listener, ServerOptions::new(workers))
}

/// [`spawn`] with durability: when `durable` is given, the writer
/// thread logs every committed op to its write-ahead log (and takes
/// periodic checkpoints) before acknowledging, and `stats` reports the
/// log position. With or without a log, committed ops are published to
/// the replica feed so `follow` clients receive them live. When
/// `reorder` is given, every loop translates client-facing vertex ids
/// through it at the protocol boundary, and the feed's resync block
/// ships the permutation so followers can do the same.
pub fn spawn_durable(
    session: UpdateSession,
    listener: TcpListener,
    workers: usize,
    durable: Option<Durability>,
    reorder: SharedReordering,
) -> std::io::Result<TcpServer> {
    spawn_with(
        session,
        listener,
        ServerOptions {
            workers,
            durable,
            reorder,
            coalesce: true,
        },
    )
}

/// Start serving `listener` as configured by `opts`.
pub fn spawn_with(
    mut session: UpdateSession,
    listener: TcpListener,
    opts: ServerOptions,
) -> std::io::Result<TcpServer> {
    let ServerOptions {
        workers,
        durable,
        reorder,
        coalesce,
    } = opts;
    let addr = listener.local_addr()?;
    listener.set_nonblocking(true)?;
    // Connections cost one fd each; make room for the advertised scale.
    raise_nofile_limit(NOFILE_WANT);
    let algorithm = session.algorithm();
    // Creating the reader turns on epoch publication; every commit from
    // here on is visible to the loops.
    let reader = session.reader();
    let (tx, rx) = mpsc::channel::<WriterRequest>();
    let stop = Arc::new(AtomicBool::new(false));
    let feed = FeedHub::new();
    let wal: Option<Arc<WalStats>> = durable.as_ref().map(|d| d.stats_handle());
    let n_loops = workers.max(1);

    // Pollers and wakeup fds exist before any thread starts: the writer
    // wakes every loop after each drain round, and shutdown wakes them
    // out of `wait`.
    let mut wakers = Vec::with_capacity(n_loops);
    let mut pollers = Vec::with_capacity(n_loops);
    for _ in 0..n_loops {
        let waker = Arc::new(Waker::new()?);
        let mut poller = Poller::new()?;
        poller.add(sock_fd(&listener), LISTENER_TOKEN, Interest::READ)?;
        poller.add(waker.fd(), WAKER_TOKEN, Interest::READ)?;
        wakers.push(waker);
        pollers.push(poller);
    }

    let writer = {
        // If the writer dies (a kernel panic propagated out of
        // `session.step`), the server must not keep serving stale reads
        // while every commit fails — shut the loops down and let
        // `wait`/`stop` surface the panic instead.
        let stop = Arc::clone(&stop);
        let feed = feed.clone();
        let wakers = wakers.clone();
        std::thread::Builder::new()
            .name("lfpr-writer".into())
            .spawn(move || {
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    writer_loop(session, rx, durable, &feed, coalesce, &wakers)
                }));
                match result {
                    Ok(session) => session,
                    Err(panic) => {
                        eprintln!("# writer thread panicked; stopping the server");
                        stop.store(true, Ordering::Release);
                        feed.close();
                        for w in &wakers {
                            w.wake();
                        }
                        std::panic::resume_unwind(panic)
                    }
                }
            })?
    };
    let totals = Arc::new(Mutex::new(ServeSummary::default()));
    let listener = Arc::new(listener);
    let loops = pollers
        .into_iter()
        .enumerate()
        .map(|(id, poller)| {
            let ctx = LoopCtx {
                id,
                listener: Arc::clone(&listener),
                stop: Arc::clone(&stop),
                reader: reader.clone(),
                writer_tx: tx.clone(),
                algorithm,
                totals: Arc::clone(&totals),
                feed: feed.clone(),
                wal: wal.clone(),
                reorder: reorder.clone(),
                waker: Arc::clone(&wakers[id]),
                completions: Arc::new(Mutex::new(Vec::new())),
            };
            std::thread::Builder::new()
                .name(format!("lfpr-loop-{id}"))
                .spawn(move || event_loop(ctx, poller))
        })
        .collect::<std::io::Result<Vec<_>>>()?;
    // The loops hold the only remaining senders; dropping ours lets the
    // writer exit as soon as the last loop does.
    drop(tx);
    Ok(TcpServer {
        addr,
        stop,
        loops,
        writer,
        totals,
        feed,
        wakers,
    })
}

#[cfg(unix)]
fn sock_fd<T: AsRawFd>(s: &T) -> RawFd {
    s.as_raw_fd()
}
#[cfg(not(unix))]
fn sock_fd<T>(_: &T) -> RawFd {
    // Unreachable in practice: `Poller::new` fails first on non-Unix.
    -1
}

/// Outcomes the writer filed for this loop's parked connections,
/// keyed by connection token. Filed *before* the writer's wakeup, so a
/// loop that drains its waker and then takes this list never misses one.
type Completions = Arc<Mutex<Vec<(u64, WriterOutcome)>>>;

/// Everything one event loop needs, owned per loop (clones of shared
/// handles; no locks on the hot path except the completion list).
struct LoopCtx {
    id: usize,
    listener: Arc<TcpListener>,
    stop: Arc<AtomicBool>,
    reader: RankReader,
    writer_tx: mpsc::Sender<WriterRequest>,
    algorithm: Algorithm,
    totals: Arc<Mutex<ServeSummary>>,
    feed: FeedHub,
    wal: Option<Arc<WalStats>>,
    reorder: SharedReordering,
    waker: Arc<Waker>,
    completions: Completions,
}

/// What a connection is doing between readiness events.
enum Phase {
    /// Parsing and answering request lines.
    Ready,
    /// A mutation is queued at the writer; parsing is parked until the
    /// completion arrives (the context for its reply rides along).
    AwaitingWriter(MutKind),
    /// One-way replica feed: frames from the hub, input discarded.
    Following {
        rx: mpsc::Receiver<Arc<WalRecord>>,
        pinned: Arc<RankView>,
    },
}

/// Why a connection left the map (for the close log).
enum Fate {
    Alive,
    /// Orderly end: EOF after `quit`, or the feed ended.
    Closed,
    /// Socket error / protocol abuse / hopeless lag.
    Dropped(String),
}

/// One nonblocking connection and its protocol state machine.
struct Conn {
    stream: TcpStream,
    fd: RawFd,
    token: u64,
    state: ConnState,
    phase: Phase,
    summary: ServeSummary,
    /// Unparsed request bytes (bounded by [`RBUF_CAP`]).
    rbuf: Vec<u8>,
    /// Buffered replies; `wbuf[wpos..]` is not yet on the wire.
    wbuf: Vec<u8>,
    wpos: usize,
    /// Drain `wbuf` and close (set by `quit` and by client EOF).
    closing: bool,
    /// Reads paused by write-buffer backpressure (hysteresis between
    /// [`WBUF_PAUSE`] and [`WBUF_RESUME`]).
    paused: bool,
    /// Interest currently registered with the poller.
    interest: Interest,
    fate: Fate,
}

impl Conn {
    fn new(stream: TcpStream, token: u64) -> Conn {
        let fd = sock_fd(&stream);
        Conn {
            stream,
            fd,
            token,
            state: ConnState::default(),
            phase: Phase::Ready,
            summary: ServeSummary::default(),
            rbuf: Vec::new(),
            wbuf: Vec::new(),
            wpos: 0,
            closing: false,
            paused: false,
            interest: Interest::READ,
            fate: Fate::Alive,
        }
    }

    /// Reply bytes not yet written to the socket.
    fn pending(&self) -> usize {
        self.wbuf.len() - self.wpos
    }

    fn alive(&self) -> bool {
        matches!(self.fate, Fate::Alive)
    }

    /// Read until `WouldBlock`/EOF, then run the state machine over any
    /// complete lines.
    fn pump_read(&mut self, backend: &mut Backend<'_>, ctx: &LoopCtx) {
        let mut chunk = [0u8; 16 * 1024];
        let mut eof = false;
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    eof = true;
                    break;
                }
                Ok(n) => {
                    if matches!(self.phase, Phase::Following { .. }) || self.closing {
                        continue; // one-way feed / post-quit: discard
                    }
                    self.rbuf.extend_from_slice(&chunk[..n]);
                    if self.rbuf.len() > RBUF_CAP {
                        self.fate = Fate::Dropped("request line over 1 MiB".into());
                        return;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    self.fate = Fate::Dropped(e.to_string());
                    return;
                }
            }
        }
        self.parse_lines(backend, ctx);
        if eof {
            // The client's send side is done. Any buffered replies are
            // still flushed (half-close); then the connection ends. A
            // mutation already queued at the writer applies regardless —
            // its completion will find this token gone and be discarded.
            self.closing = true;
        }
    }

    /// Run the protocol over every complete line in `rbuf` while the
    /// connection is ready for commands.
    fn parse_lines(&mut self, backend: &mut Backend<'_>, ctx: &LoopCtx) {
        loop {
            if !self.alive() || self.closing || !matches!(self.phase, Phase::Ready) {
                if matches!(self.phase, Phase::Following { .. }) {
                    self.rbuf.clear();
                }
                return;
            }
            let Some(pos) = self.rbuf.iter().position(|&b| b == b'\n') else {
                return;
            };
            let raw: Vec<u8> = self.rbuf.drain(..=pos).collect();
            let line = match std::str::from_utf8(&raw[..pos]) {
                Ok(s) => s.trim_end_matches('\r').to_string(),
                Err(_) => {
                    // The blocking loop's `lines()` also erred the
                    // connection on invalid UTF-8.
                    self.fate = Fate::Dropped("invalid utf-8 in request".into());
                    return;
                }
            };
            self.handle_line(&line, backend, ctx);
        }
    }

    /// One request line through the shared protocol core.
    fn handle_line(&mut self, line: &str, backend: &mut Backend<'_>, ctx: &LoopCtx) {
        let Some(parsed) = parse_request(line) else {
            return; // blank or comment: no command, no reply
        };
        self.summary.commands += 1;
        let outcome: std::io::Result<()> = match parsed {
            Err(e) => reply(&mut self.wbuf, &ctx.reorder, &Response::Error(e)),
            Ok(req) => {
                let req = match &ctx.reorder {
                    Some(r) => translate_request(req, r),
                    None => req,
                };
                match process(
                    backend,
                    &ctx.reorder,
                    &mut self.state,
                    &mut self.summary,
                    req,
                    &mut self.wbuf,
                ) {
                    Ok(Action::Done) => Ok(()),
                    Ok(Action::Quit) => {
                        self.closing = true;
                        Ok(())
                    }
                    Ok(Action::Follow { since }) => self.begin_follow(since, ctx),
                    Ok(Action::Mutate { op, kind }) => self.submit_mutation(op, kind, ctx),
                    Err(e) => Err(e),
                }
            }
        };
        if let Err(e) = outcome {
            self.fate = Fate::Dropped(e.to_string());
        }
    }

    /// Park the connection and queue the op at the writer. The reply is
    /// a callback that files the outcome on this loop's completion list
    /// — without waking; the writer wakes every loop once per round,
    /// after all of the round's outcomes are filed.
    fn submit_mutation(
        &mut self,
        op: WriterOp,
        kind: MutKind,
        ctx: &LoopCtx,
    ) -> std::io::Result<()> {
        let token = self.token;
        let completions = Arc::clone(&ctx.completions);
        let req = WriterRequest {
            op,
            reply: WriterReply::Callback(Box::new(move |outcome| {
                completions
                    .lock()
                    .expect("completions poisoned")
                    .push((token, outcome));
            })),
        };
        match ctx.writer_tx.send(req) {
            Ok(()) => {
                self.phase = Phase::AwaitingWriter(kind);
                Ok(())
            }
            // Writer gone: answer inline so the client hears the truth.
            Err(e) => {
                let resp = finish_mutation(
                    kind,
                    Err((e.0.op, "server shutting down".into())),
                    &mut self.state,
                    &mut self.summary,
                );
                reply(&mut self.wbuf, &ctx.reorder, &resp)
            }
        }
    }

    /// Switch to the one-way replica feed (`follow`). Mirrors
    /// [`crate::replica::stream_feed`]: subscribe *before* pinning, so
    /// no mutation can fall between the snapshot and the stream.
    fn begin_follow(&mut self, since: Option<u64>, ctx: &LoopCtx) -> std::io::Result<()> {
        let rx = ctx.feed.subscribe();
        let pinned = ctx.reader.view();
        if since == Some(pinned.epoch()) {
            writeln!(self.wbuf, "feed ok epoch={}", pinned.epoch())?;
        } else {
            write_resync(&mut self.wbuf, &pinned, ctx.algorithm, &ctx.reorder)?;
        }
        self.rbuf.clear();
        self.phase = Phase::Following { rx, pinned };
        Ok(())
    }

    /// The writer resolved this connection's parked mutation: write the
    /// reply and resume parsing anything queued behind it.
    fn finish_writer(&mut self, outcome: WriterOutcome, backend: &mut Backend<'_>, ctx: &LoopCtx) {
        let phase = std::mem::replace(&mut self.phase, Phase::Ready);
        let Phase::AwaitingWriter(kind) = phase else {
            self.phase = phase;
            return;
        };
        let resp = finish_mutation(kind, outcome, &mut self.state, &mut self.summary);
        if let Err(e) = reply(&mut self.wbuf, &ctx.reorder, &resp) {
            self.fate = Fate::Dropped(e.to_string());
            return;
        }
        self.parse_lines(backend, ctx);
    }

    /// Move fresh feed frames from the hub queue into the write buffer.
    fn pump_feed(&mut self) {
        let Phase::Following { rx, pinned } = &self.phase else {
            return;
        };
        loop {
            if self.wbuf.len() - self.wpos > FOLLOW_CAP {
                self.fate = Fate::Dropped("follower too far behind; dropping".into());
                return;
            }
            match rx.try_recv() {
                Ok(rec) => {
                    if record_is_fresh(&rec, pinned) {
                        let _ = write_feed_event(&mut self.wbuf, &rec);
                    }
                }
                Err(mpsc::TryRecvError::Empty) => return,
                Err(mpsc::TryRecvError::Disconnected) => {
                    // Hub closed (shutdown): finish the flush, then end.
                    self.closing = true;
                    return;
                }
            }
        }
    }

    /// Write buffered replies until done or `WouldBlock`.
    fn flush(&mut self) {
        while self.wpos < self.wbuf.len() {
            match self.stream.write(&self.wbuf[self.wpos..]) {
                Ok(0) => {
                    self.fate = Fate::Dropped("write returned 0".into());
                    return;
                }
                Ok(n) => self.wpos += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    self.fate = Fate::Dropped(e.to_string());
                    return;
                }
            }
        }
        if self.wpos == self.wbuf.len() {
            self.wbuf.clear();
            self.wpos = 0;
        } else if self.wpos > WBUF_RESUME {
            // Bound memory: reclaim the already-written prefix.
            self.wbuf.drain(..self.wpos);
            self.wpos = 0;
        }
    }

    /// Recompute backpressure and poller interest after I/O.
    fn update_interest(&mut self, poller: &mut Poller) {
        let pending = self.pending();
        if pending > WBUF_PAUSE {
            self.paused = true;
        } else if pending < WBUF_RESUME {
            self.paused = false;
        }
        let want = Interest {
            readable: !self.paused,
            writable: pending > 0,
        };
        if want != self.interest && poller.modify(self.fd, self.token, want).is_ok() {
            self.interest = want;
        }
    }
}

/// One event loop: accept, read, execute, flush — never block on a
/// client. See the module docs for the per-wakeup processing order
/// (waker, completions, feed, pushes, socket events), which makes a
/// writer round's acks visible before the pushes it caused.
fn event_loop(ctx: LoopCtx, mut poller: Poller) {
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut next_token = FIRST_CONN_TOKEN;
    let mut events: Vec<Event> = Vec::with_capacity(64);
    let mut touched: Vec<u64> = Vec::new();
    let mut backend = Backend::Concurrent {
        reader: ctx.reader.clone(),
        writer: ctx.writer_tx.clone(),
        algorithm: ctx.algorithm,
        feed: ctx.feed.clone(),
        wal: ctx.wal.clone(),
    };
    loop {
        events.clear();
        touched.clear();
        if let Err(e) = poller.wait(&mut events, WAIT_MS) {
            eprintln!("# loop {}: poll error: {e}", ctx.id);
        }
        if ctx.stop.load(Ordering::Acquire) {
            break;
        }
        // 1. Drain the waker *before* taking completions: the writer
        //    files outcomes first and wakes second, so anything we miss
        //    here re-wakes the next iteration.
        let woken = events.iter().any(|e| e.token == WAKER_TOKEN);
        if woken {
            ctx.waker.drain();
        }

        // 2. Writer completions: finish parked mutations.
        let done: Vec<(u64, WriterOutcome)> =
            std::mem::take(&mut *ctx.completions.lock().expect("completions poisoned"));
        let round_ended = woken || !done.is_empty();
        for (token, outcome) in done {
            // A vanished token is a client that disconnected mid-commit:
            // the op applied (or erred) at the writer; nobody is left to
            // care about the outcome.
            if let Some(conn) = conns.get_mut(&token) {
                conn.finish_writer(outcome, &mut backend, &ctx);
                touched.push(token);
            }
        }

        // 3 & 4. Feed frames and proactive pushes. New frames and new
        // epochs only exist after a writer round, so the full scan runs
        // only on its wakeup — a loop busy with idle readers never pays
        // a per-connection cost for them.
        if round_ended {
            let mut pushed_view: Option<Arc<RankView>> = None;
            for (token, conn) in conns.iter_mut() {
                if !conn.alive() {
                    continue;
                }
                if matches!(conn.phase, Phase::Following { .. }) {
                    conn.pump_feed();
                    touched.push(*token);
                    continue;
                }
                // Idle, subscribed, command-phase connections hear about
                // the new epoch without polling. One published-view load
                // serves the whole scan.
                let idle = !conn.closing
                    && matches!(conn.phase, Phase::Ready)
                    && conn.rbuf.is_empty()
                    && conn.state.has_subs();
                if !idle {
                    continue;
                }
                let view = pushed_view.get_or_insert_with(|| ctx.reader.view()).clone();
                let _ = proactive_push(
                    &mut conn.state,
                    &ctx.reorder,
                    view,
                    &mut conn.summary,
                    &mut conn.wbuf,
                );
                touched.push(*token);
            }
        }

        // 5. Socket readiness.
        for ev in &events {
            match ev.token {
                LISTENER_TOKEN => {
                    accept_burst(&ctx, &mut poller, &mut conns, &mut next_token);
                }
                WAKER_TOKEN => {}
                token => {
                    if let Some(conn) = conns.get_mut(&token) {
                        if conn.alive() && (ev.readable || ev.hangup) {
                            conn.pump_read(&mut backend, &ctx);
                        }
                        touched.push(token);
                    }
                }
            }
        }

        // 6. Flush, update interest, reap — only for connections that
        // saw any action this iteration (a parked crowd costs nothing).
        touched.sort_unstable();
        touched.dedup();
        for token in touched.drain(..) {
            let Some(conn) = conns.get_mut(&token) else {
                continue;
            };
            if conn.alive() {
                conn.flush();
            }
            if conn.alive() && conn.closing && conn.pending() == 0 {
                conn.fate = Fate::Closed;
            }
            match &conn.fate {
                Fate::Alive => conn.update_interest(&mut poller),
                fate => {
                    if let Fate::Dropped(why) = fate {
                        eprintln!("# loop {}: client dropped: {why}", ctx.id);
                    } else {
                        eprintln!(
                            "# loop {}: connection closed: {} commands, {} batches",
                            ctx.id, conn.summary.commands, conn.summary.batches
                        );
                    }
                    let _ = poller.delete(conn.fd);
                    let conn = conns.remove(&token).expect("present above");
                    ctx.totals
                        .lock()
                        .expect("totals poisoned")
                        .absorb(conn.summary);
                }
            }
        }
    }
    // Shutdown: account for whatever is still connected (sockets close
    // on drop; a parked commit still applies at the writer).
    for (_, conn) in conns.drain() {
        ctx.totals
            .lock()
            .expect("totals poisoned")
            .absorb(conn.summary);
    }
}

/// Accept until `WouldBlock` (all loops share the listener; losers of
/// an accept race simply see `WouldBlock`).
fn accept_burst(
    ctx: &LoopCtx,
    poller: &mut Poller,
    conns: &mut HashMap<u64, Conn>,
    next_token: &mut u64,
) {
    loop {
        match ctx.listener.accept() {
            Ok((stream, peer)) => {
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                let _ = stream.set_nodelay(true);
                let token = *next_token;
                *next_token += 1;
                let conn = Conn::new(stream, token);
                if let Err(e) = poller.add(conn.fd, token, Interest::READ) {
                    eprintln!("# loop {}: register {peer} failed: {e}", ctx.id);
                    continue;
                }
                eprintln!("# loop {}: connection from {peer}", ctx.id);
                conns.insert(token, conn);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) => {
                // A persistent failure (EMFILE under fd exhaustion) must
                // not busy-spin: level-triggered epoll re-reports the
                // pending connection after the pause.
                eprintln!("# loop {}: accept error: {e}", ctx.id);
                std::thread::sleep(std::time::Duration::from_millis(25));
                break;
            }
        }
    }
}

/// Merge client batches (in arrival order) into one net batch,
/// trial-validating each against the graph plus the already-merged
/// overlay with exactly [`DynGraph::validate_batch`]'s checks and error
/// texts. Returns the merged batch and one verdict per input; a
/// rejected input leaves the overlay untouched, so it cannot poison the
/// batches after it. Cancelling pairs across clients (one deletes what
/// another inserted) annihilate, mirroring [`crate::MutGuard`] — the
/// merged batch is the *net* effect, in first-occurrence order, and is
/// guaranteed valid against the graph.
pub fn coalesce_batches<'a>(
    graph: &DynGraph,
    batches: impl IntoIterator<Item = &'a BatchUpdate>,
) -> (BatchUpdate, Vec<Result<(), String>>) {
    // Effective edge presence under the graph ⊕ overlay composition.
    fn eff(graph: &DynGraph, net: &BatchUpdate, u: u32, v: u32) -> bool {
        if net.deletions.contains(&(u, v)) {
            return false;
        }
        if net.insertions.contains(&(u, v)) {
            return true;
        }
        graph.has_edge(u, v)
    }
    let n = graph.num_vertices();
    let mut net = BatchUpdate::new();
    let mut verdicts = Vec::new();
    'batches: for batch in batches {
        // (a) range-check every edge — same order, same text as
        // `validate_batch`.
        for (u, v) in batch.iter_all() {
            for id in [u, v] {
                if id as usize >= n {
                    verdicts.push(Err(format!("vertex {id} out of range (n = {n})")));
                    continue 'batches;
                }
            }
        }
        // (b) deletions must hit a present edge, once.
        let mut dels: std::collections::HashSet<Edge> =
            std::collections::HashSet::with_capacity(batch.deletions.len());
        for &(u, v) in &batch.deletions {
            if !eff(graph, &net, u, v) || !dels.insert((u, v)) {
                verdicts.push(Err(format!("edge ({u}, {v}) does not exist")));
                continue 'batches;
            }
        }
        // (c) insertions must hit a vacant (or just-deleted) slot, once.
        let mut ins: std::collections::HashSet<Edge> =
            std::collections::HashSet::with_capacity(batch.insertions.len());
        for &(u, v) in &batch.insertions {
            let vacant = !eff(graph, &net, u, v) || dels.contains(&(u, v));
            if !vacant || !ins.insert((u, v)) {
                verdicts.push(Err(format!("edge ({u}, {v}) already exists")));
                continue 'batches;
            }
        }
        // Accepted: fold into the overlay, deletions first (the order
        // `apply_batch` uses), cancelling across clients as MutGuard
        // does within one.
        for &e in &batch.deletions {
            if let Some(pos) = net.insertions.iter().position(|&x| x == e) {
                net.insertions.remove(pos);
            } else {
                net.deletions.push(e);
            }
        }
        for &e in &batch.insertions {
            if let Some(pos) = net.deletions.iter().position(|&x| x == e) {
                net.deletions.remove(pos);
            } else {
                net.insertions.push(e);
            }
        }
        verdicts.push(Ok(()));
    }
    (net, verdicts)
}

/// Apply one coalesced writer round outside a running server — exactly
/// the writer thread's commit path (`flush_commits`), with each
/// outcome collected in input order. `batches` of length 1 take the
/// uncoalesced singleton path; more merge through [`coalesce_batches`]
/// into one apply (one WAL append + fsync when `durable` is live, one
/// feed frame when `feed` is given). The main consumer is tests that
/// need a deterministic round — the server itself groups rounds by
/// arrival timing.
pub fn apply_coalesced(
    session: &mut UpdateSession,
    durable: &mut Option<Durability>,
    feed: Option<&FeedHub>,
    batches: Vec<BatchUpdate>,
) -> Vec<Result<CommitOutcome, String>> {
    let own_feed;
    let feed = match feed {
        Some(f) => f,
        None => {
            own_feed = FeedHub::new();
            &own_feed
        }
    };
    let mut replies = Vec::with_capacity(batches.len());
    let mut commits = Vec::with_capacity(batches.len());
    for batch in batches {
        let (tx, rx) = mpsc::sync_channel(1);
        replies.push(rx);
        commits.push((batch, WriterReply::Sync(tx)));
    }
    flush_commits(session, durable, feed, &mut commits);
    replies
        .into_iter()
        .map(
            |rx| match rx.recv().expect("every batch in the round is answered") {
                Ok(WriterOk::Committed(o)) => Ok(o),
                Ok(_) => unreachable!("commit answered with a non-commit outcome"),
                Err((_, msg)) => Err(msg),
            },
        )
        .collect()
}

/// The single writer: drains every queued request per wakeup, merges
/// the commits into one batch, applies it (publish → WAL append +
/// fsync → feed → ack, preserving log-before-ack for every client in
/// the round), answers each requester through its reply path, and then
/// wakes every event loop exactly once. View ops are barriers: the
/// merged prefix flushes first, so arrival order is preserved. When the
/// last loop hangs up, any log is flushed and fsynced before the
/// session is handed back: a graceful stop never loses an acked commit.
fn writer_loop(
    mut session: UpdateSession,
    rx: mpsc::Receiver<WriterRequest>,
    mut durable: Option<Durability>,
    feed: &FeedHub,
    coalesce: bool,
    wakers: &[Arc<Waker>],
) -> UpdateSession {
    while let Ok(first) = rx.recv() {
        let mut round = vec![first];
        if coalesce {
            // Everything queued while the previous round was applying
            // lands in this one — under commit pressure, k clients cost
            // one snapshot commit + one refresh + one fsync instead of k.
            while let Ok(more) = rx.try_recv() {
                round.push(more);
            }
        }
        let mut commits: Vec<(BatchUpdate, WriterReply)> = Vec::new();
        for req in round {
            match req.op {
                WriterOp::Commit(batch) => commits.push((batch, req.reply)),
                op => {
                    flush_commits(&mut session, &mut durable, feed, &mut commits);
                    let outcome = apply_logged(&mut session, durable.as_mut(), Some(feed), op);
                    req.reply.deliver(outcome);
                }
            }
        }
        flush_commits(&mut session, &mut durable, feed, &mut commits);
        // Wake after the whole round: every loop sees its completions
        // (acks) and only then the pushes the new epoch caused.
        for w in wakers {
            w.wake();
        }
    }
    if let Some(d) = durable.as_mut() {
        if let Err(e) = d.flush_sync() {
            eprintln!("# shutdown: wal flush failed: {e}");
        }
    }
    session
}

/// Apply the round's accumulated commits: the singleton path is
/// byte-identical to the uncoalesced server (same validation, same WAL
/// record, same feed frame); two or more merge through
/// [`coalesce_batches`] into one apply, with every accepted client
/// acked the merged outcome and every rejected one erred with its own
/// batch handed back.
fn flush_commits(
    session: &mut UpdateSession,
    durable: &mut Option<Durability>,
    feed: &FeedHub,
    commits: &mut Vec<(BatchUpdate, WriterReply)>,
) {
    match commits.len() {
        0 => {}
        1 => {
            let (batch, reply) = commits.pop().expect("len checked");
            let outcome = apply_logged(
                session,
                durable.as_mut(),
                Some(feed),
                WriterOp::Commit(batch),
            );
            reply.deliver(outcome);
        }
        _ => {
            let round: Vec<(BatchUpdate, WriterReply)> = std::mem::take(commits);
            // A wedged WAL refuses every sub-batch up front, exactly as
            // it would refuse each applied sequentially.
            if let Some(msg) = durable.as_ref().and_then(|d| d.wedged_reason()) {
                let msg = format!("wal unavailable: {msg}");
                for (batch, reply) in round {
                    reply.deliver(Err((WriterOp::Commit(batch), msg.clone())));
                }
                return;
            }
            let (net, verdicts) = coalesce_batches(session.graph(), round.iter().map(|(b, _)| b));
            let accepted = verdicts.iter().filter(|v| v.is_ok()).count();
            if accepted == 0 {
                for ((batch, reply), verdict) in round.into_iter().zip(verdicts) {
                    let msg = verdict.expect_err("no batch accepted");
                    reply.deliver(Err((WriterOp::Commit(batch), msg)));
                }
                return;
            }
            eprintln!(
                "# coalesced {} client batches ({} accepted) into {} net updates",
                round.len(),
                accepted,
                net.len()
            );
            // One apply even when cancellation emptied the net batch:
            // the epoch still advances, once, and every accepted client
            // acks against it — indistinguishable from an empty `batch`.
            match apply_logged(session, durable.as_mut(), Some(feed), WriterOp::Commit(net)) {
                Ok(WriterOk::Committed(o)) => {
                    for ((batch, reply), verdict) in round.into_iter().zip(verdicts) {
                        match verdict {
                            Ok(()) => {
                                drop(batch); // folded into the net commit
                                reply.deliver(Ok(WriterOk::Committed(o)));
                            }
                            Err(msg) => reply.deliver(Err((WriterOp::Commit(batch), msg))),
                        }
                    }
                }
                Ok(_) => unreachable!("commit answered with a non-commit outcome"),
                // Pre-validated, so this is the store (or a WAL refusal
                // racing in): every client hears the truth, with its own
                // batch back so staged edits survive.
                Err((_, msg)) => {
                    for ((batch, reply), verdict) in round.into_iter().zip(verdicts) {
                        let m = match verdict {
                            Ok(()) => msg.clone(),
                            Err(own) => own,
                        };
                        reply.deliver(Err((WriterOp::Commit(batch), m)));
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Sharded TCP serving
// ---------------------------------------------------------------------------

/// A running sharded TCP server: a [`ShardRouter`] behind a
/// thread-per-connection accept loop.
///
/// The sharded tier keeps the simple blocking model rather than the
/// event engine above: a scatter/gather commit blocks its connection on
/// N writer round trips anyway, and the sharded surface targets
/// few-client/high-commit-pressure workloads where per-connection
/// threads cost nothing. The event loops' single `writer` channel has
/// no sharded analogue — each shard owns its own writer inside the
/// router.
pub struct ShardServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: JoinHandle<()>,
    router: Arc<ShardRouter>,
    totals: Arc<Mutex<ServeSummary>>,
}

impl ShardServer {
    /// The bound address (useful with an ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Graceful shutdown: stop accepting, wait for the open
    /// connections to drain, stop every shard writer, and hand back
    /// the shard sessions plus aggregate counters.
    pub fn stop(self) -> (Vec<UpdateSession>, ServeSummary) {
        self.stop.store(true, Ordering::Release);
        let _ = self.accept.join();
        let totals = *self.totals.lock().expect("totals poisoned");
        let router = Arc::try_unwrap(self.router)
            .ok()
            .expect("a connection thread still holds the router");
        (router.shutdown(), totals)
    }

    /// Serve until the accept loop exits — effectively forever. Used
    /// by the CLI.
    pub fn wait(self) {
        let _ = self.accept.join();
    }
}

/// Start serving `listener` with one connection thread per client, all
/// routing through `router`. A reordered router (partition computed
/// jointly with the load-time renumbering) passes its `reorder` so the
/// wire keeps speaking external ids.
pub fn spawn_sharded(
    router: ShardRouter,
    reorder: SharedReordering,
    listener: TcpListener,
) -> std::io::Result<ShardServer> {
    let addr = listener.local_addr()?;
    listener.set_nonblocking(true)?;
    let router = Arc::new(router);
    let stop = Arc::new(AtomicBool::new(false));
    let totals = Arc::new(Mutex::new(ServeSummary::default()));
    let accept = {
        let router = Arc::clone(&router);
        let stop = Arc::clone(&stop);
        let totals = Arc::clone(&totals);
        std::thread::Builder::new()
            .name("shard-accept".into())
            .spawn(move || {
                let mut conns: Vec<JoinHandle<()>> = Vec::new();
                while !stop.load(Ordering::Acquire) {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            let _ = stream.set_nodelay(true);
                            let _ = stream.set_nonblocking(false);
                            let router = Arc::clone(&router);
                            let totals = Arc::clone(&totals);
                            let reorder = reorder.clone();
                            let conn = std::thread::spawn(move || {
                                let Ok(rd) = stream.try_clone() else {
                                    return;
                                };
                                let rd = std::io::BufReader::new(rd);
                                let wr = std::io::BufWriter::new(stream);
                                if let Ok(sum) =
                                    serve_shard_client_reordered(&router, &reorder, rd, wr)
                                {
                                    totals.lock().expect("totals poisoned").absorb(sum);
                                }
                            });
                            conns.push(conn);
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            // Finished connections are reaped here so a
                            // long-lived server does not accumulate
                            // handles; a finished thread's handle can be
                            // dropped without joining.
                            conns.retain(|h| !h.is_finished());
                            std::thread::sleep(std::time::Duration::from_millis(2));
                        }
                        Err(_) => break,
                    }
                }
                // Drain: connected clients finish their sessions before
                // the router (and its Arc references) are released.
                for h in conns {
                    let _ = h.join();
                }
            })?
    };
    Ok(ShardServer {
        addr,
        stop,
        accept,
        router,
        totals,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lfpr_core::PagerankOptions;
    use lfpr_graph::selfloops::add_self_loops;
    use lfpr_graph::GraphBuilder;
    use std::io::{BufRead, BufReader, Write};
    use std::time::Duration;

    fn session() -> UpdateSession {
        let mut g = GraphBuilder::new(6)
            .edges([
                (0, 1),
                (1, 2),
                (2, 0),
                (2, 3),
                (3, 4),
                (4, 0),
                (4, 5),
                (5, 0),
            ])
            .build_dyn()
            .unwrap();
        add_self_loops(&mut g);
        UpdateSession::new(
            g,
            Algorithm::DfLF,
            PagerankOptions::default().with_threads(1),
        )
    }

    fn start(workers: usize) -> TcpServer {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        spawn(session(), listener, workers).unwrap()
    }

    struct Client {
        conn: TcpStream,
        input: BufReader<TcpStream>,
    }

    impl Client {
        fn connect(addr: SocketAddr) -> Client {
            let conn = TcpStream::connect(addr).unwrap();
            conn.set_read_timeout(Some(Duration::from_secs(30)))
                .unwrap();
            let input = BufReader::new(conn.try_clone().unwrap());
            Client { conn, input }
        }

        fn send(&mut self, cmd: &str) {
            writeln!(self.conn, "{cmd}").unwrap();
        }

        fn recv_line(&mut self) -> String {
            let mut line = String::new();
            self.input.read_line(&mut line).unwrap();
            line.trim_end().to_string()
        }

        fn roundtrip(&mut self, cmd: &str) -> String {
            self.send(cmd);
            self.recv_line()
        }
    }

    #[test]
    fn two_clients_see_each_others_commits() {
        let server = start(2);
        let mut a = Client::connect(server.addr());
        let mut b = Client::connect(server.addr());
        assert!(a.roundtrip("stats").contains("epoch=0"));
        assert!(b.roundtrip("rank 1").ends_with("epoch=0"));
        // A commits; B's next read answers from the new epoch.
        assert_eq!(a.roundtrip("insert 3 1"), "staged 1");
        let ok = a.roundtrip("batch");
        assert!(ok.starts_with("ok batch=1"), "{ok}");
        assert!(ok.ends_with("epoch=1"), "{ok}");
        assert!(b.roundtrip("rank 1").ends_with("epoch=1"));
        assert_eq!(a.roundtrip("quit"), "bye");
        assert_eq!(b.roundtrip("quit"), "bye");
        let (session, totals) = server.stop();
        assert_eq!(session.steps(), 1);
        assert_eq!(totals.batches, 1);
        assert_eq!(totals.commands, 7);
    }

    #[test]
    fn conflicting_commit_is_rejected_not_fatal() {
        let server = start(2);
        let mut a = Client::connect(server.addr());
        let mut b = Client::connect(server.addr());
        // Both stage the same insertion against epoch 0.
        assert_eq!(a.roundtrip("insert 3 1"), "staged 1");
        assert_eq!(b.roundtrip("insert 3 1"), "staged 1");
        assert!(a.roundtrip("batch").starts_with("ok batch=1"));
        // B's commit now duplicates an existing edge: rejected, and the
        // connection (plus the server) lives on — with B's staged edits
        // restored for inspection.
        let reply = b.roundtrip("batch");
        assert!(reply.starts_with("err batch rejected"), "{reply}");
        let stats = b.roundtrip("stats");
        assert!(stats.contains("staged=1"), "staged edits lost: {stats}");
        assert!(stats.contains("epoch=1"));
        // B can repair the staged set and commit cleanly.
        assert_eq!(b.roundtrip("delete 3 1"), "staged 0");
        assert_eq!(b.roundtrip("insert 0 2"), "staged 1");
        assert!(b.roundtrip("batch").starts_with("ok batch=1"));
        drop(a);
        drop(b);
        let (session, _) = server.stop();
        assert_eq!(session.steps(), 2);
    }

    #[test]
    fn mid_line_disconnect_leaves_server_serving() {
        let server = start(1);
        {
            // Half a command, no newline, then a hard drop.
            let mut c = TcpStream::connect(server.addr()).unwrap();
            c.write_all(b"insert 3").unwrap();
        }
        {
            // Mid-session drop with a reply pending in the pipe.
            let mut c = Client::connect(server.addr());
            c.send("topk 3");
            drop(c);
        }
        // The single loop must still serve a well-behaved client.
        let mut c = Client::connect(server.addr());
        assert!(c.roundtrip("stats").contains("n=6"));
        assert_eq!(c.roundtrip("quit"), "bye");
        server.stop();
    }

    #[test]
    fn reads_carry_consistent_epoch_under_a_racing_writer() {
        let server = start(3);
        let addr = server.addr();
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let reader = std::thread::spawn(move || {
            let mut c = Client::connect(addr);
            let mut last_epoch = 0u64;
            let mut reads = 0u64;
            while !flag.load(Ordering::Relaxed) {
                let reply = c.roundtrip("rank 0");
                let epoch: u64 = reply.rsplit("epoch=").next().unwrap().parse().unwrap();
                assert!(epoch >= last_epoch, "epoch went backwards: {reply}");
                last_epoch = epoch;
                reads += 1;
            }
            (reads, last_epoch)
        });
        let mut w = Client::connect(addr);
        for edge in ["0 2", "0 3", "0 4", "0 5", "1 0"] {
            assert_eq!(w.roundtrip(&format!("insert {edge}")), "staged 1");
            let ok = w.roundtrip("batch");
            assert!(ok.starts_with("ok batch=1"), "{ok}");
        }
        stop.store(true, Ordering::Relaxed);
        let (reads, _) = reader.join().unwrap();
        assert!(reads > 0);
        drop(w);
        let (session, _) = server.stop();
        assert_eq!(session.steps(), 5);
    }

    #[test]
    fn disconnect_mid_commit_still_applies_and_frees_the_slot() {
        let server = start(1);
        let addr = server.addr();
        {
            // Stage, subscribe, fire the commit, vanish before the ack.
            let mut c = Client::connect(addr);
            assert!(c
                .roundtrip("subscribe 0 0")
                .starts_with("subscribed 0 eps="));
            assert_eq!(c.roundtrip("insert 3 1"), "staged 1");
            c.send("batch");
            drop(c);
        }
        // The commit must land even though nobody is waiting for it —
        // and the dead subscriber must not wedge the push scan.
        let mut c = Client::connect(addr);
        let mut epoch = 0;
        for _ in 0..100 {
            let stats = c.roundtrip("stats");
            epoch = stats
                .rsplit("epoch=")
                .next()
                .unwrap()
                .parse::<u64>()
                .unwrap();
            if epoch == 1 {
                break;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        assert_eq!(epoch, 1, "orphaned commit never applied");
        // A follow-up commit proves the loop fully reaped the old conn.
        assert_eq!(c.roundtrip("insert 0 2"), "staged 1");
        assert!(c.roundtrip("batch").starts_with("ok batch=1"));
        assert_eq!(c.roundtrip("quit"), "bye");
        let (session, _) = server.stop();
        assert_eq!(session.steps(), 2);
    }

    #[test]
    fn subscriber_hears_a_push_without_polling() {
        let server = start(2);
        let mut sub = Client::connect(server.addr());
        assert!(sub
            .roundtrip("subscribe 1 0")
            .starts_with("subscribed 1 eps="));
        let mut w = Client::connect(server.addr());
        assert_eq!(w.roundtrip("insert 3 1"), "staged 1");
        assert!(w.roundtrip("batch").starts_with("ok batch=1"));
        // No command from the subscriber: the writer's wakeup delivers
        // the push block on its own.
        let head = sub.recv_line();
        assert!(head.starts_with("push 1 epoch=1"), "{head}");
        let line = sub.recv_line();
        assert!(line.starts_with("1 "), "{line}");
        assert_eq!(sub.roundtrip("quit"), "bye");
        assert_eq!(w.roundtrip("quit"), "bye");
        server.stop();
    }

    #[test]
    fn coalesce_merges_and_isolates_rejections() {
        // graph: edges from session() — (3, 1) absent, (0, 1) present.
        let s = session();
        let g = s.graph();
        let b = |dels: &[Edge], inss: &[Edge]| BatchUpdate {
            deletions: dels.to_vec(),
            insertions: inss.to_vec(),
        };
        // Client 1 inserts (3,1); client 2 duplicates it (rejected);
        // client 3 deletes (0,1); client 4 re-inserts (0,1) — net: one
        // insertion, with the cross-client delete/insert pair cancelled.
        let batches = [
            b(&[], &[(3, 1)]),
            b(&[], &[(3, 1)]),
            b(&[(0, 1)], &[]),
            b(&[], &[(0, 1)]),
        ];
        let (net, verdicts) = coalesce_batches(g, batches.iter());
        assert!(verdicts[0].is_ok());
        assert_eq!(
            verdicts[1].as_ref().unwrap_err(),
            "edge (3, 1) already exists"
        );
        assert!(verdicts[2].is_ok());
        assert!(verdicts[3].is_ok());
        assert_eq!(net.deletions, Vec::<Edge>::new());
        assert_eq!(net.insertions, vec![(3, 1)]);
        // The merged batch must be valid against the untouched graph.
        g.validate_batch(&net).unwrap();
    }
}
