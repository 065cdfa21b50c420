//! # Sharded serving tier — vertex-partitioned session shards
//!
//! A [`ShardRouter`] splits one logical graph across `N` independent
//! [`UpdateSession`]s by **source ownership**: a block [`Partition`]
//! assigns every vertex an owner shard, and shard `s`'s session holds
//! the full vertex space but *only* the edges whose source it owns.
//! Owned vertices therefore keep their exact global out-degrees, ids
//! need no translation, and shard `s`'s published ranks are exact for
//! the subsystem of intra-shard edges. Each shard runs its own writer
//! thread, epoch counter, optional write-ahead log (under
//! `DIR/shard-NN/`), and [`RankView`] publication.
//!
//! ## Routing
//!
//! * `insert`/`delete` stage locally and validate against the **owner
//!   shard's** pinned snapshot (vertex `u`'s out-edges all live on
//!   `owner(u)`).
//! * `batch` **scatters**: the staged set is split by source owner and
//!   the non-empty sub-batches are committed concurrently, one per
//!   writer thread; the reply **gathers** the per-shard outcomes under
//!   one multi-epoch `epochs=<e0>,…` stamp ([`ShardEpochs::Sharded`]).
//!   Shards a batch never touched keep their epoch — that is why the
//!   stamp is a vector.
//! * `rank`/`subscribe` route to `owner(v)`; `topk`/`movers`/`stats`
//!   merge across shards (per-shard candidates, then one global order).
//!
//! ## Cross-shard edges: the exchange sweeps
//!
//! Intra-shard ranks miss the contributions flowing along crossing
//! edges (`owner(u) ≠ owner(v)`). Write `r_sh` for the shard ranks
//! (each vertex's rank as its owner publishes it), `P` for the global
//! transition matrix (`P[v][u] = 1/d(u)` per edge `u→v`) and `P_cross`
//! for its crossing-edge part. Every owner solves its subsystem, so the
//! true ranks are `r_sh + c*` with the *correction*
//! `c* = (I − α·P)⁻¹ · α·P_cross · r_sh`. After every scatter/gather
//! commit the router computes `c*` by a **forward push** over all of a
//! vertex's out-edges — local and crossing edges alike live in
//! `owner(v)`'s snapshot — and publishes it as an additive overlay.
//! Served ranks are always `shard rank + correction`.
//!
//! The push is **warm-started** from the overlay the previous pass
//! published, `c_prev`. Forward push keeps the invariant
//! `c* = c + (I − α·P)⁻¹ · res`, so starting at `c = c_prev` needs the
//! residual `res = α·P_cross·r_sh − (I − α·P)·c_prev`. The pass
//! computes it exactly from the freshly pinned views in one O(n + m)
//! scan of the owned edges. Nothing but the overlay carries over
//! between commits, so degree changes, edge changes and rejected
//! sub-batches need no fix-ups, and corrections cannot drift.
//!
//! The pushes run as **Gauss–Seidel sweeps**, the order in which the
//! paper's engine updates ranks in place: each shard's owned range is
//! walked in ascending id order, every `v` with `|res_v| > PUSH_TOL` is
//! pushed (its residual moves into `c_v`, and `α·res_v/d(v)` goes to
//! each out-neighbour's residual), and sweeps repeat until one pushes
//! nothing. A neighbour ahead of the cursor is pushed in the same
//! sweep with the fresh residual, one behind it in the next. A sweep
//! skips every 64-id granule nothing has pushed into since its last
//! walk (all its residuals are then at most `PUSH_TOL`), so it pushes
//! exactly what a walk over every id would, at O(n/64) plus the
//! granules the change reaches. Forward push terminates in any order:
//! a push of `r` lowers ‖res‖₁ by at least `(1−α)·|r| > (1−α)·PUSH_TOL`,
//! so a pass makes at most `‖res₀‖₁/((1−α)·PUSH_TOL)` pushes and no more
//! sweeps than that plus one.
//!
//! A commit's change spreads until `α`-decay takes it under
//! `PUSH_TOL`, ≈ 150 grid steps, however large the graph. On the
//! 20k-vertex road grid of the `sharded` benchmark that is the whole
//! graph: ≈ 520k pushes (≈ 26 per vertex) over ≈ 155 sweeps in 12–14 ms
//! on a 2-core 2.1 GHz Xeon, against 24–28 ms for the FIFO queue the
//! sweeps replaced; the seed scan adds 0.5 ms. On a 1M-vertex grid the
//! change stays local, and the pushes (≈ 430k) take 29 ms against the
//! queue's 28 ms, next to a 23 ms seed scan. (Medians per commit of
//! `exchange_bench`, whose commits have the benchmark's shape.)
//!
//! A pass publishes its overlay **together with the shard views it
//! solved against**, and [`ShardRouter::pin`] reads that one
//! publication, so a read never pairs a shard's new ranks with the
//! correction computed for its old ones. A shard's new view becomes
//! readable at the next pass, which every commit runs before it acks.
//!
//! **Staleness bound.** The push stops once every `|res_v| ≤ PUSH_TOL`
//! (`10⁻¹⁶`). `P` is column-substochastic, so
//! `‖(I − α·P)⁻¹‖₁ ≤ 1/(1−α)` and the L1 error of the served ranks is
//! at most `‖res‖₁/(1−α) ≤ n·PUSH_TOL/(1−α)` — ≈ `1.3·10⁻¹¹` at
//! `n = 20 000` and `α = 0.85`. When the partition has **no crossing
//! edges** the exchange is a no-op and served ranks are bit-identical
//! to each shard's session — and, at `threads = 1`, to an unsharded
//! session over the same graph for any run whose commits each touch a
//! single shard (`tests/shard_oracle.rs` pins this bitwise). A commit
//! spanning shards converges every affected region against one shared
//! stopping gate in the unsharded kernel — early-converging regions
//! keep getting swept — so such histories agree to the τ neighbourhood
//! instead of the bit.
//!
//! Movers are reported from per-shard session deltas (filtered to the
//! shard's owned range); their `rank` column is correction-adjusted so
//! it always matches what `rank` would answer. Note the per-shard
//! deltas date from each shard's **own** latest commit: after a commit
//! that touched only shard `s`, the merged `movers` still surfaces
//! other shards' older movement — the reply's epoch vector says
//! exactly which commit each shard's contribution reflects.

use crate::durable::{Durability, DurabilityOptions, WalStats};
use crate::protocol::{
    caps, parse_request, Handshake, MoverEntry, Request, Response, ServeError, ShardEpochs,
};
use crate::serve::{
    apply_logged, reply, stage_delete, stage_insert, status_str, translate_request, ServeSummary,
    WriterOk, WriterOp, WriterReply, WriterRequest,
};
use lfpr_core::session::{RankReader, RankView, UpdateSession};
use lfpr_core::topk::top_k_ascending;
use lfpr_core::{Algorithm, PagerankOptions, RunStatus};
use lfpr_graph::reorder::SharedReordering;
use lfpr_graph::{BatchUpdate, DynGraph, Partition};
use std::collections::BTreeMap;
use std::io::{BufRead, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, RwLock};
use std::thread::{self, JoinHandle};

/// The exchange push stops once every residual is at most this; the
/// served-rank L1 error is then at most `n·PUSH_TOL/(1−α)` (module
/// docs).
const PUSH_TOL: f64 = 1e-16;

/// Ids per flag of the exchange sweeps' skip map: a sweep passes over a
/// granule whole while nothing has pushed into it since its last walk.
/// A granule never straddles two snapshot pages, so a sweep resolves one
/// page per granule it walks.
const GRANULE: usize = 64;
const _: () = assert!(lfpr_graph::snapshot::PAGE_SIZE % GRANULE == 0);

/// Construction-time knobs for a [`ShardRouter`].
#[derive(Debug, Clone)]
pub struct ShardSpec {
    /// Number of shards (≥ 1).
    pub shards: usize,
    /// When set, every shard logs to `dir/shard-NN/` with `durability`.
    pub wal_dir: Option<PathBuf>,
    /// Per-shard durability tunables (ignored without `wal_dir`).
    pub durability: DurabilityOptions,
}

impl ShardSpec {
    /// A spec without durability.
    pub fn new(shards: usize) -> Self {
        ShardSpec {
            shards,
            wal_dir: None,
            durability: DurabilityOptions::default(),
        }
    }
}

/// One shard as the router sees it: the channel into its writer
/// thread, its queue-depth gauge, and its read-side publication.
struct ShardHandle {
    tx: mpsc::Sender<WriterRequest>,
    /// Writer requests accepted but not yet applied — the `stats`
    /// back-pressure signal (`queues=`).
    queue: Arc<AtomicU64>,
    reader: RankReader,
    wal: Option<Arc<WalStats>>,
}

/// The merged outcome of one scatter/gather commit.
#[derive(Debug, Clone)]
pub struct ShardCommit {
    /// The client's staged size (what its reply reports).
    pub batch: usize,
    /// Global edge count after the commit (summed across shards).
    pub m: usize,
    /// Worst per-shard refresh status (`stalled` > `max-iterations` >
    /// `converged`).
    pub status: String,
    /// Largest per-shard iteration count.
    pub iters: usize,
    /// Post-commit epoch of every shard, in shard order.
    pub epochs: Vec<u64>,
    /// Vertex pushes the post-commit exchange pass made (0 when nothing
    /// crosses the partition).
    pub rounds: usize,
}

/// The sharded serving core: N session shards behind one routing
/// surface. See the module docs for the partitioning and exchange
/// semantics. All methods take `&self`; one router is shared by every
/// connection of the sharded TCP server.
pub struct ShardRouter {
    part: Partition,
    algorithm: Algorithm,
    alpha: f64,
    n: usize,
    shards: Vec<ShardHandle>,
    handles: Vec<JoinHandle<UpdateSession>>,
    /// What the latest exchange pass solved against and published;
    /// every [`pin`](Self::pin) reads exactly this.
    published: RwLock<Arc<Exchanged>>,
    /// Serializes exchange passes (each pins its own views), so the
    /// published views only ever move forward, and holds the passes'
    /// residual scratch (n entries, zeroed in place by each pass).
    exchange_lock: Mutex<Vec<f64>>,
    /// Live count of edges crossing the partition, maintained from the
    /// scattered sub-batches so that it never under-reads the shards'
    /// latest views (`commit`). While it is zero the exchange pass skips
    /// its O(n + m) boundary scan entirely — on a partition the
    /// workload never crosses, commits stay pure writer work (this is
    /// what keeps the fsync-dominated shard-scaling bench honest).
    crossing: AtomicI64,
}

impl ShardRouter {
    /// Partition `graph` into `spec.shards` block shards and start one
    /// session + writer thread per shard. Runs one exchange pass so
    /// epoch-0 reads are already corrected.
    pub fn new(
        graph: DynGraph,
        algorithm: Algorithm,
        opts: PagerankOptions,
        spec: ShardSpec,
    ) -> Result<ShardRouter, String> {
        let part = Partition::block(graph.num_vertices(), spec.shards)?;
        Self::with_partition(graph, part, algorithm, opts, spec)
    }

    /// [`new`](Self::new) with a caller-computed partition (the CLI
    /// computes it jointly with the load-time reordering).
    pub fn with_partition(
        graph: DynGraph,
        part: Partition,
        algorithm: Algorithm,
        opts: PagerankOptions,
        spec: ShardSpec,
    ) -> Result<ShardRouter, String> {
        if part.num_vertices() != graph.num_vertices() {
            return Err(format!(
                "partition covers {} vertices but the graph has {}",
                part.num_vertices(),
                graph.num_vertices()
            ));
        }
        let n = graph.num_vertices();
        let alpha = opts.alpha;
        let mut shards = Vec::with_capacity(part.shards());
        let mut handles = Vec::with_capacity(part.shards());
        for s in 0..part.shards() {
            let mut session =
                UpdateSession::new(part.shard_graph(&graph, s), algorithm, opts.clone());
            session.enable_delta_tracking();
            let durable = match &spec.wal_dir {
                Some(dir) => Some(Durability::create(
                    &crate::durable::shard_dir(dir, s),
                    &mut session,
                    spec.durability.clone(),
                )?),
                None => None,
            };
            let reader = session.reader();
            let wal = durable.as_ref().map(|d| d.stats_handle());
            let queue = Arc::new(AtomicU64::new(0));
            let (tx, rx) = mpsc::channel::<WriterRequest>();
            let gauge = Arc::clone(&queue);
            let handle = thread::Builder::new()
                .name(format!("shard-{s}"))
                .spawn(move || shard_writer(session, durable, rx, gauge))
                .map_err(|e| format!("cannot spawn shard {s} writer: {e}"))?;
            shards.push(ShardHandle {
                tx,
                queue,
                reader,
                wal,
            });
            handles.push(handle);
        }
        let crossing = part.crossing_edges(&graph).len() as i64;
        let router = ShardRouter {
            part,
            algorithm,
            alpha,
            n,
            shards,
            handles,
            // A placeholder: the pass below publishes before any pin.
            published: RwLock::new(Arc::new(Exchanged {
                views: Vec::new(),
                corr: None,
            })),
            exchange_lock: Mutex::new(vec![0.0; n]),
            crossing: AtomicI64::new(crossing),
        };
        router.exchange();
        Ok(router)
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Vertex count of the logical graph.
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// The vertex partition.
    pub fn partition(&self) -> &Partition {
        &self.part
    }

    /// The algorithm every shard runs.
    pub fn algorithm(&self) -> Algorithm {
        self.algorithm
    }

    /// Whether the shards log to write-ahead logs.
    pub fn durable(&self) -> bool {
        self.shards.iter().any(|s| s.wal.is_some())
    }

    /// Current writer queue depth per shard.
    pub fn queue_depths(&self) -> Vec<u64> {
        self.shards
            .iter()
            .map(|s| s.queue.load(Ordering::Acquire))
            .collect()
    }

    /// The v2 handshake advertising the shard topology and exactly the
    /// capabilities this surface serves (no `views`, no `follow`).
    pub fn handshake(&self) -> Handshake {
        let mut c = vec![caps::CORE.to_string(), caps::SUBS.to_string()];
        if self.durable() {
            c.push(caps::WAL.to_string());
        }
        Handshake::V2 {
            algorithm: self.algorithm.to_string(),
            shards: self.shards.len(),
            strategy: self.part.strategy().to_string(),
            caps: c,
        }
    }

    /// Pin a coherent read: the shard views the latest exchange pass
    /// solved against, with the correction overlay it computed from
    /// them. A shard's new view becomes readable at the next pass, which
    /// every commit runs before it acks.
    pub fn pin(&self) -> ShardPin<'_> {
        let published = self.published.read().expect("exchange slot poisoned");
        ShardPin {
            router: self,
            pinned: Arc::clone(&published),
        }
    }

    /// Merged WAL position: the *oldest* shard epoch on stable storage
    /// and the summed log bytes. `None` without durability.
    pub fn wal_stats(&self) -> Option<(u64, u64)> {
        let mut epoch = u64::MAX;
        let mut bytes = 0u64;
        let mut any = false;
        for s in &self.shards {
            let w = s.wal.as_ref()?;
            any = true;
            epoch = epoch.min(w.epoch());
            bytes += w.bytes();
        }
        if any {
            Some((epoch, bytes))
        } else {
            None
        }
    }

    /// Scatter `batch` by source owner, commit the non-empty
    /// sub-batches concurrently, gather the outcomes, then run the
    /// exchange pass. On any sub-batch rejection the *rejected* edits
    /// come back for re-staging with a shard-tagged message — the other
    /// sub-batches have already committed (the scatter is not atomic
    /// across shards; `docs/SHARDING.md` spells this out).
    pub fn commit(&self, batch: BatchUpdate) -> Result<ShardCommit, (BatchUpdate, String)> {
        let k = batch.len();
        let mut pending = Vec::new();
        let mut failed: Vec<BatchUpdate> = Vec::new();
        let mut first_err: Option<String> = None;
        for (s, sub) in self.part.split_batch(&batch).into_iter().enumerate() {
            if sub.is_empty() {
                continue; // untouched shards keep their epoch
            }
            // Crossing insertions are charged to the live count before
            // the shard can publish them and crossing deletions only
            // after it has, so the count never under-reads the shards'
            // latest views (the exchange's fast path relies on that). A shard
            // session applies all-or-nothing, so a refusal refunds the
            // insertions.
            let cross = |edges: &[(u32, u32)]| {
                edges
                    .iter()
                    .filter(|&&(u, v)| self.part.owner(u) != self.part.owner(v))
                    .count() as i64
            };
            let (inserted, deleted) = (cross(&sub.insertions), cross(&sub.deletions));
            self.crossing.fetch_add(inserted, Ordering::AcqRel);
            let (otx, orx) = mpsc::sync_channel(1);
            self.shards[s].queue.fetch_add(1, Ordering::AcqRel);
            let req = WriterRequest {
                op: WriterOp::Commit(sub),
                reply: WriterReply::Sync(otx),
            };
            match self.shards[s].tx.send(req) {
                Ok(()) => pending.push((s, orx, inserted, deleted)),
                Err(mpsc::SendError(req)) => {
                    self.shards[s].queue.fetch_sub(1, Ordering::AcqRel);
                    self.crossing.fetch_sub(inserted, Ordering::AcqRel);
                    if let WriterOp::Commit(sub) = req.op {
                        failed.push(sub);
                    }
                    first_err.get_or_insert(format!("shard {s}: server shutting down"));
                }
            }
        }
        let mut status = RunStatus::Converged;
        let mut iters = 0usize;
        for (s, orx, inserted, deleted) in pending {
            match orx.recv() {
                Ok(Ok(WriterOk::Committed(o))) => {
                    iters = iters.max(o.iterations);
                    status = worse_of(status, o.status);
                    self.crossing.fetch_sub(deleted, Ordering::AcqRel);
                }
                Ok(Ok(_)) => unreachable!("commit answered with a non-commit outcome"),
                Ok(Err((op, msg))) => {
                    self.crossing.fetch_sub(inserted, Ordering::AcqRel);
                    if let WriterOp::Commit(sub) = op {
                        failed.push(sub);
                    }
                    first_err.get_or_insert(format!("shard {s}: {msg}"));
                }
                Err(_) => {
                    first_err.get_or_insert(format!("shard {s}: writer thread died"));
                }
            }
        }
        // Shards that accepted their sub-batch have moved whether or
        // not a sibling refused — refresh the corrections either way.
        let rounds = self.exchange();
        if let Some(msg) = first_err {
            let mut rest = BatchUpdate::new();
            for f in failed {
                rest.insertions.extend(f.insertions);
                rest.deletions.extend(f.deletions);
            }
            return Err((rest, msg));
        }
        let pin = self.pin();
        Ok(ShardCommit {
            batch: k,
            m: pin.num_edges(),
            status: status_str(status).to_string(),
            iters,
            epochs: pin.epochs(),
            rounds,
        })
    }

    /// One exchange pass against the current published views: sweep
    /// the correction warm-started from the previous overlay until every
    /// residual is at most `PUSH_TOL` (module docs), and publish it
    /// together with the views it was solved against. Returns the number
    /// of vertex pushes made (0 when the partition has no crossing edges
    /// — the overlay is then dropped entirely, which is what makes the
    /// no-crossing case bit-identical).
    ///
    /// **Termination.** Each pass is a forward push, and the argument
    /// holds whatever order the pushes come in. Pushing `r` at `v` zeroes
    /// `res_v` and spreads `α·r` over `v`'s out-edges, so ‖res‖₁ falls
    /// by at least `(1−α)·|r| > (1−α)·PUSH_TOL`. The pass therefore
    /// makes at most `‖res₀‖₁ / ((1−α)·PUSH_TOL)` pushes, and since
    /// every sweep but the last pushes at least once, it runs no more
    /// sweeps than that plus one.
    pub fn exchange(&self) -> usize {
        let mut res = self.exchange_lock.lock().expect("exchange lock poisoned");
        let views: Vec<Arc<RankView>> = self.shards.iter().map(|s| s.reader.view()).collect();
        self.solve(views, &mut res)
    }

    /// The exchange pass proper, against `views` pinned under the
    /// exchange lock, with the lock's residual scratch `res`.
    fn solve(&self, views: Vec<Arc<RankView>>, res: &mut [f64]) -> usize {
        // Fast path: while the committed graph has no crossing edges
        // there is nothing to exchange — don't pay the boundary scan.
        // The count never under-reads the latest views (`commit`), but
        // the views pinned before it was read may be older: a crossing
        // deletion published and charged in between leaves them holding
        // the edge while the count reads 0. So the fast path also needs
        // every pinned view to still be its shard's latest; otherwise
        // the full pass below solves the pinned views as they are. The
        // Acquire load pairs with the AcqRel charges: a deletion charged
        // before it was published before it, so the recheck sees that
        // newer view.
        if self.crossing.load(Ordering::Acquire) == 0
            && self
                .shards
                .iter()
                .zip(&views)
                .all(|(s, v)| Arc::ptr_eq(&s.reader.view(), v))
        {
            self.publish(Exchanged { views, corr: None });
            return 0;
        }
        let prev = Arc::clone(&self.published.read().expect("exchange slot poisoned"));
        let prev = prev.corr.as_deref();
        let n = self.n;
        // res = α·P_cross·r_sh + α·P·c_prev − c_prev, scattered along
        // every owned out-edge.
        res.fill(0.0);
        for (s, view) in views.iter().enumerate() {
            let ranks = view.ranks();
            let owned = self.part.owned_range(s);
            for (u, outs) in view.snapshot().out_runs(owned.clone()) {
                if outs.is_empty() {
                    continue;
                }
                let scale = self.alpha / outs.len() as f64;
                let c = prev.map_or(0.0, |p| p[u as usize]);
                let local = scale * c;
                let cross = scale * (ranks[u as usize] + c);
                for &v in outs {
                    if owned.contains(&v) {
                        res[v as usize] += local;
                    } else {
                        res[v as usize] += cross;
                    }
                }
            }
        }
        let mut corr = match prev {
            Some(p) => {
                for (r, c) in res.iter_mut().zip(p) {
                    *r -= c;
                }
                p.to_vec()
            }
            None => vec![0.0f64; n],
        };
        // Gauss–Seidel sweeps in ascending id order: a push into a
        // vertex ahead of the cursor is picked up in the same sweep, one
        // behind it in the next. A sweep skips every granule of GRANULE
        // ids whose residuals nothing has touched since it was last
        // walked — all of them are at most PUSH_TOL — so it costs
        // O(n/GRANULE) plus the granules the change reaches, and pushes
        // exactly what a walk over every id would.
        let mut touched: Vec<bool> = res
            .chunks(GRANULE)
            .map(|g| g.iter().any(|r| r.abs() > PUSH_TOL))
            .collect();
        let mut pushes = 0usize;
        loop {
            let before = pushes;
            for (s, view) in views.iter().enumerate() {
                let snap = view.snapshot();
                let owned = self.part.owned_range(s);
                let (lo, hi) = (owned.start as usize, owned.end as usize);
                for g in lo / GRANULE..hi.div_ceil(GRANULE) {
                    let (start, end) = (g * GRANULE, ((g + 1) * GRANULE).min(n));
                    if start >= lo && end <= hi {
                        if !touched[g] {
                            continue;
                        }
                        touched[g] = false;
                    }
                    // A granule another shard shares is walked every
                    // sweep and its flag left set for that shard.
                    let page = snap.out_page(start as u32);
                    for v in start.max(lo)..end.min(hi) {
                        let r = res[v];
                        if r.abs() <= PUSH_TOL {
                            continue;
                        }
                        res[v] = 0.0;
                        corr[v] += r;
                        pushes += 1;
                        let outs = page.run(v as u32);
                        if outs.is_empty() {
                            continue;
                        }
                        let w = self.alpha * r / outs.len() as f64;
                        for &x in outs {
                            res[x as usize] += w;
                            touched[x as usize / GRANULE] = true;
                        }
                    }
                }
            }
            if pushes == before {
                break;
            }
        }
        self.publish(Exchanged {
            views,
            corr: Some(corr),
        });
        pushes
    }

    fn publish(&self, pass: Exchanged) {
        *self.published.write().expect("exchange slot poisoned") = Arc::new(pass);
    }

    /// Stop every writer thread and hand back the shard sessions (in
    /// shard order) for inspection or checkpointing.
    pub fn shutdown(self) -> Vec<UpdateSession> {
        drop(self.shards); // the writers' only senders
        self.handles
            .into_iter()
            .map(|h| h.join().expect("shard writer panicked"))
            .collect()
    }
}

/// One shard's writer loop: apply every request in order (logging to
/// the shard WAL first when durable), decrement the queue gauge, ack.
/// Ends when the router drops the senders; flushes the WAL on the way
/// out so graceful shutdown leaves the log clean.
fn shard_writer(
    mut session: UpdateSession,
    mut durable: Option<Durability>,
    rx: mpsc::Receiver<WriterRequest>,
    queue: Arc<AtomicU64>,
) -> UpdateSession {
    while let Ok(req) = rx.recv() {
        let outcome = apply_logged(&mut session, durable.as_mut(), None, req.op);
        queue.fetch_sub(1, Ordering::AcqRel);
        req.reply.deliver(outcome);
    }
    if let Some(d) = durable.as_mut() {
        if let Err(e) = d.flush_sync() {
            eprintln!("# shard wal flush on shutdown failed: {e}");
        }
    }
    session
}

/// Severity order for merging per-shard refresh statuses.
fn worse_of(a: RunStatus, b: RunStatus) -> RunStatus {
    let sev = |s: RunStatus| match s {
        RunStatus::Converged => 0,
        RunStatus::MaxIterations => 1,
        RunStatus::Stalled => 2,
    };
    if sev(b) > sev(a) {
        b
    } else {
        a
    }
}

/// One exchange pass's publication: the shard views it pinned and the
/// correction overlay it computed from exactly those views.
struct Exchanged {
    views: Vec<Arc<RankView>>,
    /// `None` means all zero (no crossing edges — the bit-identity
    /// fast path).
    corr: Option<Vec<f64>>,
}

/// A coherent sharded read: the shard views one exchange pass solved
/// against plus the correction overlay it computed from them. All
/// served values come through here so a reply never mixes epochs
/// mid-command.
pub struct ShardPin<'a> {
    router: &'a ShardRouter,
    pinned: Arc<Exchanged>,
}

impl ShardPin<'_> {
    /// Corrected rank of `v` (owner shard's rank + overlay).
    pub fn rank(&self, v: u32) -> f64 {
        let s = self.router.part.owner(v);
        self.pinned.views[s].ranks()[v as usize] + self.correction(v)
    }

    /// The exchange's correction overlay at `v`: what [`rank`](Self::rank)
    /// adds to the owner shard's own rank (exactly 0 while nothing
    /// crosses the partition).
    pub fn correction(&self, v: u32) -> f64 {
        self.pinned.corr.as_ref().map_or(0.0, |c| c[v as usize])
    }

    /// Epoch of the shard owning `v` (the scalar stamp on `rank`).
    pub fn owner_epoch(&self, v: u32) -> u64 {
        self.pinned.views[self.router.part.owner(v)].epoch()
    }

    /// Every shard's pinned epoch, in shard order.
    pub fn epochs(&self) -> Vec<u64> {
        self.pinned.views.iter().map(|v| v.epoch()).collect()
    }

    /// The newest pinned epoch (the scalar stamp on `push` blocks).
    pub fn newest_epoch(&self) -> u64 {
        self.pinned
            .views
            .iter()
            .map(|v| v.epoch())
            .max()
            .unwrap_or(0)
    }

    /// Vertex count of the logical graph.
    pub fn num_vertices(&self) -> usize {
        self.router.n
    }

    /// Global edge count (summed shard-local counts — source ownership
    /// makes the shard edge sets disjoint and exhaustive).
    pub fn num_edges(&self) -> usize {
        self.pinned
            .views
            .iter()
            .map(|v| v.snapshot().num_edges())
            .sum()
    }

    /// Whether edge `(u, v)` exists, answered by `owner(u)`.
    pub fn has_edge(&self, u: u32, v: u32) -> bool {
        self.pinned.views[self.router.part.owner(u)]
            .snapshot()
            .has_edge(u, v)
    }

    /// Merged top-k over corrected ranks: per-shard candidates from
    /// each owned range, then one global ordering (rank descending,
    /// ties by id — the session's own comparator, so the no-crossing
    /// case reproduces the unsharded list exactly).
    pub fn top_k(&self, k: usize) -> Vec<(u32, f64)> {
        let mut cand: Vec<(u32, f64)> = Vec::new();
        for (s, view) in self.pinned.views.iter().enumerate() {
            let range = self.router.part.owned_range(s);
            match &self.pinned.corr {
                None => cand.extend(view.top_k_range(k, range)),
                // The overlay moves ranks without a block bound, so the
                // corrected ranks are scanned in full.
                Some(c) => cand.extend(top_k_ascending(
                    k,
                    range.map(|v| (v, view.ranks()[v as usize] + c[v as usize])),
                )),
            }
        }
        cand.sort_unstable_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
        cand.truncate(k);
        cand
    }

    /// Merged movers: per-shard session deltas filtered to each owned
    /// range, ordered by |Δ| descending (ties by id). The `rank` column
    /// is correction-adjusted so it agrees with [`rank`](Self::rank);
    /// the deltas themselves are the shards' own epoch-over-epoch
    /// changes.
    pub fn movers(&self, k: usize) -> Vec<MoverEntry> {
        let mut all: Vec<MoverEntry> = Vec::new();
        for (s, view) in self.pinned.views.iter().enumerate() {
            let range = self.router.part.owned_range(s);
            for d in view.deltas() {
                if range.contains(&d.vertex) {
                    let mut e = MoverEntry::from(*d);
                    e.rank += self.correction(d.vertex);
                    all.push(e);
                }
            }
        }
        all.sort_unstable_by(|a, b| {
            b.delta
                .abs()
                .partial_cmp(&a.delta.abs())
                .unwrap()
                .then(a.v.cmp(&b.v))
        });
        all.truncate(k);
        all
    }
}

/// One sharded client's subscription to a vertex's corrected rank.
struct ShardSub {
    eps: f64,
    baseline: f64,
}

/// Per-connection protocol state of the sharded surface (the sharded
/// sibling of `serve::ConnState`).
#[derive(Default)]
struct ShardConnState {
    staged: BatchUpdate,
    subs: BTreeMap<u32, ShardSub>,
}

impl ShardConnState {
    /// Subscribed vertices whose *corrected* rank drifted past eps
    /// since their baseline (eps 0 = any bitwise change), baselines
    /// updated for the collected ones.
    fn drain_pushes(&mut self, pin: &ShardPin<'_>) -> Vec<(u32, f64)> {
        let mut pushed = Vec::new();
        for (&v, sub) in self.subs.iter_mut() {
            let r = pin.rank(v);
            let drifted = if sub.eps == 0.0 {
                r.to_bits() != sub.baseline.to_bits()
            } else {
                (r - sub.baseline).abs() > sub.eps
            };
            if drifted {
                sub.baseline = r;
                pushed.push((v, r));
            }
        }
        pushed
    }
}

/// Drive one client of the sharded surface with the line protocol from
/// `input` until EOF or `quit` — the sharded counterpart of
/// `serve::serve_client`, shared by the stdin mode and every TCP
/// connection thread.
pub fn serve_shard_client<R: BufRead, W: Write>(
    router: &ShardRouter,
    input: R,
    out: W,
) -> std::io::Result<ServeSummary> {
    serve_shard_client_reordered(router, &None, input, out)
}

/// [`serve_shard_client`] for a router whose graph was renumbered at
/// load time (the partition is computed jointly with the reordering):
/// requests translate external→internal ids on the way in, replies
/// translate back on the way out, exactly like the single-session
/// server's reordered paths.
pub fn serve_shard_client_reordered<R: BufRead, W: Write>(
    router: &ShardRouter,
    reorder: &SharedReordering,
    input: R,
    mut out: W,
) -> std::io::Result<ServeSummary> {
    let mut state = ShardConnState::default();
    let mut summary = ServeSummary::default();
    for line in input.lines() {
        let line = line?;
        let Some(parsed) = parse_request(&line) else {
            continue; // blank or comment: no command, no reply
        };
        summary.commands += 1;
        let quit = match parsed {
            Ok(req) => {
                let req = match reorder.as_deref() {
                    Some(r) => translate_request(req, r),
                    None => req,
                };
                shard_process(router, reorder, &mut state, &mut summary, req, &mut out)?
            }
            Err(e) => {
                reply(&mut out, reorder, &Response::Error(e))?;
                false
            }
        };
        out.flush()?;
        if quit {
            break;
        }
    }
    Ok(summary)
}

/// Handle one parsed command against the router. Returns whether the
/// client said `quit`. Mirrors `serve::process` — same push preamble,
/// same staging rules — with reads answered from one [`ShardPin`] and
/// the out-of-surface verbs refused by name.
fn shard_process<W: Write>(
    router: &ShardRouter,
    reorder: &SharedReordering,
    state: &mut ShardConnState,
    summary: &mut ServeSummary,
    req: Request,
    out: &mut W,
) -> std::io::Result<bool> {
    // Pin the committed state this command answers from and piggyback
    // pending pushes first, exactly like the single-session server.
    {
        let pin = router.pin();
        let is_poll = matches!(req, Request::Poll);
        let pushed = state.drain_pushes(&pin);
        if is_poll || !pushed.is_empty() {
            summary.pushes += 1;
            reply(
                out,
                reorder,
                &Response::Push {
                    entries: pushed,
                    epoch: pin.newest_epoch(),
                },
            )?;
        }
        if is_poll {
            return Ok(false);
        }
    }
    let unavailable =
        |what: &str| Response::Error(ServeError::ShardedUnavailable(what.to_string()));
    let resp = match req {
        Request::Poll => unreachable!("handled by the push preamble"),
        Request::Hello => Response::Hello(router.handshake()),
        Request::Insert { u, v } => {
            let pin = router.pin();
            match shard_checked(&pin, u, v) {
                Ok(()) => stage_insert(|u, v| pin.has_edge(u, v), &mut state.staged, u, v),
                Err(e) => Response::Error(e),
            }
        }
        Request::Delete { u, v } => {
            let pin = router.pin();
            match shard_checked(&pin, u, v) {
                Ok(()) => stage_delete(|u, v| pin.has_edge(u, v), &mut state.staged, u, v),
                Err(e) => Response::Error(e),
            }
        }
        Request::Batch => {
            let batch = std::mem::take(&mut state.staged);
            let k = batch.len();
            match router.commit(batch) {
                Ok(o) => {
                    summary.batches += 1;
                    summary.updates += k as u64;
                    Response::BatchOk {
                        batch: k,
                        m: o.m,
                        status: o.status,
                        iters: o.iters,
                        epochs: ShardEpochs::Sharded(o.epochs),
                    }
                }
                Err((rest, msg)) => {
                    state.staged = rest; // the *rejected* edits survive
                    Response::Error(ServeError::BatchRejected(msg))
                }
            }
        }
        Request::Rank { view: Some(_), .. } => unavailable("views"),
        Request::Rank { v, view: None } => {
            let pin = router.pin();
            if (v as usize) < pin.num_vertices() {
                Response::Rank {
                    v,
                    rank: pin.rank(v),
                    epoch: pin.owner_epoch(v),
                    view: None,
                }
            } else {
                Response::Error(ServeError::UnknownVertex(v.to_string()))
            }
        }
        Request::TopK { view: Some(_), .. } => unavailable("views"),
        Request::TopK { k, view: None } => {
            let pin = router.pin();
            Response::TopK {
                entries: pin.top_k(k),
                epochs: ShardEpochs::Sharded(pin.epochs()),
                view: None,
            }
        }
        Request::Movers { view: Some(_), .. } => unavailable("views"),
        Request::Movers { k, view: None } => {
            let pin = router.pin();
            Response::Movers {
                entries: pin.movers(k),
                epochs: ShardEpochs::Sharded(pin.epochs()),
                view: None,
            }
        }
        Request::Stats => {
            let pin = router.pin();
            Response::Stats {
                n: pin.num_vertices(),
                m: pin.num_edges(),
                steps: pin.epochs().iter().sum(),
                staged: state.staged.len(),
                algo: router.algorithm().to_string(),
                epochs: ShardEpochs::Sharded(pin.epochs()),
                wal: router.wal_stats(),
                slack: None,
                queues: Some(router.queue_depths()),
            }
        }
        Request::Subscribe { v, eps } => {
            let pin = router.pin();
            if (v as usize) < pin.num_vertices() {
                let baseline = pin.rank(v);
                state.subs.insert(v, ShardSub { eps, baseline });
                Response::Subscribed { v, eps }
            } else {
                Response::Error(ServeError::VertexOutOfRange {
                    id: v,
                    n: pin.num_vertices(),
                })
            }
        }
        Request::Unsubscribe { v } => {
            if state.subs.remove(&v).is_some() {
                Response::Unsubscribed { v }
            } else {
                Response::Error(ServeError::NotSubscribed(v))
            }
        }
        Request::ViewAdd { .. } | Request::ViewDrop { .. } | Request::Views => unavailable("views"),
        Request::Follow { .. } => unavailable("follow"),
        Request::Quit => {
            reply(out, reorder, &Response::Bye)?;
            return Ok(true);
        }
    };
    reply(out, reorder, &resp)?;
    Ok(false)
}

fn shard_checked(pin: &ShardPin<'_>, u: u32, v: u32) -> Result<(), ServeError> {
    let n = pin.num_vertices();
    for id in [u, v] {
        if id as usize >= n {
            return Err(ServeError::VertexOutOfRange { id, n });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use lfpr_graph::generators::grid_road;
    use lfpr_graph::selfloops::add_self_loops;
    use lfpr_graph::{BatchSpec, GraphBuilder};

    fn ring_graph(n: usize) -> DynGraph {
        let edges: Vec<(u32, u32)> = (0..n as u32).map(|v| (v, (v + 1) % n as u32)).collect();
        let mut g = GraphBuilder::new(n).edges(edges).build_dyn().unwrap();
        add_self_loops(&mut g);
        g
    }

    /// Two disconnected cliques split exactly at the block boundary:
    /// no crossing edges.
    fn two_blocks() -> DynGraph {
        let mut edges = Vec::new();
        for u in 0..4u32 {
            for v in 0..4u32 {
                if u != v {
                    edges.push((u, v));
                }
            }
        }
        for u in 4..8u32 {
            for v in 4..8u32 {
                if u != v {
                    edges.push((u, v));
                }
            }
        }
        let mut g = GraphBuilder::new(8).edges(edges).build_dyn().unwrap();
        add_self_loops(&mut g);
        g
    }

    fn opts() -> PagerankOptions {
        PagerankOptions::default().with_threads(1)
    }

    #[test]
    fn no_crossing_edges_skip_the_exchange_entirely() {
        let router =
            ShardRouter::new(two_blocks(), Algorithm::DfLF, opts(), ShardSpec::new(2)).unwrap();
        assert_eq!(router.exchange(), 0);
        assert!(router.pin().pinned.corr.is_none());
        let single = UpdateSession::new(two_blocks(), Algorithm::DfLF, opts());
        let pin = router.pin();
        for v in 0..8u32 {
            assert_eq!(
                pin.rank(v).to_bits(),
                single.rank(v).to_bits(),
                "vertex {v} differs from the unsharded session"
            );
        }
        router.shutdown();
    }

    #[test]
    fn crossing_ring_corrections_converge_to_the_unsharded_ranks() {
        let router =
            ShardRouter::new(ring_graph(12), Algorithm::DfLF, opts(), ShardSpec::new(3)).unwrap();
        let single = UpdateSession::new(ring_graph(12), Algorithm::DfLF, opts());
        let pin = router.pin();
        for v in 0..12u32 {
            let diff = (pin.rank(v) - single.rank(v)).abs();
            assert!(
                diff < 1e-9,
                "vertex {v}: sharded {} vs single {} (diff {diff:e})",
                pin.rank(v),
                single.rank(v)
            );
        }
        router.shutdown();
    }

    #[test]
    fn scatter_gather_commit_reports_per_shard_epochs() {
        let router =
            ShardRouter::new(ring_graph(8), Algorithm::DfLF, opts(), ShardSpec::new(4)).unwrap();
        // One edge into shard 0's range and one into shard 2's: shards
        // 1 and 3 must keep epoch 0.
        let mut batch = BatchUpdate::new();
        batch.insertions.push((0, 3));
        batch.insertions.push((4, 7));
        let o = router.commit(batch).unwrap();
        assert_eq!(o.batch, 2);
        assert_eq!(o.epochs, vec![1, 0, 1, 0]);
        let pin = router.pin();
        assert!(pin.has_edge(0, 3) && pin.has_edge(4, 7));
        assert_eq!(pin.num_edges(), 8 + 8 + 2);
        router.shutdown();
    }

    #[test]
    fn sharded_client_speaks_v2_and_refuses_views_and_follow() {
        let router =
            ShardRouter::new(ring_graph(8), Algorithm::DfLF, opts(), ShardSpec::new(2)).unwrap();
        let script = "hello\nviews\nfollow\nview add ego 1\ntopk 2 ego\nquit\n";
        let mut out = Vec::new();
        serve_shard_client(&router, script.as_bytes(), &mut out).unwrap();
        let out = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(
            lines[0],
            "hello lfpr/2 algo=DFLF shards=2 strategy=block caps=core,subs"
        );
        assert_eq!(lines[1], "err views unavailable on a sharded server");
        assert_eq!(lines[2], "err follow unavailable on a sharded server");
        assert_eq!(lines[3], "err views unavailable on a sharded server");
        assert_eq!(lines[4], "err views unavailable on a sharded server");
        assert_eq!(lines[5], "bye");
        router.shutdown();
    }

    #[test]
    fn stats_reports_queue_depths_and_summed_edges() {
        let router =
            ShardRouter::new(ring_graph(9), Algorithm::DfLF, opts(), ShardSpec::new(3)).unwrap();
        let script = "insert 0 2\nbatch\nstats\nquit\n";
        let mut out = Vec::new();
        serve_shard_client(&router, script.as_bytes(), &mut out).unwrap();
        let out = String::from_utf8(out).unwrap();
        let stats = out
            .lines()
            .find(|l| l.starts_with("stats "))
            .expect("no stats reply");
        assert!(stats.contains(" m=19 "), "bad edge sum in {stats:?}");
        assert!(stats.contains("epochs=1,0,0"), "bad epochs in {stats:?}");
        assert!(stats.ends_with("queues=0,0,0"), "bad queues in {stats:?}");
        router.shutdown();
    }

    /// A road grid with self-loops, and a router over it whose block
    /// partition cuts the grid, so edges cross from the start.
    fn road_router(n: usize, shards: usize) -> (DynGraph, ShardRouter) {
        let mut g = grid_road(n, 11);
        add_self_loops(&mut g);
        let router =
            ShardRouter::new(g.clone(), Algorithm::DfLF, opts(), ShardSpec::new(shards)).unwrap();
        (g, router)
    }

    /// Commit one seeded uniform batch (most of its edges cross the
    /// partition) to both `g` and the router.
    fn commit_crossing_batch(g: &mut DynGraph, router: &ShardRouter, seed: u64) {
        let batch = BatchSpec::mixed(0.004, seed).generate(g);
        g.apply_batch(&batch).unwrap();
        router.commit(batch).unwrap();
    }

    /// Recompute, from the pin's own views and overlay, the forward-push
    /// residual `res = α·P_cross·r_sh − (I − α·P)·c` and assert the
    /// exchange's stopping rule: every `|res_v| ≤ PUSH_TOL + δ_v`.
    ///
    /// `δ_v` allows for rounding and nothing else. Let `S_v` be the sum
    /// of the magnitudes of the `k_v` terms that make up `res_v`. The
    /// recompute's own summation is off by at most `k_v·ε·S_v`. The
    /// published `c` carries one rounding of at most `ε/2` of its value
    /// per push of `v` or of an in-neighbour in the pass that made it,
    /// and a pass pushes a vertex at most once per sweep: ≤ `SWEEPS/2·ε·S_v`.
    /// Passes on these graphs take ≤ 170 sweeps, so `SWEEPS = 256`. Hence
    /// `δ_v = (k_v + SWEEPS/2)·ε·S_v`, at most ≈ 3·10⁻¹⁷ here; a pass
    /// stopped one sweep early leaves residuals near 1.5·`PUSH_TOL`.
    fn assert_pushed_to_tolerance(router: &ShardRouter, pin: &ShardPin<'_>) {
        const SWEEPS: f64 = 256.0;
        let views = &pin.pinned.views;
        let zero = vec![0.0; router.n];
        let c = pin.pinned.corr.as_deref().unwrap_or(&zero);
        let mut res: Vec<f64> = c.iter().map(|&c| -c).collect();
        let mut mass: Vec<f64> = c.iter().map(|c| c.abs()).collect();
        let mut terms = vec![1.0f64; router.n];
        for (s, view) in views.iter().enumerate() {
            let owned = router.part.owned_range(s);
            for u in owned.clone() {
                let outs = view.snapshot().out(u);
                for &v in outs {
                    let r = if owned.contains(&v) {
                        0.0
                    } else {
                        view.ranks()[u as usize]
                    };
                    let t = router.alpha * (r + c[u as usize]) / outs.len() as f64;
                    res[v as usize] += t;
                    mass[v as usize] += t.abs();
                    terms[v as usize] += 1.0;
                }
            }
        }
        for v in 0..router.n {
            let delta = (terms[v] + SWEEPS / 2.0) * f64::EPSILON * mass[v];
            assert!(
                res[v].abs() <= PUSH_TOL + delta,
                "vertex {v}: |res| = {:e} > PUSH_TOL + {delta:e} at epochs {:?}",
                res[v].abs(),
                pin.epochs()
            );
        }
    }

    #[test]
    fn sweeps_leave_every_residual_under_push_tol() {
        for shards in [2, 4] {
            let (mut g, router) = road_router(4000, shards);
            assert_pushed_to_tolerance(&router, &router.pin());
            for seed in 0..6 {
                commit_crossing_batch(&mut g, &router, seed);
                assert_pushed_to_tolerance(&router, &router.pin());
            }
            router.shutdown();
        }
    }

    /// Client A's pass pins views holding the last crossing edges; client
    /// B's commit then deletes them, publishes, and charges the deletion
    /// before A reads the count. A reads 0, but its views still cross:
    /// it must run the full pass, not publish them with no correction.
    #[test]
    fn fast_path_refuses_views_older_than_a_charged_deletion() {
        let router =
            ShardRouter::new(ring_graph(8), Algorithm::DfLF, opts(), ShardSpec::new(2)).unwrap();
        let pinned_by_a: Vec<Arc<RankView>> =
            router.shards.iter().map(|s| s.reader.view()).collect();
        let mut pass_a = router.exchange_lock.lock().unwrap();
        thread::scope(|scope| {
            let b = scope.spawn(|| {
                let mut batch = BatchUpdate::new();
                batch.deletions = vec![(3, 4), (7, 0)];
                router.commit(batch).unwrap()
            });
            // B has published and charged; its own pass waits on A's lock.
            while router.crossing.load(Ordering::Acquire) != 0 {
                thread::yield_now();
            }
            assert!(
                router.solve(pinned_by_a, &mut pass_a) > 0,
                "A took the fast path"
            );
            let pin = router.pin();
            assert_eq!(pin.epochs(), vec![0, 0]);
            assert_pushed_to_tolerance(&router, &pin);
            drop(pass_a);
            assert_eq!(b.join().unwrap().epochs, vec![1, 1]);
        });
        // B's pass saw its own views, with no crossing edge left.
        let pin = router.pin();
        assert!(pin.pinned.corr.is_none());
        assert_pushed_to_tolerance(&router, &pin);
        router.shutdown();
    }

    #[test]
    fn pins_never_pair_new_shard_views_with_an_old_overlay() {
        let (mut g, router) = road_router(4096, 2);
        let done = std::sync::atomic::AtomicBool::new(false);
        thread::scope(|scope| {
            scope.spawn(|| {
                for seed in 0..12 {
                    commit_crossing_batch(&mut g, &router, seed);
                }
                done.store(true, Ordering::Release);
            });
            loop {
                let finished = done.load(Ordering::Acquire);
                assert_pushed_to_tolerance(&router, &router.pin());
                if finished {
                    break;
                }
            }
        });
        router.shutdown();
    }
}
