//! Long-lived incremental update sessions with a reusable workspace.
//!
//! [`UpdateSession`] is the stateful counterpart of [`api::run_dynamic`]:
//! it owns the evolving [`DynGraph`], keeps the graph's paged snapshot
//! coherent across batches (derived copy-on-write via
//! [`Snapshot::apply_batch`], never rebuilt), and reuses one
//! workspace — the shared [`AtomicRanks`] vector, the `RC`/`C` flag
//! vectors ([`EpochFlags`]: cleared per batch by an O(1) epoch bump),
//! the `VA` affected set ([`MarkBitmap`]: cleared per pass by zeroing
//! only its marked words), the batch-edge scratch, and the precompiled
//! round cursors — across every [`step`](UpdateSession::step).
//!
//! Why it matters: the one-shot path pays `O(n + m)` per batch no matter
//! how small `|Δ|` is — `DynGraph::snapshot()` rebuilds both CSRs plus
//! the transpose, and every `run_dynamic` allocates fresh rank/flag
//! vectors and clones the rank vector back out. A session replaces all
//! of that with work proportional to `|Δ|` plus an `O(n / PAGE_SIZE)`
//! page-table copy, which is what makes the paper's "small batch
//! updates are cheap" headline hold end-to-end (the `update_bench`
//! binary tracks the ratio). In steady state a lock-free step performs
//! **zero O(n) allocations**: ranks stay in place (the previous batch's
//! output *is* this batch's warm start), flags reset by epoch, the next
//! snapshot shares every page the batch does not touch, and the final
//! ranks are exposed by reference ([`ranks`](UpdateSession::ranks))
//! instead of a terminal `to_vec`.
//!
//! A DF/DT step also *finds* its work in time proportional to the
//! change: engine rounds walk the marked words of the `VA` bitmap
//! instead of testing all n vertices, the convergence check reads `RC`
//! at marked vertices only, and delta tracking diffs only the marked
//! vertices against a persistent per-ranking shadow of the previous
//! epoch (see `lf_common` for the round and exit-check argument).
//!
//! All eight algorithm variants work; the four barrier-based ones
//! delegate to [`api::run_dynamic`] (they are synchronous baselines and
//! keep their own allocation profile), while the four lock-free ones run
//! on the shared engine directly against the workspace.
//!
//! ## Concurrent readers
//!
//! A session is single-writer by construction (`step` takes `&mut
//! self`), but it can *publish* its committed state for concurrent
//! readers: [`reader`](UpdateSession::reader) hands out a cheap
//! [`RankReader`] handle whose [`view`](RankReader::view) returns the
//! latest [`RankView`] — an immutable `(Arc<Snapshot>, Arc<[f64]>,
//! epoch)` triple swapped in atomically after every commit. Readers on
//! other threads never block the writer beyond an `Arc` refcount bump,
//! never observe torn ranks (a view is frozen at publish time), and can
//! tell exactly which commit they are looking at via the monotone
//! epoch. Publication is pay-as-you-go: while no reader handle exists,
//! commits skip the `O(n)` rank copy entirely, and the copy recycles
//! the previous view's buffer once readers release it, so a served
//! session in steady state allocates nothing per batch either.

use crate::api::{self, Algorithm};
use crate::config::{PagerankOptions, Teleport};
use crate::frontier::dfs_mark_atomic;
use crate::lf_common::{
    helping_mark_phase, rc_flags_len, run_lf_engine_on, EngineStats, LfMode, Phase1Fn, RcView,
};
use crate::rank::{AtomicRanks, EpochFlags, MarkBitmap};
use crate::result::RunStatus;
use crate::topk::{top_k_blocks, BlockMax};
use lfpr_graph::types::Result as GraphResult;
use lfpr_graph::{
    out_degrees, BatchUpdate, DynGraph, GappedGraph, NeighborRuns, PrevRuns, SlackStats, Snapshot,
    WithDegrees,
};
use lfpr_sched::chunks::ChunkCursor;
use lfpr_sched::rounds::RoundCursors;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

/// What one [`UpdateSession::step`] did, end to end.
#[derive(Debug, Clone, Copy)]
pub struct StepStats {
    /// Termination status of the rank computation.
    pub status: RunStatus,
    /// Rounds/iterations the computation performed.
    pub iterations: usize,
    /// Wall-clock time of the parallel rank computation.
    pub runtime: Duration,
    /// Time spent refreshing the snapshot (incremental patch, or full
    /// rebuild on the fallback path).
    pub snapshot_time: Duration,
    /// End-to-end step time (validation + snapshot + ranks).
    pub total_time: Duration,
    /// Total vertex-rank computations across all threads.
    pub vertices_processed: u64,
    /// Vertices flagged affected by the initial marking phase.
    pub initially_affected: usize,
    /// Worker threads crashed by fault injection during the run.
    pub threads_crashed: usize,
    /// `|Δ|`: number of edge updates in the batch.
    pub batch_size: usize,
    /// Whether the snapshot was refreshed incrementally (`false` means
    /// the session had to fall back to a full rebuild, e.g. after
    /// unrecorded ad-hoc mutations).
    pub incremental: bool,
}

/// One vertex's rank movement across a single committed step.
///
/// Produced when delta tracking is on (see
/// [`UpdateSession::enable_delta_tracking`]); a vertex appears iff its
/// committed rank is bit-different from the previous epoch's.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RankDelta {
    /// The vertex whose rank moved.
    pub vertex: u32,
    /// Its rank at the previous epoch.
    pub old: f64,
    /// Its rank at this epoch.
    pub new: f64,
}

impl RankDelta {
    /// Signed rank change `new - old`.
    pub fn delta(&self) -> f64 {
        self.new - self.old
    }
}

/// Vertices whose ranks are bit-different between `shadow` (the previous
/// epoch's ranks) and `ranks`, ascending; `shadow` is brought up to date
/// as a side effect. With `marked`, only those vertices are compared —
/// sound for a DF/DT pass, which writes no rank outside its `VA` set.
fn diff_into_shadow(
    shadow: &mut [f64],
    ranks: &[f64],
    marked: Option<&MarkBitmap>,
) -> Arc<[RankDelta]> {
    let mut out = Vec::new();
    let mut visit = |v: usize| {
        let (old, new) = (shadow[v], ranks[v]);
        if old.to_bits() != new.to_bits() {
            out.push(RankDelta {
                vertex: v as u32,
                old,
                new,
            });
            shadow[v] = new;
        }
    };
    match marked {
        Some(va) => va.iter().for_each(&mut visit),
        None => (0..ranks.len()).for_each(&mut visit),
    }
    out.into()
}

/// Make `shadow` a copy of `ranks` unless it already mirrors a vector of
/// the same length — the previous epoch, kept current by
/// [`diff_into_shadow`]. The full copy runs only when tracking starts
/// (first tracked step, a new or restored view, a restored session) or
/// the vertex set grew.
fn sync_shadow(shadow: &mut Vec<f64>, ranks: &[f64]) {
    if shadow.len() != ranks.len() {
        shadow.clear();
        shadow.extend_from_slice(ranks);
    }
}

/// Top-`k` deltas by |change| descending, ties by vertex id ascending:
/// an `O(|D|)` selection of the `k` best, then a sort of those `k` only.
fn top_movers_of(deltas: &[RankDelta], k: usize) -> Vec<RankDelta> {
    let order = |a: &RankDelta, b: &RankDelta| {
        b.delta()
            .abs()
            .partial_cmp(&a.delta().abs())
            .unwrap()
            .then(a.vertex.cmp(&b.vertex))
    };
    if k == 0 {
        return Vec::new();
    }
    let mut d = deltas.to_vec();
    if k < d.len() {
        d.select_nth_unstable_by(k - 1, order);
        d.truncate(k);
    }
    d.sort_unstable_by(order);
    d
}

/// A named secondary ranking published alongside the default one.
#[derive(Debug, Clone)]
struct PublishedNamedView {
    name: Arc<str>,
    sources: usize,
    ranks: Arc<[f64]>,
    /// Block maxima of `ranks` (see [`crate::topk`]).
    maxima: Arc<[f64]>,
    deltas: Arc<[RankDelta]>,
    /// The view's restart distribution, frozen so readers (checkpoint
    /// writers, the replica feed) can reconstruct the view exactly
    /// without access to the owning session.
    teleport: Teleport,
}

/// One committed session state, immutable once published.
///
/// A view pins the graph snapshot and the rank vector of a single
/// epoch: the two always correspond to the same commit, no matter how
/// many batches the writer has applied since. Holding a view never
/// blocks the writer; it only keeps this epoch's buffers alive. When
/// the session hosts named ranking views ([`UpdateSession::add_view`])
/// or delta tracking, those are frozen into the view too. Each ranking
/// carries the maxima of its [`PAGE_SIZE`](lfpr_graph::snapshot::PAGE_SIZE)-vertex
/// blocks, so top-k reads skip the blocks that cannot contribute.
#[derive(Debug, Clone)]
pub struct RankView {
    snapshot: Arc<Snapshot>,
    ranks: Arc<[f64]>,
    /// Block maxima of `ranks` (see [`crate::topk`]).
    maxima: Arc<[f64]>,
    epoch: u64,
    deltas: Arc<[RankDelta]>,
    views: Arc<[PublishedNamedView]>,
}

impl RankView {
    /// The graph snapshot this view's ranks were computed on.
    pub fn snapshot(&self) -> &Arc<Snapshot> {
        &self.snapshot
    }

    /// The committed rank vector of this epoch.
    pub fn ranks(&self) -> &[f64] {
        &self.ranks
    }

    /// Which commit this view captures: the session's
    /// [`steps`](UpdateSession::steps) count at publish time (0 = the
    /// initial static ranks). Strictly monotone across republications
    /// with interleaved commits.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Rank of one vertex.
    pub fn rank(&self, v: u32) -> f64 {
        self.ranks[v as usize]
    }

    /// The `k` highest-ranked vertices of this epoch, descending (ties
    /// broken by vertex id). Reads only the blocks whose maximum can
    /// place (`O(n / PAGE_SIZE + k · PAGE_SIZE)`).
    pub fn top_k(&self, k: usize) -> Vec<(u32, f64)> {
        self.top_k_range(k, 0..u32::MAX)
    }

    /// [`top_k`](Self::top_k) restricted to vertex ids in `range`. The
    /// sharded serving tier merges per-shard top-k lists, and each
    /// shard's candidates must come from its owned id range only — the
    /// shard-local ranks of vertices it does not own are partial sums.
    pub fn top_k_range(&self, k: usize, range: std::ops::Range<u32>) -> Vec<(u32, f64)> {
        top_k_blocks(&self.ranks, &self.maxima, k, range)
    }

    /// Every vertex whose rank moved across the step that produced this
    /// epoch (empty unless the session tracks deltas).
    pub fn deltas(&self) -> &[RankDelta] {
        &self.deltas
    }

    /// The `k` largest rank changes of this epoch by |Δ| descending
    /// (ties by vertex id).
    pub fn movers(&self, k: usize) -> Vec<RankDelta> {
        top_movers_of(&self.deltas, k)
    }

    /// Names and source counts of the named ranking views frozen into
    /// this epoch (`sources == 0` means a uniform-restart view).
    pub fn view_names(&self) -> Vec<(String, usize)> {
        self.views
            .iter()
            .map(|v| (v.name.to_string(), v.sources))
            .collect()
    }

    /// Whether a named view exists in this epoch.
    pub fn has_view(&self, name: &str) -> bool {
        self.views.iter().any(|v| &*v.name == name)
    }

    fn named(&self, name: &str) -> Option<&PublishedNamedView> {
        self.views.iter().find(|v| &*v.name == name)
    }

    /// Rank of `v` in a named view (`None` if the view is unknown).
    pub fn rank_in(&self, name: &str, v: u32) -> Option<f64> {
        self.named(name).map(|nv| nv.ranks[v as usize])
    }

    /// Top-`k` of a named view (`None` if the view is unknown).
    pub fn top_k_in(&self, name: &str, k: usize) -> Option<Vec<(u32, f64)>> {
        self.named(name)
            .map(|nv| top_k_blocks(&nv.ranks, &nv.maxima, k, 0..u32::MAX))
    }

    /// Biggest movers of a named view (`None` if the view is unknown).
    pub fn movers_in(&self, name: &str, k: usize) -> Option<Vec<RankDelta>> {
        self.named(name).map(|nv| top_movers_of(&nv.deltas, k))
    }

    /// Full delta list of a named view (`None` if the view is unknown).
    /// Used by the replica feed to ship a joining follower the exact
    /// per-view mover state of the pinned epoch.
    pub fn deltas_in(&self, name: &str) -> Option<&[RankDelta]> {
        self.named(name).map(|nv| &*nv.deltas)
    }

    /// The restart distribution of a named view (`None` if unknown).
    /// Frozen at publish time so feed/checkpoint writers holding only a
    /// reader can reconstruct the view's teleport exactly.
    pub fn teleport_in(&self, name: &str) -> Option<Teleport> {
        self.named(name).map(|nv| nv.teleport.clone())
    }

    /// Ranks of a named view (`None` if the view is unknown).
    pub fn ranks_in(&self, name: &str) -> Option<&[f64]> {
        self.named(name).map(|nv| &*nv.ranks)
    }
}

/// A cloneable, `Send + Sync` handle onto a session's published views.
///
/// Obtained from [`UpdateSession::reader`]; any number of threads may
/// call [`view`](Self::view) while the owning thread keeps committing
/// batches. Each call is one `RwLock` read acquisition plus an `Arc`
/// clone — the pointer swap the writer performs at publish time is the
/// only write ever taken on the slot, so readers cannot observe a
/// half-updated view.
#[derive(Debug, Clone)]
pub struct RankReader {
    slot: Arc<RwLock<Arc<RankView>>>,
}

impl RankReader {
    /// The most recently published view (latest committed epoch).
    pub fn view(&self) -> Arc<RankView> {
        self.slot.read().expect("publish slot poisoned").clone()
    }

    /// The latest committed epoch, without retaining the view.
    pub fn epoch(&self) -> u64 {
        self.view().epoch
    }
}

/// Apply `batch`'s out-degree changes (one per edge, at its source) to
/// a dense degree array.
fn patch_degrees(degrees: &mut [u32], batch: &BatchUpdate) {
    for &(u, _) in &batch.deletions {
        degrees[u as usize] -= 1;
    }
    for &(u, _) in &batch.insertions {
        degrees[u as usize] += 1;
    }
}

/// Reusable per-session buffers — allocated once, recycled every batch.
struct Workspace {
    /// Shared in-place rank vector; the previous step's output is the
    /// next step's warm start, with no copy in between.
    ranks: AtomicRanks,
    /// `VA` (affected) set of the DF/DT passes, cleared at the start of
    /// each pass and read after it by delta tracking.
    va: MarkBitmap,
    /// `RC` (not-yet-converged) flags, epoch-cleared per batch.
    rc: EpochFlags,
    /// `C` (batch-source checked) flags for the helping phase 1.
    checked: EpochFlags,
    /// Flattened batch edges (phase-1 work list).
    edges: Vec<(u32, u32)>,
    /// Per-round chunk cursors over the precompiled vertex plan,
    /// rewound (not reallocated) between steps.
    rounds: Option<RoundCursors>,
}

impl Workspace {
    /// A fresh workspace warm-started from `ranks`.
    fn new(ranks: &[f64], opts: &PagerankOptions) -> Self {
        let n = ranks.len();
        Workspace {
            ranks: AtomicRanks::from_slice(ranks),
            va: MarkBitmap::new(n),
            rc: EpochFlags::new(rc_flags_len(n, opts.convergence, opts.chunk_size)),
            checked: EpochFlags::new(n),
            edges: Vec::new(),
            rounds: None,
        }
    }
}

/// A named ranking maintained alongside the default one: same graph,
/// same algorithm, same flag workspace — only the restart distribution
/// (and therefore the rank vector) differs. Each step re-runs the
/// kernel once per view after the default pass; the affected-marking
/// phase repeats per pass because affectedness is graph-topological,
/// not rank-dependent.
struct SecondaryView {
    name: Arc<str>,
    /// Personalized source count (0 for a uniform-restart view).
    sources: usize,
    /// Session options with this view's teleport swapped in.
    opts: PagerankOptions,
    /// The view's in-place rank vector (its own warm start).
    ranks: AtomicRanks,
    /// Block maxima of `ranks`, refreshed after every pass.
    index: BlockMax,
    /// The view's ranks at the previous epoch (delta tracking only).
    shadow: Vec<f64>,
    /// Rank movements of the most recent step (when tracking is on).
    deltas: Arc<[RankDelta]>,
}

impl SecondaryView {
    /// The view's current ranks, borrowed from its in-place vector.
    fn current(&self) -> &[f64] {
        // SAFETY: as in `UpdateSession::ranks`: a view's ranks are written
        // only inside session methods taking `&mut self`, whose worker
        // teams have joined before they return, so no writer can run
        // while the session (and with it this slice) is borrowed shared.
        unsafe { self.ranks.as_f64_slice_unchecked() }
    }
}

/// A long-running incremental PageRank session over an evolving graph.
///
/// ```
/// use lfpr_core::{session::UpdateSession, Algorithm, PagerankOptions};
/// use lfpr_graph::{BatchUpdate, GraphBuilder, selfloops::add_self_loops};
///
/// let mut g = GraphBuilder::new(4)
///     .edges([(0, 1), (1, 2), (2, 0), (2, 3)])
///     .build_dyn()
///     .unwrap();
/// add_self_loops(&mut g);
/// let opts = PagerankOptions::default().with_threads(2);
/// let mut session = UpdateSession::new(g, Algorithm::DfLF, opts);
///
/// let before = session.ranks()[1];
/// let stats = session
///     .step(&BatchUpdate::insert_only(vec![(3, 1)]))
///     .unwrap();
/// assert!(stats.status.is_success());
/// assert!(session.ranks()[1] > before);
/// ```
pub struct UpdateSession {
    graph: DynGraph,
    /// Out-degree of every vertex of `graph`, kept current by every
    /// commit in O(|Δ|): the kernels read degrees from here, not from
    /// the snapshot's pages ([`WithDegrees`]).
    degrees: Vec<u32>,
    /// Which mutable representation commits run against.
    layout: StorageLayout,
    /// The gap-aware store (present iff `layout == Gapped`), kept in
    /// lockstep with `graph`'s adjacency by every committed batch.
    gapped: Option<GappedGraph>,
    algorithm: Algorithm,
    opts: PagerankOptions,
    ws: Workspace,
    last: Option<StepStats>,
    steps: u64,
    /// The published-view slot shared with every [`RankReader`]. The
    /// session is the only writer; publishing is one pointer swap.
    published: Arc<RwLock<Arc<RankView>>>,
    /// `steps` value of the most recent publication (commits that
    /// happen while no reader handle exists skip publishing).
    published_step: u64,
    /// Set when the publishable state changed without a step (a named
    /// view was added/dropped with no reader live); the next `reader()`
    /// call republishes even though `published_step` matches.
    published_stale: bool,
    /// The rank buffer of the view retired by the last publish, kept
    /// for reuse once every reader has released it — steady-state
    /// publication then allocates nothing.
    spare_ranks: Option<Arc<[f64]>>,
    /// The view the last publish displaced while a reader still held
    /// it. The next step retries once to take its rank buffer into
    /// `spare_ranks`, and then lets it go.
    displaced: Option<Arc<RankView>>,
    /// Whether steps record per-vertex rank deltas (off by default —
    /// tracking keeps an n-entry shadow per ranking and diffs it after
    /// every pass).
    track_deltas: bool,
    /// The default ranking at the previous epoch, diffed against after
    /// each pass (marked vertices only after a DF/DT pass).
    shadow: Vec<f64>,
    /// Rank movements of the most recent step (empty when tracking is
    /// off or no step ran yet).
    last_deltas: Arc<[RankDelta]>,
    /// Named secondary ranking views sharing this session's graph and
    /// flag workspace.
    views: Vec<SecondaryView>,
    /// Block maxima of the default ranking, refreshed after every pass
    /// (from the `VA` set after a DF/DT pass).
    index: BlockMax,
}

/// Which mutable representation an [`UpdateSession`] commits batches
/// against.
///
/// `Packed` commits each batch to the paged snapshot copy-on-write (only
/// the touched pages are rebuilt) and runs the kernels on snapshots.
/// `Gapped` also commits into a [`GappedGraph`] with run-local O(deg)
/// mutations and runs the kernels on the gapped runs; the paged snapshot
/// is still derived per batch, for readers and checkpoints. Single-thread
/// runs are bit-identical across layouts for all eight variants (the
/// gapped runs preserve neighbor order, hence float accumulation order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StorageLayout {
    /// Paged snapshots only (the proptested oracle).
    #[default]
    Packed,
    /// Gap-aware runs with per-vertex slack (O(|Δ|) commits).
    Gapped,
}

impl std::str::FromStr for StorageLayout {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "packed" => Ok(StorageLayout::Packed),
            "gapped" => Ok(StorageLayout::Gapped),
            other => Err(format!("unknown layout '{other}' (expected packed|gapped)")),
        }
    }
}

impl std::fmt::Display for StorageLayout {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            StorageLayout::Packed => "packed",
            StorageLayout::Gapped => "gapped",
        })
    }
}

impl UpdateSession {
    /// Take ownership of `graph`, compute its initial ranks with the
    /// matching static variant (lock-free for LF algorithms, barrier-
    /// based otherwise), and set up the reusable workspace.
    pub fn new(mut graph: DynGraph, algorithm: Algorithm, opts: PagerankOptions) -> Self {
        let snapshot = graph.snapshot_shared();
        let opts = opts.precompile_vertex_plan(&snapshot);
        let static_algo = if algorithm.is_lock_free() {
            Algorithm::StaticLF
        } else {
            Algorithm::StaticBB
        };
        let initial = api::run_static(static_algo, &*snapshot, &opts);
        let ws = Workspace::new(&initial.ranks, &opts);
        let last = StepStats {
            status: initial.status,
            iterations: initial.iterations,
            runtime: initial.runtime,
            snapshot_time: Duration::ZERO,
            total_time: initial.runtime,
            vertices_processed: initial.vertices_processed,
            initially_affected: 0,
            threads_crashed: initial.threads_crashed,
            batch_size: 0,
            incremental: false,
        };
        // Epoch 0: the initial static ranks. `initial.ranks` moves into
        // the published buffer, so the first publication is free.
        let degrees = out_degrees(&*snapshot);
        let index = BlockMax::new(&initial.ranks);
        let view = RankView {
            snapshot,
            ranks: Arc::from(initial.ranks),
            maxima: Arc::from(index.maxima()),
            epoch: 0,
            deltas: Arc::from(Vec::new()),
            views: Arc::from(Vec::new()),
        };
        UpdateSession {
            degrees,
            graph,
            layout: StorageLayout::Packed,
            gapped: None,
            algorithm,
            opts,
            ws,
            last: Some(last),
            steps: 0,
            published: Arc::new(RwLock::new(Arc::new(view))),
            published_step: 0,
            published_stale: false,
            spare_ranks: None,
            displaced: None,
            track_deltas: false,
            shadow: Vec::new(),
            last_deltas: Arc::from(Vec::new()),
            views: Vec::new(),
            index,
        }
    }

    /// [`new`](Self::new) with an explicit storage layout.
    pub fn new_with_layout(
        graph: DynGraph,
        algorithm: Algorithm,
        opts: PagerankOptions,
        layout: StorageLayout,
    ) -> Self {
        let mut session = Self::new(graph, algorithm, opts);
        session.set_storage_layout(layout);
        session
    }

    /// Switch the mutable storage layout. Entering `Gapped` mirrors the
    /// current snapshot into the gap-aware store (O(n + m), once);
    /// returning to `Packed` drops the store. Ranks and epoch are
    /// untouched — the layout only changes how commits are applied.
    pub fn set_storage_layout(&mut self, layout: StorageLayout) {
        if layout == self.layout {
            return;
        }
        self.gapped = match layout {
            StorageLayout::Gapped => {
                Some(GappedGraph::from_snapshot(&self.graph.snapshot_shared()))
            }
            StorageLayout::Packed => None,
        };
        self.layout = layout;
    }

    /// The active storage layout.
    pub fn storage_layout(&self) -> StorageLayout {
        self.layout
    }

    /// Occupancy of the gapped store's buffers (`None` under `Packed`).
    pub fn slack_stats(&self) -> Option<SlackStats> {
        self.gapped.as_ref().map(|g| g.slack_stats())
    }

    /// Rebuild a session from externally persisted committed state —
    /// the checkpoint/recovery path. Unlike [`new`](Self::new), no
    /// static rank computation runs: `ranks` are installed bit-for-bit
    /// as the committed state of `epoch`, and the step counter resumes
    /// from there, so replaying the same batches afterwards (at one
    /// thread) reproduces a never-crashed session exactly. Named views
    /// and delta state are restored separately via
    /// [`restore_view`](Self::restore_view) /
    /// [`restore_deltas`](Self::restore_deltas).
    pub fn restore(
        mut graph: DynGraph,
        algorithm: Algorithm,
        opts: PagerankOptions,
        ranks: &[f64],
        epoch: u64,
    ) -> Result<Self, String> {
        let snapshot = graph.snapshot_shared();
        let n = snapshot.num_vertices();
        if ranks.len() != n {
            return Err(format!(
                "rank vector length {} does not match vertex count {n}",
                ranks.len()
            ));
        }
        let opts = opts.precompile_vertex_plan(&snapshot);
        let ws = Workspace::new(ranks, &opts);
        let degrees = out_degrees(&*snapshot);
        let index = BlockMax::new(ranks);
        let view = RankView {
            snapshot,
            ranks: Arc::from(ranks),
            maxima: Arc::from(index.maxima()),
            epoch,
            deltas: Arc::from(Vec::new()),
            views: Arc::from(Vec::new()),
        };
        Ok(UpdateSession {
            degrees,
            graph,
            layout: StorageLayout::Packed,
            gapped: None,
            algorithm,
            opts,
            ws,
            last: None,
            steps: epoch,
            published: Arc::new(RwLock::new(Arc::new(view))),
            published_step: epoch,
            published_stale: false,
            spare_ranks: None,
            displaced: None,
            track_deltas: false,
            shadow: Vec::new(),
            last_deltas: Arc::from(Vec::new()),
            views: Vec::new(),
            index,
        })
    }

    /// Reinstall the rank deltas of the restored epoch (recovery path),
    /// so `movers` answers match the pre-crash session even when
    /// recovery lands exactly on a checkpoint with no batches to replay.
    pub fn restore_deltas(&mut self, deltas: Vec<RankDelta>) {
        self.last_deltas = deltas.into();
        self.maybe_publish();
    }

    /// Reinstall a named view from persisted state (recovery path):
    /// like [`add_view`](Self::add_view) but with the rank vector and
    /// delta list provided bit-for-bit instead of recomputed.
    pub fn restore_view(
        &mut self,
        name: &str,
        teleport: Teleport,
        ranks: &[f64],
        deltas: Vec<RankDelta>,
    ) -> Result<(), String> {
        if name == "default" {
            return Err("view name default is reserved".into());
        }
        if self.views.iter().any(|v| &*v.name == name) {
            return Err(format!("view {name} already exists"));
        }
        let n = self.graph.num_vertices();
        if ranks.len() != n {
            return Err(format!(
                "view {name}: rank vector length {} does not match vertex count {n}",
                ranks.len()
            ));
        }
        if let Some(w) = teleport.weights() {
            if w.max_vertex() as usize >= n {
                return Err(format!(
                    "teleport source {} out of range (n = {n})",
                    w.max_vertex()
                ));
            }
        }
        let sources = teleport.weights().map_or(0, |w| w.len());
        let opts = self.opts.clone().with_teleport(teleport);
        self.views.push(SecondaryView {
            name: Arc::from(name),
            sources,
            opts,
            ranks: AtomicRanks::from_slice(ranks),
            index: BlockMax::new(ranks),
            shadow: Vec::new(),
            deltas: deltas.into(),
        });
        self.maybe_publish();
        Ok(())
    }

    /// A handle for concurrent readers: any number of threads may pull
    /// the latest committed [`RankView`] from it while this session
    /// keeps applying batches. Creating (or holding) at least one
    /// reader is what turns publication on — commits made while no
    /// handle exists skip the per-commit rank copy, and the handle
    /// returned here is brought up to date immediately.
    pub fn reader(&mut self) -> RankReader {
        if self.published_step != self.steps || self.published_stale {
            self.publish();
        }
        RankReader {
            slot: Arc::clone(&self.published),
        }
    }

    /// Publish the current committed state if any reader can see it.
    fn maybe_publish(&mut self) {
        // Only the session and live `RankReader`s hold the slot; count 1
        // means nobody is (or can start) reading — skip the O(n) copy.
        // A reader handed out later is caught up by `reader()` itself.
        if Arc::strong_count(&self.published) > 1 {
            self.publish();
        } else {
            self.published_stale = true;
        }
    }

    /// Unconditionally publish `(snapshot, ranks, epoch = steps)`.
    fn publish(&mut self) {
        let n = self.ws.ranks.len();
        let ranks: &[f64] = self.ws.ranks.as_f64_slice();
        let buf: Arc<[f64]> = match self.spare_ranks.take() {
            // Reuse the retired buffer when every reader released it
            // (unique Arc) and the vertex count still matches.
            Some(mut spare) if spare.len() == n => match Arc::get_mut(&mut spare) {
                Some(dst) => {
                    dst.copy_from_slice(ranks);
                    spare
                }
                None => Arc::from(ranks),
            },
            _ => Arc::from(ranks),
        };
        // Named views are copied out per publish — they exist only on
        // served sessions, which accept the O(n) copy per view.
        let named: Vec<PublishedNamedView> = self
            .views
            .iter_mut()
            .map(|v| PublishedNamedView {
                name: Arc::clone(&v.name),
                sources: v.sources,
                ranks: Arc::from(v.ranks.as_f64_slice()),
                maxima: Arc::from(v.index.maxima()),
                deltas: Arc::clone(&v.deltas),
                teleport: v.opts.teleport.clone(),
            })
            .collect();
        let view = Arc::new(RankView {
            snapshot: self.graph.snapshot_shared(),
            ranks: buf,
            maxima: Arc::from(self.index.maxima()),
            epoch: self.steps,
            deltas: Arc::clone(&self.last_deltas),
            views: named.into(),
        });
        let old = {
            let mut slot = self.published.write().expect("publish slot poisoned");
            std::mem::replace(&mut *slot, view)
        };
        self.published_step = self.steps;
        self.published_stale = false;
        // The displaced view's rank buffer becomes the next copy
        // destination. If a reader still holds the view, the buffer
        // stays frozen with it and the next step retries once
        // (`retry_displaced`). Its snapshot needs no recycling: the next
        // one shares every untouched page with it.
        match Arc::try_unwrap(old) {
            Ok(old) => self.spare_ranks = Some(old.ranks),
            Err(held) => self.displaced = Some(held),
        }
    }

    /// Take the rank buffer of the view the last publish displaced if
    /// its readers have released it since; otherwise drop this session's
    /// reference, so the view lives only as long as they hold it. A
    /// reader that holds views from one commit to the next (the sharded
    /// router keeps the views its last exchange solved against) then
    /// still recycles.
    fn retry_displaced(&mut self) {
        if let Some(view) = self.displaced.take().and_then(Arc::into_inner) {
            self.spare_ranks = Some(view.ranks);
        }
    }

    /// The current rank vector, borrowed from the in-place workspace
    /// (no copy).
    pub fn ranks(&self) -> &[f64] {
        // SAFETY: every writer of `ws.ranks` runs inside a method taking
        // `&mut self` and finishes (joins its worker team) before that
        // method returns, so a shared borrow of `self` can never observe
        // a concurrent writer.
        unsafe { self.ws.ranks.as_f64_slice_unchecked() }
    }

    /// Rank of one vertex.
    pub fn rank(&self, v: u32) -> f64 {
        self.ranks()[v as usize]
    }

    /// Read-only access to the owned graph.
    pub fn graph(&self) -> &DynGraph {
        &self.graph
    }

    /// The `k` highest-ranked vertices, descending (ties broken by
    /// vertex id). Reads only the blocks whose maximum can place
    /// (`O(n / PAGE_SIZE + k · PAGE_SIZE)`; see [`crate::topk`]).
    pub fn top_k(&self, k: usize) -> Vec<(u32, f64)> {
        top_k_blocks(self.ranks(), self.index.maxima(), k, 0..u32::MAX)
    }

    /// Turn on per-step rank-delta recording: every subsequent step
    /// diffs the committed ranks against the previous epoch's and keeps
    /// the moved vertices in [`last_deltas`](Self::last_deltas) (and in
    /// each published [`RankView`]). Off by default — tracking keeps an
    /// n-entry shadow of each ranking. The first tracked pass copies it
    /// in full; afterwards a DF/DT pass diffs only its marked vertices,
    /// while Static/ND/BB passes, which may move any rank, diff all n.
    pub fn enable_delta_tracking(&mut self) {
        self.track_deltas = true;
    }

    /// Rank movements of the most recent step (empty when tracking is
    /// off, or before the first tracked step).
    pub fn last_deltas(&self) -> &[RankDelta] {
        &self.last_deltas
    }

    /// The `k` largest rank changes of the most recent step, by |Δ|
    /// descending (ties by vertex id ascending). Requires
    /// [`enable_delta_tracking`](Self::enable_delta_tracking).
    pub fn movers(&self, k: usize) -> Vec<RankDelta> {
        top_movers_of(&self.last_deltas, k)
    }

    /// Add a named ranking view sharing this session's graph and
    /// workspace, with its own restart distribution. The view's ranks
    /// are computed statically now and kept current by every subsequent
    /// step (one extra kernel pass per view per batch). The name
    /// `"default"` is reserved for the session's own ranking; duplicate
    /// names and personalized sources outside the vertex set are
    /// rejected.
    pub fn add_view(&mut self, name: &str, teleport: Teleport) -> Result<(), String> {
        if name == "default" {
            return Err("view name default is reserved".into());
        }
        if self.views.iter().any(|v| &*v.name == name) {
            return Err(format!("view {name} already exists"));
        }
        let n = self.graph.num_vertices();
        if let Some(w) = teleport.weights() {
            if w.max_vertex() as usize >= n {
                return Err(format!(
                    "teleport source {} out of range (n = {n})",
                    w.max_vertex()
                ));
            }
        }
        let sources = teleport.weights().map_or(0, |w| w.len());
        let opts = self.opts.clone().with_teleport(teleport);
        let snapshot = self.graph.snapshot_shared();
        let static_algo = if self.algorithm.is_lock_free() {
            Algorithm::StaticLF
        } else {
            Algorithm::StaticBB
        };
        let initial = api::run_static(static_algo, &*snapshot, &opts);
        self.views.push(SecondaryView {
            name: Arc::from(name),
            sources,
            opts,
            ranks: AtomicRanks::from_slice(&initial.ranks),
            index: BlockMax::new(&initial.ranks),
            shadow: Vec::new(),
            deltas: Arc::from(Vec::new()),
        });
        // Republish (same epoch) so live readers see the new view now.
        self.maybe_publish();
        Ok(())
    }

    /// Remove a named ranking view.
    pub fn drop_view(&mut self, name: &str) -> Result<(), String> {
        match self.views.iter().position(|v| &*v.name == name) {
            Some(i) => {
                self.views.remove(i);
                self.maybe_publish();
                Ok(())
            }
            None => Err(format!("unknown view {name}")),
        }
    }

    /// Names and source counts of the named views, in creation order
    /// (`sources == 0` means a uniform-restart view).
    pub fn view_names(&self) -> Vec<(String, usize)> {
        self.views
            .iter()
            .map(|v| (v.name.to_string(), v.sources))
            .collect()
    }

    /// Whether a named view exists.
    pub fn has_view(&self, name: &str) -> bool {
        self.views.iter().any(|v| &*v.name == name)
    }

    fn find_view(&self, name: &str) -> Option<&SecondaryView> {
        self.views.iter().find(|v| &*v.name == name)
    }

    /// Current ranks of a named view (`None` if unknown).
    pub fn view_ranks(&self, name: &str) -> Option<&[f64]> {
        self.find_view(name).map(SecondaryView::current)
    }

    /// Rank of `v` in a named view (`None` if the view is unknown).
    pub fn view_rank(&self, name: &str, v: u32) -> Option<f64> {
        self.view_ranks(name).map(|r| r[v as usize])
    }

    /// Top-`k` of a named view (`None` if the view is unknown).
    pub fn view_top_k(&self, name: &str, k: usize) -> Option<Vec<(u32, f64)>> {
        self.find_view(name)
            .map(|v| top_k_blocks(v.current(), v.index.maxima(), k, 0..u32::MAX))
    }

    /// Biggest movers of a named view (`None` if the view is unknown).
    pub fn view_movers(&self, name: &str, k: usize) -> Option<Vec<RankDelta>> {
        self.find_view(name).map(|v| top_movers_of(&v.deltas, k))
    }

    /// Full delta list of a named view (`None` if the view is unknown).
    pub fn view_deltas(&self, name: &str) -> Option<&[RankDelta]> {
        self.find_view(name).map(|v| &*v.deltas)
    }

    /// The restart distribution of a named view (`None` if unknown).
    /// The checkpoint writer persists this alongside the view's ranks.
    pub fn view_teleport(&self, name: &str) -> Option<Teleport> {
        self.find_view(name).map(|v| v.opts.teleport.clone())
    }

    /// The configured algorithm.
    pub fn algorithm(&self) -> Algorithm {
        self.algorithm
    }

    /// The configured options.
    pub fn options(&self) -> &PagerankOptions {
        &self.opts
    }

    /// Stats of the most recent step (or of the initial static compute
    /// before any step ran).
    pub fn last_stats(&self) -> Option<&StepStats> {
        self.last.as_ref()
    }

    /// Number of update steps performed so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// The coherent snapshot of the current graph (cache hit after the
    /// first call; kept up to date copy-on-write by `step`).
    pub fn snapshot(&mut self) -> Arc<Snapshot> {
        self.graph.snapshot_shared()
    }

    /// Apply `batch` to the graph (all-or-nothing; the graph and ranks
    /// are untouched on error) and refresh the ranks incrementally.
    pub fn step(&mut self, batch: &BatchUpdate) -> GraphResult<StepStats> {
        self.retry_displaced();
        if self.layout == StorageLayout::Gapped {
            return self.step_gapped(batch);
        }
        let t_total = Instant::now();
        let prev = self.graph.snapshot_shared();
        let t_snap = Instant::now();
        // Validates, then patches the cache. Its defensive arm drops the
        // cache instead of installing a bad patch; report honestly when
        // that forces the next line into a full rebuild.
        self.graph.apply_batch(batch)?;
        patch_degrees(&mut self.degrees, batch);
        let incremental = self.graph.cached_snapshot().is_some();
        let curr = self.graph.snapshot_shared();
        let snapshot_time = t_snap.elapsed();
        // Lend the degrees out for the kernel borrow; `run_kernel` needs
        // `&mut self` for the workspace.
        let degrees = std::mem::take(&mut self.degrees);
        let (engine, affected) =
            self.run_kernel(&*prev, &WithDegrees::new(&*curr, &degrees), batch);
        self.degrees = degrees;
        let stats = self.finish(
            engine,
            affected,
            batch.len(),
            snapshot_time,
            incremental,
            t_total,
        );
        self.maybe_publish();
        Ok(stats)
    }

    /// The gapped commit path: "prev" is just the recorded pre-batch
    /// out-runs of the batch's sources ([`PrevRuns`]) — the only
    /// pre-batch state the dynamic kernels consult — and the kernels
    /// iterate the gapped store directly. The paged snapshot readers see
    /// is derived copy-on-write alongside.
    fn step_gapped(&mut self, batch: &BatchUpdate) -> GraphResult<StepStats> {
        let t_total = Instant::now();
        let t_snap = Instant::now();
        let gapped_ref = self.gapped.as_ref().expect("layout is Gapped");
        let prev = PrevRuns::record(gapped_ref, batch.sources());
        self.graph.apply_batch(batch)?; // validates, then patches the cache
        patch_degrees(&mut self.degrees, batch);
        self.gapped
            .as_mut()
            .expect("layout is Gapped")
            .apply_batch(batch)
            .expect("batch validated against the authoritative adjacency");
        let snapshot_time = t_snap.elapsed();
        // Move the store out for the kernel borrow; `run_kernel` needs
        // `&mut self` for the workspace while reading the graph.
        let gapped = self.gapped.take().expect("layout is Gapped");
        let (engine, affected) = self.run_kernel(&prev, &gapped, batch);
        self.gapped = Some(gapped);
        let stats = self.finish(engine, affected, batch.len(), snapshot_time, true, t_total);
        self.maybe_publish();
        Ok(stats)
    }

    /// Mutate the graph through `mutate` (which must return the batch of
    /// every recorded insertion/deletion it performed) and refresh the
    /// ranks. The snapshot is re-derived incrementally from the recorded
    /// batch; if the batch does not reproduce the mutated graph (ad-hoc
    /// unrecorded changes), the session falls back to a full rebuild.
    pub fn step_mutated(&mut self, mutate: impl FnOnce(&mut DynGraph) -> BatchUpdate) -> StepStats {
        let t_total = Instant::now();
        let prev = self.graph.snapshot_shared();
        let batch = mutate(&mut self.graph);
        let t_snap = Instant::now();
        let incremental = self.graph.reprime_snapshot(&prev, &batch);
        let curr = self.graph.snapshot_shared();
        // Ad-hoc mutations may have grown the vertex set: recount.
        let degrees = out_degrees(&*curr);
        let snapshot_time = t_snap.elapsed();
        let (engine, affected) =
            self.run_kernel(&*prev, &WithDegrees::new(&*curr, &degrees), &batch);
        self.degrees = degrees;
        if self.layout == StorageLayout::Gapped {
            // Ad-hoc mutations (grow, isolate) bypass the gapped store;
            // re-mirror it from the settled snapshot.
            self.gapped = Some(GappedGraph::from_snapshot(&curr));
        }
        let stats = self.finish(
            engine,
            affected,
            batch.len(),
            snapshot_time,
            incremental,
            t_total,
        );
        self.maybe_publish();
        stats
    }

    fn finish(
        &mut self,
        engine: EngineStats,
        initially_affected: usize,
        batch_size: usize,
        snapshot_time: Duration,
        incremental: bool,
        t_total: Instant,
    ) -> StepStats {
        let stats = StepStats {
            status: engine.status,
            iterations: engine.iterations,
            runtime: engine.runtime,
            snapshot_time,
            total_time: t_total.elapsed(),
            vertices_processed: engine.vertices_processed,
            initially_affected,
            threads_crashed: engine.threads_crashed,
            batch_size,
            incremental,
        };
        self.last = Some(stats);
        self.steps += 1;
        stats
    }

    /// Grow/rebuild the workspace when the vertex set changed (ad-hoc
    /// `grow()` inside a mutate closure) and rewind the round cursors.
    fn prepare_workspace<C: NeighborRuns>(&mut self, curr: &C) {
        let n = curr.num_vertices();
        if self.ws.ranks.len() != n {
            // Vertex growth: keep existing ranks, seed newcomers at 1/n
            // (they are repaired as soon as a batch touches them).
            let mut v = self.ws.ranks.to_vec();
            v.resize(n, 1.0 / n.max(1) as f64);
            self.ws.ranks.copy_from_slice(&v);
            self.ws.va.resize(n);
            self.ws.checked.resize(n);
        }
        for view in &mut self.views {
            if view.ranks.len() != n {
                let mut v = view.ranks.to_vec();
                v.resize(n, 1.0 / n.max(1) as f64);
                view.ranks = AtomicRanks::from_slice(&v);
            }
        }
        let rc_len = rc_flags_len(n, self.opts.convergence, self.opts.chunk_size);
        if self.ws.rc.len() != rc_len {
            self.ws.rc.resize(rc_len);
        }
        if self
            .opts
            .vertex_plan_cache
            .as_ref()
            .is_none_or(|p| p.len() != n)
        {
            self.opts = self.opts.clone().precompile_vertex_plan(curr);
        }
        let rebuild = match &self.ws.rounds {
            Some(r) => r.plan().len() != n || r.max_rounds() != self.opts.max_iterations,
            None => true,
        };
        if rebuild {
            self.ws.rounds = Some(RoundCursors::new(
                self.opts.vertex_plan(curr),
                self.opts.max_iterations,
            ));
        } else {
            self.ws.rounds.as_mut().unwrap().reset();
        }
    }

    /// Dispatch one rank refresh over the reusable workspace: the
    /// default pass, then one pass per named view (same workspace, the
    /// view's own ranks + teleport). Returns the default pass's engine
    /// stats plus its initially-affected count; when delta tracking is
    /// on, each pass's rank movements are diffed and recorded.
    fn run_kernel<P: NeighborRuns, C: NeighborRuns>(
        &mut self,
        prev: &P,
        curr: &C,
        batch: &BatchUpdate,
    ) -> (EngineStats, usize) {
        self.prepare_workspace(curr);
        let track = self.track_deltas;
        // A DF/DT pass writes only the ranks of its `VA` set, so the
        // delta diff and the block index can walk that set; every other
        // pass may move any rank.
        let sparse = matches!(self.algorithm, Algorithm::DtLF | Algorithm::DfLF);
        if track {
            sync_shadow(&mut self.shadow, self.ws.ranks.as_f64_slice());
        }
        let result = Self::kernel_pass(
            self.algorithm,
            &self.opts,
            &mut self.ws,
            None,
            prev,
            curr,
            batch,
        );
        let written = sparse.then_some(&self.ws.va);
        self.index.refresh(self.ws.ranks.as_f64_slice(), written);
        if track {
            self.last_deltas =
                diff_into_shadow(&mut self.shadow, self.ws.ranks.as_f64_slice(), written);
        }
        for view in &mut self.views {
            // Each pass needs fresh flag epochs and rewound cursors; the
            // flags advance inside the pass, the cursors rewind here.
            self.ws.rounds.as_mut().expect("prepared above").reset();
            if track {
                sync_shadow(&mut view.shadow, view.ranks.as_f64_slice());
            }
            let _ = Self::kernel_pass(
                self.algorithm,
                &view.opts,
                &mut self.ws,
                Some(&mut view.ranks),
                prev,
                curr,
                batch,
            );
            let written = sparse.then_some(&self.ws.va);
            view.index.refresh(view.ranks.as_f64_slice(), written);
            if track {
                view.deltas =
                    diff_into_shadow(&mut view.shadow, view.ranks.as_f64_slice(), written);
            }
        }
        result
    }

    /// One kernel pass over the shared workspace. `ranks_override`
    /// selects a named view's rank vector (with `opts` carrying that
    /// view's teleport); `None` runs the session's default ranking.
    fn kernel_pass<P: NeighborRuns, C: NeighborRuns>(
        algorithm: Algorithm,
        opts: &PagerankOptions,
        ws: &mut Workspace,
        ranks_override: Option<&mut AtomicRanks>,
        prev: &P,
        curr: &C,
        batch: &BatchUpdate,
    ) -> (EngineStats, usize) {
        let Workspace {
            ranks: default_ranks,
            va,
            rc,
            checked,
            edges,
            rounds,
        } = ws;
        let ranks: &mut AtomicRanks = match ranks_override {
            Some(r) => r,
            None => default_ranks,
        };
        if !algorithm.is_lock_free() {
            // Barrier-based baselines: delegate to the one-shot path
            // (synchronous Jacobi needs its own double-buffered state).
            // A vertex-set change (ad-hoc `grow()` in a mutate closure)
            // invalidates `prev` for the DT/DF kernels, which index it
            // by batch source; recompute statically for that one step.
            let res = if prev.num_vertices() != curr.num_vertices() {
                api::run_static(Algorithm::StaticBB, curr, opts)
            } else {
                let prev_ranks: &[f64] = ranks.as_f64_slice();
                api::run_dynamic(algorithm, prev, curr, batch, prev_ranks, opts)
            };
            let engine = EngineStats {
                iterations: res.iterations,
                runtime: res.runtime,
                status: res.status,
                vertices_processed: res.vertices_processed,
                threads_crashed: res.threads_crashed,
            };
            let affected = res.initially_affected;
            ranks.copy_from_slice(&res.ranks);
            return (engine, affected);
        }

        let rounds: &RoundCursors = rounds.as_ref().expect("prepared above");
        let n = curr.num_vertices();

        match algorithm {
            Algorithm::StaticLF => {
                // Full recompute baseline: uniform restart over all
                // vertices (the workspace still saves the allocations).
                ranks.fill(1.0 / n.max(1) as f64);
                rc.fill_set();
                let s = run_lf_engine_on(curr, ranks, &*rc, LfMode::All, opts, None, rounds);
                (s, 0)
            }
            Algorithm::NdLF => {
                // Naive-dynamic: warm ranks are already in place.
                rc.fill_set();
                let s = run_lf_engine_on(curr, ranks, &*rc, LfMode::All, opts, None, rounds);
                (s, 0)
            }
            Algorithm::DtLF | Algorithm::DfLF => {
                va.clear();
                rc.advance();
                checked.advance();
                edges.clear();
                edges.extend(batch.iter_all());
                let cursor = ChunkCursor::new(edges.len());
                let rc_view = RcView::new(&*rc, opts.convergence, opts.chunk_size);
                let affected = AtomicUsize::new(0);
                let phase1_chunk = opts.batch_chunk(edges.len());
                let va = &*va;
                let checked = &*checked;
                let traversal = algorithm == Algorithm::DtLF;
                // Sources past `prev`'s vertex set (ad-hoc `grow()` in a
                // mutate closure) have no previous out-neighbors.
                let prev_n = prev.num_vertices();
                // DF (Alg. 2 lines 10-12): out-neighbors of u in both
                // snapshots become affected. DT (§3.5.2): everything
                // reachable from them in Gt, via atomic-visited DFS.
                // `VA` is marked before `RC`, which the sparse exit
                // check relies on (see `lf_common`).
                let mark_source = |u: u32| {
                    let prev_out = if (u as usize) < prev_n {
                        prev.out(u)
                    } else {
                        &[][..]
                    };
                    for &vp in prev_out.iter().chain(curr.out(u)) {
                        if traversal {
                            dfs_mark_atomic(curr, vp, &|v| va.test_and_set(v), &mut |w| {
                                affected.fetch_add(1, Ordering::Relaxed);
                                rc_view.set_vertex(w as usize);
                            });
                        } else {
                            if !va.test_and_set(vp as usize) {
                                affected.fetch_add(1, Ordering::Relaxed);
                            }
                            rc_view.set_vertex(vp as usize);
                        }
                    }
                };
                let phase1: &Phase1Fn<'_> = &|_t, faults| {
                    helping_mark_phase(edges, &cursor, checked, phase1_chunk, &mark_source, faults)
                };
                let mode = if traversal {
                    LfMode::Affected { va }
                } else {
                    LfMode::Frontier {
                        va,
                        tau_f: opts.frontier_tolerance,
                    }
                };
                let s = run_lf_engine_on(curr, ranks, &*rc, mode, opts, Some(phase1), rounds);
                (s, affected.load(Ordering::Relaxed))
            }
            Algorithm::StaticBB | Algorithm::NdBB | Algorithm::DtBB | Algorithm::DfBB => {
                unreachable!("barrier-based variants dispatched above")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::norm::linf_diff;
    use crate::reference::reference_default;
    use lfpr_graph::generators::erdos_renyi;
    use lfpr_graph::selfloops::add_self_loops;
    use lfpr_graph::BatchSpec;

    fn opts() -> PagerankOptions {
        PagerankOptions::default()
            .with_threads(2)
            .with_chunk_size(32)
    }

    fn session(algo: Algorithm) -> UpdateSession {
        let mut g = erdos_renyi(120, 700, 91);
        add_self_loops(&mut g);
        UpdateSession::new(g, algo, opts())
    }

    #[test]
    fn initial_ranks_sum_to_one() {
        let s = session(Algorithm::DfLF);
        let sum: f64 = s.ranks().iter().sum();
        assert!((sum - 1.0).abs() < 1e-7, "sum = {sum}");
        assert_eq!(s.steps(), 0);
        assert!(s.last_stats().is_some());
    }

    #[test]
    fn gapped_layout_is_bit_identical_to_packed_for_every_algorithm() {
        // The tentpole invariant: at one thread, a gapped-storage session
        // reproduces the packed session's ranks bit-for-bit for all 8
        // variants across a chain of mixed batches.
        let o = PagerankOptions::default()
            .with_threads(1)
            .with_chunk_size(32);
        for algo in Algorithm::ALL {
            let mut g = erdos_renyi(120, 700, 91);
            add_self_loops(&mut g);
            let mut packed = UpdateSession::new(g.clone(), algo, o.clone());
            let mut gapped =
                UpdateSession::new_with_layout(g, algo, o.clone(), StorageLayout::Gapped);
            assert_eq!(gapped.storage_layout(), StorageLayout::Gapped);
            assert_eq!(packed.ranks(), gapped.ranks(), "{algo}: initial");
            for round in 0..4u64 {
                let batch = BatchSpec::mixed(0.02, 500 + round).generate(packed.graph());
                let ps = packed
                    .step(&batch)
                    .unwrap_or_else(|e| panic!("{algo}: {e}"));
                let gs = gapped
                    .step(&batch)
                    .unwrap_or_else(|e| panic!("{algo}: {e}"));
                assert!(gs.status.is_success(), "{algo}");
                assert!(
                    gs.incremental,
                    "{algo}: gapped commits are always incremental"
                );
                let pr = packed.ranks();
                let gr = gapped.ranks();
                for v in 0..pr.len() {
                    assert_eq!(
                        pr[v].to_bits(),
                        gr[v].to_bits(),
                        "{algo} round {round}: vertex {v} diverged"
                    );
                }
                assert_eq!(ps.initially_affected, gs.initially_affected, "{algo}");
                assert_eq!(*packed.graph(), *gapped.graph(), "{algo}: graphs diverged");
            }
            let slack = gapped.slack_stats().expect("gapped layout reports slack");
            assert!(slack.edges > 0 && slack.slots >= slack.edges);
            assert!(packed.slack_stats().is_none());
        }
    }

    #[test]
    fn gapped_session_publishes_correct_packed_views() {
        // The RankView snapshot a reader sees matches a full rebuild of
        // the current graph.
        let mut s = session(Algorithm::DfLF);
        s.set_storage_layout(StorageLayout::Gapped);
        let reader = s.reader();
        for round in 0..3u64 {
            let batch = BatchSpec::mixed(0.02, 300 + round).generate(s.graph());
            s.step(&batch).unwrap();
            let view = reader.view();
            assert_eq!(view.epoch(), round + 1);
            assert_eq!(*view.snapshot().as_ref(), s.graph().snapshot());
            assert_eq!(view.ranks(), s.ranks());
        }
    }

    #[test]
    fn gapped_layout_survives_grow_and_invalid_batches() {
        let mut s = session(Algorithm::DfLF);
        s.set_storage_layout(StorageLayout::Gapped);
        let before = s.ranks().to_vec();
        let g_before = s.graph().clone();
        // Invalid batch: all-or-nothing, gapped store untouched.
        assert!(s.step(&BatchUpdate::insert_only(vec![(0, 0)])).is_err());
        assert_eq!(s.ranks(), &before[..]);
        assert_eq!(*s.graph(), g_before);
        // Ad-hoc growth re-mirrors the gapped store; later gapped commits
        // still work and track the reference.
        let n0 = s.graph().num_vertices();
        s.step_mutated(|g| {
            g.grow(n0 + 2);
            let mut b = BatchUpdate::new();
            for v in [n0 as u32, n0 as u32 + 1] {
                g.insert_edge(v, v).unwrap();
                b.insertions.push((v, v));
                g.insert_edge(v, 0).unwrap();
                b.insertions.push((v, 0));
            }
            b
        });
        assert_eq!(s.graph().num_vertices(), n0 + 2);
        let batch = BatchSpec::mixed(0.02, 999).generate(s.graph());
        let stats = s.step(&batch).unwrap();
        assert!(stats.status.is_success() && stats.incremental);
        let reference = reference_default(&s.graph().snapshot());
        let err = linf_diff(s.ranks(), &reference);
        assert!(err < 1e-6, "err = {err:.2e}");
    }

    #[test]
    fn steps_track_reference_for_every_algorithm() {
        for algo in Algorithm::ALL {
            let mut s = session(algo);
            for round in 0..3u64 {
                let batch = BatchSpec::mixed(0.02, 100 + round).generate(s.graph());
                let stats = s.step(&batch).unwrap_or_else(|e| panic!("{algo}: {e}"));
                assert!(stats.status.is_success(), "{algo}");
                assert!(stats.incremental, "{algo}: snapshot must be patched");
                assert_eq!(stats.batch_size, batch.len());
                let reference = reference_default(&s.graph().snapshot());
                let err = linf_diff(s.ranks(), &reference);
                assert!(err < 1e-6, "{algo} round {round}: err = {err:.2e}");
                assert_eq!(s.steps(), round + 1);
            }
        }
    }

    #[test]
    fn invalid_batch_leaves_session_untouched() {
        let mut s = session(Algorithm::DfLF);
        let before = s.ranks().to_vec();
        let g_before = s.graph().clone();
        let bad = BatchUpdate::insert_only(vec![(0, 0)]); // self-loop exists
        assert!(s.step(&bad).is_err());
        assert_eq!(s.ranks(), &before[..]);
        assert_eq!(*s.graph(), g_before);
        assert_eq!(s.steps(), 0);
    }

    #[test]
    fn empty_batch_is_noop() {
        let mut s = session(Algorithm::DfLF);
        let before = s.ranks().to_vec();
        let stats = s.step(&BatchUpdate::new()).unwrap();
        assert_eq!(stats.status, RunStatus::Converged);
        assert_eq!(stats.vertices_processed, 0);
        assert_eq!(s.ranks(), &before[..]);
    }

    #[test]
    fn step_mutated_records_and_falls_back() {
        let mut s = session(Algorithm::DfLF);
        // Coherent recording: incremental refresh.
        let stats = s.step_mutated(|g| {
            let mut b = BatchUpdate::new();
            g.insert_edge(3, 7).unwrap();
            b.insertions.push((3, 7));
            b
        });
        assert!(stats.incremental);
        assert!(s.graph().has_edge(3, 7));
        // Unrecorded mutation: the session must notice and rebuild.
        let stats = s.step_mutated(|g| {
            g.delete_edge(3, 7).unwrap();
            BatchUpdate::new() // lies by omission
        });
        assert!(!stats.incremental);
        let reference = reference_default(&s.graph().snapshot());
        // NDLF-quality repair is not guaranteed after a lie (DF marks
        // nothing), but the snapshot itself must be coherent.
        assert_eq!(*s.snapshot(), s.graph().snapshot());
        let _ = reference;
    }

    #[test]
    fn grow_mid_session_is_survivable() {
        // Ad-hoc `grow()` inside a mutate closure changes the vertex
        // set: LF sessions must guard `prev` indexing, BB sessions fall
        // back to a static recompute for that step.
        for algo in [Algorithm::DfLF, Algorithm::DtLF, Algorithm::DfBB] {
            let mut s = session(algo);
            let n = s.graph().num_vertices() as u32;
            let stats = s.step_mutated(|g| {
                g.grow(n as usize + 3);
                let mut b = BatchUpdate::new();
                for w in [(n, 0), (n + 2, 5), (3, n + 1)] {
                    g.insert_edge(w.0, w.1).unwrap();
                    b.insertions.push(w);
                }
                b
            });
            assert!(stats.status.is_success(), "{algo}");
            assert_eq!(s.ranks().len(), n as usize + 3, "{algo}");
            assert_eq!(*s.snapshot(), s.graph().snapshot(), "{algo}");
            // The session keeps working at the new size.
            let batch = BatchSpec::mixed(0.01, 77).generate(s.graph());
            assert!(s.step(&batch).unwrap().status.is_success(), "{algo}");
        }
    }

    /// A reader that holds a view across the publish displacing it (as
    /// the sharded router holds its last exchange's views) releases it
    /// before the next step, which then still recycles its buffers.
    #[test]
    fn a_view_released_before_the_next_step_is_recycled() {
        let mut s = session(Algorithm::DfLF);
        let reader = s.reader();
        let held = reader.view();
        let held_ranks = held.ranks().as_ptr();
        let batch = BatchSpec::mixed(0.01, 400).generate(s.graph());
        s.step(&batch).unwrap(); // displaces `held` while it is pinned
        drop(held);
        // Had the buffer been freed, one of these would take its block,
        // so only a recycled buffer can come back at the same address.
        let n = s.graph().num_vertices();
        let decoys: Vec<Arc<[f64]>> = (0..64).map(|_| Arc::from(vec![0.0; n])).collect();
        let batch = BatchSpec::mixed(0.01, 401).generate(s.graph());
        s.step(&batch).unwrap();
        drop(decoys);
        let view = reader.view();
        assert_eq!(view.epoch(), 2);
        assert_eq!(view.ranks(), s.ranks());
        assert_eq!(view.ranks().as_ptr(), held_ranks, "buffer not reused");
        drop(view);
        // A view still held at the next step is let go, not kept.
        let pinned = reader.view();
        let batch = BatchSpec::mixed(0.01, 402).generate(s.graph());
        s.step(&batch).unwrap();
        let batch = BatchSpec::mixed(0.01, 403).generate(s.graph());
        s.step(&batch).unwrap();
        assert_eq!(Arc::strong_count(&pinned), 1);
        assert_eq!(pinned.epoch(), 2);
    }

    #[test]
    fn published_views_track_commits() {
        let mut s = session(Algorithm::DfLF);
        let reader = s.reader();
        let v0 = reader.view();
        assert_eq!(v0.epoch(), 0);
        assert_eq!(v0.ranks(), s.ranks());
        assert_eq!(v0.snapshot().num_edges(), s.graph().num_edges());
        for round in 1..=3u64 {
            let batch = BatchSpec::mixed(0.01, 200 + round).generate(s.graph());
            s.step(&batch).unwrap();
            let v = reader.view();
            assert_eq!(v.epoch(), round);
            assert_eq!(v.ranks(), s.ranks(), "round {round}");
            assert_eq!(v.snapshot().num_edges(), s.graph().num_edges());
            assert_eq!(v.top_k(5), s.top_k(5));
            assert_eq!(v.rank(3), s.rank(3));
        }
        // The early view is frozen: still epoch 0, untouched by commits.
        assert_eq!(v0.epoch(), 0);
        assert_eq!(reader.epoch(), 3);
    }

    #[test]
    fn commits_without_readers_skip_publication() {
        let mut s = session(Algorithm::DfLF);
        let batch = BatchSpec::mixed(0.01, 300).generate(s.graph());
        s.step(&batch).unwrap(); // no reader handle exists → no publish
        let reader = s.reader(); // must catch up on creation
        assert_eq!(reader.view().epoch(), 1);
        assert_eq!(reader.view().ranks(), s.ranks());
        // A dropped reader stops publication again.
        drop(reader);
        let batch = BatchSpec::mixed(0.01, 301).generate(s.graph());
        s.step(&batch).unwrap();
        assert_eq!(s.reader().view().epoch(), 2);
    }

    #[test]
    fn held_view_survives_rank_buffer_recycling() {
        // A reader pins epoch e while the writer publishes e+1, e+2, …;
        // the pinned buffers must never be overwritten by the recycler.
        let mut s = session(Algorithm::DfLF);
        let reader = s.reader();
        let pinned = reader.view();
        let pinned_ranks = pinned.ranks().to_vec();
        let pinned_edges: Vec<_> = pinned.snapshot().edges().collect();
        for round in 0..5u64 {
            let batch = BatchSpec::mixed(0.02, 400 + round).generate(s.graph());
            s.step(&batch).unwrap();
        }
        assert_eq!(pinned.epoch(), 0);
        assert_eq!(pinned.ranks(), &pinned_ranks[..]);
        assert_eq!(pinned.snapshot().edges().collect::<Vec<_>>(), pinned_edges);
        assert_eq!(reader.view().epoch(), 5);
    }

    #[test]
    fn failed_step_does_not_publish() {
        let mut s = session(Algorithm::DfLF);
        let reader = s.reader();
        let bad = BatchUpdate::insert_only(vec![(0, 0)]); // self-loop exists
        assert!(s.step(&bad).is_err());
        assert_eq!(reader.view().epoch(), 0, "no commit → no new epoch");
    }

    #[test]
    fn explicit_uniform_teleport_is_bit_identical_for_every_algorithm() {
        // The acceptance bar: selecting `Teleport::Uniform` explicitly
        // must reproduce the historical kernels bit for bit, for all 8
        // variants, across several batches.
        for algo in Algorithm::ALL {
            let mut g = erdos_renyi(100, 500, 31);
            add_self_loops(&mut g);
            let mut plain = UpdateSession::new(g.clone(), algo, opts().with_threads(1));
            let mut explicit = UpdateSession::new(
                g,
                algo,
                opts().with_threads(1).with_teleport(Teleport::Uniform),
            );
            for round in 0..3u64 {
                let batch = BatchSpec::mixed(0.02, 500 + round).generate(plain.graph());
                plain.step(&batch).unwrap();
                explicit.step(&batch).unwrap();
                for (a, b) in plain.ranks().iter().zip(explicit.ranks()) {
                    assert_eq!(a.to_bits(), b.to_bits(), "{algo} round {round}");
                }
            }
        }
    }

    #[test]
    fn personalized_teleport_tracks_ppr_reference_for_every_algorithm() {
        use crate::reference::reference_pagerank_with;
        let t = Teleport::personalized([(0, 2.0), (7, 1.0), (19, 1.0)]).unwrap();
        for algo in Algorithm::ALL {
            let mut g = erdos_renyi(120, 700, 91);
            add_self_loops(&mut g);
            let mut s = UpdateSession::new(g, algo, opts().with_teleport(t.clone()));
            for round in 0..2u64 {
                let batch = BatchSpec::mixed(0.02, 600 + round).generate(s.graph());
                let stats = s.step(&batch).unwrap();
                assert!(stats.status.is_success(), "{algo}");
                let oracle = reference_pagerank_with(&s.graph().snapshot(), 0.85, 500, &t);
                let err = linf_diff(s.ranks(), &oracle);
                assert!(err < 1e-6, "{algo} round {round}: err = {err:.2e}");
            }
        }
    }

    #[test]
    fn named_views_rank_concurrently_with_the_default() {
        use crate::reference::{reference_default, reference_pagerank_with};
        let mut s = session(Algorithm::DfLF);
        let t = Teleport::personalized([(3, 1.0), (11, 1.0)]).unwrap();
        s.add_view("near-3", t.clone()).unwrap();
        assert!(s.has_view("near-3"));
        assert_eq!(s.view_names(), vec![("near-3".to_string(), 2)]);
        for round in 0..3u64 {
            let batch = BatchSpec::mixed(0.02, 700 + round).generate(s.graph());
            s.step(&batch).unwrap();
            let snap = s.graph().snapshot();
            // Default ranking unaffected by the personalized passenger.
            let err = linf_diff(s.ranks(), &reference_default(&snap));
            assert!(err < 1e-6, "default, round {round}: {err:.2e}");
            // The view tracks its own PPR fixpoint over the same graph.
            let oracle = reference_pagerank_with(&snap, 0.85, 500, &t);
            let view_ranks = s.view_ranks("near-3").unwrap();
            let err = linf_diff(view_ranks, &oracle);
            assert!(err < 1e-6, "view, round {round}: {err:.2e}");
            let tk = s.view_top_k("near-3", 3).unwrap();
            assert_eq!(tk.len(), 3);
            assert!(tk[0].1 >= tk[1].1);
        }
        s.drop_view("near-3").unwrap();
        assert!(!s.has_view("near-3"));
        assert!(s.view_rank("near-3", 0).is_none());
    }

    #[test]
    fn add_view_validates_names_and_sources() {
        let mut s = session(Algorithm::DfLF);
        let t = Teleport::personalized([(1, 1.0)]).unwrap();
        assert!(s.add_view("default", t.clone()).is_err(), "reserved");
        s.add_view("a", t.clone()).unwrap();
        assert!(s.add_view("a", t.clone()).is_err(), "duplicate");
        let oob = Teleport::personalized([(100_000, 1.0)]).unwrap();
        assert!(s.add_view("b", oob).is_err(), "source out of range");
        assert!(s.drop_view("nope").is_err());
    }

    #[test]
    fn delta_tracking_records_movers() {
        let mut s = session(Algorithm::DfLF);
        assert!(s.last_deltas().is_empty());
        s.enable_delta_tracking();
        let before = s.ranks().to_vec();
        let batch = BatchSpec::mixed(0.05, 800).generate(s.graph());
        s.step(&batch).unwrap();
        let after = s.ranks();
        let deltas = s.last_deltas();
        assert!(!deltas.is_empty(), "a 5% batch must move some ranks");
        // Deltas are exactly the bit-changed vertices, old/new faithful.
        let mut expect = 0usize;
        for (v, (&o, &nw)) in before.iter().zip(after).enumerate() {
            if o.to_bits() != nw.to_bits() {
                expect += 1;
                let d = deltas.iter().find(|d| d.vertex == v as u32).unwrap();
                assert_eq!(d.old.to_bits(), o.to_bits());
                assert_eq!(d.new.to_bits(), nw.to_bits());
            }
        }
        assert_eq!(deltas.len(), expect);
        // Movers: sorted by |Δ| descending, capped at k.
        let movers = s.movers(5);
        assert!(movers.len() <= 5);
        for w in movers.windows(2) {
            assert!(w[0].delta().abs() >= w[1].delta().abs());
        }
        assert_eq!(
            movers[0].delta().abs(),
            deltas
                .iter()
                .map(|d| d.delta().abs())
                .fold(0.0f64, f64::max)
        );
    }

    #[test]
    fn published_views_carry_deltas_and_named_views() {
        let mut s = session(Algorithm::DfLF);
        s.enable_delta_tracking();
        let t = Teleport::personalized([(5, 1.0)]).unwrap();
        s.add_view("ego-5", t).unwrap();
        let reader = s.reader();
        // add_view before any step: the epoch-0 view already lists it.
        assert!(reader.view().has_view("ego-5"));
        let batch = BatchSpec::mixed(0.03, 900).generate(s.graph());
        s.step(&batch).unwrap();
        let v = reader.view();
        assert_eq!(v.epoch(), 1);
        assert_eq!(v.deltas(), s.last_deltas());
        assert_eq!(v.movers(3), s.movers(3));
        assert_eq!(v.view_names(), s.view_names());
        assert_eq!(v.rank_in("ego-5", 2), s.view_rank("ego-5", 2));
        assert_eq!(v.top_k_in("ego-5", 4), s.view_top_k("ego-5", 4));
        assert_eq!(v.movers_in("ego-5", 4), s.view_movers("ego-5", 4));
        assert!(v.rank_in("nope", 0).is_none());
        // The view's own deltas are recorded too (source 5 moved or not,
        // but the machinery must have produced a coherent list).
        let vm = v.movers_in("ego-5", 1000).unwrap();
        for d in &vm {
            assert!(d.old.to_bits() != d.new.to_bits());
        }
    }

    #[test]
    fn restore_resumes_bit_for_bit_at_one_thread() {
        // The recovery contract: rebuild the graph from its edge list,
        // install the persisted ranks/views/deltas, and the session is
        // indistinguishable — to the bit — from one that never stopped.
        use crate::config::TeleportWeights;
        for algo in [Algorithm::DfLF, Algorithm::DtBB] {
            let o = PagerankOptions::default()
                .with_threads(1)
                .with_chunk_size(64);
            let mut g = erdos_renyi(100, 500, 3);
            add_self_loops(&mut g);
            let mut live = UpdateSession::new(g, algo, o.clone());
            live.enable_delta_tracking();
            let t = Teleport::personalized([(3, 1.0), (9, 2.0)]).unwrap();
            live.add_view("ego", t.clone()).unwrap();
            for round in 0..2u64 {
                let batch = BatchSpec::mixed(0.02, 10 + round).generate(live.graph());
                live.step(&batch).unwrap();
            }
            // "Checkpoint": edge list + rank bits, rebuilt the recovery way.
            let n = live.graph().num_vertices();
            let edges: Vec<_> = live.graph().snapshot().edges().collect();
            let graph = DynGraph::from_edges(n, edges).unwrap();
            let mut rec =
                UpdateSession::restore(graph, algo, o.clone(), live.ranks(), live.steps()).unwrap();
            rec.enable_delta_tracking();
            rec.restore_deltas(live.last_deltas().to_vec());
            let shipped = t.weights().unwrap().sources().to_vec();
            let tn = TeleportWeights::from_normalized(shipped).unwrap();
            rec.restore_view(
                "ego",
                Teleport::Personalized(Arc::new(tn)),
                live.view_ranks("ego").unwrap(),
                live.view_deltas("ego").unwrap().to_vec(),
            )
            .unwrap();
            assert_eq!(rec.steps(), live.steps(), "{algo}");
            assert_eq!(rec.movers(5), live.movers(5), "{algo}");
            assert_eq!(rec.view_names(), live.view_names(), "{algo}");
            for round in 2..4u64 {
                let batch = BatchSpec::mixed(0.02, 10 + round).generate(live.graph());
                live.step(&batch).unwrap();
                rec.step(&batch).unwrap();
                for (a, b) in live.ranks().iter().zip(rec.ranks()) {
                    assert_eq!(a.to_bits(), b.to_bits(), "{algo} round {round}");
                }
                let va = live.view_ranks("ego").unwrap();
                let vb = rec.view_ranks("ego").unwrap();
                for (a, b) in va.iter().zip(vb) {
                    assert_eq!(a.to_bits(), b.to_bits(), "{algo} view round {round}");
                }
                assert_eq!(
                    live.view_movers("ego", 3),
                    rec.view_movers("ego", 3),
                    "{algo}"
                );
            }
        }
    }

    /// The dense delta oracle: every vertex whose rank bits differ
    /// between two full copies, ascending.
    fn deltas_of(old: &[f64], new: &[f64]) -> Vec<RankDelta> {
        (0..new.len())
            .filter(|&v| old[v].to_bits() != new[v].to_bits())
            .map(|v| RankDelta {
                vertex: v as u32,
                old: old[v],
                new: new[v],
            })
            .collect()
    }

    /// Take one step (or mutation) and check the recorded deltas of the
    /// default ranking and of view `ego` against full-copy diffs. A
    /// vertex added by the step counts from its seed rank of 1/n.
    fn step_checked(
        s: &mut UpdateSession,
        what: &str,
        step: impl FnOnce(&mut UpdateSession) -> StepStats,
    ) {
        let mut pre = s.ranks().to_vec();
        let mut pre_view = s.view_ranks("ego").unwrap().to_vec();
        let stats = step(s);
        assert!(stats.status.is_success(), "{what}");
        let n = s.ranks().len();
        pre.resize(n, 1.0 / n as f64);
        pre_view.resize(n, 1.0 / n as f64);
        assert_eq!(s.last_deltas(), deltas_of(&pre, s.ranks()), "{what}");
        assert_eq!(
            s.view_deltas("ego").unwrap(),
            deltas_of(&pre_view, s.view_ranks("ego").unwrap()),
            "{what}: view"
        );
    }

    #[test]
    fn marked_set_deltas_match_full_copy_diffs() {
        // A road grid keeps DF's marked set a small part of the graph,
        // so a diff that missed an unmarked vertex (or a stale shadow)
        // would show against the full-copy oracle.
        use lfpr_graph::generators::grid_road;
        for algo in [Algorithm::DfLF, Algorithm::DtLF, Algorithm::NdLF] {
            let mut g = grid_road(3_000, 21);
            add_self_loops(&mut g);
            let o = opts().with_threads(2);
            let mut s = UpdateSession::new(g, algo, o.clone());
            let t = Teleport::personalized([(5, 1.0), (2_900, 1.0)]).unwrap();
            s.add_view("ego", t.clone()).unwrap();
            // Untracked steps first: tracking then starts mid-session.
            for round in 0..2u64 {
                let batch = BatchSpec::mixed(2e-3, 30 + round).generate(s.graph());
                s.step(&batch).unwrap();
            }
            assert!(s.last_deltas().is_empty());
            s.enable_delta_tracking();
            for round in 0..3u64 {
                let batch = BatchSpec::mixed(2e-3, 40 + round).generate(s.graph());
                step_checked(&mut s, &format!("{algo} step {round}"), |s| {
                    s.step(&batch).unwrap()
                });
            }
            // Vertex growth through a mutate closure.
            let n = s.graph().num_vertices() as u32;
            step_checked(&mut s, &format!("{algo} grow"), |s| {
                s.step_mutated(|g| {
                    g.grow(n as usize + 2);
                    let mut b = BatchUpdate::new();
                    for e in [(n, n), (n, 7), (n + 1, n + 1), (9, n + 1)] {
                        g.insert_edge(e.0, e.1).unwrap();
                        b.insertions.push(e);
                    }
                    b
                })
            });
            let batch = BatchSpec::mixed(2e-3, 50).generate(s.graph());
            step_checked(&mut s, &format!("{algo} after grow"), |s| {
                s.step(&batch).unwrap()
            });
            // A restored session (fresh shadows) and the live one record
            // the same deltas from then on.
            let edges: Vec<_> = s.graph().snapshot().edges().collect();
            let graph = DynGraph::from_edges(s.graph().num_vertices(), edges).unwrap();
            let mut rec =
                UpdateSession::restore(graph, algo, o.clone(), s.ranks(), s.steps()).unwrap();
            rec.enable_delta_tracking();
            rec.restore_view("ego", t, s.view_ranks("ego").unwrap(), Vec::new())
                .unwrap();
            for round in 0..2u64 {
                let batch = BatchSpec::mixed(2e-3, 60 + round).generate(s.graph());
                step_checked(&mut rec, &format!("{algo} restored {round}"), |r| {
                    r.step(&batch).unwrap()
                });
                step_checked(&mut s, &format!("{algo} live {round}"), |s| {
                    s.step(&batch).unwrap()
                });
            }
        }
    }

    /// The sort-based top-k oracle the single pass must reproduce.
    fn top_k_oracle(ranks: &[f64], k: usize, range: std::ops::Range<u32>) -> Vec<(u32, f64)> {
        let hi = (ranks.len() as u32).min(range.end);
        let mut all: Vec<(u32, f64)> = (range.start.min(hi)..hi)
            .map(|v| (v, ranks[v as usize]))
            .collect();
        all.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
        all.truncate(k);
        all
    }

    #[test]
    fn single_pass_top_k_matches_sort_oracle() {
        // Heavy ties (13 distinct values) and a tie-free vector.
        let tied: Vec<f64> = (0..1000u64)
            .map(|v| ((v * 7919) % 13) as f64 / 13.0)
            .collect();
        let distinct: Vec<f64> = (0..1000u64)
            .map(|v| ((v * 2_654_435_761) % 1_000_003) as f64 * 1e-6)
            .collect();
        for ranks in [&tied, &distinct] {
            for k in [0, 1, 5, 13, 77, 999, 1000, 5000] {
                for range in [
                    0..1000,
                    0..0,
                    500..500,
                    10..20,
                    990..1200,
                    1200..1300,
                    300..700,
                ] {
                    assert_eq!(
                        indexed_top_k(ranks, k, range.clone()),
                        top_k_oracle(ranks, k, range.clone()),
                        "k {k} range {range:?}"
                    );
                }
                let whole = indexed_top_k(ranks, k, 0..u32::MAX);
                assert_eq!(whole, top_k_oracle(ranks, k, 0..1000));
                // Per-range lists merged by the same comparator (the
                // shard router's merge) reproduce the whole-vector list.
                let mut merged: Vec<(u32, f64)> = [0..333, 333..600, 600..1000]
                    .into_iter()
                    .flat_map(|r| indexed_top_k(ranks, k, r))
                    .collect();
                merged.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
                merged.truncate(k);
                assert_eq!(merged, whole, "merged k {k}");
            }
        }
        assert!(indexed_top_k(&[], 3, 0..u32::MAX).is_empty());
    }

    /// Top-k through a freshly built block index.
    fn indexed_top_k(ranks: &[f64], k: usize, range: std::ops::Range<u32>) -> Vec<(u32, f64)> {
        top_k_blocks(ranks, BlockMax::new(ranks).maxima(), k, range)
    }

    /// SplitMix64: a tiny deterministic source for randomized cases.
    struct Mix(u64);

    impl Mix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n.max(1) as u64) as usize
        }
    }

    #[test]
    fn block_index_is_exact_under_random_writes() {
        // Randomized cases: rank vectors with heavy ties (3 values) or
        // none, vertex counts that leave a partial last block, k at the
        // block-size edges and past n, and ranges that start and end
        // mid-block. After every round of sparse writes the refreshed
        // index must equal a fresh build, and its top-k the sort oracle.
        let mut rng = Mix(0x5EED);
        for case in 0..48 {
            let n = [1, 255, 256, 257, 700, 1_000, 3 * 256 + 17, 5_000][case % 8];
            let tied = case % 2 == 0;
            let draw = |rng: &mut Mix| {
                if tied {
                    (1 + rng.below(3)) as f64 * 0.25
                } else {
                    rng.next() as f64 / u64::MAX as f64
                }
            };
            let mut ranks: Vec<f64> = (0..n).map(|_| draw(&mut rng)).collect();
            let mut index = BlockMax::new(&ranks);
            for round in 0..6 {
                // Write a sparse set; half the writes hit block maxima,
                // dropping them to the floor or raising them.
                let written = MarkBitmap::new(n);
                for _ in 0..1 + rng.below(n / 8 + 1) {
                    let v = if rng.below(2) == 0 {
                        index.argmax(rng.below(index.maxima().len()))
                    } else {
                        rng.below(n)
                    };
                    written.set(v);
                    ranks[v] = match rng.below(3) {
                        0 => 0.0,
                        1 => draw(&mut rng),
                        _ => 2.0 * draw(&mut rng),
                    };
                }
                index.refresh(&ranks, Some(&written));
                let what = format!("case {case} n {n} round {round}");
                assert_eq!(index.maxima(), BlockMax::new(&ranks).maxima(), "{what}");
                for k in [0, 1, 255, 256, 257, n, n + 5] {
                    let lo = rng.below(n) as u32;
                    let hi = lo + rng.below(n + 300) as u32;
                    for range in [0..u32::MAX, lo..hi, lo..lo] {
                        assert_eq!(
                            top_k_blocks(&ranks, index.maxima(), k, range.clone()),
                            top_k_oracle(&ranks, k, range.clone()),
                            "{what} k {k} range {range:?}"
                        );
                    }
                }
            }
            // A grown vector (or an unmarked pass) rebuilds in full.
            ranks.push(9.0);
            index.refresh(&ranks, Some(&MarkBitmap::new(n + 1)));
            assert_eq!(index.maxima(), BlockMax::new(&ranks).maxima());
            assert_eq!(
                top_k_blocks(&ranks, index.maxima(), 1, 0..u32::MAX)[0].0 as usize,
                n
            );
        }
    }

    /// Every top-k the session and its published view answer, against
    /// the sort oracle over the same ranks; plus the index itself
    /// against a fresh build.
    fn check_top_k(s: &mut UpdateSession, what: &str) -> Arc<RankView> {
        let view = s.reader().view();
        assert_eq!(
            s.index.maxima(),
            BlockMax::new(s.ranks()).maxima(),
            "{what}"
        );
        for k in [1, 10, 300] {
            let oracle = top_k_oracle(s.ranks(), k, 0..u32::MAX);
            assert_eq!(s.top_k(k), oracle, "{what} k {k}");
            assert_eq!(view.top_k(k), oracle, "{what} k {k}: published");
            assert_eq!(
                view.top_k_range(k, 100..2_000),
                top_k_oracle(s.ranks(), k, 100..2_000),
                "{what} k {k}: range"
            );
            for (name, _) in s.view_names() {
                let sv = s.find_view(&name).unwrap();
                assert_eq!(sv.index.maxima(), BlockMax::new(sv.current()).maxima());
                let oracle = top_k_oracle(sv.current(), k, 0..u32::MAX);
                assert_eq!(s.view_top_k(&name, k).unwrap(), oracle, "{what} {name}");
                assert_eq!(view.top_k_in(&name, k).unwrap(), oracle, "{what} {name}");
            }
        }
        view
    }

    #[test]
    fn block_index_tracks_commits_views_and_restores() {
        use lfpr_graph::generators::grid_road;
        for algo in [
            Algorithm::DfLF,
            Algorithm::DtLF,
            Algorithm::NdLF,
            Algorithm::DfBB,
        ] {
            let mut g = grid_road(3_000, 13);
            add_self_loops(&mut g);
            let o = opts().with_threads(2);
            let mut s = UpdateSession::new(g, algo, o.clone());
            let t = Teleport::personalized([(5, 1.0), (2_900, 1.0)]).unwrap();
            // Views held across later commits, with the answers of their
            // own epoch.
            type Held = (Arc<RankView>, Vec<(u32, f64)>);
            let mut held: Vec<Held> = Vec::new();
            let mut commit = |s: &mut UpdateSession, seed: u64, what: &str| {
                let batch = BatchSpec::mixed(3e-3, seed).generate(s.graph());
                s.step(&batch).unwrap();
                let view = check_top_k(s, &format!("{algo} {what}"));
                held.push((Arc::clone(&view), view.top_k(10)));
                for (v, expect) in &held {
                    assert_eq!(&v.top_k(10), expect, "{algo} {what}: held");
                    assert_eq!(v.top_k(10), top_k_oracle(v.ranks(), 10, 0..u32::MAX));
                }
            };
            check_top_k(&mut s, &format!("{algo} initial"));
            commit(&mut s, 1, "step 1");
            s.add_view("ego", t.clone()).unwrap();
            check_top_k(&mut s, &format!("{algo} add_view"));
            commit(&mut s, 2, "step 2");
            s.add_view("uni", Teleport::Uniform).unwrap();
            commit(&mut s, 3, "step 3");
            s.drop_view("uni").unwrap();
            check_top_k(&mut s, &format!("{algo} drop_view"));
            commit(&mut s, 4, "step 4");
            // Vertex growth rebuilds every index.
            let n = s.graph().num_vertices() as u32;
            s.step_mutated(|g| {
                g.grow(n as usize + 300);
                let mut b = BatchUpdate::new();
                for e in [(n, n), (n, 7), (n + 299, n + 299), (9, n + 299)] {
                    g.insert_edge(e.0, e.1).unwrap();
                    b.insertions.push(e);
                }
                b
            });
            check_top_k(&mut s, &format!("{algo} grow"));
            commit(&mut s, 5, "after grow");
            // A restored session with a restored view.
            let edges: Vec<_> = s.graph().snapshot().edges().collect();
            let graph = DynGraph::from_edges(s.graph().num_vertices(), edges).unwrap();
            let mut rec =
                UpdateSession::restore(graph, algo, o.clone(), s.ranks(), s.steps()).unwrap();
            check_top_k(&mut rec, &format!("{algo} restore"));
            let view_ranks = s.view_ranks("ego").unwrap().to_vec();
            rec.restore_view("ego", t.clone(), &view_ranks, Vec::new())
                .unwrap();
            check_top_k(&mut rec, &format!("{algo} restore_view"));
            for seed in 6..9 {
                commit(&mut rec, seed, "restored");
                commit(&mut s, seed, "live");
            }
        }
    }

    #[test]
    fn movers_selection_matches_full_sort() {
        // Heavy |Δ| ties (sign and magnitude), so the id tie-break
        // decides most places.
        let mut rng = Mix(7);
        let mut deltas = Vec::new();
        for vertex in 0..500u32 {
            if rng.below(3) != 0 {
                let sign = if rng.below(2) == 0 { 0.5 } else { -0.5 };
                let new = 1.0 + (1 + rng.below(4)) as f64 * sign;
                deltas.push(RankDelta {
                    vertex,
                    old: 1.0,
                    new,
                });
            }
        }
        let mut sorted = deltas.clone();
        sorted.sort_by(|a, b| {
            b.delta()
                .abs()
                .partial_cmp(&a.delta().abs())
                .unwrap()
                .then(a.vertex.cmp(&b.vertex))
        });
        for k in [0, 1, 2, 37, 100, deltas.len() - 1, deltas.len(), 10_000] {
            let expect = &sorted[..k.min(sorted.len())];
            assert_eq!(top_movers_of(&deltas, k), expect, "k {k}");
        }
        assert!(top_movers_of(&[], 3).is_empty());
    }

    #[test]
    fn lock_free_sessions_converge_under_crashes_and_delays() {
        // The paper's fault model inside a reusable session: at 4
        // threads, crash-stops and random delays on every step's run
        // leave DF/DT still converging next to the sequential
        // reference, within the paper's 1e-9 band for τ = 1e-10. A
        // missed RC bit in the sparse exit check would let survivors
        // stop early and show here as a large error.
        use crate::config::ConvergenceMode;
        use lfpr_graph::generators::grid_road;
        use lfpr_sched::fault::FaultPlan;
        let plans = [
            FaultPlan::with_crashes(2, 400, 7),
            FaultPlan::with_delays(2e-3, Duration::from_micros(300), 11),
        ];
        for algo in [Algorithm::DfLF, Algorithm::DtLF] {
            for plan in &plans {
                for convergence in [ConvergenceMode::PerVertex, ConvergenceMode::PerChunk] {
                    let mut g = grid_road(10_000, 5);
                    add_self_loops(&mut g);
                    let o = PagerankOptions::default()
                        .with_threads(4)
                        .with_chunk_size(256)
                        .with_convergence(convergence)
                        .with_faults(*plan);
                    let tau = o.tolerance;
                    let mut s = UpdateSession::new(g, algo, o);
                    for round in 0..3u64 {
                        let batch = BatchSpec::mixed(1e-3, 70 + round).generate(s.graph());
                        let stats = s.step(&batch).unwrap();
                        let what = format!("{algo} {convergence:?} {plan:?} step {round}");
                        assert!(stats.status.is_success(), "{what}");
                        let err = linf_diff(s.ranks(), &reference_default(&s.graph().snapshot()));
                        assert!(err < 10.0 * tau, "{what}: err = {err:.2e}");
                    }
                }
            }
        }
    }

    #[test]
    fn session_matches_one_shot_bit_for_bit_single_thread() {
        // Same warm start + same snapshots + 1 thread ⇒ the session's
        // workspace path must reproduce the one-shot kernel exactly.
        let o = PagerankOptions::default()
            .with_threads(1)
            .with_chunk_size(64);
        let mut g = erdos_renyi(150, 900, 17);
        add_self_loops(&mut g);
        let mut s = UpdateSession::new(g.clone(), Algorithm::DfLF, o.clone());
        let mut oracle_ranks = s.ranks().to_vec();
        for round in 0..4u64 {
            let batch = BatchSpec::mixed(0.01, 40 + round).generate(&g);
            let prev = g.snapshot();
            g.apply_batch(&batch).unwrap();
            let curr = g.snapshot();
            let one_shot = crate::df_lf::df_lf(&prev, &curr, &batch, &oracle_ranks, &o);
            oracle_ranks = one_shot.ranks;
            let stats = s.step(&batch).unwrap();
            assert_eq!(s.ranks(), &oracle_ranks[..], "round {round}");
            assert_eq!(stats.initially_affected, one_shot.initially_affected);
        }
    }
}
