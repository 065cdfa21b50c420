//! Shared engine for the four lock-free variants (Algorithms 2, 4, 6, 8).
//!
//! The lock-free algorithms share this skeleton (§3.3.2, §4.3):
//!
//! ```text
//! parallel (top-level block, no barriers anywhere):
//!     [phase 1: initial marking with helping — dynamic variants]
//!     for round in 0..MAX_ITERATIONS:
//!         while chunk = claim(round):          # dynamic sched, nowait
//!             for v in chunk [filter]:
//!                 c = R[v]; r = kernel(R, v); Δr = |r − c|; R[v] = r   # in place
//!                 [Frontier: Δr > τf ⇒ mark out-neighbors, RC[v'] = 1]
//!                 if Δr ≤ τ: RC[v] = 0
//!         if RC[v] = 0 ∀v: break               # per-thread check
//! ```
//!
//! Threads never wait: the per-round chunk cursors let a fast thread
//! proceed to round *i+1* while a slow thread is still in round *i*
//! (OpenMP `nowait` semantics), and the shared `RC` flag vector carries
//! each vertex's convergence status between threads. A crashed thread's
//! claimed-but-unprocessed vertices keep `RC = 1`, so surviving threads
//! re-process them in their next round — the fault-tolerance argument of
//! §4.4.
//!
//! **Deviations from Alg. 2.** (1) *`RC` re-arm:* the pseudocode only
//! ever clears `RC[v]`; the engine sets it again whenever a later `Δr`
//! exceeds τ (see the loop body), since `RC[v] = 1` means "not yet
//! converged". (2) *Early exit:* the pseudocode computes `r` and then
//! reads `R[v]` for `Δr`; the engine reads `R[v]` first. Read after the
//! kernel, a thread that recomputes `v` from the same neighbour values
//! another thread just used compares its `r` with that thread's store,
//! sees `Δr = 0` and clears the `RC[v]` the other thread set, so every
//! thread can exit as converged while `v` is still moving. Comparing
//! with the value this evaluation replaces measures its own change. At
//! one thread nothing stores between the two reads, so the bits of a
//! 1-thread run are unchanged.
//!
//! **Sparse rounds.** The dynamic variants keep `VA` in a two-level
//! [`MarkBitmap`]. Within a claimed chunk a round steps from one marked
//! vertex to the next with `trailing_zeros`, re-reading the live words
//! after every vertex, so a vertex marked ahead of the cursor is still
//! processed in the same round — exactly the vertices, in exactly the
//! order, that a test of every vertex's `VA` flag would visit, which
//! keeps 1-thread runs bit-identical to that dense scan. The exit check
//! reads `RC` only at marked vertices, because every vertex whose `RC`
//! is set is marked (see `rc_clear_at_marked`). A round therefore
//! costs O(marked vertices + marked words) plus one summary load per
//! 4096 vertices, not O(n). Static/ND (`LfMode::All`) keep the dense
//! loop and the full `RC` scan.
//!
//! **Lock-freedom:** the only shared-state operations on this path are
//! atomic loads, stores, `fetch_add` and `fetch_or` — every one of them
//! completes in a bounded number of steps regardless of what other
//! threads do, so system-wide progress is guaranteed as long as one
//! thread keeps running.

use crate::config::{ConvergenceMode, PagerankOptions};
use crate::kernel::{rank_of_from_atomic_with, TeleportBase};
use crate::rank::{AtomicRanks, FlagOps, MarkBitmap};
use crate::result::{PagerankResult, RunStatus};
use lfpr_graph::NeighborRuns;
use lfpr_sched::chunks::ChunkCursor;
use lfpr_sched::fault::ThreadFaults;
use lfpr_sched::rounds::RoundCursors;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Which vertices each round processes (mirrors `bb_common::BbMode`).
/// One-shot runs and reusable session workspaces pass the same
/// [`MarkBitmap`] type for `VA`.
pub(crate) enum LfMode<'a> {
    /// Every vertex (StaticLF, NDLF).
    All,
    /// Only `VA`-marked vertices; the set is fixed by phase 1 (DTLF).
    Affected { va: &'a MarkBitmap },
    /// `VA`-marked vertices with incremental frontier expansion (DFLF).
    Frontier { va: &'a MarkBitmap, tau_f: f64 },
}

impl LfMode<'_> {
    /// The affected set, if rounds are restricted to one.
    fn marked(&self) -> Option<&MarkBitmap> {
        match self {
            LfMode::All => None,
            LfMode::Affected { va } | LfMode::Frontier { va, .. } => Some(va),
        }
    }
}

/// Number of convergence flags a vector must have for `n` vertices in
/// `mode` (per-vertex: `n`; per-chunk: one per scheduling chunk).
pub(crate) fn rc_flags_len(n: usize, mode: ConvergenceMode, chunk: usize) -> usize {
    match mode {
        ConvergenceMode::PerVertex => n,
        ConvergenceMode::PerChunk => n.div_ceil(chunk),
    }
}

/// Convergence-flag view: per-vertex (`RC[v]`) or per-chunk (the §4.3
/// alternative). Both are plain atomic flag vectors; this adapter maps a
/// vertex id onto the right flag index.
pub(crate) struct RcView<'a, RC: FlagOps> {
    flags: &'a RC,
    mode: ConvergenceMode,
    chunk: usize,
}

impl<'a, RC: FlagOps> RcView<'a, RC> {
    pub(crate) fn new(flags: &'a RC, mode: ConvergenceMode, chunk: usize) -> Self {
        RcView { flags, mode, chunk }
    }

    /// Mark vertex `v` as not-yet-converged (RC[v] ← 1).
    #[inline]
    pub(crate) fn set_vertex(&self, v: usize) {
        match self.mode {
            ConvergenceMode::PerVertex => self.flags.set(v),
            ConvergenceMode::PerChunk => self.flags.set(v / self.chunk),
        }
    }

    /// Clear vertex `v`'s convergence flag — valid only in per-vertex
    /// mode (per-chunk clearing happens at chunk granularity).
    #[inline]
    fn clear_vertex(&self, v: usize) {
        debug_assert!(matches!(self.mode, ConvergenceMode::PerVertex));
        self.flags.clear(v);
    }
}

/// Phase-1 closure: initial affected marking with helping (DT/DF lock-
/// free variants). Returns `false` if the thread crashed mid-phase.
pub(crate) type Phase1Fn<'a> = dyn Fn(usize, &mut ThreadFaults) -> bool + Sync + 'a;

/// The helping loop of DFLF's initial-marking phase (Alg. 2 lines 5-16):
/// threads drain the batch-edge cursor; a thread that finishes re-scans
/// the `C` flags and processes any source vertex another (possibly
/// stalled) thread left unchecked. Marking is idempotent, so racing
/// helpers are harmless (§4.4).
pub(crate) fn helping_mark_phase(
    edges: &[(u32, u32)],
    cursor: &ChunkCursor,
    checked: &impl FlagOps,
    chunk: usize,
    mark_source: &(impl Fn(u32) + Sync),
    faults: &mut ThreadFaults,
) -> bool {
    // Pass 1: cooperative dynamic scheduling over the batch.
    while let Some(range) = cursor.next_chunk(chunk) {
        for &(u, _) in &edges[range] {
            if !checked.get(u as usize) {
                mark_source(u);
                checked.set(u as usize);
            }
            if faults.tick() {
                return false;
            }
        }
    }
    // Pass 2 (helping): verify every batch source is checked; process
    // leftovers from stalled/crashed peers ourselves. One extra pass
    // suffices because we process everything we find unchecked.
    loop {
        let mut all_checked = true;
        for &(u, _) in edges {
            if !checked.get(u as usize) {
                all_checked = false;
                mark_source(u);
                checked.set(u as usize);
            }
            if faults.tick() {
                return false;
            }
        }
        if all_checked {
            return true;
        }
    }
}

/// What [`run_lf_engine_on`] measures — everything in a
/// [`PagerankResult`] except the materialized rank vector, so reusable
/// workspaces can skip the terminal `ranks.to_vec()`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct EngineStats {
    pub iterations: usize,
    pub runtime: Duration,
    pub status: RunStatus,
    pub vertices_processed: u64,
    pub threads_crashed: usize,
}

/// Run the lock-free engine over a pre-initialized shared rank vector
/// and convergence flags, allocating the round cursors per run and
/// materializing the final ranks (the one-shot kernel path). The caller
/// owns initialization:
/// * `ranks` — 1/n (static) or previous ranks (dynamic),
/// * `rc` — all ones for All mode; zeros + marking for Affected/Frontier.
pub(crate) fn run_lf_engine<G: NeighborRuns, RC: FlagOps>(
    g: &G,
    ranks: &AtomicRanks,
    rc: &RC,
    mode: LfMode<'_>,
    opts: &PagerankOptions,
    phase1: Option<&Phase1Fn<'_>>,
) -> PagerankResult {
    let rounds = RoundCursors::new(opts.vertex_plan(g), opts.max_iterations);
    let s = run_lf_engine_on(g, ranks, rc, mode, opts, phase1, &rounds);
    PagerankResult {
        ranks: ranks.to_vec(),
        iterations: s.iterations,
        runtime: s.runtime,
        total_wait: Duration::ZERO, // lock-free: no barriers
        max_wait: Duration::ZERO,
        status: s.status,
        vertices_processed: s.vertices_processed,
        initially_affected: 0, // variants overwrite for dynamic runs
        threads_crashed: s.threads_crashed,
    }
}

/// The sparse convergence check (Alg. 2 line 31) of the Affected and
/// Frontier modes under per-vertex flags: is `RC[v]` clear at every
/// marked `v`?
///
/// It is authoritative — it reports clear only where the full `SeqCst`
/// scan of every `RC` flag would:
/// * Every set `RC` bit lies at a marked vertex. Phase-1 marking sets
///   `VA[v]` before `RC[v]`, the re-arm sets `RC` only for a processed
///   (hence marked) vertex, and no bit of `VA` is cleared during a run.
/// * A mark is seen whenever its `RC` store must be. The full scan is
///   guaranteed to read an `RC` store only if the store happens-before
///   the scan. The marker's summary and leaf updates are sequenced
///   before its `RC` store (or are reads of an earlier marker's update,
///   see [`MarkBitmap::test_and_set`]), so they happen-before the scan
///   as well, and by coherence the scan's loads of those words return
///   them or later values. The words only ever gain bits, so the scan
///   finds the vertex and reads its `RC` store or a later one, exactly
///   as the full scan would.
///
/// An `RC` store racing with the scan may be missed, as the full scan
/// could miss it too; the thread that made it keeps running and checks
/// again at the end of its own round.
fn rc_clear_at_marked<RC: FlagOps>(va: &MarkBitmap, rc: &RC) -> bool {
    let mut pos = 0;
    while let Some(v) = va.next_set_sync(pos, va.len()) {
        if rc.get_sync(v) {
            return false;
        }
        pos = v + 1;
    }
    true
}

/// The lock-free engine proper, running over caller-owned round cursors
/// (reset between runs by a persistent session) and returning stats
/// only — the final ranks live in `ranks`, which the session exposes by
/// reference instead of cloning out.
pub(crate) fn run_lf_engine_on<G: NeighborRuns, RC: FlagOps>(
    g: &G,
    ranks: &AtomicRanks,
    rc: &RC,
    mode: LfMode<'_>,
    opts: &PagerankOptions,
    phase1: Option<&Phase1Fn<'_>>,
    rounds: &RoundCursors,
) -> EngineStats {
    debug_assert!(opts.validate().is_ok());
    let nt = opts.num_threads;
    let processed = AtomicU64::new(0);
    let max_round = AtomicUsize::new(0);
    let crashed_count = AtomicUsize::new(0);
    let converged = AtomicBool::new(false);
    let rc_view = RcView::new(rc, opts.convergence, opts.chunk_size);
    let per_chunk = matches!(opts.convergence, ConvergenceMode::PerChunk);
    let marked = mode.marked();
    // Teleport term precomputed once per run; `Uniform` yields the same
    // `(1.0 - alpha) / n` constant the kernels historically inlined.
    let base = TeleportBase::new(&opts.teleport, g.num_vertices(), opts.alpha);

    let t0 = Instant::now();
    opts.schedule.executor.run(nt, |t| {
        let mut faults = opts.faults.thread_faults(t, nt);
        let mut local_processed = 0u64;

        // Phase 1: initial marking with helping (dynamic variants only).
        if let Some(p1) = phase1 {
            if !p1(t, &mut faults) {
                crashed_count.fetch_add(1, Ordering::Relaxed);
                processed.fetch_add(local_processed, Ordering::Relaxed);
                return;
            }
        }

        // Phase 2: incremental marking, processing, and convergence
        // detection — no barriers anywhere.
        'rounds: for round in 0..opts.max_iterations {
            while let Some(range) = rounds.next_chunk(round) {
                // Valid in per-chunk mode because vertex_plan pins the
                // plan to Fixed(chunk_size) there (flag alignment).
                let chunk_idx = range.start / opts.chunk_size;
                let mut chunk_converged = true;
                let mut pos = range.start;
                loop {
                    // Next vertex: each one in turn (All), or the next
                    // marked one — unmarked vertices are trivially
                    // converged. `next_set` re-reads the live words, so
                    // a mark set ahead of the cursor counts.
                    let v = match marked {
                        None if pos < range.end => pos,
                        None => break,
                        Some(va) => match va.next_set(pos, range.end) {
                            Some(v) => v,
                            None => break,
                        },
                    };
                    pos = v + 1;
                    let vid = v as u32;
                    // R[v] is read before the kernel, not after it
                    // (module docs, deviation 2).
                    let cur = ranks.get(v);
                    let r = rank_of_from_atomic_with(g, ranks, vid, opts.alpha, &base);
                    let dr = (r - cur).abs();
                    ranks.set(v, r); // in-place, visible to all threads
                    if let LfMode::Frontier { va, tau_f } = &mode {
                        // Alg. 2 lines 25-27: expand the frontier.
                        //
                        // Deviation from line 28 (RC[v'] ← 1): setting RC
                        // for every newly marked vertex makes each
                        // frontier ring block the all-clear check for one
                        // more round, so the run terminates only when
                        // every first-processing Δr is ≤ τf — i.e. it
                        // expands ring-by-ring to the graph boundary and
                        // over-converges 1000× past τ, contradicting the
                        // paper's own measured error (~5e-10) and
                        // runtimes. We extend VA only; sub-τ wavelets
                        // reaching new vertices are absorbed (that is the
                        // DF approximation, same as DFBB terminating on
                        // ΔR ≤ τ while VA still grows), while genuine
                        // > τ waves keep RC alive through the Δr > τ
                        // re-arm below and are never lost.
                        if dr > *tau_f {
                            for &vp in g.out(vid) {
                                va.set(vp as usize);
                            }
                        }
                    }
                    if per_chunk {
                        if dr > opts.tolerance {
                            chunk_converged = false;
                        }
                    } else if dr <= opts.tolerance {
                        // Alg. 2 line 29: RC[v] ← 0.
                        rc_view.clear_vertex(v);
                    } else {
                        // Re-arm: the pseudocode only ever clears RC, but
                        // a cleared flag must be re-set when a later
                        // round's Δr exceeds τ again (neighbor updates
                        // arriving asynchronously) — otherwise threads
                        // can terminate while ranks are still moving and
                        // the error blows past the paper's ~5e-10 band.
                        // RC[v] = 1 means "not yet converged" (§4.3), so
                        // this is the definition, made explicit.
                        rc_view.set_vertex(v);
                    }
                    local_processed += 1;
                    if faults.tick() {
                        crashed_count.fetch_add(1, Ordering::Relaxed);
                        processed.fetch_add(local_processed, Ordering::Relaxed);
                        max_round.fetch_max(round, Ordering::Relaxed);
                        return; // crash-stop: clean exit, memory intact
                    }
                }
                if per_chunk {
                    // §4.3 per-chunk alternative: one flag per chunk.
                    if chunk_converged {
                        rc.clear(chunk_idx);
                    } else {
                        rc.set(chunk_idx);
                    }
                }
            }
            max_round.fetch_max(round + 1, Ordering::Relaxed);
            // Alg. 2 line 31: per-thread convergence check over RC. Each
            // thread decides from its own observation only — exiting on
            // *another* thread's observation would let a thread skip the
            // repair round after an in-flight update re-armed a flag.
            // Per-vertex flags of a marked run are read at marked
            // vertices only; per-chunk flags (n / chunk of them) and the
            // All modes scan every flag.
            let all_clear = match marked {
                Some(va) if !per_chunk => rc_clear_at_marked(va, rc),
                _ => rc.all_clear(),
            };
            if all_clear {
                converged.store(true, Ordering::SeqCst);
                break 'rounds;
            }
        }
        processed.fetch_add(local_processed, Ordering::Relaxed);
    });
    let runtime = t0.elapsed();

    let threads_crashed = crashed_count.load(Ordering::Relaxed);
    let status = if converged.load(Ordering::SeqCst) {
        RunStatus::Converged
    } else if threads_crashed >= nt {
        // Everyone crashed before convergence: nobody finished the work.
        RunStatus::Stalled
    } else {
        RunStatus::MaxIterations
    };
    EngineStats {
        iterations: max_round.load(Ordering::Relaxed),
        runtime,
        status,
        vertices_processed: processed.load(Ordering::Relaxed),
        threads_crashed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::norm::linf_diff;
    use crate::rank::Flags;
    use crate::reference::reference_default;
    use lfpr_graph::Snapshot;
    use lfpr_sched::fault::FaultPlan;

    fn ring(n: usize) -> Snapshot {
        // Irregular ring (see bb_common::tests::ring): a regular graph
        // would converge in one iteration from the uniform start.
        let mut edges: Vec<(u32, u32)> = (0..n as u32).map(|v| (v, v)).collect();
        for v in 0..n as u32 {
            edges.push((v, (v + 1) % n as u32));
            if v % 3 == 0 {
                edges.push((v, (v + 3) % n as u32));
            }
            if v % 5 == 0 && v != 0 {
                edges.push((v, 0));
            }
        }
        Snapshot::from_edges(n, &edges)
    }

    fn opts() -> PagerankOptions {
        PagerankOptions::default()
            .with_threads(4)
            .with_chunk_size(8)
    }

    #[test]
    fn all_mode_matches_reference() {
        let g = ring(64);
        let ranks = AtomicRanks::uniform(64, 1.0 / 64.0);
        let rc = Flags::new(64, 1);
        let res = run_lf_engine(&g, &ranks, &rc, LfMode::All, &opts(), None);
        assert_eq!(res.status, RunStatus::Converged);
        let reference = reference_default(&g);
        assert!(
            linf_diff(&res.ranks, &reference) < 1e-8,
            "err = {}",
            linf_diff(&res.ranks, &reference)
        );
        assert_eq!(res.total_wait, std::time::Duration::ZERO);
    }

    #[test]
    fn per_chunk_convergence_matches_reference() {
        let g = ring(64);
        let o = opts().with_convergence(ConvergenceMode::PerChunk);
        let ranks = AtomicRanks::uniform(64, 1.0 / 64.0);
        let rc = Flags::new(rc_flags_len(64, o.convergence, o.chunk_size), 1);
        let res = run_lf_engine(&g, &ranks, &rc, LfMode::All, &o, None);
        assert_eq!(res.status, RunStatus::Converged);
        let reference = reference_default(&g);
        assert!(linf_diff(&res.ranks, &reference) < 1e-8);
    }

    #[test]
    fn survives_thread_crashes() {
        // Large enough that the run outlives thread spawn latency — the
        // crash-flagged threads must actually claim work before the
        // survivors finish, otherwise the crash never fires.
        let n = 20_000;
        let g = ring(n);
        let o = PagerankOptions::default()
            .with_threads(4)
            .with_chunk_size(256)
            .with_faults(FaultPlan::with_crashes(2, 50, 7));
        let ranks = AtomicRanks::uniform(n, 1.0 / n as f64);
        let rc = Flags::new(n, 1);
        let res = run_lf_engine(&g, &ranks, &rc, LfMode::All, &o, None);
        assert_eq!(
            res.status,
            RunStatus::Converged,
            "LF must finish despite crashes"
        );
        assert_eq!(res.threads_crashed, 2);
        let reference = reference_default(&g);
        assert!(linf_diff(&res.ranks, &reference) < 1e-8);
    }

    #[test]
    fn all_threads_crashing_reports_stalled() {
        let g = ring(128);
        let o = opts().with_faults(FaultPlan::with_crashes(4, 5, 9));
        let ranks = AtomicRanks::uniform(128, 1.0 / 128.0);
        let rc = Flags::new(128, 1);
        let res = run_lf_engine(&g, &ranks, &rc, LfMode::All, &o, None);
        assert_eq!(res.status, RunStatus::Stalled);
        assert_eq!(res.threads_crashed, 4);
    }

    #[test]
    fn helping_mark_phase_completes_leftovers() {
        // Simulate a stalled peer: the cursor is pre-drained so the
        // "cooperative" pass sees nothing, but `checked` has holes — the
        // helping pass must fill them.
        let edges: Vec<(u32, u32)> = vec![(0, 1), (2, 3), (4, 5)];
        let cursor = ChunkCursor::new(edges.len());
        while cursor.next_chunk(1).is_some() {}
        let checked = Flags::new(6, 0);
        checked.set(2); // one source already done by the "stalled" peer
        let marked = Flags::new(6, 0);
        let mut faults = FaultPlan::none().thread_faults(0, 1);
        let ok = helping_mark_phase(
            &edges,
            &cursor,
            &checked,
            2,
            &|u| marked.set(u as usize),
            &mut faults,
        );
        assert!(ok);
        assert!(checked.get(0) && checked.get(2) && checked.get(4));
        assert!(marked.get(0) && marked.get(4));
        assert!(
            !marked.get(2),
            "already-checked source must not be re-marked"
        );
    }

    #[test]
    fn all_schedules_match_reference() {
        use lfpr_sched::{ChunkPolicy, ExecMode, Schedule};
        let g = ring(512);
        let reference = reference_default(&g);
        for policy in [
            ChunkPolicy::Fixed(32),
            ChunkPolicy::Guided { min: 8 },
            ChunkPolicy::DegreeWeighted { chunk: 32 },
        ] {
            for executor in [ExecMode::Spawn, ExecMode::Pool] {
                let o = opts().with_schedule(Schedule { policy, executor });
                let ranks = AtomicRanks::uniform(512, 1.0 / 512.0);
                let rc = Flags::new(512, 1);
                let res = run_lf_engine(&g, &ranks, &rc, LfMode::All, &o, None);
                assert_eq!(res.status, RunStatus::Converged, "{policy} {executor}");
                let err = linf_diff(&res.ranks, &reference);
                assert!(err < 1e-8, "{policy} {executor}: err = {err}");
            }
        }
    }

    #[test]
    fn pooled_guided_survives_thread_crashes() {
        use lfpr_sched::{ChunkPolicy, Schedule};
        // The wait-free claim + helping story must hold unchanged on the
        // persistent pool with irregular chunks.
        let n = 20_000;
        let g = ring(n);
        let o = PagerankOptions::default()
            .with_threads(4)
            .with_schedule(Schedule::pooled(ChunkPolicy::Guided { min: 64 }))
            .with_faults(FaultPlan::with_crashes(2, 50, 7));
        let ranks = AtomicRanks::uniform(n, 1.0 / n as f64);
        let rc = Flags::new(n, 1);
        let res = run_lf_engine(&g, &ranks, &rc, LfMode::All, &o, None);
        assert_eq!(res.status, RunStatus::Converged);
        assert_eq!(res.threads_crashed, 2);
        assert!(linf_diff(&res.ranks, &reference_default(&g)) < 1e-8);
    }

    #[test]
    fn affected_mode_with_empty_marking_converges_immediately() {
        let g = ring(32);
        let init = reference_default(&g);
        let ranks = AtomicRanks::from_slice(&init);
        let rc = Flags::new(32, 0);
        let va = MarkBitmap::new(32);
        let res = run_lf_engine(&g, &ranks, &rc, LfMode::Affected { va: &va }, &opts(), None);
        assert_eq!(res.status, RunStatus::Converged);
        assert_eq!(res.vertices_processed, 0);
        assert_eq!(res.ranks, init);
    }
}
