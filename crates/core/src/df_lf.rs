//! DFLF — lock-free Dynamic Frontier PageRank (Algorithm 2, §4.3).
//!
//! **The paper's main contribution.** DF's two phases composed into a
//! single fault-tolerant lock-free parallel region:
//!
//! 1. **Initial marking with helping** (lines 5-16): threads claim batch
//!    edges from a wait-free cursor; each unchecked source `u`
//!    (`C[u] = 0`) has its out-neighbors in Gt−1 ∪ Gt marked affected
//!    (`VA[v'] = 1`) and flagged for recomputation (`RC[v'] = 1`), then
//!    `C[u] = 1`. A thread that finishes re-scans `C`: if a stalled or
//!    crashed peer left sources unchecked, the finisher processes them
//!    itself — the marking is idempotent, so racing helpers are
//!    harmless. No thread enters phase 2 while any batch edge is
//!    unchecked, yet no barrier is used.
//! 2. **Incremental marking + computation** (lines 17-31): asynchronous
//!    in-place rank updates over the affected set with per-iteration
//!    `nowait` chunk cursors. `Δr > τf` extends the frontier
//!    (`VA`/`RC` of out-neighbors set); `Δr ≤ τ` clears the vertex's
//!    `RC`. Each thread exits once it observes `RC` all-clear.
//!
//! Lock-freedom and fault tolerance are argued in §4.4: a stalled thread
//! triggers a benign race to finish its share (phase 1) or leaves its
//! vertices' `RC` flags set for others to re-process next round
//! (phase 2); at least one thread always makes progress.

use crate::config::PagerankOptions;
use crate::frontier::df_initial_affected;
use crate::lf_common::{helping_mark_phase, rc_flags_len, run_lf_engine, LfMode, Phase1Fn, RcView};
use crate::rank::{AtomicRanks, Flags, MarkBitmap};
use crate::result::PagerankResult;
use lfpr_graph::{BatchUpdate, NeighborRuns};
use lfpr_sched::chunks::ChunkCursor;

/// Update PageRank after `batch` with the lock-free Dynamic Frontier
/// algorithm.
pub fn df_lf<P: NeighborRuns, C: NeighborRuns>(
    prev: &P,
    curr: &C,
    batch: &BatchUpdate,
    prev_ranks: &[f64],
    opts: &PagerankOptions,
) -> PagerankResult {
    assert_eq!(prev_ranks.len(), curr.num_vertices());
    let n = curr.num_vertices();
    let ranks = AtomicRanks::from_slice(prev_ranks);
    let rc = Flags::new(rc_flags_len(n, opts.convergence, opts.chunk_size), 0);
    let va = MarkBitmap::new(n);
    let checked = Flags::new(n, 0); // C[u] — batch source processed?
    let edges: Vec<(u32, u32)> = batch.iter_all().collect();
    let cursor = ChunkCursor::new(edges.len());
    let rc_view = RcView::new(&rc, opts.convergence, opts.chunk_size);

    // Alg. 2 lines 10-12: out-neighbors of u in both snapshots become
    // affected and need their ranks recomputed.
    let mark_source = |u: u32| {
        for &vp in prev.out(u).iter().chain(curr.out(u)) {
            va.set(vp as usize);
            rc_view.set_vertex(vp as usize);
        }
    };
    // Spread the (usually small) batch over the team instead of letting
    // one thread claim it all in a single 2048-edge stride.
    let phase1_chunk = opts.batch_chunk(edges.len());
    let phase1: &Phase1Fn<'_> = &|_t, faults| {
        helping_mark_phase(
            &edges,
            &cursor,
            &checked,
            phase1_chunk,
            &mark_source,
            faults,
        )
    };

    let mode = LfMode::Frontier {
        va: &va,
        tau_f: opts.frontier_tolerance,
    };
    let mut res = run_lf_engine(curr, &ranks, &rc, mode, opts, Some(phase1));
    res.initially_affected = df_initial_affected(prev, curr, batch).len();
    res
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ConvergenceMode;
    use crate::norm::{linf_diff, rank_sum};
    use crate::reference::reference_default;
    use crate::result::RunStatus;
    use crate::static_lf::static_lf;
    use lfpr_graph::generators::{erdos_renyi, rmat, RmatParams};
    use lfpr_graph::selfloops::add_self_loops;
    use lfpr_graph::Snapshot;
    use lfpr_graph::{BatchSpec, DynGraph};
    use lfpr_sched::fault::FaultPlan;
    use std::time::Duration;

    fn opts() -> PagerankOptions {
        PagerankOptions::default()
            .with_threads(4)
            .with_chunk_size(32)
    }

    fn updated_er(seed: u64, frac: f64) -> (Snapshot, Snapshot, BatchUpdate, Vec<f64>) {
        let mut g = erdos_renyi(250, 1800, seed);
        add_self_loops(&mut g);
        updated_from(g, seed, frac)
    }

    fn updated_from(
        mut g: DynGraph,
        seed: u64,
        frac: f64,
    ) -> (Snapshot, Snapshot, BatchUpdate, Vec<f64>) {
        let prev = g.snapshot();
        let r_prev = static_lf(&prev, &opts()).ranks;
        let batch = BatchSpec::mixed(frac, seed + 1).generate(&g);
        g.apply_batch(&batch).unwrap();
        (prev, g.snapshot(), batch, r_prev)
    }

    #[test]
    fn error_within_paper_bound() {
        let (prev, curr, batch, r_prev) = updated_er(51, 0.01);
        let res = df_lf(&prev, &curr, &batch, &r_prev, &opts());
        assert_eq!(res.status, RunStatus::Converged);
        let err = linf_diff(&res.ranks, &reference_default(&curr));
        assert!(err < 1e-8, "err = {err}");
        assert!((rank_sum(&res.ranks) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn works_on_skewed_web_graph() {
        let mut g = rmat(512, 5000, RmatParams::web(), false, 53);
        add_self_loops(&mut g);
        let (prev, curr, batch, r_prev) = updated_from(g, 53, 0.005);
        let res = df_lf(&prev, &curr, &batch, &r_prev, &opts());
        assert_eq!(res.status, RunStatus::Converged);
        assert!(linf_diff(&res.ranks, &reference_default(&curr)) < 1e-8);
    }

    #[test]
    fn processes_fewer_vertices_than_nd_on_sparse_graph() {
        // DF's advantage is on sparse, large-diameter graphs (§5.2.2:
        // "DFLF performs well on road networks and protein k-mer graphs
        // (sparse), but poorly on social networks (dense)") — a rank
        // perturbation dies out within a small ball, so most vertices
        // are never marked. Two preconditions for the win:
        // * warm ranks must be fixpoint-quality (a τ-converged warm
        //   start leaves residuals ≥ τf at every vertex, which marks
        //   every processed vertex's neighbors and floods the frontier
        //   regardless of the batch — see DESIGN.md),
        // * the graph must be dense-diameter enough that the τf-ball is
        //   a small fraction of it.
        let mut g = lfpr_graph::generators::grid_road(25_000, 55);
        add_self_loops(&mut g);
        let prev = g.snapshot();
        let r_prev = crate::reference::reference_default(&prev);
        let batch = BatchSpec::mixed(1e-5, 56).generate(&g);
        g.apply_batch(&batch).unwrap();
        let curr = g.snapshot();
        let o = PagerankOptions::default()
            .with_threads(4)
            .with_chunk_size(256);
        let df = df_lf(&prev, &curr, &batch, &r_prev, &o);
        let nd = crate::nd_lf::nd_lf(&curr, &r_prev, &o);
        assert!(
            df.vertices_processed < nd.vertices_processed / 4,
            "DF {} vs ND {}",
            df.vertices_processed,
            nd.vertices_processed
        );
        assert!(linf_diff(&df.ranks, &reference_default(&curr)) < 1e-8);
    }

    #[test]
    fn survives_delays() {
        let (prev, curr, batch, r_prev) = updated_er(57, 0.01);
        let o = opts().with_faults(FaultPlan::with_delays(1e-3, Duration::from_millis(1), 19));
        let res = df_lf(&prev, &curr, &batch, &r_prev, &o);
        assert_eq!(res.status, RunStatus::Converged);
        assert!(linf_diff(&res.ranks, &reference_default(&curr)) < 1e-8);
    }

    #[test]
    fn survives_crashes_even_in_marking_phase() {
        let (prev, curr, batch, r_prev) = updated_er(59, 0.05);
        // Crash almost immediately: some threads die during phase 1;
        // survivors must complete the marking via helping and converge.
        let o = opts().with_faults(FaultPlan::with_crashes(2, 3, 29));
        let res = df_lf(&prev, &curr, &batch, &r_prev, &o);
        assert_eq!(res.status, RunStatus::Converged);
        assert!(res.threads_crashed <= 2);
        assert!(linf_diff(&res.ranks, &reference_default(&curr)) < 1e-8);
    }

    #[test]
    fn per_chunk_convergence_mode_works() {
        let (prev, curr, batch, r_prev) = updated_er(61, 0.01);
        let o = opts().with_convergence(ConvergenceMode::PerChunk);
        let res = df_lf(&prev, &curr, &batch, &r_prev, &o);
        assert_eq!(res.status, RunStatus::Converged);
        assert!(linf_diff(&res.ranks, &reference_default(&curr)) < 1e-7);
    }

    #[test]
    fn empty_batch_is_noop() {
        let (prev, _, _, r_prev) = updated_er(63, 0.01);
        let res = df_lf(&prev, &prev, &BatchUpdate::new(), &r_prev, &opts());
        assert_eq!(res.status, RunStatus::Converged);
        assert_eq!(res.vertices_processed, 0);
        assert_eq!(res.ranks, r_prev);
    }

    #[test]
    fn insert_only_batch() {
        let mut g = erdos_renyi(150, 700, 65);
        add_self_loops(&mut g);
        let prev = g.snapshot();
        let r_prev = static_lf(&prev, &opts()).ranks;
        let batch = BatchSpec::insert_only(0.02, 66).generate(&g);
        g.apply_batch(&batch).unwrap();
        let curr = g.snapshot();
        let res = df_lf(&prev, &curr, &batch, &r_prev, &opts());
        assert_eq!(res.status, RunStatus::Converged);
        assert!(linf_diff(&res.ranks, &reference_default(&curr)) < 1e-8);
    }

    #[test]
    fn delete_only_batch() {
        let mut g = erdos_renyi(150, 700, 67);
        add_self_loops(&mut g);
        let prev = g.snapshot();
        let r_prev = static_lf(&prev, &opts()).ranks;
        let batch = BatchSpec::delete_only(0.02, 68).generate(&g);
        g.apply_batch(&batch).unwrap();
        let curr = g.snapshot();
        let res = df_lf(&prev, &curr, &batch, &r_prev, &opts());
        assert_eq!(res.status, RunStatus::Converged);
        assert!(linf_diff(&res.ranks, &reference_default(&curr)) < 1e-8);
    }
}
