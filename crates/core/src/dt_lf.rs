//! DTLF — lock-free Dynamic Traversal PageRank (Algorithm 8, §3.5.2).
//!
//! The lock-free counterpart of [`crate::dt_bb`]: any thread may start
//! computing ranks as soon as it has verified (via the `C` checked-flag
//! vector, with helping) that every batch edge's reachable region has
//! been marked. The affected set is fixed after phase 1; iteration then
//! proceeds exactly like the other lock-free variants.
//!
//! Caveat reproduced from the paper: if a thread crashes *mid-DFS*, the
//! helping thread restarts the DFS from the same roots, but the atomic
//! visited flags make the restarted traversal stop at the crashed
//! thread's partial frontier — under-marking is possible in that narrow
//! window. The paper's fault experiments only exercise the DF variants;
//! DT is the discarded baseline (§3.5.2).

use crate::config::PagerankOptions;
use crate::frontier::{dfs_mark_atomic, dt_initial_affected};
use crate::lf_common::{helping_mark_phase, rc_flags_len, run_lf_engine, LfMode, Phase1Fn, RcView};
use crate::rank::{AtomicRanks, Flags, MarkBitmap};
use crate::result::PagerankResult;
use lfpr_graph::{BatchUpdate, NeighborRuns};
use lfpr_sched::chunks::ChunkCursor;

/// Update PageRank after `batch`, lock-free, processing only vertices
/// reachable from the updated region.
pub fn dt_lf<P: NeighborRuns, C: NeighborRuns>(
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
    let checked = Flags::new(n, 0);
    let edges: Vec<(u32, u32)> = batch.iter_all().collect();
    let cursor = ChunkCursor::new(edges.len());
    let rc_view = RcView::new(&rc, opts.convergence, opts.chunk_size);

    // DFS-mark everything reachable from u's out-neighbors in both
    // graphs; newly affected vertices also need their ranks recomputed.
    let mark_source = |u: u32| {
        for &vp in prev.out(u).iter().chain(curr.out(u)) {
            dfs_mark_atomic(curr, vp, &|v| va.test_and_set(v), &mut |w| {
                rc_view.set_vertex(w as usize)
            });
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

    let mut res = run_lf_engine(
        curr,
        &ranks,
        &rc,
        LfMode::Affected { va: &va },
        opts,
        Some(phase1),
    );
    res.initially_affected = dt_initial_affected(prev, curr, batch);
    res
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::norm::linf_diff;
    use crate::reference::reference_default;
    use crate::result::RunStatus;
    use crate::static_lf::static_lf;
    use lfpr_graph::generators::erdos_renyi;
    use lfpr_graph::selfloops::add_self_loops;
    use lfpr_graph::BatchSpec;
    use lfpr_graph::Snapshot;
    use lfpr_sched::fault::FaultPlan;

    fn opts() -> PagerankOptions {
        PagerankOptions::default()
            .with_threads(4)
            .with_chunk_size(32)
    }

    fn updated(seed: u64) -> (Snapshot, Snapshot, BatchUpdate, Vec<f64>) {
        let mut g = erdos_renyi(200, 1200, seed);
        add_self_loops(&mut g);
        let prev = g.snapshot();
        let r_prev = static_lf(&prev, &opts()).ranks;
        let batch = BatchSpec::mixed(0.01, seed + 1).generate(&g);
        g.apply_batch(&batch).unwrap();
        (prev, g.snapshot(), batch, r_prev)
    }

    #[test]
    fn matches_reference_after_update() {
        let (prev, curr, batch, r_prev) = updated(31);
        let res = dt_lf(&prev, &curr, &batch, &r_prev, &opts());
        assert_eq!(res.status, RunStatus::Converged);
        let err = linf_diff(&res.ranks, &reference_default(&curr));
        assert!(err < 1e-8, "err = {err}");
    }

    #[test]
    fn survives_crashes_in_compute_phase() {
        let (prev, curr, batch, r_prev) = updated(33);
        // Crash late enough that phase 1 (marking) completes first.
        let o = opts().with_faults(FaultPlan::with_crashes(1, 5_000, 3));
        let res = dt_lf(&prev, &curr, &batch, &r_prev, &o);
        assert_eq!(res.status, RunStatus::Converged);
    }

    #[test]
    fn dt_affected_superset_means_same_accuracy_as_nd() {
        let (prev, curr, batch, r_prev) = updated(35);
        let dt = dt_lf(&prev, &curr, &batch, &r_prev, &opts());
        let nd = crate::nd_lf::nd_lf(&curr, &r_prev, &opts());
        let reference = reference_default(&curr);
        let e_dt = linf_diff(&dt.ranks, &reference);
        let e_nd = linf_diff(&nd.ranks, &reference);
        assert!(e_dt < 1e-8 && e_nd < 1e-8, "dt {e_dt}, nd {e_nd}");
    }
}
