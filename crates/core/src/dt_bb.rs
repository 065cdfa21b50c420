//! DTBB — barrier-based Dynamic Traversal PageRank (Algorithm 7, §3.5.2).
//!
//! Desikan et al.'s widely adopted strategy: for every batch edge, mark
//! everything **reachable** from the source's out-neighbors (DFS over
//! Gt) as affected, then iterate only over the affected set. The paper
//! keeps DT as a baseline and shows its traversal overhead prevents it
//! from ever beating the naive-dynamic approach — we reproduce that
//! finding (the marking phase is inside the timed region, §5.1.5).

use crate::bb_common::{run_bb_engine, BbMode, MarkFn};
use crate::config::PagerankOptions;
use crate::frontier::{dfs_mark_atomic, dt_initial_affected};
use crate::rank::Flags;
use crate::result::PagerankResult;
use lfpr_graph::{BatchUpdate, NeighborRuns};
use lfpr_sched::chunks::ChunkCursor;

/// Update PageRank after `batch`, processing only vertices reachable
/// from the updated region (barrier-based).
pub fn dt_bb<P: NeighborRuns, C: NeighborRuns>(
    prev: &P,
    curr: &C,
    batch: &BatchUpdate,
    prev_ranks: &[f64],
    opts: &PagerankOptions,
) -> PagerankResult {
    assert_eq!(prev_ranks.len(), curr.num_vertices());
    let n = curr.num_vertices();
    let va = Flags::new(n, 0);
    let edges: Vec<(u32, u32)> = batch.iter_all().collect();
    let cursor = ChunkCursor::new(edges.len());

    // Parallel DFS marking (Alg. 7 lines 4-6): each thread claims batch
    // edges dynamically and DFS-marks from the source's out-neighbors in
    // both graphs. The atomic test-and-set visited check in `va` keeps
    // overlapping traversals from repeating work.
    // Spread the (usually small) batch over the team instead of letting
    // one thread claim it all in a single 2048-edge stride.
    let mark_chunk = opts.batch_chunk(edges.len());
    let mark: &MarkFn<'_> = &|_t, faults| {
        while let Some(range) = cursor.next_chunk(mark_chunk) {
            for &(u, _) in &edges[range.clone()] {
                for &vp in prev.out(u).iter().chain(curr.out(u)) {
                    dfs_mark_atomic(curr, vp, &|v| va.test_and_set(v), &mut |_| {});
                }
                if faults.tick() {
                    return false;
                }
            }
        }
        true
    };

    let mut res = run_bb_engine(
        curr,
        prev_ranks,
        BbMode::Affected { va: &va },
        opts,
        Some(mark),
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
    use crate::static_bb::static_bb;
    use lfpr_graph::generators::erdos_renyi;
    use lfpr_graph::selfloops::add_self_loops;
    use lfpr_graph::BatchSpec;

    fn opts() -> PagerankOptions {
        PagerankOptions::default()
            .with_threads(4)
            .with_chunk_size(32)
    }

    #[test]
    fn matches_reference_after_update() {
        let mut g = erdos_renyi(200, 1200, 21);
        add_self_loops(&mut g);
        let prev = g.snapshot();
        let r_prev = static_bb(&prev, &opts()).ranks;
        let batch = BatchSpec::mixed(0.01, 6).generate(&g);
        g.apply_batch(&batch).unwrap();
        let curr = g.snapshot();

        let res = dt_bb(&prev, &curr, &batch, &r_prev, &opts());
        assert_eq!(res.status, RunStatus::Converged);
        // DT processes everything whose rank can change (full reachable
        // closure), so its accuracy matches ND.
        let err = linf_diff(&res.ranks, &reference_default(&curr));
        assert!(err < 1e-9, "err = {err}");
        assert!(res.initially_affected > 0);
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let mut g = erdos_renyi(100, 600, 22);
        add_self_loops(&mut g);
        let prev = g.snapshot();
        let r_prev = static_bb(&prev, &opts()).ranks;
        let batch = BatchUpdate::new();
        let res = dt_bb(&prev, &prev, &batch, &r_prev, &opts());
        assert_eq!(res.status, RunStatus::Converged);
        assert_eq!(res.vertices_processed, 0);
        assert_eq!(res.ranks, r_prev);
    }
}
