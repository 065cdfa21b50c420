//! Affected-vertex marking for the Dynamic Traversal and Dynamic
//! Frontier approaches.
//!
//! * **DF initial marking** (§4.1.1): for every batch edge `(u, v)`, the
//!   out-neighbors of `u` in *both* the previous graph Gt−1 and the
//!   current graph Gt are marked affected. The source `u` itself is not
//!   (it is "a source of the change", Figure 4 caption).
//! * **DT marking** (§3.5.2): a DFS from each out-neighbor of each batch
//!   source marks everything reachable in Gt — the much larger affected
//!   set whose traversal overhead is why the paper discards DT.

use crate::rank::MarkBitmap;
use lfpr_graph::{BatchUpdate, NeighborRuns};

/// Iterative DFS over `g`'s out-edges from `start`, marking visited
/// vertices through `test_and_set` (an atomic test-and-set on the `VA`
/// set, returning whether the vertex was already marked, keeps
/// concurrent traversals idempotent). Calls `on_new` for every newly
/// marked vertex.
pub(crate) fn dfs_mark_atomic<G: NeighborRuns>(
    g: &G,
    start: u32,
    test_and_set: &impl Fn(usize) -> bool,
    on_new: &mut impl FnMut(u32),
) {
    if test_and_set(start as usize) {
        return;
    }
    on_new(start);
    let mut stack = vec![start];
    while let Some(u) = stack.pop() {
        for &v in g.out(u) {
            if !test_and_set(v as usize) {
                on_new(v);
                stack.push(v);
            }
        }
    }
}

/// The distinct vertices DF's initial marking touches: out-neighbors of
/// every batch source in Gt−1 ∪ Gt. Sequential; used for diagnostics
/// (`PagerankResult::initially_affected`) outside the timed region.
pub fn df_initial_affected<P: NeighborRuns, C: NeighborRuns>(
    prev: &P,
    curr: &C,
    batch: &BatchUpdate,
) -> Vec<u32> {
    let mut out: Vec<u32> = Vec::new();
    for u in batch.sources() {
        out.extend_from_slice(prev.out(u));
        out.extend_from_slice(curr.out(u));
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// The number of vertices DT's initial marking touches: everything
/// reachable in Gt from any out-neighbor of any batch source.
/// Sequential; diagnostics only.
pub fn dt_initial_affected<P: NeighborRuns, C: NeighborRuns>(
    prev: &P,
    curr: &C,
    batch: &BatchUpdate,
) -> usize {
    let n = curr.num_vertices();
    let va = MarkBitmap::new(n);
    let mut count = 0usize;
    for u in batch.sources() {
        for &vp in prev.out(u).iter().chain(curr.out(u)) {
            dfs_mark_atomic(curr, vp, &|v| va.test_and_set(v), &mut |_| count += 1);
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use lfpr_graph::{BatchUpdate, Snapshot};

    /// Chain 0→1→2→3→4 plus self-loops.
    fn chain() -> Snapshot {
        Snapshot::from_edges(
            5,
            &[
                (0, 0),
                (1, 1),
                (2, 2),
                (3, 3),
                (4, 4),
                (0, 1),
                (1, 2),
                (2, 3),
                (3, 4),
            ],
        )
    }

    #[test]
    fn dfs_marks_reachable_set() {
        let g = chain();
        let va = MarkBitmap::new(5);
        let mut seen = Vec::new();
        dfs_mark_atomic(&g, 2, &|v| va.test_and_set(v), &mut |v| seen.push(v));
        seen.sort_unstable();
        assert_eq!(seen, vec![2, 3, 4]);
        assert!(va.get(2) && va.get(3) && va.get(4));
        assert!(!va.get(0) && !va.get(1));
    }

    #[test]
    fn dfs_respects_prior_marks() {
        let g = chain();
        let va = MarkBitmap::new(5);
        va.set(3); // pretend another thread marked it (and its subtree)
        let mut seen = Vec::new();
        dfs_mark_atomic(&g, 2, &|v| va.test_and_set(v), &mut |v| seen.push(v));
        assert_eq!(seen, vec![2]); // stops at the already-marked frontier
    }

    #[test]
    fn df_initial_affected_is_out_neighbors_of_sources() {
        let prev = chain();
        // Batch: delete (1,2), insert (3,0). Sources: 1 and 3.
        let curr = Snapshot::from_edges(
            5,
            &[
                (0, 0),
                (1, 1),
                (2, 2),
                (3, 3),
                (4, 4),
                (0, 1),
                (2, 3),
                (3, 4),
                (3, 0),
            ],
        );
        let batch = BatchUpdate {
            deletions: vec![(1, 2)],
            insertions: vec![(3, 0)],
        };
        let affected = df_initial_affected(&prev, &curr, &batch);
        // out(1) in prev = {1, 2}; out(1) in curr = {1};
        // out(3) in prev = {3, 4}; out(3) in curr = {0, 3, 4}.
        assert_eq!(affected, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn dt_affected_is_superset_of_df() {
        let prev = chain();
        let curr = prev.clone();
        let batch = BatchUpdate::delete_only(vec![(0, 1)]);
        let df = df_initial_affected(&prev, &curr, &batch).len();
        let dt = dt_initial_affected(&prev, &curr, &batch);
        // DF marks {0's out-neighbors} = {0, 1}; DT reaches 0..=4 from
        // them (everything downstream of vertex 0).
        assert!(dt >= df, "dt = {dt}, df = {df}");
        assert_eq!(dt, 5);
    }
}
