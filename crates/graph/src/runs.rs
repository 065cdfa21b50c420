//! Neighbor-run abstraction over graph storage layouts.
//!
//! The PageRank kernels in `lfpr-core` only ever look at a graph through
//! five operations: vertex/edge counts, the sorted out-run and in-run of a
//! vertex, and cached out-degrees. [`NeighborRuns`] captures exactly that
//! surface so the kernels can iterate either the paged [`Snapshot`] CSR or
//! the gap-aware store ([`crate::gapped::GappedGraph`]) without caring how
//! runs are laid out in memory.
//!
//! Two invariants every implementor must uphold, because the lock-free
//! kernels depend on them for bit-identical single-thread reproducibility:
//!
//! 1. `out(v)` / `in_(v)` return the neighbors as a **contiguous slice
//!    sorted ascending** — pull-style accumulation sums in-neighbors in
//!    slice order, and float addition is not associative.
//! 2. `out_degree(u)` equals `out(u).len()` at all times (the kernels
//!    divide by it without re-deriving the run).

use crate::snapshot::Snapshot;
use crate::types::VertexId;

/// Read-only view of a directed graph as per-vertex sorted neighbor runs.
///
/// See the module docs for the invariants implementors must uphold.
pub trait NeighborRuns: Sync {
    /// Number of vertices `n`; ids are `0..n`.
    fn num_vertices(&self) -> usize;

    /// Number of directed edges `m`.
    fn num_edges(&self) -> usize;

    /// Out-neighbors of `v`, sorted ascending.
    fn out(&self, v: VertexId) -> &[VertexId];

    /// In-neighbors of `v`, sorted ascending.
    fn in_(&self, v: VertexId) -> &[VertexId];

    /// Out-degree of `v` (must equal `self.out(v).len()`).
    fn out_degree(&self, v: VertexId) -> u32;
}

impl NeighborRuns for Snapshot {
    #[inline]
    fn num_vertices(&self) -> usize {
        Snapshot::num_vertices(self)
    }

    #[inline]
    fn num_edges(&self) -> usize {
        Snapshot::num_edges(self)
    }

    #[inline]
    fn out(&self, v: VertexId) -> &[VertexId] {
        Snapshot::out(self, v)
    }

    #[inline]
    fn in_(&self, v: VertexId) -> &[VertexId] {
        Snapshot::in_(self, v)
    }

    #[inline]
    fn out_degree(&self, v: VertexId) -> u32 {
        Snapshot::out_degree(self, v)
    }
}

/// A run view whose out-degrees come from a dense array rather than the
/// underlying store.
///
/// The pull kernels read one out-degree per in-edge. A [`Snapshot`]
/// answers that from its pages (a page-table load, then two offsets),
/// which costs the whole-graph kernels ~20% over a dense array on a
/// 1M-vertex grid; a caller that pays O(n) per run anyway, or keeps the
/// array current itself, hands the kernels this view instead. Runs are
/// the wrapped store's, so results are bit-identical.
#[derive(Debug, Clone, Copy)]
pub struct WithDegrees<'a, G: ?Sized> {
    runs: &'a G,
    degrees: &'a [u32],
}

impl<'a, G: NeighborRuns + ?Sized> WithDegrees<'a, G> {
    /// View `runs` with `degrees[v]` as the out-degree of `v`, which
    /// must equal `runs.out(v).len()` for every vertex.
    pub fn new(runs: &'a G, degrees: &'a [u32]) -> Self {
        debug_assert_eq!(degrees, out_degrees(runs));
        WithDegrees { runs, degrees }
    }
}

/// The out-degree of every vertex of `g`, densely.
pub fn out_degrees<G: NeighborRuns + ?Sized>(g: &G) -> Vec<u32> {
    (0..g.num_vertices() as VertexId)
        .map(|v| g.out_degree(v))
        .collect()
}

impl<G: NeighborRuns + ?Sized> NeighborRuns for WithDegrees<'_, G> {
    #[inline]
    fn num_vertices(&self) -> usize {
        self.runs.num_vertices()
    }

    #[inline]
    fn num_edges(&self) -> usize {
        self.runs.num_edges()
    }

    #[inline]
    fn out(&self, v: VertexId) -> &[VertexId] {
        self.runs.out(v)
    }

    #[inline]
    fn in_(&self, v: VertexId) -> &[VertexId] {
        self.runs.in_(v)
    }

    #[inline]
    fn out_degree(&self, v: VertexId) -> u32 {
        self.degrees[v as usize]
    }
}

/// Shared snapshots are handed around as `Arc<Snapshot>`; let them be
/// used directly wherever a run view is expected.
impl<G: NeighborRuns + Send + ?Sized> NeighborRuns for std::sync::Arc<G> {
    #[inline]
    fn num_vertices(&self) -> usize {
        (**self).num_vertices()
    }

    #[inline]
    fn num_edges(&self) -> usize {
        (**self).num_edges()
    }

    #[inline]
    fn out(&self, v: VertexId) -> &[VertexId] {
        (**self).out(v)
    }

    #[inline]
    fn in_(&self, v: VertexId) -> &[VertexId] {
        (**self).in_(v)
    }

    #[inline]
    fn out_degree(&self, v: VertexId) -> u32 {
        (**self).out_degree(v)
    }
}

/// Blanket impl so `&G` works wherever `G: NeighborRuns` is expected.
impl<G: NeighborRuns + ?Sized> NeighborRuns for &G {
    #[inline]
    fn num_vertices(&self) -> usize {
        (**self).num_vertices()
    }

    #[inline]
    fn num_edges(&self) -> usize {
        (**self).num_edges()
    }

    #[inline]
    fn out(&self, v: VertexId) -> &[VertexId] {
        (**self).out(v)
    }

    #[inline]
    fn in_(&self, v: VertexId) -> &[VertexId] {
        (**self).in_(v)
    }

    #[inline]
    fn out_degree(&self, v: VertexId) -> u32 {
        (**self).out_degree(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn total<G: NeighborRuns>(g: &G) -> usize {
        (0..g.num_vertices() as VertexId)
            .map(|v| g.out(v).len())
            .sum()
    }

    #[test]
    fn snapshot_implements_neighbor_runs() {
        let s = Snapshot::from_edges(4, &[(0, 1), (0, 2), (1, 2), (3, 0)]);
        assert_eq!(NeighborRuns::num_vertices(&s), 4);
        assert_eq!(NeighborRuns::num_edges(&s), 4);
        assert_eq!(NeighborRuns::out(&s, 0), &[1, 2]);
        assert_eq!(NeighborRuns::in_(&s, 2), &[0, 1]);
        assert_eq!(NeighborRuns::out_degree(&s, 0), 2);
        assert_eq!(total(&s), 4);
        // Blanket impl on references compiles and agrees.
        assert_eq!(total(&&s), 4);
        // A dense-degree view answers like the snapshot.
        let degrees = out_degrees(&s);
        assert_eq!(degrees, vec![2, 1, 0, 1]);
        let w = WithDegrees::new(&s, &degrees);
        assert_eq!(NeighborRuns::out_degree(&w, 3), 1);
        assert_eq!(NeighborRuns::in_(&w, 2), &[0, 1]);
        assert_eq!(total(&w), 4);
    }
}
