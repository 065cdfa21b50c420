//! Mutable dynamic directed graph with batch edge updates.
//!
//! `DynGraph` is the mutable side of the substrate: it supports single-edge
//! and batched insertions/deletions, and produces immutable
//! [`Snapshot`]s for the compute phase, matching
//! the paper's interleaved update/compute model (§3.4).
//!
//! Adjacency is stored per-vertex as a sorted `Vec<VertexId>`, so edge
//! membership is `O(log d)` and inserts/deletes are `O(d)` — good enough
//! for the batch-dynamic setting where batches are small relative to `|E|`.

use crate::batch::BatchUpdate;
use crate::snapshot::Snapshot;
use crate::types::{Edge, GraphError, Result, VertexId};
use std::sync::Arc;

/// A mutable directed graph over a fixed vertex set `0..n`.
///
/// The paper assumes no vertex additions/removals (§3.4); the vertex count
/// is fixed at construction.
///
/// The graph keeps its own snapshot coherent across
/// [`apply_batch`](Self::apply_batch) calls: the first
/// [`snapshot_shared`](Self::snapshot_shared) builds it in full, and every
/// subsequent batch derives the next one copy-on-write via
/// [`Snapshot::apply_batch`] (only the pages the batch touches are
/// rebuilt). Ad-hoc single-edge mutations invalidate the cache (the next
/// `snapshot_shared` rebuilds).
#[derive(Debug, Clone)]
pub struct DynGraph {
    out: Vec<Vec<VertexId>>, // sorted
    m: usize,
    /// Coherent snapshot of the current adjacency, shared with readers
    /// (rank sessions) via `Arc`.
    cached: Option<Arc<Snapshot>>,
}

/// Equality is over the graph itself (adjacency + edge count); the
/// snapshot cache is a representation detail.
impl PartialEq for DynGraph {
    fn eq(&self, other: &Self) -> bool {
        self.m == other.m && self.out == other.out
    }
}

impl Eq for DynGraph {}

impl DynGraph {
    /// An edgeless graph with `n` vertices.
    pub fn new(n: usize) -> Self {
        DynGraph {
            out: vec![Vec::new(); n],
            m: 0,
            cached: None,
        }
    }

    /// Construct from a strictly sorted, deduplicated edge list.
    pub(crate) fn from_sorted_edges(n: usize, edges: &[Edge]) -> Self {
        let mut out = vec![Vec::new(); n];
        for &(u, v) in edges {
            out[u as usize].push(v);
        }
        DynGraph {
            out,
            m: edges.len(),
            cached: None,
        }
    }

    /// Build from an arbitrary edge list: validates vertex ids against
    /// `n`, then sorts and deduplicates. This is the single merge point
    /// for every loader (streaming and buffered) and the builder.
    pub fn from_edges(n: usize, mut edges: Vec<Edge>) -> Result<Self> {
        validate_edge_ids(n, &edges)?;
        sort_dedup(&mut edges);
        Ok(DynGraph::from_sorted_edges(n, &edges))
    }

    /// Build from an edge list the caller already sorted and
    /// deduplicated (the streaming loader's parallel bucket sort ends
    /// here). Ids are validated exactly like
    /// [`from_edges`](Self::from_edges); sortedness is the caller's
    /// contract, checked in debug builds only.
    pub fn from_presorted_edges(n: usize, edges: Vec<Edge>) -> Result<Self> {
        validate_edge_ids(n, &edges)?;
        debug_assert!(
            edges.windows(2).all(|w| w[0] < w[1]),
            "from_presorted_edges given unsorted or duplicated edges"
        );
        Ok(DynGraph::from_sorted_edges(n, &edges))
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.out.len()
    }

    /// Number of directed edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.m
    }

    /// Sorted out-neighbors of `u`.
    #[inline]
    pub fn out_neighbors(&self, u: VertexId) -> &[VertexId] {
        &self.out[u as usize]
    }

    /// Out-degree of `u`.
    #[inline]
    pub fn out_degree(&self, u: VertexId) -> usize {
        self.out[u as usize].len()
    }

    /// Whether `(u, v)` exists.
    #[inline]
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.out[u as usize].binary_search(&v).is_ok()
    }

    /// Drop the cached snapshot.
    fn invalidate(&mut self) {
        self.cached = None;
    }

    fn check_vertex(&self, v: VertexId) -> Result<()> {
        if (v as usize) < self.out.len() {
            Ok(())
        } else {
            Err(GraphError::VertexOutOfRange {
                vertex: v,
                n: self.out.len(),
            })
        }
    }

    /// Insert edge `(u, v)`. Errors if it already exists. Invalidates
    /// the cached snapshot (use [`apply_batch`](Self::apply_batch) to
    /// keep it coherent incrementally).
    pub fn insert_edge(&mut self, u: VertexId, v: VertexId) -> Result<()> {
        self.check_vertex(u)?;
        self.check_vertex(v)?;
        match self.out[u as usize].binary_search(&v) {
            Ok(_) => Err(GraphError::DuplicateEdge((u, v))),
            Err(pos) => {
                self.out[u as usize].insert(pos, v);
                self.m += 1;
                self.invalidate();
                Ok(())
            }
        }
    }

    /// Insert edge `(u, v)` if absent; returns whether it was inserted.
    pub fn insert_edge_if_absent(&mut self, u: VertexId, v: VertexId) -> Result<bool> {
        match self.insert_edge(u, v) {
            Ok(()) => Ok(true),
            Err(GraphError::DuplicateEdge(_)) => Ok(false),
            Err(e) => Err(e),
        }
    }

    /// Delete edge `(u, v)`. Errors if it does not exist. Invalidates
    /// the cached snapshot (use [`apply_batch`](Self::apply_batch) to
    /// keep it coherent incrementally).
    pub fn delete_edge(&mut self, u: VertexId, v: VertexId) -> Result<()> {
        self.check_vertex(u)?;
        self.check_vertex(v)?;
        match self.out[u as usize].binary_search(&v) {
            Ok(pos) => {
                self.out[u as usize].remove(pos);
                self.m -= 1;
                self.invalidate();
                Ok(())
            }
            Err(_) => Err(GraphError::MissingEdge((u, v))),
        }
    }

    /// Check that applying `batch` (all deletions, then all insertions,
    /// in list order) would succeed on the current graph without
    /// touching it: every vertex in range, every deletion present and
    /// not repeated, every insertion absent (or deleted earlier in the
    /// same batch) and not repeated.
    pub fn validate_batch(&self, batch: &BatchUpdate) -> Result<()> {
        use std::collections::HashSet;
        for (u, v) in batch.iter_all() {
            self.check_vertex(u)?;
            self.check_vertex(v)?;
        }
        let mut dels: HashSet<Edge> = HashSet::with_capacity(batch.deletions.len());
        for &(u, v) in &batch.deletions {
            if !self.has_edge(u, v) || !dels.insert((u, v)) {
                return Err(GraphError::MissingEdge((u, v)));
            }
        }
        let mut ins: HashSet<Edge> = HashSet::with_capacity(batch.insertions.len());
        for &(u, v) in &batch.insertions {
            let vacant = !self.has_edge(u, v) || dels.contains(&(u, v));
            if !vacant || !ins.insert((u, v)) {
                return Err(GraphError::DuplicateEdge((u, v)));
            }
        }
        Ok(())
    }

    /// Apply a batch update: all deletions then all insertions,
    /// **all-or-nothing**. The whole batch is validated up front
    /// ([`validate_batch`](Self::validate_batch)); on error the graph is
    /// left exactly as it was. A coherent cached snapshot is patched
    /// copy-on-write (cost ∝ the pages |Δ| touches plus one page-table
    /// copy) rather than dropped.
    pub fn apply_batch(&mut self, batch: &BatchUpdate) -> Result<()> {
        self.validate_batch(batch)?;
        if let Some(prev) = self.cached.take() {
            // Patch the coherent snapshot first — it describes the
            // pre-batch graph. Validation guarantees the patch cannot
            // fail; the defensive arm drops the cache so the next reader
            // rebuilds.
            self.cached = prev.apply_batch(batch).ok().map(Arc::new);
        }
        for &(u, v) in &batch.deletions {
            let pos = self.out[u as usize]
                .binary_search(&v)
                .expect("validated deletion must exist");
            self.out[u as usize].remove(pos);
            self.m -= 1;
        }
        for &(u, v) in &batch.insertions {
            let pos = self.out[u as usize]
                .binary_search(&v)
                .expect_err("validated insertion must be absent");
            self.out[u as usize].insert(pos, v);
            self.m += 1;
        }
        if let Some(s) = &self.cached {
            debug_assert_eq!(s.num_edges(), self.m);
            debug_assert_eq!(*s.as_ref(), Snapshot::from_adjacency(&self.out));
        }
        Ok(())
    }

    /// Apply the inverse of a batch (re-insert deletions, remove
    /// insertions), restoring the pre-batch graph. Used by the stability
    /// experiment (§5.2.3). All-or-nothing, like
    /// [`apply_batch`](Self::apply_batch).
    pub fn revert_batch(&mut self, batch: &BatchUpdate) -> Result<()> {
        self.apply_batch(&batch.inverse())
    }

    /// Grow the vertex set to `new_n` vertices (ids `old_n..new_n` are
    /// added with empty adjacency). Supports the paper's future-work
    /// extension (§6): vertex additions in the dynamic setting. Shrinking
    /// is not supported; `new_n < n` is a no-op.
    pub fn grow(&mut self, new_n: usize) {
        if new_n > self.out.len() {
            self.out.resize(new_n, Vec::new());
            self.invalidate();
        }
    }

    /// Delete every edge incident to `v` (both directions), isolating it.
    /// Returns the removed edges as a batch-compatible list. `O(|E|)` —
    /// intended for the vertex-removal extension, not hot paths.
    pub fn isolate_vertex(&mut self, v: VertexId) -> Vec<Edge> {
        self.invalidate();
        let mut removed: Vec<Edge> = Vec::new();
        // Outgoing edges.
        let outs = std::mem::take(&mut self.out[v as usize]);
        for &w in &outs {
            removed.push((v, w));
        }
        self.m -= outs.len();
        // Incoming edges: scan all sources (no reverse index on the
        // mutable graph).
        for u in 0..self.out.len() {
            if u as VertexId == v {
                continue;
            }
            if let Ok(pos) = self.out[u].binary_search(&v) {
                self.out[u].remove(pos);
                self.m -= 1;
                removed.push((u as VertexId, v));
            }
        }
        removed
    }

    /// Iterate all edges in sorted order.
    pub fn edges(&self) -> impl Iterator<Item = Edge> + '_ {
        self.out
            .iter()
            .enumerate()
            .flat_map(|(u, list)| list.iter().map(move |&v| (u as VertexId, v)))
    }

    /// Take an immutable snapshot (out + in adjacency) by full rebuild.
    /// This is the `O(n + m)` oracle path; long-running update loops
    /// should use [`snapshot_shared`](Self::snapshot_shared) +
    /// [`apply_batch`](Self::apply_batch), which keep a coherent
    /// snapshot patched copy-on-write.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot::from_adjacency(&self.out)
    }

    /// The coherent shared snapshot of the current graph: returns the
    /// cached `Arc` when valid (O(1)), otherwise rebuilds once and
    /// caches. Subsequent [`apply_batch`](Self::apply_batch) calls keep
    /// it up to date incrementally.
    pub fn snapshot_shared(&mut self) -> Arc<Snapshot> {
        if let Some(s) = &self.cached {
            return Arc::clone(s);
        }
        let s = Arc::new(self.snapshot());
        self.cached = Some(Arc::clone(&s));
        s
    }

    /// The cached coherent snapshot, if one is currently valid.
    pub fn cached_snapshot(&self) -> Option<&Arc<Snapshot>> {
        self.cached.as_ref()
    }

    /// Restore the coherent cache after ad-hoc mutations by patching
    /// `prev` (the snapshot of this graph **before** the mutations) with
    /// the recorded `batch`. Returns whether the patch succeeded *and*
    /// reproduces the mutated graph; on `false` the cache stays invalid
    /// and the next [`snapshot_shared`](Self::snapshot_shared) rebuilds
    /// in full.
    pub fn reprime_snapshot(&mut self, prev: &Snapshot, batch: &BatchUpdate) -> bool {
        match prev.apply_batch(batch) {
            Ok(s) if s.num_vertices() == self.num_vertices() && s.num_edges() == self.m => {
                debug_assert_eq!(s, Snapshot::from_adjacency(&self.out));
                self.cached = Some(Arc::new(s));
                true
            }
            _ => false,
        }
    }
}

/// Sort and deduplicate an edge list in place — the normal form
/// expected by [`DynGraph::from_sorted_edges`] and CSR construction.
pub(crate) fn sort_dedup(edges: &mut Vec<Edge>) {
    edges.sort_unstable();
    edges.dedup();
}

/// Check every endpoint against the vertex count, reporting the first
/// offender (shared by the sorted and unsorted constructors).
fn validate_edge_ids(n: usize, edges: &[Edge]) -> Result<()> {
    for &(u, v) in edges {
        let bad = if (u as usize) >= n {
            Some(u)
        } else if (v as usize) >= n {
            Some(v)
        } else {
            None
        };
        if let Some(vertex) = bad {
            return Err(GraphError::VertexOutOfRange { vertex, n });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::BatchUpdate;

    fn triangle() -> DynGraph {
        let mut g = DynGraph::new(3);
        g.insert_edge(0, 1).unwrap();
        g.insert_edge(1, 2).unwrap();
        g.insert_edge(2, 0).unwrap();
        g
    }

    #[test]
    fn from_edges_sorts_dedups_and_validates() {
        let g = DynGraph::from_edges(4, vec![(2, 0), (0, 1), (2, 0), (1, 2)]).unwrap();
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.out_neighbors(2), &[0]);
        assert!(matches!(
            DynGraph::from_edges(2, vec![(0, 5)]),
            Err(GraphError::VertexOutOfRange { vertex: 5, .. })
        ));
        assert!(matches!(
            DynGraph::from_edges(2, vec![(7, 0)]),
            Err(GraphError::VertexOutOfRange { vertex: 7, .. })
        ));
        // n larger than any id: trailing isolated vertices survive.
        let g = DynGraph::from_edges(10, vec![(0, 1)]).unwrap();
        assert_eq!(g.num_vertices(), 10);
    }

    #[test]
    fn insert_and_query() {
        let g = triangle();
        assert_eq!(g.num_edges(), 3);
        assert!(g.has_edge(0, 1));
        assert!(!g.has_edge(1, 0));
        assert_eq!(g.out_degree(0), 1);
    }

    #[test]
    fn insert_duplicate_rejected() {
        let mut g = triangle();
        assert_eq!(
            g.insert_edge(0, 1).unwrap_err(),
            GraphError::DuplicateEdge((0, 1))
        );
        assert!(!g.insert_edge_if_absent(0, 1).unwrap());
        assert!(g.insert_edge_if_absent(0, 2).unwrap());
    }

    #[test]
    fn delete_missing_rejected() {
        let mut g = triangle();
        assert_eq!(
            g.delete_edge(0, 2).unwrap_err(),
            GraphError::MissingEdge((0, 2))
        );
        g.delete_edge(0, 1).unwrap();
        assert_eq!(g.num_edges(), 2);
        assert!(!g.has_edge(0, 1));
    }

    #[test]
    fn neighbors_stay_sorted_under_mutation() {
        let mut g = DynGraph::new(5);
        for v in [4, 1, 3, 0, 2] {
            g.insert_edge(0, v).unwrap();
        }
        assert_eq!(g.out_neighbors(0), &[0, 1, 2, 3, 4]);
        g.delete_edge(0, 2).unwrap();
        assert_eq!(g.out_neighbors(0), &[0, 1, 3, 4]);
    }

    #[test]
    fn apply_then_revert_is_identity() {
        let mut g = triangle();
        let before = g.clone();
        let batch = BatchUpdate {
            deletions: vec![(0, 1)],
            insertions: vec![(1, 0), (0, 2)],
        };
        g.apply_batch(&batch).unwrap();
        assert!(g.has_edge(1, 0));
        assert!(!g.has_edge(0, 1));
        g.revert_batch(&batch).unwrap();
        assert_eq!(g, before);
    }

    #[test]
    fn out_of_range_rejected() {
        let mut g = DynGraph::new(2);
        assert!(matches!(
            g.insert_edge(0, 9),
            Err(GraphError::VertexOutOfRange { vertex: 9, .. })
        ));
    }

    #[test]
    fn edges_iterator_sorted() {
        let g = triangle();
        let e: Vec<_> = g.edges().collect();
        assert_eq!(e, vec![(0, 1), (1, 2), (2, 0)]);
    }

    #[test]
    fn grow_adds_isolated_vertices() {
        let mut g = triangle();
        g.grow(5);
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.out_degree(4), 0);
        g.insert_edge(4, 0).unwrap();
        assert!(g.has_edge(4, 0));
        // Shrinking is a no-op.
        g.grow(2);
        assert_eq!(g.num_vertices(), 5);
    }

    #[test]
    fn isolate_vertex_removes_all_incident_edges() {
        let mut g = triangle();
        g.insert_edge(0, 2).unwrap();
        let removed = g.isolate_vertex(2);
        assert_eq!(g.num_edges(), 1); // only (0,1) remains
        assert!(!g.has_edge(1, 2) && !g.has_edge(2, 0) && !g.has_edge(0, 2));
        let mut removed_sorted = removed.clone();
        removed_sorted.sort_unstable();
        assert_eq!(removed_sorted, vec![(0, 2), (1, 2), (2, 0)]);
    }

    #[test]
    fn apply_batch_is_all_or_nothing() {
        // A batch that deletes a real edge but then inserts a duplicate
        // must leave the graph completely untouched (the seed behavior
        // deleted (0,1) before failing).
        let mut g = triangle();
        let before = g.clone();
        let batch = BatchUpdate {
            deletions: vec![(0, 1)],
            insertions: vec![(1, 2)], // already present → invalid
        };
        assert_eq!(
            g.apply_batch(&batch).unwrap_err(),
            GraphError::DuplicateEdge((1, 2))
        );
        assert_eq!(g, before);
        // Same for a missing deletion listed after valid insertions.
        let batch = BatchUpdate {
            deletions: vec![(0, 2)], // absent → invalid
            insertions: vec![(1, 0)],
        };
        assert_eq!(
            g.apply_batch(&batch).unwrap_err(),
            GraphError::MissingEdge((0, 2))
        );
        assert_eq!(g, before);
        // Duplicate entries within one batch are rejected too.
        let batch = BatchUpdate::delete_only(vec![(0, 1), (0, 1)]);
        assert!(g.apply_batch(&batch).is_err());
        assert_eq!(g, before);
        let batch = BatchUpdate::insert_only(vec![(0, 2), (0, 2)]);
        assert!(g.apply_batch(&batch).is_err());
        assert_eq!(g, before);
    }

    #[test]
    fn apply_batch_allows_delete_then_reinsert() {
        let mut g = triangle();
        let batch = BatchUpdate {
            deletions: vec![(0, 1)],
            insertions: vec![(0, 1)],
        };
        g.apply_batch(&batch).unwrap();
        assert!(g.has_edge(0, 1));
        assert_eq!(g.num_edges(), 3);
    }

    #[test]
    fn shared_snapshot_stays_coherent_across_batches() {
        let mut g = triangle();
        let s0 = g.snapshot_shared();
        assert!(Arc::ptr_eq(&s0, &g.snapshot_shared()), "cache hit");
        let batch = BatchUpdate {
            deletions: vec![(2, 0)],
            insertions: vec![(0, 2), (1, 0)],
        };
        g.apply_batch(&batch).unwrap();
        let s1 = g.snapshot_shared();
        assert!(!Arc::ptr_eq(&s0, &s1));
        assert_eq!(*s1, g.snapshot(), "incremental patch ≡ full rebuild");
        // Ad-hoc mutation invalidates; next call rebuilds coherently.
        g.insert_edge(2, 1).unwrap();
        assert!(g.cached_snapshot().is_none());
        assert_eq!(*g.snapshot_shared(), g.snapshot());
    }

    #[test]
    fn retired_snapshots_keep_their_pages() {
        let mut g = triangle();
        let s0 = g.snapshot_shared();
        let before = (*s0).clone();
        g.apply_batch(&BatchUpdate::insert_only(vec![(0, 2)]))
            .unwrap();
        g.apply_batch(&BatchUpdate::delete_only(vec![(2, 0)]))
            .unwrap();
        // A snapshot pinned across later batches still describes its own
        // epoch; the cache tracks the graph.
        assert_eq!(*s0, before);
        assert_eq!(*g.snapshot_shared(), g.snapshot());
        // Invalid batches leave the cache as it was.
        let s1 = g.snapshot_shared();
        assert!(g
            .apply_batch(&BatchUpdate::insert_only(vec![(0, 2)]))
            .is_err());
        assert!(Arc::ptr_eq(&s1, &g.snapshot_shared()));
    }

    #[test]
    fn snapshot_matches_dyn() {
        let g = triangle();
        let s = g.snapshot();
        assert_eq!(s.num_vertices(), 3);
        assert_eq!(s.num_edges(), 3);
        assert_eq!(s.out(0), &[1]);
        assert_eq!(s.in_(0), &[2]);
    }
}
