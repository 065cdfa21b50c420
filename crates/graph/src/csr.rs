//! Compressed Sparse Row adjacency structure.
//!
//! A [`Csr`] stores, for each vertex, a contiguous sorted slice of neighbor
//! ids. Offsets are `usize` so graphs with more than 4 G edges are
//! representable, while neighbor ids stay `u32` (paper §5.1.2).

use crate::types::{Edge, VertexId};

/// Immutable CSR adjacency: `targets[offsets[v]..offsets[v+1]]` are the
/// neighbors of `v`, sorted ascending.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Csr {
    offsets: Vec<usize>,
    targets: Vec<VertexId>,
}

impl Csr {
    /// Build a CSR from an edge list. Edges need not be sorted; duplicates
    /// are kept (use [`GraphBuilder`](crate::builder::GraphBuilder) to
    /// dedup). `n` is the number of vertices; every endpoint must be `< n`.
    ///
    /// Runs in `O(n + m)` using counting sort on the source vertex.
    pub fn from_edges(n: usize, edges: &[Edge]) -> Self {
        let mut counts = vec![0usize; n + 1];
        for &(u, _) in edges {
            debug_assert!((u as usize) < n, "source {u} out of range");
            counts[u as usize + 1] += 1;
        }
        for i in 0..n {
            counts[i + 1] += counts[i];
        }
        let offsets = counts.clone();
        let mut cursor = counts; // reuse as per-vertex write cursor
        let mut targets = vec![0 as VertexId; edges.len()];
        for &(u, v) in edges {
            debug_assert!((v as usize) < n, "target {v} out of range");
            targets[cursor[u as usize]] = v;
            cursor[u as usize] += 1;
        }
        // Sort each adjacency run so membership checks can binary-search.
        for v in 0..n {
            let (s, e) = (offsets[v], offsets[v + 1]);
            targets[s..e].sort_unstable();
        }
        Csr { offsets, targets }
    }

    /// Build directly from per-vertex sorted adjacency lists.
    pub fn from_adjacency(adj: &[Vec<VertexId>]) -> Self {
        let n = adj.len();
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0usize);
        let m: usize = adj.iter().map(|a| a.len()).sum();
        let mut targets = Vec::with_capacity(m);
        for list in adj {
            debug_assert!(
                list.windows(2).all(|w| w[0] < w[1]),
                "adjacency must be strictly sorted"
            );
            targets.extend_from_slice(list);
            offsets.push(targets.len());
        }
        Csr { offsets, targets }
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of (directed) edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.targets.len()
    }

    /// Neighbors of `v`, sorted ascending.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        let v = v as usize;
        &self.targets[self.offsets[v]..self.offsets[v + 1]]
    }

    /// Out-degree (or in-degree, for a reversed CSR) of `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        let v = v as usize;
        self.offsets[v + 1] - self.offsets[v]
    }

    /// Whether edge `(u, v)` is present (binary search).
    #[inline]
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Iterate all edges in `(source, target)` order.
    pub fn edges(&self) -> impl Iterator<Item = Edge> + '_ {
        (0..self.num_vertices() as VertexId)
            .flat_map(move |u| self.neighbors(u).iter().map(move |&v| (u, v)))
    }

    /// Build the reverse (transpose) CSR: edge `(u, v)` becomes `(v, u)`.
    /// Used to derive in-adjacency from out-adjacency.
    pub fn transpose(&self) -> Csr {
        let n = self.num_vertices();
        let mut counts = vec![0usize; n + 1];
        for &v in &self.targets {
            counts[v as usize + 1] += 1;
        }
        for i in 0..n {
            counts[i + 1] += counts[i];
        }
        let offsets = counts.clone();
        let mut cursor = counts;
        let mut targets = vec![0 as VertexId; self.targets.len()];
        for u in 0..n as VertexId {
            for &v in self.neighbors(u) {
                targets[cursor[v as usize]] = u;
                cursor[v as usize] += 1;
            }
        }
        // Source-major traversal emits each run already in ascending order,
        // so no per-run sort is needed.
        Csr { offsets, targets }
    }

    /// Total bytes of heap memory held by this CSR.
    pub fn heap_bytes(&self) -> usize {
        self.offsets.len() * std::mem::size_of::<usize>()
            + self.targets.len() * std::mem::size_of::<VertexId>()
    }
}

impl Default for Csr {
    /// An empty CSR over zero vertices.
    fn default() -> Self {
        Csr {
            offsets: vec![0],
            targets: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Csr {
        // 0 -> 1, 2 ; 1 -> 2 ; 2 -> 0 ; 3 isolated
        Csr::from_edges(4, &[(0, 2), (0, 1), (1, 2), (2, 0)])
    }

    #[test]
    fn from_edges_sorts_neighbors() {
        let g = sample();
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.neighbors(1), &[2]);
        assert_eq!(g.neighbors(2), &[0]);
        assert_eq!(g.neighbors(3), &[] as &[VertexId]);
    }

    #[test]
    fn counts_are_consistent() {
        let g = sample();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.degree(3), 0);
    }

    #[test]
    fn has_edge_binary_search() {
        let g = sample();
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(0, 2));
        assert!(!g.has_edge(0, 3));
        assert!(!g.has_edge(3, 0));
    }

    #[test]
    fn edges_iterator_roundtrip() {
        let g = sample();
        let edges: Vec<Edge> = g.edges().collect();
        assert_eq!(edges, vec![(0, 1), (0, 2), (1, 2), (2, 0)]);
        let g2 = Csr::from_edges(4, &edges);
        assert_eq!(g, g2);
    }

    #[test]
    fn transpose_reverses_edges() {
        let g = sample();
        let t = g.transpose();
        assert_eq!(t.neighbors(0), &[2]);
        assert_eq!(t.neighbors(1), &[0]);
        assert_eq!(t.neighbors(2), &[0, 1]);
        assert_eq!(t.num_edges(), g.num_edges());
        // Transposing twice is the identity.
        assert_eq!(t.transpose(), g);
    }

    #[test]
    fn transpose_runs_are_sorted() {
        let g = Csr::from_edges(5, &[(4, 0), (2, 0), (3, 0), (1, 0)]);
        let t = g.transpose();
        assert_eq!(t.neighbors(0), &[1, 2, 3, 4]);
    }

    #[test]
    fn from_adjacency_matches_from_edges() {
        let adj = vec![vec![1, 2], vec![2], vec![0], vec![]];
        let g = Csr::from_adjacency(&adj);
        assert_eq!(g, sample());
    }

    #[test]
    fn empty_graph() {
        let g = Csr::from_edges(0, &[]);
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn duplicate_edges_are_kept() {
        let g = Csr::from_edges(2, &[(0, 1), (0, 1)]);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.neighbors(0), &[1, 1]);
    }

    #[test]
    fn heap_bytes_positive() {
        assert!(sample().heap_bytes() > 0);
    }
}
