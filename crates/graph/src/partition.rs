//! Vertex partitioning for the sharded serving tier.
//!
//! A [`Partition`] assigns every vertex of an `n`-vertex graph to exactly
//! one of `k` *shards*. The serving layer (`lfpr::shard`) gives each shard
//! its own `UpdateSession`, writer thread, WAL, and published `RankView`;
//! this module owns the pure partitioning math the router builds on:
//!
//! * **ownership** — `owner(v)` in O(1) for the block strategy,
//! * **boundary extraction** — the owned vertices whose out-edges cross
//!   into another shard's partition (their post-commit ranks are what the
//!   shards exchange between commits),
//! * **shard graphs** — the per-shard graph a shard's session runs on:
//!   all `n` vertices under their global ids, but only the edges whose
//!   *source* the shard owns. Keeping every vertex in every shard graph
//!   means no id translation anywhere, and source-ownership keeps
//!   out-degrees exact: a pull kernel divides by the source's out-degree,
//!   and every source of an edge the shard sees is an owned vertex whose
//!   full out-list the shard has.
//! * **batch splitting** — scatter a staged [`BatchUpdate`] into
//!   per-shard sub-batches by edge-source ownership.
//!
//! ## Joint computation with reordering (PR 8)
//!
//! Block partitioning is locality-sensitive: it cuts the id space into
//! `k` contiguous ranges, so the crossing-edge count depends entirely on
//! how ids are laid out. [`Partition::compute_joint`] therefore computes
//! the PR 8 locality reordering *first* and partitions the renumbered id
//! space, so each shard owns a contiguous block of vertices that the
//! reordering already clustered by adjacency — the same permutation
//! serves both cache locality within a shard and cut minimization
//! between shards.

use crate::batch::BatchUpdate;
use crate::digraph::DynGraph;
use crate::reorder::{ReorderStrategy, Reordering};
use crate::types::VertexId;
use std::fmt;
use std::str::FromStr;

/// How vertices are assigned to shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionStrategy {
    /// Contiguous id ranges: shard `s` owns `[starts[s], starts[s+1])`.
    /// Sizes differ by at most one vertex. O(1) ownership; composes with
    /// the locality reordering (see module docs).
    Block,
}

impl fmt::Display for PartitionStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PartitionStrategy::Block => write!(f, "block"),
        }
    }
}

impl FromStr for PartitionStrategy {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "block" => Ok(PartitionStrategy::Block),
            other => Err(format!("unknown partition strategy {other}")),
        }
    }
}

/// A total assignment of `n` vertices to `k` shards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    n: usize,
    /// Block boundaries; `starts.len() == shards + 1`, `starts[0] == 0`,
    /// `starts[shards] == n`.
    starts: Vec<VertexId>,
    strategy: PartitionStrategy,
}

impl Partition {
    /// Balanced block partition: the first `n % k` shards own
    /// `⌈n/k⌉` vertices, the rest `⌊n/k⌋`.
    pub fn block(n: usize, shards: usize) -> Result<Self, String> {
        if shards == 0 {
            return Err("partition needs at least one shard".into());
        }
        if n > u32::MAX as usize {
            return Err(format!("vertex count {n} exceeds u32 id space"));
        }
        if shards > n.max(1) {
            return Err(format!("cannot split {n} vertices across {shards} shards"));
        }
        let base = n / shards;
        let extra = n % shards;
        let mut starts = Vec::with_capacity(shards + 1);
        let mut at = 0usize;
        starts.push(0);
        for s in 0..shards {
            at += base + usize::from(s < extra);
            starts.push(at as VertexId);
        }
        debug_assert_eq!(at, n);
        Ok(Partition {
            n,
            starts,
            strategy: PartitionStrategy::Block,
        })
    }

    /// Compute the PR 8 locality reordering and a block partition of the
    /// renumbered id space together (see module docs). Returns the
    /// reordering (`None` when the strategy renumbers nothing, e.g. the
    /// graph is already in the computed order) alongside the partition,
    /// which always refers to *internal* (renumbered) ids when a
    /// reordering is returned.
    pub fn compute_joint(
        reorder: ReorderStrategy,
        shards: usize,
        g: &DynGraph,
    ) -> Result<(Option<Reordering>, Self), String> {
        let r = Reordering::compute(reorder, g);
        let part = Partition::block(g.num_vertices(), shards)?;
        Ok((r, part))
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.starts.len() - 1
    }

    /// Number of vertices partitioned.
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// The assignment strategy (advertised in the protocol handshake).
    pub fn strategy(&self) -> PartitionStrategy {
        self.strategy
    }

    /// Which shard owns vertex `v`. `v` must be `< num_vertices()`.
    pub fn owner(&self, v: VertexId) -> usize {
        debug_assert!((v as usize) < self.n, "vertex {v} out of range");
        // partition_point: first boundary strictly greater than v, minus
        // one block. O(log k), k tiny; exact for any monotone `starts`.
        self.starts.partition_point(|&b| b <= v) - 1
    }

    /// The contiguous id range shard `s` owns.
    pub fn owned_range(&self, s: usize) -> std::ops::Range<VertexId> {
        self.starts[s]..self.starts[s + 1]
    }

    /// How many vertices shard `s` owns.
    pub fn owned_count(&self, s: usize) -> usize {
        (self.starts[s + 1] - self.starts[s]) as usize
    }

    /// The boundary set of shard `s`: owned vertices with at least one
    /// out-edge whose target another shard owns. These are exactly the
    /// vertices whose post-commit ranks must be exported in an exchange
    /// round — a non-boundary vertex influences no other shard's pull
    /// kernel. Ascending order.
    pub fn boundary_vertices(&self, g: &DynGraph, s: usize) -> Vec<VertexId> {
        let mut out = Vec::new();
        for u in self.owned_range(s) {
            if g.out_neighbors(u).iter().any(|&v| self.owner(v) != s) {
                out.push(u);
            }
        }
        out
    }

    /// Every edge crossing the partition, as `(u, v)` with
    /// `owner(u) != owner(v)`. Deterministic order (by source, then the
    /// graph's out-list order).
    pub fn crossing_edges(&self, g: &DynGraph) -> Vec<(VertexId, VertexId)> {
        let mut out = Vec::new();
        for u in 0..g.num_vertices() as VertexId {
            let su = self.owner(u);
            for &v in g.out_neighbors(u) {
                if self.owner(v) != su {
                    out.push((u, v));
                }
            }
        }
        out
    }

    /// Shard `s`'s graph: all `n` vertices (global ids — no translation),
    /// and exactly the edges whose source `s` owns. Non-owned vertices
    /// are edgeless sources; they still appear in owned vertices'
    /// in-lists when a crossing edge targets shard `s`, which is how the
    /// exchange corrections enter the shard's pull kernel.
    pub fn shard_graph(&self, g: &DynGraph, s: usize) -> DynGraph {
        let mut sg = DynGraph::new(self.n);
        for u in self.owned_range(s) {
            for &v in g.out_neighbors(u) {
                sg.insert_edge(u, v).expect("edge from source graph");
            }
        }
        sg
    }

    /// Scatter a staged batch into per-shard sub-batches by the *source*
    /// vertex of each edge op, mirroring [`Partition::shard_graph`]'s
    /// source-ownership rule. Every op lands in exactly one sub-batch.
    pub fn split_batch(&self, batch: &BatchUpdate) -> Vec<BatchUpdate> {
        let mut parts = vec![BatchUpdate::new(); self.shards()];
        for &(u, v) in &batch.insertions {
            parts[self.owner(u)].insertions.push((u, v));
        }
        for &(u, v) in &batch.deletions {
            parts[self.owner(u)].deletions.push((u, v));
        }
        parts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::selfloops::add_self_loops;

    fn graph() -> DynGraph {
        // 6 vertices, edges within and across the 2-shard block split
        // {0,1,2} | {3,4,5}.
        let mut g = GraphBuilder::new(6)
            .edges([(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (1, 4)])
            .build_dyn()
            .unwrap();
        add_self_loops(&mut g);
        g
    }

    #[test]
    fn block_partition_is_balanced_and_total() {
        let p = Partition::block(10, 3).unwrap();
        assert_eq!(p.shards(), 3);
        let counts: Vec<usize> = (0..3).map(|s| p.owned_count(s)).collect();
        assert_eq!(counts, vec![4, 3, 3]);
        assert_eq!(counts.iter().sum::<usize>(), 10);
        for v in 0..10u32 {
            let s = p.owner(v);
            assert!(p.owned_range(s).contains(&v));
        }
        assert_eq!(p.owner(0), 0);
        assert_eq!(p.owner(3), 0);
        assert_eq!(p.owner(4), 1);
        assert_eq!(p.owner(9), 2);
    }

    #[test]
    fn degenerate_partitions_are_refused() {
        assert!(Partition::block(5, 0).is_err());
        assert!(Partition::block(2, 3).is_err());
        assert!(Partition::block(1, 1).is_ok());
    }

    #[test]
    fn boundary_vertices_are_exactly_the_crossing_sources() {
        let g = graph();
        let p = Partition::block(6, 2).unwrap();
        // Crossing edges: 2→3 and 1→4 (shard 0 → shard 1), 5→0 (1 → 0).
        assert_eq!(p.boundary_vertices(&g, 0), vec![1, 2]);
        assert_eq!(p.boundary_vertices(&g, 1), vec![5]);
        let mut crossing = p.crossing_edges(&g);
        crossing.sort_unstable();
        assert_eq!(crossing, vec![(1, 4), (2, 3), (5, 0)]);
    }

    #[test]
    fn self_loops_never_cross() {
        let g = graph();
        let p = Partition::block(6, 3).unwrap();
        for (u, v) in p.crossing_edges(&g) {
            assert_ne!(u, v);
        }
    }

    #[test]
    fn shard_graphs_cover_the_graph_without_overlap() {
        let g = graph();
        let p = Partition::block(6, 2).unwrap();
        let sg0 = p.shard_graph(&g, 0);
        let sg1 = p.shard_graph(&g, 1);
        assert_eq!(sg0.num_vertices(), 6);
        assert_eq!(sg1.num_vertices(), 6);
        assert_eq!(sg0.num_edges() + sg1.num_edges(), g.num_edges());
        // Out-degrees of owned vertices are exact.
        for u in 0..6u32 {
            let owned = if p.owner(u) == 0 { &sg0 } else { &sg1 };
            assert_eq!(owned.out_degree(u), g.out_degree(u), "vertex {u}");
            let other = if p.owner(u) == 0 { &sg1 } else { &sg0 };
            assert_eq!(other.out_degree(u), 0, "vertex {u}");
        }
    }

    #[test]
    fn batches_split_by_source_owner() {
        let p = Partition::block(6, 2).unwrap();
        let batch = BatchUpdate {
            insertions: vec![(0, 5), (4, 1)],
            deletions: vec![(2, 3)],
        };
        let parts = p.split_batch(&batch);
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[0].insertions, vec![(0, 5)]);
        assert_eq!(parts[0].deletions, vec![(2, 3)]);
        assert_eq!(parts[1].insertions, vec![(4, 1)]);
        assert!(parts[1].deletions.is_empty());
    }

    #[test]
    fn joint_computation_partitions_the_renumbered_space() {
        let g = graph();
        let (r, p) = Partition::compute_joint(ReorderStrategy::Degree, 2, &g).unwrap();
        assert_eq!(p.num_vertices(), g.num_vertices());
        assert_eq!(p.shards(), 2);
        if let Some(r) = r {
            assert_eq!(r.len(), g.num_vertices());
        }
    }

    #[test]
    fn strategy_round_trips_through_text() {
        let s: PartitionStrategy = "block".parse().unwrap();
        assert_eq!(s, PartitionStrategy::Block);
        assert_eq!(s.to_string(), "block");
        assert!("ring".parse::<PartitionStrategy>().is_err());
    }
}
