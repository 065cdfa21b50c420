//! Batch-locality vertex reordering: renumber vertices at load time so
//! that structurally close vertices get nearby ids.
//!
//! The DF/DT engine walks the affected set as a bitmap of 64-vertex words
//! and the gapped store rebalances 64-vertex granules; both profit when
//! the vertices an update batch perturbs share words and granules. Raw dataset ids
//! carry no locality, so we renumber once at load time and translate ids
//! at the serve boundary (`src/serve.rs`); the wire protocol is untouched
//! and clients keep speaking external (original) ids.
//!
//! Two strategies, both deterministic:
//!
//! * **degree** — descending out-degree, ties by original id. Hubs (which
//!   most batches touch) share the first granules, so the affected set's
//!   marked bitmap words stay few and dense.
//! * **bfs** — breadth-first from the highest-out-degree vertex, restarting
//!   at the next unvisited vertex in degree order. Neighborhoods become
//!   contiguous id ranges, so the affected ball of a batch edge lands in
//!   few granules (the classic bandwidth-reduction effect).

use std::collections::VecDeque;
use std::fmt;
use std::str::FromStr;
use std::sync::Arc;

use crate::digraph::DynGraph;
use crate::types::VertexId;

/// Which renumbering to apply at load time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReorderStrategy {
    /// Keep original ids (identity mapping; no translation overhead).
    #[default]
    None,
    /// Descending out-degree, ties by original id.
    Degree,
    /// BFS from the max-out-degree vertex; restarts in degree order.
    Bfs,
}

impl FromStr for ReorderStrategy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "none" => Ok(ReorderStrategy::None),
            "degree" => Ok(ReorderStrategy::Degree),
            "bfs" => Ok(ReorderStrategy::Bfs),
            other => Err(format!(
                "unknown reorder strategy '{other}' (expected none|degree|bfs)"
            )),
        }
    }
}

impl fmt::Display for ReorderStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ReorderStrategy::None => "none",
            ReorderStrategy::Degree => "degree",
            ReorderStrategy::Bfs => "bfs",
        })
    }
}

/// A bijective renumbering of `0..n`.
///
/// `perm[external] = internal` and `inv[internal] = external`. "External"
/// ids are the dataset/client-facing ids; "internal" ids are what every
/// layer behind the serve boundary (graph, session, WAL, checkpoints)
/// uses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reordering {
    perm: Vec<VertexId>,
    inv: Vec<VertexId>,
}

impl Reordering {
    /// Build from an external→internal permutation vector. Errors unless
    /// `perm` is a bijection on `0..perm.len()`.
    pub fn from_perm(perm: Vec<VertexId>) -> Result<Self, String> {
        let n = perm.len();
        let mut inv = vec![VertexId::MAX; n];
        for (ext, &int) in perm.iter().enumerate() {
            if int as usize >= n {
                return Err(format!("permutation entry {int} out of range (n = {n})"));
            }
            if inv[int as usize] != VertexId::MAX {
                return Err(format!("permutation maps two vertices to {int}"));
            }
            inv[int as usize] = ext as VertexId;
        }
        Ok(Reordering { perm, inv })
    }

    /// Compute the permutation `strategy` assigns to `g`'s vertices.
    /// Returns `None` for [`ReorderStrategy::None`] — callers skip
    /// translation entirely instead of paying an identity map.
    pub fn compute(strategy: ReorderStrategy, g: &DynGraph) -> Option<Self> {
        let n = g.num_vertices();
        match strategy {
            ReorderStrategy::None => None,
            ReorderStrategy::Degree => {
                let mut order: Vec<VertexId> = (0..n as VertexId).collect();
                order.sort_by_key(|&v| (std::cmp::Reverse(g.out_degree(v)), v));
                Some(Self::from_order(&order))
            }
            ReorderStrategy::Bfs => {
                let mut seed_order: Vec<VertexId> = (0..n as VertexId).collect();
                seed_order.sort_by_key(|&v| (std::cmp::Reverse(g.out_degree(v)), v));
                let mut order = Vec::with_capacity(n);
                let mut visited = vec![false; n];
                let mut queue = VecDeque::new();
                for &seed in &seed_order {
                    if visited[seed as usize] {
                        continue;
                    }
                    visited[seed as usize] = true;
                    queue.push_back(seed);
                    while let Some(u) = queue.pop_front() {
                        order.push(u);
                        for &v in g.out_neighbors(u) {
                            if !visited[v as usize] {
                                visited[v as usize] = true;
                                queue.push_back(v);
                            }
                        }
                    }
                }
                Some(Self::from_order(&order))
            }
        }
    }

    /// `order[i]` = the external vertex that becomes internal id `i`.
    fn from_order(order: &[VertexId]) -> Self {
        let mut perm = vec![0 as VertexId; order.len()];
        for (int, &ext) in order.iter().enumerate() {
            perm[ext as usize] = int as VertexId;
        }
        Reordering {
            perm,
            inv: order.to_vec(),
        }
    }

    /// Number of vertices covered.
    pub fn len(&self) -> usize {
        self.perm.len()
    }

    /// True when the mapping covers no vertices.
    pub fn is_empty(&self) -> bool {
        self.perm.is_empty()
    }

    /// External (client-facing) id → internal id. Ids outside `0..n` pass
    /// through unchanged: the layers behind the boundary produce the same
    /// out-of-range error they would for the untranslated id, and that
    /// error must name the id the client sent.
    #[inline]
    pub fn to_internal(&self, ext: VertexId) -> VertexId {
        match self.perm.get(ext as usize) {
            Some(&int) => int,
            None => ext,
        }
    }

    /// Internal id → external (client-facing) id; out-of-range ids pass
    /// through unchanged.
    #[inline]
    pub fn to_external(&self, int: VertexId) -> VertexId {
        match self.inv.get(int as usize) {
            Some(&ext) => ext,
            None => int,
        }
    }

    /// The external→internal permutation, for checkpoint persistence.
    pub fn perm(&self) -> &[VertexId] {
        &self.perm
    }

    /// Renumber a graph into internal id space.
    pub fn apply(&self, g: &DynGraph) -> DynGraph {
        let n = g.num_vertices();
        assert_eq!(n, self.len(), "reordering covers a different vertex count");
        let edges: Vec<(VertexId, VertexId)> = g
            .edges()
            .map(|(u, v)| (self.to_internal(u), self.to_internal(v)))
            .collect();
        DynGraph::from_edges(n, edges).expect("permuting a valid graph stays valid")
    }

    /// Permute an internal-id-indexed rank vector back to external
    /// indexing (`result[ext] = ranks[to_internal(ext)]`).
    pub fn ranks_to_external(&self, ranks: &[f64]) -> Vec<f64> {
        assert_eq!(ranks.len(), self.len());
        self.perm.iter().map(|&int| ranks[int as usize]).collect()
    }
}

/// Shared handle used at the serve boundary (`None` = no reordering).
pub type SharedReordering = Option<Arc<Reordering>>;

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DynGraph {
        // 1 is the hub: out-degree 3; then 0 (2), rest below.
        DynGraph::from_edges(5, vec![(0, 1), (0, 2), (1, 0), (1, 2), (1, 3), (4, 4)]).unwrap()
    }

    #[test]
    fn degree_ordering_puts_hubs_first() {
        let g = sample();
        let r = Reordering::compute(ReorderStrategy::Degree, &g).unwrap();
        assert_eq!(r.to_internal(1), 0, "hub gets internal id 0");
        assert_eq!(r.to_internal(0), 1);
        // Bijection round-trips.
        for v in 0..5u32 {
            assert_eq!(r.to_external(r.to_internal(v)), v);
        }
    }

    #[test]
    fn bfs_ordering_is_a_bijection_reaching_isolated_vertices() {
        let g = sample();
        let r = Reordering::compute(ReorderStrategy::Bfs, &g).unwrap();
        let mut seen = [false; 5];
        for v in 0..5u32 {
            let int = r.to_internal(v);
            assert!(!seen[int as usize]);
            seen[int as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
        // BFS from hub 1: 1 first, then its neighbors contiguous.
        assert_eq!(r.to_internal(1), 0);
    }

    #[test]
    fn none_strategy_yields_no_mapping() {
        assert!(Reordering::compute(ReorderStrategy::None, &sample()).is_none());
    }

    #[test]
    fn apply_preserves_structure_under_renumbering() {
        let g = sample();
        let r = Reordering::compute(ReorderStrategy::Degree, &g).unwrap();
        let h = r.apply(&g);
        assert_eq!(h.num_vertices(), g.num_vertices());
        assert_eq!(h.num_edges(), g.num_edges());
        for (u, v) in g.edges() {
            assert!(h.has_edge(r.to_internal(u), r.to_internal(v)));
        }
    }

    #[test]
    fn out_of_range_ids_pass_through() {
        let g = sample();
        let r = Reordering::compute(ReorderStrategy::Degree, &g).unwrap();
        assert_eq!(r.to_internal(99), 99);
        assert_eq!(r.to_external(99), 99);
    }

    #[test]
    fn from_perm_validates_bijection() {
        assert!(Reordering::from_perm(vec![0, 1, 2]).is_ok());
        assert!(Reordering::from_perm(vec![0, 0, 2]).is_err());
        assert!(Reordering::from_perm(vec![0, 5, 2]).is_err());
    }

    #[test]
    fn ranks_translate_back_to_external_indexing() {
        let g = sample();
        let r = Reordering::compute(ReorderStrategy::Degree, &g).unwrap();
        // internal-indexed ranks: internal id i holds 100 + i
        let internal: Vec<f64> = (0..5).map(|i| 100.0 + i as f64).collect();
        let external = r.ranks_to_external(&internal);
        for ext in 0..5u32 {
            assert_eq!(external[ext as usize], 100.0 + r.to_internal(ext) as f64);
        }
    }

    #[test]
    fn strategy_parses_and_displays() {
        for s in [
            ReorderStrategy::None,
            ReorderStrategy::Degree,
            ReorderStrategy::Bfs,
        ] {
            assert_eq!(s.to_string().parse::<ReorderStrategy>().unwrap(), s);
        }
        assert!("nope".parse::<ReorderStrategy>().is_err());
    }
}
