//! Gap-aware CSR storage: run-local edge mutations in O(deg) instead of
//! page rebuilds.
//!
//! `Snapshot::apply_batch` shares every untouched page with the previous
//! snapshot but rebuilds each touched page in full — `PAGE_SIZE` runs
//! copied per edited run, plus one page-table copy per direction.
//! [`GappedCsr`] is the mutable, packed-memory-array alternative:
//! neighbor runs keep **per-vertex slack**, so an insert is a binary
//! search plus a shift of one run's tail, and a delete closes up one
//! run. When a run's slack is exhausted, only its **granule** (64
//! consecutive vertices, matching the session's active chunk filter) is
//! rebuilt with fresh slack — amortized granule-local rebalancing.
//!
//! Layout per granule:
//!
//! ```text
//! buf: [ run(v0) gap | run(v1) gap | ... | run(v63) gap ]
//!        ^start[0]     ^start[1]          ^start[63]
//! ```
//!
//! Runs stay sorted ascending and contiguous, so `neighbors(v)` is a plain
//! slice — the lock-free kernels iterate it in exactly the same order as
//! the paged snapshot, which keeps single-thread runs bit-identical (float
//! accumulation order is preserved).
//!
//! [`GappedGraph`] pairs an out-direction and an in-direction `GappedCsr`
//! with a dense out-degree array — the same surface [`Snapshot`] offers —
//! and implements [`NeighborRuns`] so every kernel can run on it directly.
//! [`PrevRuns`] is the sliver of pre-batch state the dynamic kernels need
//! (the out-runs of batch sources), recorded before the store mutates.

use std::collections::HashMap;

use crate::batch::BatchUpdate;
use crate::runs::NeighborRuns;
use crate::snapshot::Snapshot;
use crate::types::{GraphError, Result, VertexId};

/// Vertices per granule. Equal to the width of one word of the DF/DT
/// affected-set bitmap, so one rebalance touches the runs of exactly the
/// vertices one marked bitmap word covers.
pub const GRANULE: usize = 64;

/// Slack a run of length `len` receives at (re)build time. At least two
/// free slots per run, plus 1/8 of the run proportionally: a rebuild of a
/// granule with E edges costs O(E) and buys at least `2 × runs` inserts
/// before that granule can need rebuilding again.
#[inline]
fn slack_for(len: usize) -> usize {
    len / 8 + 2
}

/// One granule: the runs of `GRANULE` consecutive vertices with
/// inter-run gaps, plus per-vertex `(start, len)` into `buf`.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Granule {
    buf: Vec<VertexId>,
    start: [u32; GRANULE],
    len: [u32; GRANULE],
    /// Number of vertices actually present (the last granule is partial).
    count: u32,
}

impl Granule {
    fn new(count: usize) -> Self {
        Granule {
            buf: Vec::new(),
            start: [0; GRANULE],
            len: [0; GRANULE],
            count: count as u32,
        }
    }

    #[inline]
    fn run(&self, local: usize) -> &[VertexId] {
        let s = self.start[local] as usize;
        &self.buf[s..s + self.len[local] as usize]
    }

    /// Free slots between the end of `local`'s run and the next run (or
    /// the end of the buffer for the last vertex).
    #[inline]
    fn gap_after(&self, local: usize) -> usize {
        let end = self.start[local] as usize + self.len[local] as usize;
        let next = if local + 1 < self.count as usize {
            self.start[local + 1] as usize
        } else {
            self.buf.len()
        };
        next - end
    }

    /// Re-lay the granule's runs with fresh slack. O(edges in granule).
    fn rebuild(&mut self) {
        let count = self.count as usize;
        let total: usize = (0..count)
            .map(|i| self.len[i] as usize + slack_for(self.len[i] as usize))
            .sum();
        let mut buf = Vec::with_capacity(total);
        let mut start = [0u32; GRANULE];
        for (i, s) in start.iter_mut().enumerate().take(count) {
            *s = buf.len() as u32;
            buf.extend_from_slice(self.run(i));
            buf.resize(buf.len() + slack_for(self.len[i] as usize), 0);
        }
        self.buf = buf;
        self.start = start;
    }

    /// Insert `x` into `local`'s sorted run. `Err(())` = duplicate;
    /// `Ok(rebuilt)` reports whether slack ran out and the granule was
    /// re-laid.
    fn insert(&mut self, local: usize, x: VertexId) -> std::result::Result<bool, ()> {
        let pos = match self.run(local).binary_search(&x) {
            Ok(_) => return Err(()),
            Err(p) => p,
        };
        let rebuilt = self.gap_after(local) == 0;
        if rebuilt {
            self.rebuild();
            // rebuild guarantees slack_for(len) >= 2 free slots per run
        }
        let s = self.start[local] as usize;
        let len = self.len[local] as usize;
        self.buf.copy_within(s + pos..s + len, s + pos + 1);
        self.buf[s + pos] = x;
        self.len[local] += 1;
        Ok(rebuilt)
    }

    /// Remove `x` from `local`'s sorted run. `Err(())` = not present.
    fn remove(&mut self, local: usize, x: VertexId) -> std::result::Result<(), ()> {
        let pos = match self.run(local).binary_search(&x) {
            Ok(p) => p,
            Err(_) => return Err(()),
        };
        let s = self.start[local] as usize;
        let len = self.len[local] as usize;
        self.buf.copy_within(s + pos + 1..s + len, s + pos);
        self.len[local] -= 1;
        Ok(())
    }
}

/// Occupancy report for the gapped buffers, surfaced by `stats` so slack
/// regressions show up in the serve smoke.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlackStats {
    /// Edges stored (filled slots).
    pub edges: u64,
    /// Total buffer slots (filled + slack).
    pub slots: u64,
    /// Granule rebuilds since construction.
    pub rebuilds: u64,
}

impl SlackStats {
    /// Filled fraction in permille (0 when empty).
    pub fn occupancy_permille(&self) -> u64 {
        (self.edges * 1000).checked_div(self.slots).unwrap_or(0)
    }
}

/// A single adjacency direction stored as gapped runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GappedCsr {
    granules: Vec<Granule>,
    n: usize,
    m: usize,
    rebuilds: u64,
}

impl GappedCsr {
    /// Empty store over `n` vertices.
    pub fn new(n: usize) -> Self {
        let mut granules = Vec::with_capacity(n.div_ceil(GRANULE));
        let mut left = n;
        while left > 0 {
            let count = left.min(GRANULE);
            let mut g = Granule::new(count);
            g.rebuild(); // lay out empty runs with their minimum slack
            granules.push(g);
            left -= count;
        }
        GappedCsr {
            granules,
            n,
            m: 0,
            rebuilds: 0,
        }
    }

    /// Build over `n` vertices from each vertex's sorted run, giving
    /// every run its slack up front.
    pub fn from_runs<'r>(n: usize, run: impl Fn(VertexId) -> &'r [VertexId]) -> Self {
        let mut out = GappedCsr::new(n);
        for (gi, granule) in out.granules.iter_mut().enumerate() {
            let base = gi * GRANULE;
            let count = granule.count as usize;
            for local in 0..count {
                granule.len[local] = run((base + local) as VertexId).len() as u32;
            }
            // One rebuild call lays out correct slack; then fill runs.
            granule.buf.clear();
            let mut start = [0u32; GRANULE];
            for (local, s) in start.iter_mut().enumerate().take(count) {
                *s = granule.buf.len() as u32;
                let run = run((base + local) as VertexId);
                granule.buf.extend_from_slice(run);
                granule
                    .buf
                    .resize(granule.buf.len() + slack_for(run.len()), 0);
                out.m += run.len();
            }
            granule.start = start;
        }
        out
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Number of stored edges.
    pub fn num_edges(&self) -> usize {
        self.m
    }

    /// The sorted neighbor run of `v` as a contiguous slice.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        let g = &self.granules[v as usize / GRANULE];
        g.run(v as usize % GRANULE)
    }

    /// Run length of `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        self.granules[v as usize / GRANULE].len[v as usize % GRANULE] as usize
    }

    /// Insert `x` into `v`'s run; errors with `DuplicateEdge((v, x))` if
    /// already present. O(deg v) plus an amortized granule rebuild.
    pub fn insert(&mut self, v: VertexId, x: VertexId) -> Result<()> {
        self.check(v, x)?;
        let rebuilt = self.granules[v as usize / GRANULE]
            .insert(v as usize % GRANULE, x)
            .map_err(|_| GraphError::DuplicateEdge((v, x)))?;
        if rebuilt {
            self.rebuilds += 1;
        }
        self.m += 1;
        Ok(())
    }

    /// Remove `x` from `v`'s run; errors with `MissingEdge((v, x))` if
    /// absent. O(deg v), never rebuilds.
    pub fn remove(&mut self, v: VertexId, x: VertexId) -> Result<()> {
        self.check(v, x)?;
        self.granules[v as usize / GRANULE]
            .remove(v as usize % GRANULE, x)
            .map_err(|_| GraphError::MissingEdge((v, x)))?;
        self.m -= 1;
        Ok(())
    }

    fn check(&self, v: VertexId, x: VertexId) -> Result<()> {
        for id in [v, x] {
            if id as usize >= self.n {
                return Err(GraphError::VertexOutOfRange {
                    vertex: id,
                    n: self.n,
                });
            }
        }
        Ok(())
    }

    /// Buffer occupancy across all granules.
    pub fn slack_stats(&self) -> SlackStats {
        SlackStats {
            edges: self.m as u64,
            slots: self.granules.iter().map(|g| g.buf.len() as u64).sum(),
            rebuilds: self.rebuilds,
        }
    }
}

/// Both adjacency directions of a dynamic graph in gapped layout, plus
/// the dense out-degree array the pull kernels divide by.
///
/// This is the *mutable* representation an `UpdateSession` in gapped mode
/// commits against; the paged [`Snapshot`] remains the publication
/// format and the proptested oracle.
#[derive(Debug, Clone, PartialEq)]
pub struct GappedGraph {
    out: GappedCsr,
    inn: GappedCsr,
    out_degree: Vec<u32>,
}

impl GappedGraph {
    /// Mirror a snapshot into gapped layout. O(n + m), paid once at
    /// session start (and after ad-hoc structural mutations).
    pub fn from_snapshot(s: &Snapshot) -> Self {
        let n = s.num_vertices();
        GappedGraph {
            out: GappedCsr::from_runs(n, |v| s.out(v)),
            inn: GappedCsr::from_runs(n, |v| s.in_(v)),
            out_degree: (0..s.num_vertices() as VertexId)
                .map(|v| s.out_degree(v))
                .collect(),
        }
    }

    /// Apply a batch: deletions first, then insertions (so delete-then-
    /// reinsert of the same edge inside one batch nets to "present",
    /// matching `Snapshot::apply_batch`). Each edge touches exactly two
    /// runs (out-run of the source, in-run of the target): O(Σ deg)
    /// over the touched runs, independent of n and m.
    ///
    /// The batch must be valid for the current graph (as established by
    /// `DynGraph::apply_batch` on the authoritative adjacency); on error
    /// the store may be partially updated and must be discarded.
    pub fn apply_batch(&mut self, batch: &BatchUpdate) -> Result<()> {
        for &(u, v) in &batch.deletions {
            self.out.remove(u, v)?;
            self.inn.remove(v, u).map_err(flip)?;
            self.out_degree[u as usize] -= 1;
        }
        for &(u, v) in &batch.insertions {
            self.out.insert(u, v)?;
            self.inn.insert(v, u).map_err(flip)?;
            self.out_degree[u as usize] += 1;
        }
        Ok(())
    }

    /// Combined occupancy of the out- and in-direction buffers.
    pub fn slack_stats(&self) -> SlackStats {
        let o = self.out.slack_stats();
        let i = self.inn.slack_stats();
        SlackStats {
            edges: o.edges + i.edges,
            slots: o.slots + i.slots,
            rebuilds: o.rebuilds + i.rebuilds,
        }
    }

    /// Materialize a snapshot (oracle/equality checks in tests).
    pub fn to_snapshot(&self) -> Snapshot {
        let adj: Vec<Vec<VertexId>> = (0..self.out.num_vertices() as VertexId)
            .map(|v| self.out.neighbors(v).to_vec())
            .collect();
        Snapshot::from_adjacency(&adj)
    }
}

/// In-direction errors are recorded as `(target, source)`; flip them back
/// to the `(source, target)` orientation callers expect.
fn flip(e: GraphError) -> GraphError {
    match e {
        GraphError::MissingEdge((v, u)) => GraphError::MissingEdge((u, v)),
        GraphError::DuplicateEdge((v, u)) => GraphError::DuplicateEdge((u, v)),
        other => other,
    }
}

impl NeighborRuns for GappedGraph {
    #[inline]
    fn num_vertices(&self) -> usize {
        self.out.num_vertices()
    }

    #[inline]
    fn num_edges(&self) -> usize {
        self.out.num_edges()
    }

    #[inline]
    fn out(&self, v: VertexId) -> &[VertexId] {
        self.out.neighbors(v)
    }

    #[inline]
    fn in_(&self, v: VertexId) -> &[VertexId] {
        self.inn.neighbors(v)
    }

    #[inline]
    fn out_degree(&self, v: VertexId) -> u32 {
        self.out_degree[v as usize]
    }
}

/// The pre-batch neighbor state the dynamic kernels consult: the out-runs
/// of the batch's source vertices, recorded *before* the mutable store
/// applies the batch. Everything else the DT/DF/ND kernels read comes
/// from the post-batch graph, so this sliver is all of "prev" a gapped
/// session needs — no prev snapshot, no O(n+m) copy.
#[derive(Debug, Clone)]
pub struct PrevRuns {
    n: usize,
    m: usize,
    runs: HashMap<VertexId, Vec<VertexId>>,
}

impl PrevRuns {
    /// Record the out-runs of `sources` from `g` (pre-batch).
    pub fn record<G: NeighborRuns>(g: &G, sources: impl IntoIterator<Item = VertexId>) -> Self {
        let mut runs = HashMap::new();
        for u in sources {
            if (u as usize) < g.num_vertices() {
                runs.entry(u).or_insert_with(|| g.out(u).to_vec());
            }
        }
        PrevRuns {
            n: g.num_vertices(),
            m: g.num_edges(),
            runs,
        }
    }
}

impl NeighborRuns for PrevRuns {
    #[inline]
    fn num_vertices(&self) -> usize {
        self.n
    }

    #[inline]
    fn num_edges(&self) -> usize {
        self.m
    }

    #[inline]
    fn out(&self, v: VertexId) -> &[VertexId] {
        match self.runs.get(&v) {
            Some(run) => run,
            None => panic!("PrevRuns::out({v}): vertex was not a recorded batch source"),
        }
    }

    fn in_(&self, _v: VertexId) -> &[VertexId] {
        panic!("PrevRuns records out-runs only; kernels never pull in-runs from prev")
    }

    fn out_degree(&self, _v: VertexId) -> u32 {
        panic!("PrevRuns records out-runs only; kernels never read out_degree from prev")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::digraph::DynGraph;

    fn assert_matches(g: &GappedGraph, oracle: &Snapshot) {
        assert_eq!(g.num_vertices(), oracle.num_vertices());
        assert_eq!(g.num_edges(), oracle.num_edges());
        for v in 0..oracle.num_vertices() as VertexId {
            assert_eq!(g.out(v), oracle.out(v), "out-run of {v}");
            assert_eq!(g.in_(v), oracle.in_(v), "in-run of {v}");
            assert_eq!(g.out_degree(v), oracle.out_degree(v), "degree of {v}");
        }
    }

    #[test]
    fn from_snapshot_mirrors_runs() {
        let s = Snapshot::from_edges(10, &[(0, 1), (0, 9), (3, 4), (9, 0), (9, 1)]);
        let g = GappedGraph::from_snapshot(&s);
        assert_matches(&g, &s);
        let stats = g.slack_stats();
        assert_eq!(stats.edges, 2 * s.num_edges() as u64);
        assert!(stats.slots >= stats.edges);
        assert_eq!(stats.rebuilds, 0);
    }

    #[test]
    fn insert_delete_reinsert_tracks_oracle() {
        let mut dyng = DynGraph::from_edges(6, vec![(0, 1), (1, 2), (2, 3), (5, 0)]).unwrap();
        let mut g = GappedGraph::from_snapshot(&dyng.snapshot());
        let batch = BatchUpdate {
            deletions: vec![(1, 2), (5, 0)],
            insertions: vec![(1, 2), (0, 5), (4, 4)],
        };
        dyng.apply_batch(&batch).unwrap();
        g.apply_batch(&batch).unwrap();
        assert_matches(&g, &dyng.snapshot());
    }

    #[test]
    fn slack_exhaustion_triggers_granule_rebuild() {
        // Start empty: each run has the minimum slack of 2; inserting a
        // long fan forces repeated rebuilds of vertex 0's granule only.
        let mut g = GappedGraph::from_snapshot(&Snapshot::from_edges(130, &[]));
        for v in 1..100u32 {
            g.apply_batch(&BatchUpdate::insert_only(vec![(0, v)]))
                .unwrap();
        }
        assert_eq!(g.out(0).len(), 99);
        assert!(g.out(0).windows(2).all(|w| w[0] < w[1]), "run stays sorted");
        let stats = g.slack_stats();
        assert!(stats.rebuilds > 0, "long fan must have rebuilt its granule");
        // Vertices in other granules are untouched.
        assert_eq!(g.out(64), &[] as &[u32]);
        assert_eq!(g.out(128), &[] as &[u32]);
    }

    #[test]
    fn errors_match_snapshot_semantics() {
        let s = Snapshot::from_edges(4, &[(0, 1)]);
        let mut g = GappedGraph::from_snapshot(&s);
        assert_eq!(
            g.apply_batch(&BatchUpdate::insert_only(vec![(0, 1)])),
            Err(GraphError::DuplicateEdge((0, 1)))
        );
        let mut g2 = GappedGraph::from_snapshot(&s);
        assert_eq!(
            g2.apply_batch(&BatchUpdate::delete_only(vec![(2, 3)])),
            Err(GraphError::MissingEdge((2, 3)))
        );
    }

    #[test]
    fn prev_runs_serves_recorded_sources_only() {
        let s = Snapshot::from_edges(5, &[(0, 1), (0, 2), (3, 0)]);
        let prev = PrevRuns::record(&s, [0u32, 3, 0]);
        assert_eq!(prev.num_vertices(), 5);
        assert_eq!(prev.num_edges(), 3);
        assert_eq!(prev.out(0), &[1, 2]);
        assert_eq!(prev.out(3), &[0]);
        let caught = std::panic::catch_unwind(|| prev.out(1).len());
        assert!(caught.is_err(), "unrecorded vertex must panic loudly");
    }

    #[test]
    fn to_snapshot_round_trips() {
        let s = Snapshot::from_edges(70, &[(0, 65), (65, 0), (65, 66), (69, 69)]);
        let g = GappedGraph::from_snapshot(&s);
        assert_eq!(g.to_snapshot(), s);
    }
}
