//! Immutable paged CSR snapshots consumed by the PageRank algorithms.
//!
//! A [`Snapshot`] is a frozen view of a [`DynGraph`](crate::digraph::DynGraph)
//! holding both out-adjacency (for frontier expansion: marking
//! out-neighbors as affected) and in-adjacency (for the pull-style rank
//! computation `R[v] = (1-α)/n + α · Σ R[u]/outdeg(u)` over `u ∈ in(v)`).
//!
//! ## Pages
//!
//! Each direction is stored in **pages** of [`PAGE_SIZE`] consecutive
//! vertices (the last page may be partial). A page is one immutable
//! `Arc<[u32]>` allocation laid out as
//!
//! ```text
//! [ o_0, o_1, …, o_c | run(base) run(base+1) … run(base+c-1) ]
//! ```
//!
//! where `c` is the page's vertex count and `o_l` is the absolute index
//! of vertex `base + l`'s run inside the same allocation (`o_0 = c + 1`,
//! `o_c` = the allocation's length). A snapshot is a table of such pages
//! per direction. `out(v)`/`in_(v)` cost one page-table load and two
//! offset loads, and `out_degree(v)` is the difference of two adjacent
//! offsets. The rank kernels, which read one out-degree per in-edge,
//! take theirs from a dense array instead
//! ([`WithDegrees`](crate::runs::WithDegrees)).
//!
//! [`Snapshot::apply_batch`] is **copy-on-write**: it clones the two page
//! tables (bumping one reference count per page) and rebuilds only the
//! pages whose runs the batch edits. A commit therefore costs
//! `O(n / PAGE_SIZE + Σ touched pages)` instead of `O(n + m)`, and every
//! older snapshot still pinned by a reader keeps its own pages for as
//! long as it lives. Pages are never written after construction.
//!
//! Snapshots are `Sync` and are shared by reference across worker threads.

use crate::batch::BatchUpdate;
use crate::csr::Csr;
use crate::types::{Edge, GraphError, Result, VertexId};
use std::ops::Range;
use std::sync::Arc;

/// `log2` of [`PAGE_SIZE`].
const PAGE_SHIFT: u32 = 8;

/// Vertices per adjacency page. A multiple of 64, so every 64-vertex
/// granule of the affected-set bitmap and of the shard exchange lies
/// inside one page.
pub const PAGE_SIZE: usize = 1 << PAGE_SHIFT;

const PAGE_MASK: usize = PAGE_SIZE - 1;

/// The runs of one page, resolved once for repeated lookups of the
/// vertices it holds (see [`Snapshot::out_page`]).
#[derive(Debug, Clone, Copy)]
pub struct PageRuns<'a> {
    words: &'a [VertexId],
}

impl<'a> PageRuns<'a> {
    /// The sorted run of `v`, which must lie in this page (another
    /// vertex reads a wrong run or panics; it never reads out of bounds).
    #[inline]
    pub fn run(self, v: VertexId) -> &'a [VertexId] {
        let l = v as usize & PAGE_MASK;
        let o = &self.words[l..l + 2];
        &self.words[o[0] as usize..o[1] as usize]
    }

    /// Length of `v`'s run (same precondition as [`run`](Self::run)).
    #[inline]
    pub fn degree(self, v: VertexId) -> u32 {
        let l = v as usize & PAGE_MASK;
        let o = &self.words[l..l + 2];
        o[1] - o[0]
    }
}

/// One adjacency direction as a table of shared pages.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Paged {
    pages: Vec<Arc<[VertexId]>>,
}

/// Vertex ids `[base, end)` held by page `p` of an `n`-vertex table.
#[inline]
fn page_span(p: usize, n: usize) -> Range<usize> {
    let base = p << PAGE_SHIFT;
    base..(base + PAGE_SIZE).min(n)
}

/// Page `old` (first vertex `base`) with the runs of `group` (sorted,
/// all inside the page) merged, laid out in `scratch`. The spans between
/// patched runs are copied in bulk, their offsets shifted by the length
/// the runs before them gained or lost.
fn patch_page(
    old: &[VertexId],
    base: usize,
    group: &[RunPatch<'_>],
    scratch: &mut Vec<VertexId>,
) -> Result<Arc<[VertexId]>> {
    let count = old[0] as usize - 1;
    scratch.clear();
    scratch.extend_from_slice(&old[..=count]);
    let mut shift = 0i64;
    let mut from = 0; // first vertex (page-local) not yet emitted
    let copy = |scratch: &mut Vec<VertexId>, from: usize, to: usize, shift: i64| {
        for (h, &o) in scratch[from..=to].iter_mut().zip(&old[from..=to]) {
            *h = word((i64::from(o) + shift) as usize);
        }
        scratch.extend_from_slice(&old[old[from] as usize..old[to] as usize]);
    };
    for patch in group {
        let l = patch.vertex as usize - base;
        copy(scratch, from, l, shift);
        let run = &old[old[l] as usize..old[l + 1] as usize];
        merge_run(patch.vertex, run, patch.del, patch.add, scratch)?;
        shift += patch.add.len() as i64 - patch.del.len() as i64;
        from = l + 1;
    }
    copy(scratch, from, count, shift);
    debug_assert_eq!(scratch[count] as usize, scratch.len());
    Ok(Arc::from(&scratch[..]))
}

/// A page-local offset as a stored word.
#[inline]
fn word(i: usize) -> VertexId {
    VertexId::try_from(i).expect("adjacency page exceeds 2^32 words")
}

impl Paged {
    /// Pages over `n` vertices whose runs come from `run(v)`.
    fn from_runs<'r>(n: usize, run: impl Fn(usize) -> &'r [VertexId]) -> Paged {
        let mut scratch = Vec::new();
        let pages = (0..n.div_ceil(PAGE_SIZE))
            .map(|p| {
                let span = page_span(p, n);
                scratch.clear();
                scratch.resize(span.len() + 1, 0);
                for (l, v) in span.clone().enumerate() {
                    scratch[l] = word(scratch.len());
                    scratch.extend_from_slice(run(v));
                }
                scratch[span.len()] = word(scratch.len());
                Arc::from(&scratch[..])
            })
            .collect();
        Paged { pages }
    }

    /// The reverse direction of `self` (edge `(u, v)` becomes `(v, u)`).
    /// Source-major traversal emits every reversed run already sorted.
    fn transpose(&self, n: usize) -> Paged {
        let mut cursor = vec![0 as VertexId; n];
        for (_, run) in self.runs(0..n) {
            for &v in run {
                cursor[v as usize] += 1;
            }
        }
        // Lay out each page's header from the in-degrees, then turn the
        // per-vertex counts into write cursors.
        let mut bufs: Vec<Vec<VertexId>> = (0..self.pages.len())
            .map(|p| {
                let span = page_span(p, n);
                let mut buf = vec![0; span.len() + 1];
                let mut at = span.len() + 1;
                for (l, v) in span.clone().enumerate() {
                    buf[l] = word(at);
                    at += cursor[v] as usize;
                    cursor[v] = buf[l];
                }
                buf[span.len()] = word(at);
                buf.resize(at, 0);
                buf
            })
            .collect();
        for (u, run) in self.runs(0..n) {
            for &v in run {
                let at = &mut cursor[v as usize];
                bufs[v as usize >> PAGE_SHIFT][*at as usize] = u;
                *at += 1;
            }
        }
        Paged {
            pages: bufs.into_iter().map(Arc::from).collect(),
        }
    }

    #[inline]
    fn page(&self, v: VertexId) -> PageRuns<'_> {
        PageRuns {
            words: &self.pages[v as usize >> PAGE_SHIFT],
        }
    }

    #[inline]
    fn run(&self, v: VertexId) -> &[VertexId] {
        self.page(v).run(v)
    }

    /// Runs of the vertices in `range`, ascending, one page lookup per
    /// page.
    fn runs(&self, range: Range<usize>) -> impl Iterator<Item = (VertexId, &[VertexId])> + '_ {
        let pages = if range.is_empty() {
            0..0
        } else {
            range.start >> PAGE_SHIFT..((range.end - 1) >> PAGE_SHIFT) + 1
        };
        pages.flat_map(move |p| {
            let page = PageRuns {
                words: &self.pages[p],
            };
            let base = p << PAGE_SHIFT;
            (base.max(range.start)..(base + PAGE_SIZE).min(range.end))
                .map(move |v| (v as VertexId, page.run(v as VertexId)))
        })
    }

    /// A copy of this table with `patches` applied: untouched pages are
    /// shared, every page holding a patched vertex is rebuilt.
    fn patched(&self, patches: &[RunPatch<'_>]) -> Result<Paged> {
        let mut pages = self.pages.clone();
        let mut scratch = Vec::new();
        let mut rest = patches;
        while let Some(first) = rest.first() {
            let p = first.vertex as usize >> PAGE_SHIFT;
            let here = rest
                .iter()
                .take_while(|q| q.vertex as usize >> PAGE_SHIFT == p)
                .count();
            let (group, tail) = rest.split_at(here);
            rest = tail;
            pages[p] = patch_page(&self.pages[p], p << PAGE_SHIFT, group, &mut scratch)?;
        }
        Ok(Paged { pages })
    }
}

/// Frozen directed graph with paged out- and in-adjacency.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Snapshot {
    n: usize,
    m: usize,
    out: Paged,
    inn: Paged,
}

impl Snapshot {
    /// Build from per-vertex sorted out-adjacency lists.
    pub fn from_adjacency(adj: &[Vec<VertexId>]) -> Self {
        debug_assert!(
            adj.iter().all(|l| l.windows(2).all(|w| w[0] < w[1])),
            "adjacency must be strictly sorted"
        );
        let m = adj.iter().map(Vec::len).sum();
        Self::from_out(adj.len(), m, Paged::from_runs(adj.len(), |v| &adj[v]))
    }

    /// Build from an edge list (sorted or not; duplicates kept).
    pub fn from_edges(n: usize, edges: &[Edge]) -> Self {
        Self::from_out_csr(Csr::from_edges(n, edges))
    }

    /// Build from an existing out-CSR (pages it and derives the
    /// in-direction).
    pub fn from_out_csr(out_csr: Csr) -> Self {
        let n = out_csr.num_vertices();
        let out = Paged::from_runs(n, |v| out_csr.neighbors(v as VertexId));
        Self::from_out(n, out_csr.num_edges(), out)
    }

    fn from_out(n: usize, m: usize, out: Paged) -> Self {
        let inn = out.transpose(n);
        Snapshot { n, m, out, inn }
    }

    /// Produce the snapshot of this graph **after** `batch`, sharing
    /// every page the batch does not touch with `self` (module docs).
    ///
    /// Per-edge work is `O(|Δ| log |Δ|)` plus a rebuild of each touched
    /// page, on top of one `O(n / PAGE_SIZE)` page-table copy per
    /// direction — the delta-snapshot path behind
    /// [`DynGraph::apply_batch`](crate::digraph::DynGraph::apply_batch)
    /// and `lfpr_core`'s `UpdateSession`. The full rebuild
    /// ([`Snapshot::from_adjacency`]) remains the equality-checked oracle.
    ///
    /// The batch must be valid for this snapshot: every deletion present,
    /// every insertion absent (deleting and re-inserting the same edge in
    /// one batch is allowed and nets to "present", matching
    /// `DynGraph::apply_batch`'s deletions-then-insertions order).
    pub fn apply_batch(&self, batch: &BatchUpdate) -> Result<Snapshot> {
        let n = self.n;
        for (u, v) in batch.iter_all() {
            for x in [u, v] {
                if x as usize >= n {
                    return Err(GraphError::VertexOutOfRange { vertex: x, n });
                }
            }
        }
        // Sorted forward (by source) and reversed (by target) views.
        let mut del_f = batch.deletions.clone();
        del_f.sort_unstable();
        if let Some(w) = del_f.windows(2).find(|w| w[0] == w[1]) {
            return Err(GraphError::MissingEdge(w[1])); // second delete of one edge
        }
        let mut ins_f = batch.insertions.clone();
        ins_f.sort_unstable();
        if let Some(w) = ins_f.windows(2).find(|w| w[0] == w[1]) {
            return Err(GraphError::DuplicateEdge(w[1]));
        }
        let mut del_r: Vec<Edge> = batch.deletions.iter().map(|&(u, v)| (v, u)).collect();
        del_r.sort_unstable();
        let mut ins_r: Vec<Edge> = batch.insertions.iter().map(|&(u, v)| (v, u)).collect();
        ins_r.sort_unstable();
        let neighbor = |edges: &[Edge]| edges.iter().map(|e| e.1).collect::<Vec<VertexId>>();
        let (del_fn, ins_fn) = (neighbor(&del_f), neighbor(&ins_f));
        let (del_rn, ins_rn) = (neighbor(&del_r), neighbor(&ins_r));
        let patches_out = group_patches(&del_f, &del_fn, &ins_f, &ins_fn);
        let patches_in = group_patches(&del_r, &del_rn, &ins_r, &ins_rn);

        let out = self.out.patched(&patches_out)?;
        // In-runs are keyed by target, so flip reported edges back into
        // (source, target) orientation. A coherent snapshot can only
        // fail on the out side, but map defensively.
        let inn = self.inn.patched(&patches_in).map_err(|e| match e {
            GraphError::MissingEdge((a, b)) => GraphError::MissingEdge((b, a)),
            GraphError::DuplicateEdge((a, b)) => GraphError::DuplicateEdge((b, a)),
            other => other,
        })?;
        Ok(Snapshot {
            n,
            m: self.m + ins_f.len() - del_f.len(),
            out,
            inn,
        })
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Number of directed edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.m
    }

    /// Out-neighbors of `v` (sorted).
    #[inline]
    pub fn out(&self, v: VertexId) -> &[VertexId] {
        self.out.run(v)
    }

    /// In-neighbors of `v` (sorted).
    #[inline]
    pub fn in_(&self, v: VertexId) -> &[VertexId] {
        self.inn.run(v)
    }

    /// The out-page holding `v`: resolve it once, then read the runs of
    /// every vertex in it (`v & !(PAGE_SIZE - 1)` onwards) without
    /// another page-table load.
    #[inline]
    pub fn out_page(&self, v: VertexId) -> PageRuns<'_> {
        self.out.page(v)
    }

    /// Out-runs of the vertices in `range`, ascending, resolving each
    /// page once.
    pub fn out_runs(
        &self,
        range: Range<VertexId>,
    ) -> impl Iterator<Item = (VertexId, &[VertexId])> + '_ {
        self.out.runs(range.start as usize..range.end as usize)
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn out_degree(&self, v: VertexId) -> u32 {
        self.out.page(v).degree(v)
    }

    /// In-degree of `v`.
    #[inline]
    pub fn in_degree(&self, v: VertexId) -> usize {
        self.inn.page(v).degree(v) as usize
    }

    /// Whether edge `(u, v)` is present.
    #[inline]
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.out(u).binary_search(&v).is_ok()
    }

    /// Iterate all edges in `(source, target)` order.
    pub fn edges(&self) -> Edges<'_> {
        Edges {
            pages: &self.out.pages,
            words: &[],
            base: 0,
            l: 0,
            at: 0,
            left: self.m,
        }
    }

    /// Number of dead ends (vertices with out-degree zero). After
    /// self-loop elimination (paper §5.1.3) this must be zero.
    pub fn dead_end_count(&self) -> usize {
        self.out
            .runs(0..self.n)
            .filter(|(_, run)| run.is_empty())
            .count()
    }

    /// Average out-degree `|E| / |V|` (the `Davg` column of Table 2).
    pub fn avg_degree(&self) -> f64 {
        if self.num_vertices() == 0 {
            0.0
        } else {
            self.num_edges() as f64 / self.num_vertices() as f64
        }
    }
}

/// All edges of a [`Snapshot`] in `(source, target)` order, page by
/// page; the length is known up front, so collecting allocates once.
#[derive(Debug, Clone)]
pub struct Edges<'a> {
    /// Pages not yet entered.
    pages: &'a [Arc<[VertexId]>],
    /// The current page (empty before the first).
    words: &'a [VertexId],
    /// First vertex of the current page.
    base: usize,
    /// Page-local vertex whose run holds `at`.
    l: usize,
    /// Next target word in `words`.
    at: usize,
    left: usize,
}

impl Iterator for Edges<'_> {
    type Item = Edge;

    fn next(&mut self) -> Option<Edge> {
        if self.left == 0 {
            return None;
        }
        // Skip finished runs, entering the next page when this one is
        // exhausted (`words[count] == words.len()`).
        while self.at == self.words.len() {
            let (first, rest) = self.pages.split_first().expect("edge count matches pages");
            self.base += self.words.first().map_or(0, |&o| o as usize - 1);
            self.words = first;
            self.pages = rest;
            self.l = 0;
            self.at = first[0] as usize;
        }
        while self.at == self.words[self.l + 1] as usize {
            self.l += 1;
        }
        let v = self.words[self.at];
        self.at += 1;
        self.left -= 1;
        Some(((self.base + self.l) as VertexId, v))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for Edges<'_> {}

/// A per-vertex adjacency edit: sorted, deduplicated neighbor ids to
/// remove from and add to one vertex's run.
#[derive(Debug, Clone, Copy)]
struct RunPatch<'a> {
    /// The vertex whose adjacency run changes.
    vertex: VertexId,
    /// Neighbors to remove (must be present), ascending.
    del: &'a [VertexId],
    /// Neighbors to add (must be absent after deletions), ascending.
    add: &'a [VertexId],
}

/// Merge sorted deletion/insertion edge lists (keyed by first
/// component) into per-vertex [`RunPatch`]es, in ascending vertex order.
/// `*_nbrs` are the second components of the corresponding edge lists.
fn group_patches<'a>(
    del: &[Edge],
    del_nbrs: &'a [VertexId],
    ins: &[Edge],
    ins_nbrs: &'a [VertexId],
) -> Vec<RunPatch<'a>> {
    let mut out = Vec::new();
    let (mut i, mut j) = (0usize, 0usize);
    while i < del.len() || j < ins.len() {
        let v = match (del.get(i), ins.get(j)) {
            (Some(&(a, _)), Some(&(b, _))) => a.min(b),
            (Some(&(a, _)), None) => a,
            (None, Some(&(b, _))) => b,
            (None, None) => unreachable!(),
        };
        let i0 = i;
        while i < del.len() && del[i].0 == v {
            i += 1;
        }
        let j0 = j;
        while j < ins.len() && ins[j].0 == v {
            j += 1;
        }
        out.push(RunPatch {
            vertex: v,
            del: &del_nbrs[i0..i],
            add: &ins_nbrs[j0..j],
        });
    }
    out
}

/// Emit `(old \ del) ∪ add` for vertex `v`'s sorted run into `out`,
/// validating that every deleted neighbor is present and every added
/// neighbor is absent after deletions (an id in both `del` and `add`
/// is a delete-then-reinsert and stays present).
fn merge_run(
    v: VertexId,
    old: &[VertexId],
    del: &[VertexId],
    add: &[VertexId],
    out: &mut Vec<VertexId>,
) -> Result<()> {
    let (mut i, mut j, mut k) = (0, 0, 0);
    let mut last_emitted: Option<VertexId> = None;
    while i < old.len() || k < add.len() {
        // Next candidate comes from the old run or the additions,
        // whichever is smaller.
        let take_old = match (old.get(i), add.get(k)) {
            (Some(&o), Some(&a)) => o <= a,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => unreachable!(),
        };
        if take_old {
            let o = old[i];
            i += 1;
            if j < del.len() && del[j] == o {
                j += 1; // deleted: skip (a matching add re-emits it below)
                continue;
            }
            if last_emitted == Some(o) {
                return Err(GraphError::DuplicateEdge((v, o)));
            }
            last_emitted = Some(o);
            out.push(o);
        } else {
            let a = add[k];
            k += 1;
            // Adding `a` while it survives from the old run is a
            // duplicate: the tie-break above takes the old entry first,
            // so that case always manifests as `last_emitted == a` here
            // (a deleted-then-readded id was skipped by the del arm and
            // is legitimately re-emitted now).
            if last_emitted == Some(a) {
                return Err(GraphError::DuplicateEdge((v, a)));
            }
            debug_assert!(i >= old.len() || old[i] > a, "tie-break takes old first");
            last_emitted = Some(a);
            out.push(a);
        }
    }
    if j < del.len() {
        return Err(GraphError::MissingEdge((v, del[j])));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Snapshot {
        // 0 -> {1, 2}, 1 -> {2}, 2 -> {0}, 3 isolated
        Snapshot::from_edges(4, &[(0, 1), (0, 2), (1, 2), (2, 0)])
    }

    #[test]
    fn out_and_in_are_consistent() {
        let s = sample();
        assert_eq!(s.out(0), &[1, 2]);
        assert_eq!(s.in_(2), &[0, 1]);
        assert_eq!(s.in_(0), &[2]);
        assert_eq!(s.in_(3), &[] as &[VertexId]);
    }

    #[test]
    fn degrees_cached_correctly() {
        let s = sample();
        assert_eq!(s.out_degree(0), 2);
        assert_eq!(s.out_degree(3), 0);
        assert_eq!(s.in_degree(2), 2);
    }

    #[test]
    fn dead_end_count() {
        let s = sample();
        assert_eq!(s.dead_end_count(), 1); // vertex 3
        let s2 = Snapshot::from_edges(2, &[(0, 0), (1, 1)]);
        assert_eq!(s2.dead_end_count(), 0);
    }

    #[test]
    fn avg_degree() {
        let s = sample();
        assert!((s.avg_degree() - 1.0).abs() < 1e-12);
        let empty = Snapshot::from_edges(0, &[]);
        assert_eq!(empty.avg_degree(), 0.0);
    }

    #[test]
    fn apply_batch_matches_full_rebuild() {
        use crate::digraph::DynGraph;
        let mut g = DynGraph::from_edges(6, vec![(0, 1), (0, 2), (1, 2), (2, 0), (4, 1)]).unwrap();
        let prev = g.snapshot();
        let batch = BatchUpdate {
            deletions: vec![(0, 2), (4, 1)],
            insertions: vec![(3, 5), (0, 4), (5, 0)],
        };
        let incremental = prev.apply_batch(&batch).unwrap();
        g.apply_batch(&batch).unwrap();
        assert_eq!(incremental, g.snapshot());
        assert_eq!(incremental.out(0), &[1, 4]);
        assert_eq!(incremental.in_(0), &[2, 5]);
        assert_eq!(incremental.out_degree(0), 2);
        assert_eq!(incremental.num_edges(), 6);
    }

    #[test]
    fn apply_batch_delete_then_reinsert_same_edge() {
        let prev = sample();
        let batch = BatchUpdate {
            deletions: vec![(0, 1)],
            insertions: vec![(0, 1)],
        };
        let next = prev.apply_batch(&batch).unwrap();
        assert_eq!(next, prev);
    }

    #[test]
    fn apply_batch_empty_is_identity() {
        let prev = sample();
        assert_eq!(prev.apply_batch(&BatchUpdate::new()).unwrap(), prev);
    }

    #[test]
    fn apply_batch_rejects_invalid() {
        let prev = sample();
        // Deleting a missing edge.
        let b = BatchUpdate::delete_only(vec![(1, 0)]);
        assert_eq!(
            prev.apply_batch(&b).unwrap_err(),
            GraphError::MissingEdge((1, 0))
        );
        // Double-deleting an existing edge.
        let b = BatchUpdate::delete_only(vec![(0, 1), (0, 1)]);
        assert_eq!(
            prev.apply_batch(&b).unwrap_err(),
            GraphError::MissingEdge((0, 1))
        );
        // Inserting a present edge.
        let b = BatchUpdate::insert_only(vec![(0, 1)]);
        assert_eq!(
            prev.apply_batch(&b).unwrap_err(),
            GraphError::DuplicateEdge((0, 1))
        );
        // Duplicate insertion of a new edge.
        let b = BatchUpdate::insert_only(vec![(3, 0), (3, 0)]);
        assert_eq!(
            prev.apply_batch(&b).unwrap_err(),
            GraphError::DuplicateEdge((3, 0))
        );
        // Out-of-range vertex.
        let b = BatchUpdate::insert_only(vec![(0, 9)]);
        assert!(matches!(
            prev.apply_batch(&b).unwrap_err(),
            GraphError::VertexOutOfRange { vertex: 9, .. }
        ));
    }

    #[test]
    fn apply_batch_shares_untouched_pages() {
        // Three pages, the last one partial; the batch touches the
        // out-run of a vertex in page 0 and the in-run of one in page 2.
        let n = 2 * PAGE_SIZE + 7;
        let edges: Vec<Edge> = (0..n as VertexId).map(|v| (v, v)).collect();
        let prev = Snapshot::from_edges(n, &edges);
        let last = (n - 1) as VertexId;
        let next = prev
            .apply_batch(&BatchUpdate::insert_only(vec![(3, last)]))
            .unwrap();
        let shared = |a: &Paged, b: &Paged, p: usize| Arc::ptr_eq(&a.pages[p], &b.pages[p]);
        assert!(!shared(&prev.out, &next.out, 0));
        assert!(shared(&prev.out, &next.out, 1) && shared(&prev.out, &next.out, 2));
        assert!(shared(&prev.inn, &next.inn, 0) && shared(&prev.inn, &next.inn, 1));
        assert!(!shared(&prev.inn, &next.inn, 2));
        // The old snapshot is untouched.
        assert_eq!(prev.out(3), &[3]);
        assert_eq!(next.out(3), &[3, last]);
        assert_eq!(next.in_(last), &[3, last]);
        assert_eq!(prev.in_(last), &[last]);
    }

    #[test]
    fn runs_resolve_pages_across_boundaries() {
        let n = PAGE_SIZE + 3;
        let edges: Vec<Edge> = (0..n as VertexId)
            .map(|v| (v, (v + 1) % n as u32))
            .collect();
        let s = Snapshot::from_edges(n, &edges);
        let lo = PAGE_SIZE as VertexId - 2;
        let got: Vec<(VertexId, Vec<VertexId>)> = s
            .out_runs(lo..lo + 4)
            .map(|(v, r)| (v, r.to_vec()))
            .collect();
        let want: Vec<(VertexId, Vec<VertexId>)> =
            (lo..lo + 4).map(|v| (v, s.out(v).to_vec())).collect();
        assert_eq!(got, want);
        assert_eq!(s.out_runs(5..5).count(), 0);
        let page = s.out_page(PAGE_SIZE as VertexId);
        assert_eq!(page.run(PAGE_SIZE as VertexId + 2), &[0]);
        assert_eq!(page.degree(PAGE_SIZE as VertexId + 1), 1);
        assert_eq!(s.edges().count(), n);
    }

    #[test]
    fn edges_walk_every_page_in_order() {
        // Empty pages at the front and in the middle, a partial last page.
        let n = 3 * PAGE_SIZE + 5;
        let p = PAGE_SIZE as VertexId;
        let edges = vec![(p + 1, 0), (p + 1, 7), (p + 2, 2), (3 * p + 4, 3 * p)];
        let s = Snapshot::from_edges(n, &edges);
        assert_eq!(s.edges().len(), edges.len());
        assert_eq!(s.edges().collect::<Vec<_>>(), edges);
        assert_eq!(Snapshot::from_edges(n, &[]).edges().next(), None);
    }

    #[test]
    fn every_out_edge_has_matching_in_edge() {
        let s = sample();
        for (u, v) in s.edges() {
            assert!(s.in_(v).contains(&u), "({u},{v}) missing from in-CSR");
        }
        let m_in: usize = (0..s.num_vertices() as VertexId)
            .map(|v| s.in_(v).len())
            .sum();
        assert_eq!(m_in, s.num_edges());
    }
}
