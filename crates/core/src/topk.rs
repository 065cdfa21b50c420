//! Top-k selection over rank vectors, with a block-max index.
//!
//! Every top-k list in the crate orders `(id, rank)` pairs by rank
//! descending, ties by id ascending. [`top_k_ascending`] selects the
//! best `k` of any id-ascending sequence in one pass.
//!
//! A full pass over n ranks is wasted work when a commit moved only a
//! few thousand of them, so each ranking of a session carries a
//! `BlockMax` index: the maximum rank of every block of
//! [`PAGE_SIZE`] consecutive vertices, kept current from the set of
//! vertices each pass wrote (block-max pruning, as in Ding & Suel's
//! block-max indexes). `top_k_blocks` then scans only the blocks that
//! can hold a top-k entry:
//!
//! 1. The k-th largest maximum among the blocks that lie wholly inside
//!    the id range is a threshold `t` (`−∞` with fewer than k of them):
//!    those k blocks hold at least k in-range ranks ≥ `t`.
//! 2. Every block whose maximum is below `t` holds only ranks strictly
//!    below the k-th best, so it is skipped; the rest, and the partial
//!    blocks at the range's two ends, are scanned in ascending id order.
//! 3. The scanned pairs feed [`top_k_ascending`], whose id tie-break
//!    sees the same order as a full scan, so the list is bit-identical.
//!
//! A read then costs `O(n / PAGE_SIZE + k · PAGE_SIZE)` instead of
//! `O(n)`.

use crate::rank::MarkBitmap;
use lfpr_graph::snapshot::PAGE_SIZE;
use std::collections::BinaryHeap;
use std::ops::Range;

/// A top-k candidate ordered best-first: rank descending, then id
/// ascending (the order every top-k list in the crate uses).
#[derive(PartialEq)]
struct Ranked(u32, f64);

impl Eq for Ranked {}

impl Ord for Ranked {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other
            .1
            .partial_cmp(&self.1)
            .unwrap()
            .then(self.0.cmp(&other.0))
    }
}

impl PartialOrd for Ranked {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// The `k` best `(id, rank)` pairs — rank descending, ties by id — of a
/// sequence whose ids **ascend**, in one pass without materializing it.
///
/// A max-heap keeps the worst of the best `k` on top. Because ids
/// ascend, a newcomer whose rank equals the current k-th would lose the
/// id tie-break, so only a strictly higher rank displaces it, and the
/// result equals sorting the whole sequence and keeping `k`. Past the
/// first `k` items, an item costs one comparison unless it enters the
/// list (`O(n + m log k)` for `m` entries).
pub fn top_k_ascending(k: usize, items: impl IntoIterator<Item = (u32, f64)>) -> Vec<(u32, f64)> {
    let mut items = items.into_iter();
    let mut best: BinaryHeap<Ranked> = items.by_ref().take(k).map(|(v, r)| Ranked(v, r)).collect();
    // Fewer than k items leave `items` drained, so the loop is a no-op.
    if let Some(mut kth) = best.peek().map(|w| w.1) {
        for (v, r) in items {
            if r > kth {
                *best.peek_mut().expect("k > 0") = Ranked(v, r);
                kth = best.peek().expect("k > 0").1;
            }
        }
    }
    best.into_sorted_vec()
        .into_iter()
        .map(|Ranked(v, r)| (v, r))
        .collect()
}

/// The maximum rank of every [`PAGE_SIZE`]-vertex block of one rank
/// vector, with a vertex that attains it.
#[derive(Debug, Clone, Default)]
pub(crate) struct BlockMax {
    /// Length of the rank vector the index describes.
    n: usize,
    max: Vec<f64>,
    arg: Vec<u32>,
}

impl BlockMax {
    /// Index `ranks` in one O(n) pass.
    pub(crate) fn new(ranks: &[f64]) -> Self {
        let mut index = BlockMax::default();
        index.rebuild(ranks);
        index
    }

    /// The block maxima, one per [`PAGE_SIZE`] vertices.
    pub(crate) fn maxima(&self) -> &[f64] {
        &self.max
    }

    /// The vertex the index holds as block `b`'s maximum.
    #[cfg(test)]
    pub(crate) fn argmax(&self, b: usize) -> usize {
        self.arg[b] as usize
    }

    fn rebuild(&mut self, ranks: &[f64]) {
        self.n = ranks.len();
        let blocks = ranks.len().div_ceil(PAGE_SIZE);
        self.max.resize(blocks, 0.0);
        self.arg.resize(blocks, 0);
        for b in 0..blocks {
            self.rescan(ranks, b);
        }
    }

    fn rescan(&mut self, ranks: &[f64], b: usize) {
        let base = b * PAGE_SIZE;
        let block = &ranks[base..(base + PAGE_SIZE).min(ranks.len())];
        let (mut arg, mut max) = (0, block[0]);
        for (i, &r) in block.iter().enumerate().skip(1) {
            if r > max {
                (arg, max) = (i, r);
            }
        }
        self.max[b] = max;
        self.arg[b] = (base + arg) as u32;
    }

    /// Bring the index up to date with `ranks` after a pass. With
    /// `written`, the pass wrote no rank outside that set (a DF/DT pass
    /// and its `VA` set), so only the written vertices are visited: one
    /// that rises above its block's maximum becomes the maximum, and a
    /// block whose maximum vertex fell is rescanned. Without it, or when
    /// the vertex count changed, the index is rebuilt.
    pub(crate) fn refresh(&mut self, ranks: &[f64], written: Option<&MarkBitmap>) {
        let Some(written) = written.filter(|_| self.n == ranks.len()) else {
            return self.rebuild(ranks);
        };
        // `written` ascends, so one pending rescan covers a block.
        let mut stale: Option<usize> = None;
        written.iter().for_each(|v| {
            let b = v / PAGE_SIZE;
            if stale == Some(b) {
                return;
            }
            if let Some(s) = stale.take() {
                self.rescan(ranks, s);
            }
            let r = ranks[v];
            if r > self.max[b] {
                self.max[b] = r;
                self.arg[b] = v as u32;
            } else if self.arg[b] as usize == v && r < self.max[b] {
                stale = Some(b);
            }
        });
        if let Some(s) = stale {
            self.rescan(ranks, s);
        }
    }
}

/// The `k` best ranks among ids in `range` — rank descending, ties by
/// id — reading only the blocks of `ranks` that can hold one, as told by
/// `maxima` (the [`BlockMax`] of `ranks`; see the module doc).
pub(crate) fn top_k_blocks(
    ranks: &[f64],
    maxima: &[f64],
    k: usize,
    range: Range<u32>,
) -> Vec<(u32, f64)> {
    debug_assert_eq!(maxima.len(), ranks.len().div_ceil(PAGE_SIZE));
    let hi = ranks.len().min(range.end as usize);
    let lo = (range.start as usize).min(hi);
    // Blocks wholly inside `lo..hi`.
    let first = lo.div_ceil(PAGE_SIZE);
    let inner = first..(hi / PAGE_SIZE).max(first);
    let threshold = match k {
        0 => return Vec::new(),
        k if inner.len() < k => f64::NEG_INFINITY,
        k => {
            let blocks = inner.clone().map(|b| (b as u32, maxima[b]));
            top_k_ascending(k, blocks).last().expect("k > 0 blocks").1
        }
    };
    let scan = (lo / PAGE_SIZE..hi.div_ceil(PAGE_SIZE))
        .filter(|&b| !inner.contains(&b) || maxima[b] >= threshold)
        .flat_map(|b| (b * PAGE_SIZE).max(lo)..((b + 1) * PAGE_SIZE).min(hi))
        .map(|v| (v as u32, ranks[v]));
    top_k_ascending(k, scan)
}
