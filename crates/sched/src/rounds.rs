//! Per-iteration cursors implementing OpenMP `for nowait` semantics.
//!
//! In the paper's lock-free algorithms, the PageRank iteration loop is a
//! sequence of work-sharing constructs with `nowait`: all running threads
//! cooperatively drain iteration *i*'s vertex range, but a thread that
//! finishes early proceeds to iteration *i+1* immediately — threads can
//! legitimately occupy **different iterations at the same time** (that is
//! what makes the algorithm barrier-free, Figure 2(b)).
//!
//! [`RoundCursors`] realizes this with one [`PlanCursor`] per iteration,
//! all claiming from the same precompiled [`ChunkPlan`]. Cursors are
//! allocated lazily in blocks of [`ROUND_BLOCK`]: dynamic runs converge
//! in a handful of rounds, so eagerly materializing all
//! `max_iterations` (500) cursors per run — as the seed did — wastes
//! allocation on every benchmark iteration. The first block is built
//! eagerly (the hot path for converging runs never allocates); deeper
//! blocks are installed on demand with a lock-free CAS on an atomic
//! spine pointer, so a stalled thread can never block another thread's
//! claim — the wait-free fetch-add claim itself is untouched.

use crate::chunks::{ChunkPlan, PlanCursor};
use crate::stats::RoundStats;
use std::ops::Range;
use std::sync::atomic::{AtomicPtr, Ordering};

/// Rounds per lazily allocated cursor block. 32 covers virtually every
/// converging run (dynamic updates finish in <10 rounds) in the single
/// eager block while keeping worst-case spine length at
/// `500/32 ≈ 16` pointers.
pub const ROUND_BLOCK: usize = 32;

/// A stack of per-iteration chunk cursors over the same index range.
#[derive(Debug)]
pub struct RoundCursors {
    plan: ChunkPlan,
    max_rounds: usize,
    /// `spine[b]` points to the cursors for rounds
    /// `b*ROUND_BLOCK .. (b+1)*ROUND_BLOCK` once some thread needed them.
    spine: Box<[AtomicPtr<Block>]>,
    stats: RoundStats,
}

#[derive(Debug)]
struct Block {
    cursors: Vec<PlanCursor>,
}

impl RoundCursors {
    /// Create cursors for up to `max_rounds` iterations over `plan`.
    /// Only the first [`ROUND_BLOCK`] rounds are materialized eagerly.
    pub fn new(plan: ChunkPlan, max_rounds: usize) -> Self {
        let num_blocks = max_rounds.div_ceil(ROUND_BLOCK);
        let spine: Box<[AtomicPtr<Block>]> = (0..num_blocks)
            .map(|_| AtomicPtr::new(std::ptr::null_mut()))
            .collect();
        let rc = RoundCursors {
            plan,
            max_rounds,
            spine,
            stats: RoundStats::new(),
        };
        if max_rounds > 0 {
            rc.block(0); // eager first block: converging runs stay allocation-free
        }
        rc
    }

    /// Number of rounds claimable through this set.
    pub fn max_rounds(&self) -> usize {
        self.max_rounds
    }

    /// The shared chunk plan.
    pub fn plan(&self) -> &ChunkPlan {
        &self.plan
    }

    /// 1 + the highest round any thread has touched (0 before first claim).
    pub fn peak_rounds(&self) -> usize {
        self.stats.peak_rounds()
    }

    /// Number of currently materialized cursor blocks (test/stats hook).
    pub fn allocated_blocks(&self) -> usize {
        self.spine
            .iter()
            .filter(|p| !p.load(Ordering::Acquire).is_null())
            .count()
    }

    /// The cursors of block `b`, installing them on first use.
    ///
    /// Ownership of a spine slot: it is null until one `Box::into_raw`
    /// pointer is installed by a successful compare-exchange. That
    /// pointer is never replaced, its block is mutated only under
    /// `&mut self` ([`reset`](Self::reset)), and it is freed only in
    /// [`Drop`]. So every non-null pointer read from the spine is a live,
    /// fully initialized `Block` for as long as `&self` is borrowed.
    fn block(&self, b: usize) -> &Block {
        let p = self.spine[b].load(Ordering::Acquire);
        if !p.is_null() {
            // SAFETY: non-null spine pointers are live `Block`s until
            // `Drop` (slot ownership above); the `Acquire` load pairs with
            // the installing compare-exchange's `Release`, so the block's
            // contents are visible here.
            let block = unsafe { &*p };
            debug_assert_eq!(
                block.cursors.len(),
                ((b + 1) * ROUND_BLOCK).min(self.max_rounds) - b * ROUND_BLOCK,
                "block {b} sits in the wrong slot"
            );
            return block;
        }
        // Materialize the block and race to install it. Losing the race
        // just frees our copy — no thread ever waits on another here
        // (lock-free growth; the claim path itself stays wait-free).
        let lo = b * ROUND_BLOCK;
        let hi = ((b + 1) * ROUND_BLOCK).min(self.max_rounds);
        let fresh = Box::into_raw(Box::new(Block {
            cursors: (lo..hi).map(|_| self.plan.cursor()).collect(),
        }));
        match self.spine[b].compare_exchange(
            std::ptr::null_mut(),
            fresh,
            Ordering::AcqRel,
            Ordering::Acquire,
        ) {
            // SAFETY: `fresh` came from `Box::into_raw` just above and is
            // now installed in the spine, which frees it only in `Drop`.
            Ok(_) => unsafe { &*fresh },
            Err(winner) => {
                // SAFETY: the exchange failed, so `fresh` was never
                // published: this thread still owns the allocation it
                // got from `Box::into_raw`, and frees it exactly once.
                drop(unsafe { Box::from_raw(fresh) });
                debug_assert!(!winner.is_null(), "a failed install must find a block");
                // SAFETY: the exchange compared against null and failed,
                // so `winner` is the non-null pointer another thread
                // installed; the `Acquire` failure ordering pairs with its
                // `Release`, and it lives until `Drop`.
                unsafe { &*winner }
            }
        }
    }

    /// Rewind every materialized cursor (and the round stats) so the
    /// same set can drive another run — the reuse hook for persistent
    /// update sessions, which would otherwise re-allocate the spine and
    /// first cursor block on every batch. `&mut self` guarantees no
    /// claim is in flight; lazily allocated deep blocks are kept.
    pub fn reset(&mut self) {
        for p in self.spine.iter_mut() {
            let ptr = *p.get_mut();
            if !ptr.is_null() {
                // SAFETY: a non-null slot holds a live `Block` (see
                // `block`), and `&mut self` ends every `&Block` that
                // `block` handed out, so this is the only reference.
                for cursor in unsafe { &mut (*ptr).cursors }.iter_mut() {
                    cursor.reset();
                }
            }
        }
        self.stats.reset();
    }

    /// Claim the next chunk of round `round`. `None` when that round's
    /// range is fully claimed.
    #[inline]
    pub fn next_chunk(&self, round: usize) -> Option<Range<usize>> {
        self.round(round).next_chunk()
    }

    /// Access a specific round's cursor.
    #[inline]
    pub fn round(&self, round: usize) -> &PlanCursor {
        assert!(round < self.max_rounds, "round {round} out of range");
        self.stats.record_round(round);
        &self.block(round / ROUND_BLOCK).cursors[round % ROUND_BLOCK]
    }
}

impl Drop for RoundCursors {
    fn drop(&mut self) {
        for p in self.spine.iter() {
            let ptr = p.load(Ordering::Acquire);
            if !ptr.is_null() {
                // SAFETY: each slot was set at most once, to a pointer
                // from `Box::into_raw`, and nothing else frees it; `Drop`
                // runs once with exclusive access, so this frees it once.
                drop(unsafe { Box::from_raw(ptr) });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunks::ChunkPolicy;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn fixed(len: usize, chunk: usize) -> ChunkPlan {
        ChunkPlan::fixed(len, chunk)
    }

    #[test]
    fn rounds_are_independent() {
        let rc = RoundCursors::new(fixed(10, 4), 3);
        // Drain round 0 fully.
        while rc.next_chunk(0).is_some() {}
        // Round 1 is untouched.
        assert_eq!(rc.next_chunk(1), Some(0..4));
        assert_eq!(rc.max_rounds(), 3);
    }

    #[test]
    fn threads_can_occupy_different_rounds() {
        // A fast thread drains rounds 0..k while a "slow" one is still in
        // round 0; nothing blocks.
        let rc = RoundCursors::new(fixed(100, 8), 5);
        let slow_got = rc.next_chunk(0); // slow thread claims and stalls
        assert!(slow_got.is_some());
        std::thread::scope(|s| {
            let rc = &rc;
            s.spawn(move || {
                for round in 0..5 {
                    while rc.next_chunk(round).is_some() {}
                }
            });
        });
        // Fast thread finished all rounds; slow thread's claim is still
        // its own — no index was handed out twice within round 0.
        assert!(rc.round(0).is_drained());
    }

    #[test]
    fn full_coverage_per_round_under_contention() {
        let rc = RoundCursors::new(fixed(5000, 64), 2);
        let hits = (0..5000).map(|_| AtomicUsize::new(0)).collect::<Vec<_>>();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let rc = &rc;
                let hits = &hits;
                s.spawn(move || {
                    for round in 0..2 {
                        while let Some(r) = rc.next_chunk(round) {
                            for i in r {
                                hits[i].fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                });
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 2));
    }

    #[test]
    fn allocation_is_lazy_beyond_first_block() {
        // The seed eagerly built all 500 cursors per run; now only the
        // first block exists until a thread actually reaches deeper.
        let rc = RoundCursors::new(fixed(100, 8), 500);
        assert_eq!(rc.allocated_blocks(), 1);
        assert_eq!(rc.peak_rounds(), 0);
        rc.next_chunk(3);
        assert_eq!(rc.allocated_blocks(), 1);
        assert_eq!(rc.peak_rounds(), 4);
        rc.next_chunk(ROUND_BLOCK); // first round of block 1
        assert_eq!(rc.allocated_blocks(), 2);
        rc.next_chunk(499); // deep round: only its block materializes
        assert_eq!(rc.allocated_blocks(), 3);
        assert_eq!(rc.peak_rounds(), 500);
    }

    #[test]
    fn concurrent_deep_round_growth_is_safe() {
        let rc = RoundCursors::new(fixed(10_000, 16), 256);
        let claimed = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..8 {
                let rc = &rc;
                let claimed = &claimed;
                s.spawn(move || {
                    // Everyone races to the same fresh blocks.
                    for round in (0..256).step_by(17) {
                        if let Some(r) = rc.next_chunk(round) {
                            claimed.fetch_add(r.len(), Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        assert!(claimed.load(Ordering::Relaxed) > 0);
        // Every stepped-on round claims from one shared cursor: block
        // count is bounded by the spine length, nothing leaked or torn.
        assert!(rc.allocated_blocks() <= rc.spine.len());
    }

    #[test]
    fn guided_plan_rounds_share_boundaries() {
        let plan = ChunkPolicy::Guided { min: 8 }.plan(1000, 4);
        let rc = RoundCursors::new(plan, 3);
        // Every round starts from the same precompiled boundary table.
        let firsts: Vec<_> = (0..3).map(|round| rc.next_chunk(round).unwrap()).collect();
        assert_eq!(firsts[0], firsts[1]);
        assert_eq!(firsts[1], firsts[2]);
    }

    #[test]
    fn reset_rewinds_all_materialized_rounds() {
        let mut rc = RoundCursors::new(fixed(20, 4), 64);
        while rc.next_chunk(0).is_some() {}
        rc.next_chunk(ROUND_BLOCK); // materialize block 1
        assert_eq!(rc.allocated_blocks(), 2);
        assert!(rc.round(0).is_drained());
        rc.reset();
        assert_eq!(rc.peak_rounds(), 0);
        assert_eq!(rc.next_chunk(0), Some(0..4), "round 0 claimable again");
        assert_eq!(rc.next_chunk(ROUND_BLOCK), Some(0..4));
        assert_eq!(rc.allocated_blocks(), 2, "blocks kept for reuse");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn round_beyond_max_rejected() {
        let rc = RoundCursors::new(fixed(10, 4), 2);
        rc.next_chunk(2);
    }
}
