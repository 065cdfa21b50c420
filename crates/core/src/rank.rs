//! Shared atomic rank and flag vectors.
//!
//! The lock-free variants update ranks **in place** on a single shared
//! vector (asynchronous, Gauss–Seidel style — §3.3.2), so rank storage
//! must admit concurrent plain reads and writes. [`AtomicRanks`] stores
//! f64 bit patterns in `AtomicU64`s with `Relaxed` ordering: individual
//! rank loads/stores are atomic (no torn reads), and no ordering between
//! *different* vertices' ranks is required — the algorithm tolerates
//! reading a mix of old and new neighbor ranks (the paper's correctness
//! argument, §4.4; stale reads are repaired by later iterations).
//!
//! [`Flags`] is the 8-bit flag vector the paper uses for `VA` (affected),
//! `C` (batch-edge checked), and `RC` (not-yet-converged), also with
//! `Relaxed` single-flag operations; phase transitions that must observe
//! *all* flags (e.g. "every C\[u\] is set") use `SeqCst` scans, mirroring
//! the conservative flush OpenMP performs at construct boundaries.

//! [`EpochFlags`] is the reusable-workspace counterpart: the same flag
//! semantics, but "set" means "stamped with the current epoch", so a
//! long-running [`UpdateSession`](crate::session::UpdateSession) clears
//! the whole vector between batches in O(1) (one epoch bump) instead of
//! an O(n) wipe. The [`FlagOps`] trait lets the lock-free engine run on
//! either representation.
//!
//! [`MarkBitmap`] holds the dynamic variants' `VA` (affected) set: a
//! leaf bit per vertex plus a summary bit per 64-vertex leaf word, so
//! the engine steps from one marked vertex to the next with
//! `trailing_zeros` instead of testing every vertex, and a reusable
//! workspace clears it by zeroing only the words that were marked.

use std::sync::atomic::{AtomicU32, AtomicU64, AtomicU8, Ordering};

/// A shared vector of f64 ranks supporting concurrent in-place updates.
#[derive(Debug)]
pub struct AtomicRanks {
    bits: Vec<AtomicU64>,
}

impl AtomicRanks {
    /// All ranks set to `value` (e.g. 1/n for a fresh static run).
    pub fn uniform(n: usize, value: f64) -> Self {
        let b = value.to_bits();
        AtomicRanks {
            bits: (0..n).map(|_| AtomicU64::new(b)).collect(),
        }
    }

    /// Initialize from a previous rank vector (dynamic warm start).
    pub fn from_slice(ranks: &[f64]) -> Self {
        AtomicRanks {
            bits: ranks.iter().map(|r| AtomicU64::new(r.to_bits())).collect(),
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    /// Whether the vector is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    /// Atomically read the rank of `v`.
    #[inline]
    pub fn get(&self, v: usize) -> f64 {
        f64::from_bits(self.bits[v].load(Ordering::Relaxed))
    }

    /// Atomically write the rank of `v`.
    #[inline]
    pub fn set(&self, v: usize, r: f64) {
        self.bits[v].store(r.to_bits(), Ordering::Relaxed);
    }

    /// Copy out a plain `Vec<f64>` (after the parallel phase ends).
    pub fn to_vec(&self) -> Vec<f64> {
        self.bits
            .iter()
            .map(|b| f64::from_bits(b.load(Ordering::Relaxed)))
            .collect()
    }

    /// Sum of all ranks (diagnostic; ≈ 1.0 at a PageRank fixpoint).
    pub fn sum(&self) -> f64 {
        (0..self.len()).map(|v| self.get(v)).sum()
    }

    /// Overwrite every rank with `value` without allocating (exclusive
    /// access, plain stores).
    pub fn fill(&mut self, value: f64) {
        let b = value.to_bits();
        for x in &mut self.bits {
            *x.get_mut() = b;
        }
    }

    /// Overwrite the ranks from a plain slice, resizing only if the
    /// length changed (steady-state: no allocation).
    pub fn copy_from_slice(&mut self, ranks: &[f64]) {
        if self.bits.len() != ranks.len() {
            *self = AtomicRanks::from_slice(ranks);
            return;
        }
        for (x, r) in self.bits.iter_mut().zip(ranks) {
            *x.get_mut() = r.to_bits();
        }
    }

    /// View the ranks as a plain `&[f64]` without copying.
    ///
    /// `&mut self` guarantees no thread can be writing concurrently, so
    /// the reinterpretation is sound: `AtomicU64` has the same size and
    /// bit validity as `u64`, and every stored pattern came from
    /// `f64::to_bits`.
    pub fn as_f64_slice(&mut self) -> &[f64] {
        // SAFETY: the returned slice borrows `self` mutably for its whole
        // lifetime, so no other reference — and hence no writer — can
        // touch `bits` while it lives, which is the callee's contract.
        unsafe { self.as_f64_slice_unchecked() }
    }

    /// [`Self::as_f64_slice`] through a shared reference.
    ///
    /// # Safety
    /// The caller must guarantee no concurrent writer exists for the
    /// lifetime of the returned slice (e.g. the vector is owned by a
    /// structure whose only writers take `&mut`).
    pub(crate) unsafe fn as_f64_slice_unchecked(&self) -> &[f64] {
        const {
            assert!(std::mem::size_of::<AtomicU64>() == std::mem::size_of::<f64>());
            assert!(std::mem::align_of::<AtomicU64>() >= std::mem::align_of::<f64>());
        }
        // SAFETY: the pointer and length come from a live `Vec`, so the
        // range is one allocation of `len` initialized elements, borrowed
        // for as long as `self` is. `AtomicU64` has the size of `f64` and
        // at least its alignment (checked above at compile time), and
        // every 64-bit pattern is a valid `f64`. The caller guarantees no
        // concurrent writer, so the plain reads cannot race.
        unsafe { std::slice::from_raw_parts(self.bits.as_ptr() as *const f64, self.bits.len()) }
    }
}

/// The flag operations the lock-free engine needs, abstracted over the
/// storage representation ([`Flags`] for one-shot runs, [`EpochFlags`]
/// for reusable session workspaces).
pub trait FlagOps: Sync {
    /// Read flag `i`.
    fn get(&self, i: usize) -> bool;
    /// Set flag `i`.
    fn set(&self, i: usize);
    /// Clear flag `i`.
    fn clear(&self, i: usize);
    /// Read flag `i` with `SeqCst` ordering (termination scans).
    fn get_sync(&self, i: usize) -> bool;
    /// `SeqCst` scan: are **all** flags clear? (The LF convergence
    /// check, Alg. 2 line 31.)
    fn all_clear(&self) -> bool;
}

impl FlagOps for Flags {
    #[inline]
    fn get(&self, i: usize) -> bool {
        Flags::get(self, i)
    }
    #[inline]
    fn set(&self, i: usize) {
        Flags::set(self, i)
    }
    #[inline]
    fn clear(&self, i: usize) {
        Flags::clear(self, i)
    }
    #[inline]
    fn get_sync(&self, i: usize) -> bool {
        self.flags[i].load(Ordering::SeqCst) != 0
    }
    fn all_clear(&self) -> bool {
        Flags::all_clear(self)
    }
}

/// A flag vector whose "set" state is an epoch stamp: advancing the
/// epoch (an exclusive O(1) operation) clears every flag at once, so a
/// reusable workspace pays nothing per batch to reset `n`-sized flag
/// vectors. Within one epoch the concurrent semantics match [`Flags`]
/// (relaxed single-flag ops, `SeqCst` full scans).
#[derive(Debug)]
pub struct EpochFlags {
    stamps: Vec<AtomicU32>,
    epoch: u32,
}

impl EpochFlags {
    /// `n` flags, all clear, at epoch 1 (stamp 0 = never set).
    pub fn new(n: usize) -> Self {
        EpochFlags {
            stamps: (0..n).map(|_| AtomicU32::new(0)).collect(),
            epoch: 1,
        }
    }

    /// Number of flags.
    #[inline]
    pub fn len(&self) -> usize {
        self.stamps.len()
    }

    /// Whether the vector is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.stamps.is_empty()
    }

    /// Clear every flag in O(1) by entering a new epoch. On the (once
    /// per ~4 billion batches) wrap-around, falls back to an O(n) wipe
    /// so stale stamps can never alias a future epoch.
    pub fn advance(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            for s in &mut self.stamps {
                *s.get_mut() = 0;
            }
            self.epoch = 1;
        }
    }

    /// Set every flag (exclusive; O(n) plain stores). Used by the
    /// all-vertices modes (Static/ND), whose per-batch work is O(n)
    /// regardless.
    pub fn fill_set(&mut self) {
        let e = self.epoch;
        for s in &mut self.stamps {
            *s.get_mut() = e;
        }
    }

    /// Resize to `n` flags, all clear (only allocates when growing past
    /// the previous high-water length).
    pub fn resize(&mut self, n: usize) {
        self.stamps.resize_with(n, || AtomicU32::new(0));
        self.advance();
    }

    /// Count of set flags (`Relaxed`; diagnostic).
    pub fn count_set(&self) -> usize {
        self.stamps
            .iter()
            .filter(|s| s.load(Ordering::Relaxed) == self.epoch)
            .count()
    }
}

impl FlagOps for EpochFlags {
    #[inline]
    fn get(&self, i: usize) -> bool {
        self.stamps[i].load(Ordering::Relaxed) == self.epoch
    }
    #[inline]
    fn set(&self, i: usize) {
        self.stamps[i].store(self.epoch, Ordering::Relaxed);
    }
    #[inline]
    fn clear(&self, i: usize) {
        // 0 is never a valid epoch (see `advance`), so this always
        // reads back as clear.
        self.stamps[i].store(0, Ordering::Relaxed);
    }
    #[inline]
    fn get_sync(&self, i: usize) -> bool {
        self.stamps[i].load(Ordering::SeqCst) == self.epoch
    }
    fn all_clear(&self) -> bool {
        self.stamps
            .iter()
            .all(|s| s.load(Ordering::SeqCst) != self.epoch)
    }
}

/// Bits per bitmap word: one leaf word covers this many vertices, one
/// summary word this many leaf words.
const WORD: usize = 64;

/// A two-level atomic bitmap: the `VA` (affected) set of the DF/DT
/// lock-free variants.
///
/// Bit `v % 64` of leaf word `v / 64` marks vertex `v`; bit `w % 64` of
/// summary word `w / 64` is set once leaf word `w` holds a mark. Marking
/// sets the summary bit **before** the leaf bit, so every nonzero leaf
/// word always has its summary bit set: [`next_set`](Self::next_set)
/// skips 4096-vertex spans with one summary load and 64-vertex spans
/// with one leaf load, and [`clear`](Self::clear) visits only marked
/// words. Bits are only ever set while threads run (never cleared), so a
/// bit once observed stays observed for the rest of the run.
#[derive(Debug)]
pub struct MarkBitmap {
    len: usize,
    leaves: Vec<AtomicU64>,
    summary: Vec<AtomicU64>,
}

impl MarkBitmap {
    /// `n` clear bits.
    pub fn new(n: usize) -> Self {
        let words = n.div_ceil(WORD);
        MarkBitmap {
            len: n,
            leaves: (0..words).map(|_| AtomicU64::new(0)).collect(),
            summary: (0..words.div_ceil(WORD))
                .map(|_| AtomicU64::new(0))
                .collect(),
        }
    }

    /// Number of bits.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the bitmap has no bits.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Read bit `v`.
    #[inline]
    pub fn get(&self, v: usize) -> bool {
        debug_assert!(v < self.len);
        self.leaves[v / WORD].load(Ordering::Relaxed) & (1 << (v % WORD)) != 0
    }

    /// Set bit `v`.
    #[inline]
    pub fn set(&self, v: usize) {
        self.test_and_set(v);
    }

    /// Atomically set bit `v`, returning whether it was already set
    /// (the visited check of the Dynamic Traversal DFS).
    ///
    /// Summary bit first, then leaf bit, both as `SeqCst`
    /// read-modify-writes. Each is skipped when a load already shows the
    /// bit: another marker set it, and by read-read coherence any thread
    /// this marker later synchronizes with reads that bit too. Repeat
    /// marks of a vertex, the common case on the frontier, therefore cost
    /// two loads and no locked instruction.
    #[inline]
    pub fn test_and_set(&self, v: usize) -> bool {
        debug_assert!(v < self.len);
        let w = v / WORD;
        let s = &self.summary[w / WORD];
        let sbit = 1 << (w % WORD);
        if s.load(Ordering::Relaxed) & sbit == 0 {
            s.fetch_or(sbit, Ordering::SeqCst);
        }
        let leaf = &self.leaves[w];
        let bit = 1 << (v % WORD);
        if leaf.load(Ordering::Relaxed) & bit != 0 {
            return true;
        }
        leaf.fetch_or(bit, Ordering::SeqCst) & bit != 0
    }

    /// The first set bit in `[from, end)`, reading the live words
    /// (`Relaxed`), so a bit set ahead of a walking cursor is found when
    /// the cursor reaches it.
    #[inline]
    pub fn next_set(&self, from: usize, end: usize) -> Option<usize> {
        self.next_set_with(from, end, Ordering::Relaxed)
    }

    /// [`next_set`](Self::next_set) with `SeqCst` loads (termination
    /// scans).
    #[inline]
    pub fn next_set_sync(&self, from: usize, end: usize) -> Option<usize> {
        self.next_set_with(from, end, Ordering::SeqCst)
    }

    #[inline]
    fn next_set_with(&self, from: usize, end: usize, order: Ordering) -> Option<usize> {
        let end = end.min(self.len);
        let mut v = from;
        while v < end {
            let w = v / WORD;
            // Marked leaf words at or after `w` within w's summary word.
            let marked = self.summary[w / WORD].load(order) >> (w % WORD);
            if marked == 0 {
                v = (w / WORD + 1) * WORD * WORD;
                continue;
            }
            let skip = marked.trailing_zeros() as usize;
            if skip > 0 {
                v = (w + skip) * WORD;
                continue;
            }
            let bits = self.leaves[w].load(order) >> (v % WORD);
            if bits != 0 {
                let u = v + bits.trailing_zeros() as usize;
                return (u < end).then_some(u);
            }
            v = (w + 1) * WORD;
        }
        None
    }

    /// Every set bit, ascending (`Relaxed`; exclusive or post-run use).
    /// One load per summary word and one per marked leaf word, whose
    /// bits are then peeled off locally.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.summary.iter().enumerate().flat_map(move |(si, s)| {
            set_bits(s.load(Ordering::Relaxed)).flat_map(move |b| {
                let w = si * WORD + b;
                set_bits(self.leaves[w].load(Ordering::Relaxed)).map(move |i| w * WORD + i)
            })
        })
    }

    /// Clear every bit (exclusive). Touches only the leaf words whose
    /// summary bit is set, plus one load per 4096-bit summary word, and
    /// returns the number of leaf words it visited.
    pub fn clear(&mut self) -> usize {
        let mut visited = 0;
        for (si, s) in self.summary.iter_mut().enumerate() {
            let mut marked = std::mem::take(s.get_mut());
            while marked != 0 {
                let w = si * WORD + marked.trailing_zeros() as usize;
                *self.leaves[w].get_mut() = 0;
                visited += 1;
                marked &= marked - 1;
            }
        }
        visited
    }

    /// Resize to `n` bits, all clear (reallocates only when growing past
    /// the previous capacity).
    pub fn resize(&mut self, n: usize) {
        self.clear();
        let words = n.div_ceil(WORD);
        self.leaves.resize_with(words, || AtomicU64::new(0));
        self.summary
            .resize_with(words.div_ceil(WORD), || AtomicU64::new(0));
        self.len = n;
    }
}

/// The positions of the set bits of `word`, ascending.
fn set_bits(mut word: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (word != 0).then(|| {
            let b = word.trailing_zeros() as usize;
            word &= word - 1;
            b
        })
    })
}

/// An 8-bit shared flag vector (`VA`, `C`, `RC` in the paper).
#[derive(Debug)]
pub struct Flags {
    flags: Vec<AtomicU8>,
}

impl Flags {
    /// All flags initialized to `init` (0 or 1).
    pub fn new(n: usize, init: u8) -> Self {
        Flags {
            flags: (0..n).map(|_| AtomicU8::new(init)).collect(),
        }
    }

    /// Number of flags.
    #[inline]
    pub fn len(&self) -> usize {
        self.flags.len()
    }

    /// Whether the vector is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.flags.is_empty()
    }

    /// Read flag `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        self.flags[i].load(Ordering::Relaxed) != 0
    }

    /// Set flag `i` to 1.
    #[inline]
    pub fn set(&self, i: usize) {
        self.flags[i].store(1, Ordering::Relaxed);
    }

    /// Clear flag `i` to 0.
    #[inline]
    pub fn clear(&self, i: usize) {
        self.flags[i].store(0, Ordering::Relaxed);
    }

    /// Atomically set flag `i`, returning whether it was already set.
    /// Used as the visited check of the Dynamic Traversal DFS so
    /// concurrent traversals stay idempotent.
    #[inline]
    pub fn test_and_set(&self, i: usize) -> bool {
        self.flags[i].swap(1, Ordering::Relaxed) != 0
    }

    /// `SeqCst` scan: are **all** flags set? Used for the DFLF phase-1
    /// exit check ("C\[u\] = 1 ∀ u", Alg. 2 line 15).
    pub fn all_set(&self) -> bool {
        self.flags.iter().all(|f| f.load(Ordering::SeqCst) != 0)
    }

    /// `SeqCst` scan: are **all** flags clear? Used for the LF
    /// convergence check ("RC\[v\] = 0 ∀ v", Alg. 2 line 31).
    pub fn all_clear(&self) -> bool {
        self.flags.iter().all(|f| f.load(Ordering::SeqCst) == 0)
    }

    /// Index of the first set flag, if any (`Relaxed`; diagnostic).
    pub fn first_set(&self) -> Option<usize> {
        self.flags
            .iter()
            .position(|f| f.load(Ordering::Relaxed) != 0)
    }

    /// Count of set flags (`Relaxed`; diagnostic).
    pub fn count_set(&self) -> usize {
        self.flags
            .iter()
            .filter(|f| f.load(Ordering::Relaxed) != 0)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_and_roundtrip() {
        let r = AtomicRanks::uniform(4, 0.25);
        assert_eq!(r.len(), 4);
        assert_eq!(r.get(2), 0.25);
        assert!((r.sum() - 1.0).abs() < 1e-15);
        r.set(2, 0.5);
        assert_eq!(r.get(2), 0.5);
        assert_eq!(r.to_vec(), vec![0.25, 0.25, 0.5, 0.25]);
    }

    #[test]
    fn from_slice_preserves_bits() {
        let src = vec![1e-300, 0.0, f64::MIN_POSITIVE, 0.123456789];
        let r = AtomicRanks::from_slice(&src);
        assert_eq!(r.to_vec(), src);
    }

    #[test]
    fn concurrent_writes_never_tear() {
        // Two threads alternate writing two distinct bit patterns;
        // readers must only ever observe one of the two.
        let r = AtomicRanks::uniform(1, 1.0);
        let a = 1.0f64;
        let b = -123.456e-78f64;
        std::thread::scope(|s| {
            let r = &r;
            s.spawn(move || {
                for i in 0..100_000 {
                    r.set(0, if i % 2 == 0 { a } else { b });
                }
            });
            s.spawn(move || {
                for _ in 0..100_000 {
                    let x = r.get(0);
                    assert!(x == a || x == b, "torn read: {x}");
                }
            });
        });
    }

    #[test]
    fn flags_basics() {
        let f = Flags::new(3, 0);
        assert!(f.all_clear());
        assert!(!f.all_set());
        f.set(1);
        assert!(!f.all_clear());
        assert_eq!(f.first_set(), Some(1));
        assert_eq!(f.count_set(), 1);
        f.set(0);
        f.set(2);
        assert!(f.all_set());
        f.clear(1);
        assert!(!f.all_set());
        assert_eq!(f.count_set(), 2);
    }

    #[test]
    fn test_and_set_semantics() {
        let f = Flags::new(2, 0);
        assert!(!f.test_and_set(0), "first set reports previously-clear");
        assert!(f.test_and_set(0), "second set reports previously-set");
        assert!(f.get(0));
        assert!(!f.get(1));
    }

    #[test]
    fn flags_init_one() {
        let f = Flags::new(4, 1);
        assert!(f.all_set());
        assert_eq!(f.count_set(), 4);
    }

    #[test]
    fn fill_copy_and_plain_view() {
        let mut r = AtomicRanks::uniform(3, 0.0);
        r.fill(0.25);
        assert_eq!(r.as_f64_slice(), &[0.25, 0.25, 0.25]);
        r.copy_from_slice(&[1.0, 2.0, 3.0]);
        assert_eq!(r.as_f64_slice(), &[1.0, 2.0, 3.0]);
        // Length change falls back to reallocation.
        r.copy_from_slice(&[7.0]);
        assert_eq!(r.as_f64_slice(), &[7.0]);
    }

    #[test]
    fn epoch_flags_match_plain_flags_semantics() {
        let e = EpochFlags::new(4);
        assert!(e.all_clear() && !e.is_empty() && e.len() == 4);
        e.set(2);
        assert!(e.get(2) && !e.get(0));
        assert!(!e.all_clear());
        assert_eq!(e.count_set(), 1);
        e.set(3);
        e.clear(2);
        assert!(!e.get(2));
        assert!(e.get(3));
    }

    #[test]
    fn epoch_advance_clears_everything_in_o1() {
        let mut e = EpochFlags::new(8);
        for i in 0..8 {
            e.set(i);
        }
        e.advance();
        assert!(e.all_clear());
        assert_eq!(e.count_set(), 0);
        // Setting after the bump works against the new epoch.
        e.set(5);
        assert!(e.get(5));
        e.fill_set();
        assert!((0..8).all(|i| e.get(i)));
    }

    #[test]
    fn epoch_wraparound_cannot_resurrect_stale_stamps() {
        let mut e = EpochFlags::new(2);
        e.set(0);
        // Force the wrap: epoch u32::MAX → 0 triggers the O(n) wipe.
        e.epoch = u32::MAX;
        e.set(1);
        e.advance();
        assert_eq!(e.epoch, 1);
        assert!(!e.get(0) && !e.get(1));
    }

    #[test]
    fn flags_and_epoch_flags_share_the_trait() {
        fn drive(f: &impl FlagOps) {
            f.set(1);
            assert!(f.get(1));
            assert!(!f.all_clear());
            f.clear(1);
            assert!(f.all_clear());
        }
        drive(&Flags::new(3, 0));
        drive(&EpochFlags::new(3));
    }

    /// Every set bit by testing each index (the dense oracle).
    fn dense_marks(m: &MarkBitmap) -> Vec<usize> {
        (0..m.len()).filter(|&v| m.get(v)).collect()
    }

    #[test]
    fn mark_bitmap_next_set_crosses_leaf_and_summary_boundaries() {
        // Two full summary words plus a partial last leaf word.
        let n = 2 * 4096 + 37;
        let mut m = MarkBitmap::new(n);
        assert_eq!((m.len(), m.is_empty()), (n, false));
        assert_eq!(m.next_set(0, n), None, "empty map");
        let marks = [0, 63, 64, 127, 4095, 4096, 4097, 8191, 8192, n - 1];
        for &v in &marks {
            m.set(v);
        }
        assert_eq!(m.iter().collect::<Vec<_>>(), marks);
        assert_eq!(dense_marks(&m), marks);
        // Each successor from every start position, against the oracle.
        for from in 0..=n {
            let expect = marks.iter().copied().find(|&v| v >= from);
            assert_eq!(m.next_set(from, n), expect, "from {from}");
            assert_eq!(m.next_set_sync(from, n), expect, "from {from}");
        }
        // The end bound is exclusive, including mid-word and at 4096.
        assert_eq!(m.next_set(1, 63), None);
        assert_eq!(m.next_set(1, 64), Some(63));
        assert_eq!(m.next_set(128, 4095), None);
        assert_eq!(m.next_set(128, 4096), Some(4095));
        assert_eq!(m.next_set(4098, 8191), None);
        assert_eq!(m.next_set(8193, n), Some(n - 1));
        assert_eq!(m.next_set(8193, n - 1), None);
        // `end` past the length is clamped; `from` past it finds nothing.
        assert_eq!(m.next_set(n - 1, n + 500), Some(n - 1));
        assert_eq!(m.next_set(n + 3, n + 500), None);
        m.clear();
        assert_eq!(m.next_set(0, n), None);
        let empty = MarkBitmap::new(0);
        assert!(empty.is_empty());
        assert_eq!(empty.next_set(0, 10), None);
        assert_eq!(empty.iter().count(), 0);
    }

    #[test]
    fn mark_bitmap_clear_touches_only_marked_words() {
        let n = 3 * 4096 + 5;
        let mut m = MarkBitmap::new(n);
        assert!(!m.test_and_set(70), "first set reports previously-clear");
        assert!(m.test_and_set(70), "second set reports previously-set");
        assert!(m.get(70) && !m.get(69) && !m.get(71));
        for v in [71, 127, 5000, 5001, n - 1] {
            m.set(v);
        }
        // Marked leaf words: 70/71/127 share word 1; 5000/5001 share
        // word 78; n - 1 sits alone in the last word.
        assert_eq!(m.clear(), 3);
        assert!(dense_marks(&m).is_empty());
        assert_eq!(m.clear(), 0, "a clear map has no marked words");
        // Usable again after the clear, and resizing keeps it clear.
        m.set(4096);
        m.resize(n + 4096);
        assert_eq!(m.len(), n + 4096);
        assert!(dense_marks(&m).is_empty());
        m.set(n + 4095);
        assert_eq!(m.iter().collect::<Vec<_>>(), vec![n + 4095]);
    }

    #[test]
    fn mark_bitmap_walk_sees_a_mark_set_ahead_of_the_cursor() {
        // The engine's round loop: marks placed ahead of the cursor while
        // walking (same word, later word, later summary word) are found.
        let m = MarkBitmap::new(10_000);
        m.set(3);
        let mut seen = Vec::new();
        let mut pos = 0;
        while let Some(v) = m.next_set(pos, 10_000) {
            seen.push(v);
            if v == 3 {
                m.set(9);
                m.set(700);
                m.set(2); // behind the cursor: not this walk's business
            }
            if v == 700 {
                m.set(9_999);
            }
            pos = v + 1;
        }
        assert_eq!(seen, vec![3, 9, 700, 9_999]);
    }

    #[test]
    fn mark_bitmap_concurrent_marks_are_all_seen() {
        // Four threads mark overlapping vertex sets; a walk after they
        // join sees the union, and each vertex reads fresh exactly once.
        let n = 50_000;
        let marks = |t: usize, v: usize| v % 5 == t || v % 7 == t + 1;
        let m = MarkBitmap::new(n);
        let fresh = AtomicU64::new(0);
        std::thread::scope(|s| {
            for t in 0..4 {
                let (m, fresh) = (&m, &fresh);
                s.spawn(move || {
                    for v in (0..n).filter(|&v| marks(t, v)) {
                        if !m.test_and_set(v) {
                            fresh.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        let expect: Vec<usize> = (0..n).filter(|&v| (0..4).any(|t| marks(t, v))).collect();
        assert_eq!(m.iter().collect::<Vec<_>>(), expect);
        assert_eq!(fresh.load(Ordering::Relaxed) as usize, expect.len());
    }

    #[test]
    fn empty_vectors() {
        let r = AtomicRanks::uniform(0, 0.0);
        assert!(r.is_empty());
        let f = Flags::new(0, 0);
        assert!(f.is_empty());
        assert!(f.all_set() && f.all_clear()); // vacuous truth
        assert_eq!(f.first_set(), None);
    }
}
