//! Fixed-capacity bitsets for tuple coverage bookkeeping.
//!
//! The Max-Avg objective (paper Def. 4.1) is the average value of the *union*
//! of tuples covered by the chosen clusters, so the greedy algorithms need a
//! fast "is tuple `t` already covered?" probe and fast union bookkeeping.
//! A flat `Vec<u64>` bitset indexed by dense tuple id is the right shape:
//! the answer relation of an aggregate query rarely exceeds a few tens of
//! thousands of rows (paper §7.4: N = 47,361 for TPC-DS).
//!
//! Besides the per-bit primitives, this module provides *fused word-level
//! kernels* ([`FixedBitSet::difference_count_sum`],
//! [`FixedBitSet::union_count_sum`]) that walk 64 tuples per word and only
//! touch the score array for surviving bits. These are the inner loops of
//! the greedy `UpdateSolution` step; per-bit bounds checks are demoted to
//! `debug_assert!` here (a checked [`FixedBitSet::get`] remains for callers
//! that want the safe probe).

/// A fixed-capacity bitset over `0..len`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FixedBitSet {
    words: Vec<u64>,
    len: usize,
    ones: usize,
}

impl FixedBitSet {
    /// Create an all-zero bitset of capacity `len`.
    pub fn new(len: usize) -> Self {
        FixedBitSet {
            words: vec![0; len.div_ceil(64)],
            len,
            ones: 0,
        }
    }

    /// Create a bitset of capacity `len` with exactly the bits in `ids` set.
    ///
    /// # Panics
    ///
    /// Panics if any id is `>= len` (via [`FixedBitSet::insert`]'s bounds
    /// assert, in release builds too); duplicate ids are tolerated.
    pub fn from_ids(len: usize, ids: impl IntoIterator<Item = usize>) -> Self {
        let mut b = FixedBitSet::new(len);
        for i in ids {
            b.insert(i);
        }
        b
    }

    /// Reassemble a bitset from its capacity and backing words — the
    /// deserialization inverse of [`FixedBitSet::as_words`]. Validates the
    /// word count and the padding-bits-zero invariant the fused kernels
    /// depend on; a malformed input is a typed error, never a panic,
    /// because the words may come from an untrusted store file.
    ///
    /// # Errors
    ///
    /// Returns [`QagError::Store`](crate::error::QagError::Store) with
    /// [`StoreErrorKind::Corrupt`](crate::error::StoreErrorKind::Corrupt)
    /// if the word count does not match `len` or a bit past `len` is set.
    pub fn from_words(len: usize, words: Vec<u64>) -> crate::Result<Self> {
        use crate::error::{QagError, StoreErrorKind};
        if words.len() != len.div_ceil(64) {
            return Err(QagError::store(
                StoreErrorKind::Corrupt,
                format!(
                    "bitset of capacity {len} needs {} words, got {}",
                    len.div_ceil(64),
                    words.len()
                ),
            ));
        }
        if !len.is_multiple_of(64) {
            if let Some(&last) = words.last() {
                if last >> (len % 64) != 0 {
                    return Err(QagError::store(
                        StoreErrorKind::Corrupt,
                        format!("bitset of capacity {len} has padding bits set"),
                    ));
                }
            }
        }
        let ones = words.iter().map(|w| w.count_ones() as usize).sum();
        Ok(FixedBitSet { words, len, ones })
    }

    /// Capacity (number of addressable bits).
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the capacity is zero.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of set bits.
    #[inline]
    pub fn count_ones(&self) -> usize {
        self.ones
    }

    /// The backing `u64` words (bit `i` lives in word `i / 64`).
    #[inline]
    pub fn as_words(&self) -> &[u64] {
        &self.words
    }

    /// Test bit `i`.
    ///
    /// Bounds are `debug_assert!`-checked only: this probe sits in the
    /// innermost greedy loops, where the index is a tuple id already
    /// validated against the answer relation. Release builds with an
    /// out-of-range `i` panic on the word access (never undefined
    /// behaviour) or, when `len` is not a multiple of 64, may read a
    /// padding bit. Use [`FixedBitSet::get`] for a checked probe.
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        debug_assert!(i < self.len, "bit index {i} out of range 0..{}", self.len);
        self.words[i / 64] >> (i % 64) & 1 == 1
    }

    /// Checked probe: `Some(bit)` for `i < len`, `None` otherwise.
    #[inline]
    pub fn get(&self, i: usize) -> Option<bool> {
        if i < self.len {
            Some(self.words[i / 64] >> (i % 64) & 1 == 1)
        } else {
            None
        }
    }

    /// Set bit `i`, returning whether it was newly set.
    ///
    /// Unlike the read probe [`FixedBitSet::contains`], the mutators keep
    /// their full bounds `assert!` in release builds: an unchecked
    /// out-of-range write would silently set a padding bit, corrupting
    /// `count_ones` and the padding-bits-zero invariant the fused kernels
    /// depend on. The predictable branch is noise next to the word write.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    #[inline]
    pub fn insert(&mut self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of range 0..{}", self.len);
        let word = &mut self.words[i / 64];
        let mask = 1u64 << (i % 64);
        let newly = *word & mask == 0;
        *word |= mask;
        self.ones += usize::from(newly);
        newly
    }

    /// Clear bit `i`, returning whether it was previously set.
    ///
    /// Keeps the full bounds `assert!` for the same invariant-protection
    /// reason as [`FixedBitSet::insert`].
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    #[inline]
    pub fn remove(&mut self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of range 0..{}", self.len);
        let word = &mut self.words[i / 64];
        let mask = 1u64 << (i % 64);
        let was = *word & mask != 0;
        *word &= !mask;
        self.ones -= usize::from(was);
        was
    }

    /// Clear all bits, keeping the capacity.
    pub fn clear(&mut self) {
        self.words.fill(0);
        self.ones = 0;
    }

    /// Overwrite word `wi` wholesale, maintaining the ones count.
    ///
    /// This is the mask-building primitive of the working set's
    /// coverage-diff extraction: the word-level absorb loop already
    /// computes each diff word as `cov & !covered`, and stores it here
    /// without re-touching individual bits. The caller must not set
    /// padding bits past `len` (debug-asserted); words derived by masking
    /// existing valid bitsets satisfy this by construction.
    ///
    /// # Panics
    ///
    /// Panics if `wi` is out of range.
    #[inline]
    pub fn set_word(&mut self, wi: usize, word: u64) {
        debug_assert!(
            wi + 1 < self.words.len()
                || self.len.is_multiple_of(64)
                || word >> (self.len % 64) == 0,
            "set_word would set padding bits"
        );
        let old = self.words[wi];
        self.words[wi] = word;
        self.ones = self.ones + word.count_ones() as usize - old.count_ones() as usize;
    }

    /// In-place union with `other`, one `u64` word at a time.
    ///
    /// # Panics
    ///
    /// Panics if the capacities differ.
    pub fn union_with(&mut self, other: &FixedBitSet) {
        assert_eq!(self.len, other.len, "bitset capacity mismatch");
        let mut ones = 0;
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= *b;
            ones += a.count_ones() as usize;
        }
        self.ones = ones;
    }

    /// Fused kernel: `(Σ vals[i], count)` over the bits of `self \ other`.
    ///
    /// This is the §6.3 marginal-benefit computation `cov(c) \ T` done
    /// word-parallel: each 64-tuple word is masked in one `AND`/`ANDNOT`,
    /// counted with `popcount`, and `vals` is only read for surviving bits
    /// (in ascending bit order, so float accumulation order matches the
    /// per-tuple loop exactly — byte-identical results).
    ///
    /// # Panics
    ///
    /// Panics if the capacities differ or `vals` is shorter than `len`.
    pub fn difference_count_sum(&self, other: &FixedBitSet, vals: &[f64]) -> (f64, u32) {
        assert_eq!(self.len, other.len, "bitset capacity mismatch");
        assert!(vals.len() >= self.len, "vals shorter than bitset capacity");
        let mut sum = 0.0;
        let mut cnt = 0u32;
        let mut extract = |wi: usize, mut w: u64| {
            if w == 0 {
                return;
            }
            cnt += w.count_ones();
            while w != 0 {
                sum += vals[wi * 64 + w.trailing_zeros() as usize];
                w &= w - 1;
            }
        };
        // Zero words (the common case once coverage is high) are skipped
        // four at a time with one branch: no popcount, no extraction.
        let (a4, a_rest) = self.words.as_chunks::<4>();
        let (b4, b_rest) = other.words.as_chunks::<4>();
        for (bi, (a, b)) in a4.iter().zip(b4).enumerate() {
            let w = [a[0] & !b[0], a[1] & !b[1], a[2] & !b[2], a[3] & !b[3]];
            if w[0] | w[1] | w[2] | w[3] != 0 {
                for (j, &w) in w.iter().enumerate() {
                    extract(bi * 4 + j, w);
                }
            }
        }
        for (j, (&a, &b)) in a_rest.iter().zip(b_rest).enumerate() {
            extract(a4.len() * 4 + j, a & !b);
        }
        (sum, cnt)
    }

    /// Fused kernel: `(Σ vals[i], count)` over the bits of `self ∪ other`.
    ///
    /// Word-parallel like [`FixedBitSet::difference_count_sum`]. No greedy
    /// path calls it yet — the marginal formulation is cheaper there — but
    /// it is the one-pass post-merge Max-Avg evaluation primitive the
    /// precompute-store work (see ROADMAP) needs, and it is held to the
    /// same byte-identical contract by the kernel property suite.
    ///
    /// # Panics
    ///
    /// Panics if the capacities differ or `vals` is shorter than `len`.
    pub fn union_count_sum(&self, other: &FixedBitSet, vals: &[f64]) -> (f64, u32) {
        assert_eq!(self.len, other.len, "bitset capacity mismatch");
        assert!(vals.len() >= self.len, "vals shorter than bitset capacity");
        let mut sum = 0.0;
        let mut cnt = 0u32;
        for (wi, (&a, &b)) in self.words.iter().zip(&other.words).enumerate() {
            let mut w = a | b;
            if w != 0 {
                cnt += w.count_ones();
                while w != 0 {
                    let i = wi * 64 + w.trailing_zeros() as usize;
                    sum += vals[i];
                    w &= w - 1;
                }
            }
        }
        (sum, cnt)
    }

    /// Count how many indices in the sorted slice `ids` are *not* set.
    ///
    /// This is the hot probe of the naive `UpdateSolution` path: computing
    /// `|cov(c) \ T_i|` for a candidate cluster `c` against the current
    /// coverage `T_i`. Every id must be `< len` — bounds are
    /// `debug_assert!`-checked only (see [`FixedBitSet::contains`]); use
    /// [`FixedBitSet::get`] if the ids are unvalidated.
    pub fn count_missing(&self, ids: &[u32]) -> usize {
        ids.iter().filter(|&&i| !self.contains(i as usize)).count()
    }

    /// Iterate over the set bits in increasing order.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut bits = w;
            std::iter::from_fn(move || {
                if bits == 0 {
                    None
                } else {
                    let tz = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    Some(wi * 64 + tz)
                }
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut b = FixedBitSet::new(130);
        assert!(!b.contains(0));
        assert!(b.insert(0));
        assert!(!b.insert(0));
        assert!(b.insert(64));
        assert!(b.insert(129));
        assert!(b.contains(0) && b.contains(64) && b.contains(129));
        assert_eq!(b.count_ones(), 3);
        assert!(b.remove(64));
        assert!(!b.remove(64));
        assert_eq!(b.count_ones(), 2);
    }

    #[test]
    fn get_is_checked() {
        let mut b = FixedBitSet::new(10);
        b.insert(3);
        assert_eq!(b.get(3), Some(true));
        assert_eq!(b.get(4), Some(false));
        assert_eq!(b.get(10), None);
        assert_eq!(b.get(usize::MAX), None);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "out of range")]
    fn contains_out_of_range_panics_in_debug() {
        let b = FixedBitSet::new(10);
        let _ = b.contains(10);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn insert_out_of_range_panics_even_in_release() {
        let mut b = FixedBitSet::new(10);
        let _ = b.insert(10);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn remove_out_of_range_panics_even_in_release() {
        let mut b = FixedBitSet::new(10);
        let _ = b.remove(10);
    }

    #[test]
    fn from_words_validates_shape_and_padding() {
        // Round trip through the raw words.
        let bits = FixedBitSet::from_ids(130, [0usize, 63, 64, 129]);
        let back = FixedBitSet::from_words(130, bits.as_words().to_vec()).unwrap();
        assert_eq!(back, bits);
        assert_eq!(back.count_ones(), 4);
        // Wrong word count.
        assert!(FixedBitSet::from_words(130, vec![0; 2]).is_err());
        // Padding bit set past len.
        assert!(FixedBitSet::from_words(10, vec![1 << 11]).is_err());
        // Exactly at a word boundary: no padding to validate.
        assert!(FixedBitSet::from_words(64, vec![u64::MAX]).is_ok());
    }

    #[test]
    fn from_ids_round_trips() {
        let b = FixedBitSet::from_ids(100, [5usize, 63, 64, 99]);
        assert_eq!(b.count_ones(), 4);
        assert_eq!(b.iter_ones().collect::<Vec<_>>(), vec![5, 63, 64, 99]);
    }

    #[test]
    fn union_recounts() {
        let mut a = FixedBitSet::new(100);
        let mut b = FixedBitSet::new(100);
        a.insert(1);
        a.insert(50);
        b.insert(50);
        b.insert(99);
        a.union_with(&b);
        assert_eq!(a.count_ones(), 3);
        assert!(a.contains(1) && a.contains(50) && a.contains(99));
    }

    #[test]
    #[should_panic(expected = "capacity mismatch")]
    fn union_capacity_mismatch_panics() {
        let mut a = FixedBitSet::new(10);
        let b = FixedBitSet::new(11);
        a.union_with(&b);
    }

    #[test]
    fn difference_count_sum_matches_per_bit_loop() {
        let vals: Vec<f64> = (0..130).map(|i| i as f64 * 0.5).collect();
        let a = FixedBitSet::from_ids(130, [0usize, 5, 63, 64, 65, 100, 129]);
        let b = FixedBitSet::from_ids(130, [5usize, 64, 100]);
        let (sum, cnt) = a.difference_count_sum(&b, &vals);
        let expect: f64 = [0usize, 63, 65, 129].iter().map(|&i| vals[i]).sum();
        assert_eq!(cnt, 4);
        assert_eq!(sum, expect);
    }

    #[test]
    fn union_count_sum_matches_per_bit_loop() {
        let vals: Vec<f64> = (0..70).map(|i| (i as f64).sqrt()).collect();
        let a = FixedBitSet::from_ids(70, [1usize, 64]);
        let b = FixedBitSet::from_ids(70, [1usize, 2, 69]);
        let (sum, cnt) = a.union_count_sum(&b, &vals);
        let expect: f64 = [1usize, 2, 64, 69].iter().map(|&i| vals[i]).sum();
        assert_eq!(cnt, 4);
        assert_eq!(sum, expect);
    }

    #[test]
    fn fused_kernels_on_zero_capacity() {
        let a = FixedBitSet::new(0);
        let b = FixedBitSet::new(0);
        assert_eq!(a.difference_count_sum(&b, &[]), (0.0, 0));
        assert_eq!(a.union_count_sum(&b, &[]), (0.0, 0));
    }

    #[test]
    fn count_missing_matches_linear_check() {
        let mut b = FixedBitSet::new(32);
        for i in [3usize, 5, 8, 21] {
            b.insert(i);
        }
        assert_eq!(b.count_missing(&[1, 3, 5, 7, 21, 31]), 3); // 1, 7, 31
        assert_eq!(b.count_missing(&[]), 0);
        assert_eq!(b.count_missing(&[3, 5, 8, 21]), 0);
    }

    #[test]
    fn iter_ones_in_order() {
        let mut b = FixedBitSet::new(200);
        let expected = [0usize, 63, 64, 65, 127, 128, 199];
        for &i in &expected {
            b.insert(i);
        }
        let got: Vec<usize> = b.iter_ones().collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn clear_resets() {
        let mut b = FixedBitSet::new(70);
        b.insert(69);
        b.clear();
        assert_eq!(b.count_ones(), 0);
        assert!(!b.contains(69));
        assert_eq!(b.len(), 70);
    }

    #[test]
    fn zero_capacity_set() {
        let b = FixedBitSet::new(0);
        assert!(b.is_empty());
        assert_eq!(b.iter_ones().count(), 0);
    }
}
