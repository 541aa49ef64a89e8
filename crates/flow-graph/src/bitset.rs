//! A compact fixed-capacity bitset.
//!
//! [`BitSet`] backs two hot data structures in the workspace:
//!
//! * **pseudo-states** — one bit per edge of an ICM (`flow-icm`), flipped
//!   millions of times by the Metropolis–Hastings chain; and
//! * **characteristics** — one bit per candidate parent of a sink node in
//!   the unattributed-evidence summaries (`flow-learn`), used as hash-map
//!   keys.
//!
//! It therefore implements `Hash`/`Eq` on the *logical* contents (trailing
//! words are kept normalized) and provides cheap iteration over set bits.

/// A fixed-capacity set of `usize` indices packed into 64-bit words.
///
/// Capacity is fixed at construction; indices `>= len()` are out of
/// bounds and panic in debug builds.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct BitSet {
    words: Vec<u64>,
    len: usize,
}

const WORD_BITS: usize = 64;

impl BitSet {
    /// Creates an empty bitset with capacity for `len` bits, all zero.
    pub fn new(len: usize) -> Self {
        BitSet {
            words: vec![0; len.div_ceil(WORD_BITS)],
            len,
        }
    }

    /// Builds a bitset from an iterator of set indices.
    pub fn from_indices<I: IntoIterator<Item = usize>>(len: usize, indices: I) -> Self {
        let mut s = Self::new(len);
        for i in indices {
            s.set(i, true);
        }
        s
    }

    /// Number of bits (capacity), not the number of set bits.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the capacity is zero bits.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Returns bit `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len, "bit index {i} out of range {}", self.len);
        (self.words[i / WORD_BITS] >> (i % WORD_BITS)) & 1 == 1
    }

    /// Sets bit `i` to `value`.
    #[inline]
    pub fn set(&mut self, i: usize, value: bool) {
        debug_assert!(i < self.len, "bit index {i} out of range {}", self.len);
        let w = &mut self.words[i / WORD_BITS];
        let mask = 1u64 << (i % WORD_BITS);
        if value {
            *w |= mask;
        } else {
            *w &= !mask;
        }
    }

    /// Flips bit `i` and returns its new value.
    #[inline]
    pub fn flip(&mut self, i: usize) -> bool {
        debug_assert!(i < self.len, "bit index {i} out of range {}", self.len);
        let w = &mut self.words[i / WORD_BITS];
        let mask = 1u64 << (i % WORD_BITS);
        *w ^= mask;
        *w & mask != 0
    }

    /// Clears all bits.
    pub fn clear(&mut self) {
        for w in &mut self.words {
            *w = 0;
        }
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True if no bit is set.
    pub fn none(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// In-place union with `other` (requires equal capacity).
    pub fn union_with(&mut self, other: &BitSet) {
        assert_eq!(self.len, other.len, "capacity mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// Iterates over the indices of set bits in ascending order.
    pub fn iter_ones(&self) -> Ones<'_> {
        Ones {
            set: self,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }

    /// Interprets the lowest `len` bits as an unsigned integer
    /// (bit 0 = least significant). Panics if `len > 64`.
    ///
    /// Used to enumerate all pseudo-states of small models in tests and
    /// in the brute-force evaluator.
    pub fn as_u64(&self) -> u64 {
        assert!(self.len <= 64, "bitset too large for u64");
        self.words.first().copied().unwrap_or(0)
    }

    /// Builds a bitset of capacity `len <= 64` from the low bits of `v`.
    pub fn from_u64(len: usize, v: u64) -> Self {
        assert!(len <= 64, "bitset too large for u64");
        let mut s = Self::new(len);
        if !s.words.is_empty() {
            s.words[0] = v;
        }
        s.mask_tail();
        s
    }

    fn mask_tail(&mut self) {
        let tail = self.len % WORD_BITS;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }
}

impl std::fmt::Debug for BitSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "BitSet[{}]{{", self.len)?;
        let mut first = true;
        for i in self.iter_ones() {
            if !first {
                write!(f, ",")?;
            }
            write!(f, "{i}")?;
            first = false;
        }
        write!(f, "}}")
    }
}

/// Iterator over set-bit indices of a [`BitSet`].
pub struct Ones<'a> {
    set: &'a BitSet,
    word_idx: usize,
    current: u64,
}

impl Iterator for Ones<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                return Some(self.word_idx * WORD_BITS + bit);
            }
            self.word_idx += 1;
            if self.word_idx >= self.set.words.len() {
                return None;
            }
            self.current = self.set.words[self.word_idx];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_is_all_zero() {
        let s = BitSet::new(130);
        assert_eq!(s.len(), 130);
        assert_eq!(s.count_ones(), 0);
        assert!(s.none());
        for i in 0..130 {
            assert!(!s.get(i));
        }
    }

    #[test]
    fn set_get_flip_roundtrip() {
        let mut s = BitSet::new(100);
        s.set(0, true);
        s.set(63, true);
        s.set(64, true);
        s.set(99, true);
        assert!(s.get(0) && s.get(63) && s.get(64) && s.get(99));
        assert_eq!(s.count_ones(), 4);
        assert!(!s.flip(0));
        assert!(!s.get(0));
        assert!(s.flip(1));
        assert!(s.get(1));
        assert_eq!(s.count_ones(), 4);
    }

    #[test]
    fn iter_ones_ascending() {
        let s = BitSet::from_indices(200, [5, 0, 199, 64, 63, 128]);
        let got: Vec<usize> = s.iter_ones().collect();
        assert_eq!(got, vec![0, 5, 63, 64, 128, 199]);
    }

    #[test]
    fn union_with_merges_bits() {
        let a = BitSet::from_indices(80, [1, 2, 70]);
        let b = BitSet::from_indices(80, [1, 2, 3, 70]);
        let mut c = a.clone();
        c.union_with(&b);
        assert_eq!(c, b);
    }

    #[test]
    fn u64_roundtrip() {
        let s = BitSet::from_u64(10, 0b1010110101);
        assert_eq!(s.as_u64(), 0b1010110101);
        assert_eq!(s.count_ones(), 6);
        // Out-of-range bits are masked off.
        let t = BitSet::from_u64(4, 0xFF);
        assert_eq!(t.as_u64(), 0xF);
    }

    #[test]
    fn hash_eq_ignores_capacity_only_content() {
        use std::collections::HashSet;
        let a = BitSet::from_indices(66, [1, 65]);
        let b = BitSet::from_indices(66, [1, 65]);
        let mut set = HashSet::new();
        set.insert(a);
        assert!(set.contains(&b));
    }

    #[test]
    fn clear_resets() {
        let mut s = BitSet::from_indices(129, 0..129);
        s.clear();
        assert!(s.none());
        assert_eq!(s.len(), 129);
    }
}
