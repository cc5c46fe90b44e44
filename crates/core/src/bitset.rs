//! A dense fixed-capacity bitset used by the `Pre*` fixpoint machinery.
//!
//! The exact deciders run backward-reachability fixpoints over
//! configuration graphs with up to millions of nodes; representing the
//! "in set" flags one bit per configuration (instead of one `bool`, let
//! alone a `HashSet`) keeps those fixpoints cache-resident.

/// A fixed-length bitset backed by `u64` words.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitSet {
    words: Vec<u64>,
    len: usize,
}

impl BitSet {
    /// An all-zero bitset of `len` bits.
    pub fn new(len: usize) -> Self {
        BitSet {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Builds a bitset from per-element flags.
    pub fn from_bools(flags: &[bool]) -> Self {
        let mut set = BitSet::new(flags.len());
        for (i, &b) in flags.iter().enumerate() {
            if b {
                set.insert(i);
            }
        }
        set
    }

    /// Number of bits.
    #[allow(dead_code)] // part of the container API; used by tests
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the bitset has zero bits of capacity.
    #[allow(dead_code)] // part of the container API; used by tests
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether bit `i` is set.
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Sets bit `i`; returns whether it was newly set.
    #[inline]
    pub fn insert(&mut self, i: usize) -> bool {
        debug_assert!(i < self.len);
        let word = &mut self.words[i / 64];
        let mask = 1u64 << (i % 64);
        let fresh = *word & mask == 0;
        *word |= mask;
        fresh
    }

    /// Number of set bits.
    #[allow(dead_code)] // part of the container API; used by tests
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether any bit is set.
    pub fn any(&self) -> bool {
        self.words.iter().any(|&w| w != 0)
    }

    /// Indices of set bits, ascending.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut w = w;
            std::iter::from_fn(move || {
                if w == 0 {
                    None
                } else {
                    let bit = w.trailing_zeros() as usize;
                    w &= w - 1;
                    Some(wi * 64 + bit)
                }
            })
        })
    }

    /// Per-element flags (for the slice-of-`bool` public APIs).
    pub fn to_bools(&self) -> Vec<bool> {
        (0..self.len).map(|i| self.contains(i)).collect()
    }

    /// Flips every bit in place.
    pub fn negate(&mut self) {
        for w in &mut self.words {
            *w = !*w;
        }
        // Clear the tail beyond `len`.
        let tail = self.len % 64;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_count() {
        let mut s = BitSet::new(130);
        assert!(!s.contains(0) && !s.contains(129));
        assert!(s.insert(129));
        assert!(!s.insert(129));
        assert!(s.insert(0));
        assert!(s.insert(64));
        assert_eq!(s.count_ones(), 3);
        assert!(s.any());
        assert_eq!(s.iter_ones().collect::<Vec<_>>(), vec![0, 64, 129]);
    }

    #[test]
    fn from_bools_round_trips() {
        let flags: Vec<bool> = (0..70).map(|i| i % 3 == 0).collect();
        let s = BitSet::from_bools(&flags);
        assert_eq!(s.to_bools(), flags);
        assert_eq!(s.count_ones(), flags.iter().filter(|&&b| b).count());
    }

    #[test]
    fn negate_respects_length() {
        let mut s = BitSet::new(67);
        s.insert(3);
        s.negate();
        assert!(!s.contains(3));
        assert_eq!(s.count_ones(), 66);
        s.negate();
        assert_eq!(s.iter_ones().collect::<Vec<_>>(), vec![3]);
    }

    #[test]
    fn empty_bitset() {
        let s = BitSet::new(0);
        assert!(s.is_empty());
        assert!(!s.any());
        assert_eq!(s.iter_ones().count(), 0);
    }
}
