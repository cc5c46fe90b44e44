//! Label counts `L_G : Λ → ℕ` and the paper's cutoff operator.

use crate::{Alphabet, Label};
use std::fmt;
use std::ops::{Add, Mul};

/// The label count of a graph: a multiset over Λ (`L_G` in the paper).
///
/// Supports the operations the paper's limitation lemmas are phrased in:
/// the cutoff `⌈L⌉_K` ([`LabelCount::cutoff`], Section 2), scalar
/// multiplication `λ·L` (Corollary 3.3), and pointwise addition.
///
/// # Example
///
/// ```
/// use wam_graph::{Alphabet, LabelCount};
/// let ab = Alphabet::new(["a", "b"]);
/// let l = LabelCount::from_pairs(&ab, [("a", 5), ("b", 1)]);
/// assert_eq!(l.cutoff(2), LabelCount::from_pairs(&ab, [("a", 2), ("b", 1)]));
/// assert_eq!((l.clone() * 3).total(), 18);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LabelCount {
    counts: Vec<u64>,
}

impl LabelCount {
    /// The zero multiset over an alphabet of `|ab|` labels.
    pub fn zero(ab: &Alphabet) -> Self {
        LabelCount {
            counts: vec![0; ab.len()],
        }
    }

    /// Builds a count from raw per-label values, in alphabet order.
    pub fn from_vec(counts: Vec<u64>) -> Self {
        LabelCount { counts }
    }

    /// Builds a count from `(name, count)` pairs; unmentioned labels get 0.
    ///
    /// # Panics
    ///
    /// Panics if a name is not in the alphabet.
    pub fn from_pairs<'a, I>(ab: &Alphabet, pairs: I) -> Self
    where
        I: IntoIterator<Item = (&'a str, u64)>,
    {
        let mut c = Self::zero(ab);
        for (name, n) in pairs {
            let l = ab
                .label(name)
                .unwrap_or_else(|| panic!("label {name:?} not in alphabet"));
            c.counts[l.index()] = n;
        }
        c
    }

    /// Number of labels |Λ| this count ranges over.
    pub fn arity(&self) -> usize {
        self.counts.len()
    }

    /// The count of one label.
    pub fn get(&self, label: Label) -> u64 {
        self.counts.get(label.index()).copied().unwrap_or(0)
    }

    /// Sets the count of one label.
    ///
    /// # Panics
    ///
    /// Panics if `label` is out of range.
    pub fn set(&mut self, label: Label, n: u64) {
        self.counts[label.index()] = n;
    }

    /// Increments the count of one label.
    ///
    /// # Panics
    ///
    /// Panics if `label` is out of range.
    pub fn increment(&mut self, label: Label) {
        self.counts[label.index()] += 1;
    }

    /// Total number of nodes `Σ_ℓ L(ℓ)`.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// The paper's cutoff `⌈L⌉_K`: every component larger than `K` is replaced
    /// by `K`.
    pub fn cutoff(&self, k: u64) -> LabelCount {
        LabelCount {
            counts: self.counts.iter().map(|&c| c.min(k)).collect(),
        }
    }

    /// The support: labels with nonzero count.
    pub fn support(&self) -> impl Iterator<Item = Label> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, _)| Label(i as u16))
    }

    /// Raw per-label values in alphabet order.
    pub fn as_slice(&self) -> &[u64] {
        &self.counts
    }

    /// Pointwise ≤ comparison.
    pub fn le_pointwise(&self, other: &LabelCount) -> bool {
        self.counts.len() == other.counts.len()
            && self.counts.iter().zip(&other.counts).all(|(a, b)| a <= b)
    }

    /// Enumerates every count with the given arity whose components are all
    /// `≤ max`. Useful for verifying predicate properties over a box.
    pub fn enumerate_box(arity: usize, max: u64) -> Vec<LabelCount> {
        let mut out = Vec::new();
        let mut cur = vec![0u64; arity];
        loop {
            out.push(LabelCount::from_vec(cur.clone()));
            let mut i = 0;
            loop {
                if i == arity {
                    return out;
                }
                if cur[i] < max {
                    cur[i] += 1;
                    cur[..i].iter_mut().for_each(|c| *c = 0);
                    break;
                }
                i += 1;
            }
        }
    }
}

impl Add for LabelCount {
    type Output = LabelCount;

    fn add(self, rhs: LabelCount) -> LabelCount {
        assert_eq!(self.arity(), rhs.arity(), "arity mismatch");
        LabelCount {
            counts: self
                .counts
                .iter()
                .zip(&rhs.counts)
                .map(|(a, b)| a + b)
                .collect(),
        }
    }
}

impl Mul<u64> for LabelCount {
    type Output = LabelCount;

    /// Scalar multiplication `λ·L` (Corollary 3.3).
    fn mul(self, rhs: u64) -> LabelCount {
        LabelCount {
            counts: self.counts.iter().map(|c| c * rhs).collect(),
        }
    }
}

impl fmt::Display for LabelCount {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, c) in self.counts.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ab() -> Alphabet {
        Alphabet::new(["a", "b", "c"])
    }

    #[test]
    fn cutoff_caps_components() {
        let l = LabelCount::from_pairs(&ab(), [("a", 7), ("b", 2), ("c", 0)]);
        assert_eq!(l.cutoff(3).as_slice(), &[3, 2, 0]);
        assert_eq!(l.cutoff(0).as_slice(), &[0, 0, 0]);
    }

    #[test]
    fn cutoff_is_idempotent() {
        let l = LabelCount::from_vec(vec![9, 4, 1]);
        assert_eq!(l.cutoff(3).cutoff(3), l.cutoff(3));
    }

    #[test]
    fn scalar_and_cutoff_interaction() {
        // ⌈λ·L⌉_λ = λ·⌈L⌉_1, the identity used in Proposition C.3.
        let l = LabelCount::from_vec(vec![5, 0, 2]);
        let lam = 4u64;
        assert_eq!((l.clone() * lam).cutoff(lam), l.cutoff(1) * lam);
    }

    #[test]
    fn total_and_support() {
        let l = LabelCount::from_vec(vec![2, 0, 3]);
        assert_eq!(l.total(), 5);
        let sup: Vec<_> = l.support().collect();
        assert_eq!(sup, vec![Label(0), Label(2)]);
    }

    #[test]
    fn pointwise_order() {
        let a = LabelCount::from_vec(vec![1, 2]);
        let b = LabelCount::from_vec(vec![2, 2]);
        assert!(a.le_pointwise(&b));
        assert!(!b.le_pointwise(&a));
    }

    #[test]
    fn enumerate_box_counts() {
        let all = LabelCount::enumerate_box(2, 2);
        assert_eq!(all.len(), 9);
        assert!(all.contains(&LabelCount::from_vec(vec![2, 1])));
    }

    #[test]
    fn addition_pointwise() {
        let a = LabelCount::from_vec(vec![1, 2]);
        let b = LabelCount::from_vec(vec![3, 4]);
        assert_eq!((a + b).as_slice(), &[4, 6]);
    }
}
