//! Cutoff properties on arbitrary graphs (Lemma C.5 / Proposition C.6):
//! dAF machines with weak broadcasts that compute `⌈L_G⌉_K` and evaluate an
//! arbitrary predicate of it.
//!
//! The construction generalises the paper's `⟨level⟩` ladder: for each label
//! `ℓ` the agents carrying `ℓ` climb a ladder `1..K`; a broadcast by an agent
//! at level `v` bumps every *other* agent on the same rung to `v + 1`, so
//! rung `v` is occupied iff at least `v` agents carry `ℓ` (the initiator
//! stays behind, preserving the paper's occupancy invariant). Broadcasts
//! also disseminate the best level reached per label, so every agent
//! maintains an estimate vector that converges to `⌈L_G⌉_K` and evaluates
//! the predicate locally.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Deref, DerefMut};
use std::sync::Arc;
use wam_core::{Machine, Output};
use wam_extensions::{BroadcastMachine, ResponseFn};
use wam_graph::Label;

/// Maximum alphabet size the ladder machines support (the estimate
/// vector is stored inline in [`Est`]).
pub const MAX_ARITY: usize = 8;

/// A per-label rung vector of at most [`MAX_ARITY`] entries, stored
/// inline so that a [`CutoffState`] owns no heap memory and cloning one
/// is a copy.
///
/// It dereferences to the `[u8]` of its entries, and equality, order,
/// hashing and `Debug` all go through that slice, so it compares, hashes
/// and prints like a `Vec<u8>` of the same entries: the broadcast
/// compiler's tie-breaking and the certificate state tables depend on
/// both.
#[derive(Clone, Copy)]
pub struct Est {
    len: u8,
    lanes: [u8; MAX_ARITY],
}

impl Est {
    /// `arity` zero entries.
    ///
    /// # Panics
    ///
    /// Panics if `arity > MAX_ARITY`.
    pub fn zeros(arity: usize) -> Self {
        assert!(arity <= MAX_ARITY, "at most {MAX_ARITY} labels supported");
        Est {
            len: arity as u8,
            lanes: [0; MAX_ARITY],
        }
    }
}

impl Deref for Est {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.lanes[..self.len as usize]
    }
}

impl DerefMut for Est {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.lanes[..self.len as usize]
    }
}

impl PartialEq for Est {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for Est {}

impl PartialOrd for Est {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Est {
    fn cmp(&self, other: &Self) -> Ordering {
        (**self).cmp(&**other)
    }
}

impl Hash for Est {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (**self).hash(state);
    }
}

impl fmt::Debug for Est {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (**self).fmt(f)
    }
}

/// State of the generalised ladder machine: own label and rung, plus the
/// per-label best-rung estimate. It owns no heap memory, so it is `Copy`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CutoffState {
    /// This agent's label.
    pub label: u16,
    /// This agent's rung on its label's ladder (`1..=K`).
    pub level: u8,
    /// Per-label best rung this agent knows of (converges to `⌈L_G⌉_K`).
    pub est: Est,
}

/// A dAF machine with weak broadcasts deciding an arbitrary Cutoff property
/// with cutoff `K`: `pred` receives the vector `⌈L_G⌉_K` (entry `i` is
/// `min(L_G(i), K)`).
///
/// Flatten with [`compile_broadcasts`](wam_extensions::compile_broadcasts)
/// for a plain non-counting machine.
///
/// # Panics
///
/// Panics if `K == 0` or `arity > MAX_ARITY`.
pub fn cutoff_machine(
    arity: usize,
    k: u8,
    pred: impl Fn(&[u8]) -> bool + Send + Sync + 'static,
) -> BroadcastMachine<CutoffState> {
    assert!(k >= 1, "cutoff must be at least 1");
    assert!(arity <= MAX_ARITY, "at most {MAX_ARITY} labels supported");
    let machine = Machine::new(
        1,
        move |l: Label| {
            assert!(l.index() < arity, "label out of range");
            let mut est = Est::zeros(arity);
            est[l.index()] = 1;
            CutoffState {
                label: l.0,
                level: 1,
                est,
            }
        },
        |s: &CutoffState, _| *s, // no neighbourhood transitions
        move |s| {
            if pred(&s.est) {
                Output::Accept
            } else {
                Output::Reject
            }
        },
    );
    BroadcastMachine::new(
        machine,
        // Every agent keeps announcing its rung: a top-rung agent must still
        // broadcast so the fact "rung K is occupied" disseminates (the
        // paper's ⟨accept⟩ broadcast plays this role for a single ladder).
        |_| true,
        move |s| {
            let (ell, v) = (s.label, s.level);
            let mut post = *s;
            post.est[ell as usize] = post.est[ell as usize].max(v);
            let f = move |r: &CutoffState| {
                let mut r2 = *r;
                if r2.label == ell && r2.level == v && v < k {
                    r2.level = v + 1;
                    r2.est[ell as usize] = r2.est[ell as usize].max(v + 1);
                } else {
                    r2.est[ell as usize] = r2.est[ell as usize].max(v);
                }
                r2
            };
            (post, Arc::new(f) as ResponseFn<CutoffState>)
        },
    )
}

/// The Lemma C.5 protocol: `L_G(label) ≥ k` as a dAF broadcast machine.
pub fn threshold_machine(arity: usize, label: usize, k: u8) -> BroadcastMachine<CutoffState> {
    assert!(label < arity, "label index out of range");
    cutoff_machine(arity, k, move |est| est[label] >= k)
}

/// `lo ≤ L_G(label) ≤ hi` as a dAF broadcast machine (cutoff `hi + 1`).
///
/// # Panics
///
/// Panics if `lo > hi` or `hi == u8::MAX`.
pub fn interval_machine(
    arity: usize,
    label: usize,
    lo: u8,
    hi: u8,
) -> BroadcastMachine<CutoffState> {
    assert!(label < arity, "label index out of range");
    assert!(lo <= hi, "empty interval");
    assert!(hi < u8::MAX, "interval bound too large");
    cutoff_machine(arity, hi + 1, move |est| (lo..=hi).contains(&est[label]))
}

/// `L_G(label) = n` exactly, as a dAF broadcast machine.
pub fn exact_count_machine(arity: usize, label: usize, n: u8) -> BroadcastMachine<CutoffState> {
    interval_machine(arity, label, n, n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wam_core::{Exploration, Verdict};
    use wam_extensions::{compile_broadcasts, BroadcastSystem};
    use wam_graph::{generators, LabelCount};

    #[test]
    fn est_compares_hashes_and_prints_like_a_vec() {
        use std::hash::{BuildHasher, RandomState};
        // Every vector of up to three lanes over 0..3, against every other.
        let vecs: Vec<Vec<u8>> = (0..=3usize)
            .flat_map(|len| {
                (0..3u32.pow(len as u32)).map(move |code| {
                    (0..len)
                        .map(|i| (code / 3u32.pow(i as u32) % 3) as u8)
                        .collect()
                })
            })
            .collect();
        let est = |v: &[u8]| {
            let mut e = Est::zeros(v.len());
            e.copy_from_slice(v);
            e
        };
        let hasher = RandomState::new();
        for a in &vecs {
            let ea = est(a);
            assert_eq!(format!("{ea:?}"), format!("{a:?}"));
            assert_eq!(hasher.hash_one(ea), hasher.hash_one(a));
            for b in &vecs {
                assert_eq!(ea.cmp(&est(b)), a.cmp(b), "{a:?} vs {b:?}");
                assert_eq!(ea == est(b), a == b, "{a:?} vs {b:?}");
            }
        }
        assert_eq!(format!("{:?}", est(&[1, 0])), "[1, 0]");
    }

    #[test]
    #[should_panic(expected = "at most 8 labels")]
    fn arity_above_the_inline_capacity_panics() {
        let _ = cutoff_machine(MAX_ARITY + 1, 2, |_| true);
    }

    #[test]
    fn threshold_semantic_verdicts() {
        for (a, b, k, expect) in [
            (3u64, 1u64, 2u8, true),
            (1, 3, 2, false),
            (2, 2, 2, true),
            (4, 1, 3, true),
            (2, 3, 3, false),
        ] {
            let bm = threshold_machine(2, 0, k);
            let c = LabelCount::from_vec(vec![a, b]);
            let g = generators::labelled_cycle(&c);
            let v = Exploration::explore(&BroadcastSystem::new(&bm, &g), 500_000)
                .map(|e| e.verdict())
                .unwrap();
            assert_eq!(v.decided(), Some(expect), "x≥{k} on ({a},{b})");
        }
    }

    #[test]
    fn exact_count_via_cutoff_predicate() {
        // "exactly 2 nodes carry label 0": needs cutoff K = 3.
        for (a, b, expect) in [(2u64, 2u64, true), (3, 1, false), (1, 3, false)] {
            let bm = cutoff_machine(2, 3, |est| est[0] == 2);
            let c = LabelCount::from_vec(vec![a, b]);
            let g = generators::labelled_star(&c);
            let v = Exploration::explore(&BroadcastSystem::new(&bm, &g), 500_000)
                .map(|e| e.verdict())
                .unwrap();
            assert_eq!(v.decided(), Some(expect), "|x|=2 on ({a},{b})");
        }
    }

    #[test]
    fn compiled_matches_semantic() {
        for (a, b) in [(2u64, 1u64), (1, 2)] {
            let bm = threshold_machine(2, 0, 2);
            let flat = compile_broadcasts(&bm);
            assert!(flat.is_non_counting());
            let c = LabelCount::from_vec(vec![a, b]);
            let g = generators::labelled_line(&c);
            let semantic = Exploration::explore(&BroadcastSystem::new(&bm, &g), 500_000)
                .map(|e| e.verdict())
                .unwrap();
            let compiled = wam_core::decide(
                &flat,
                &g,
                wam_core::Schedule::PseudoStochastic,
                wam_core::Backend::Auto,
                wam_core::ExploreOptions::with_limit(2_000_000),
            )
            .map(|(v, _)| v)
            .unwrap();
            assert_eq!(semantic, compiled, "({a},{b})");
        }
    }

    #[test]
    fn estimates_respect_cutoff_semantics() {
        // K = 2 cannot distinguish 2 from 5 occurrences.
        let bm = cutoff_machine(2, 2, |est| est[0] >= 2);
        for a in [2u64, 5] {
            let c = LabelCount::from_vec(vec![a, 1]);
            let g = generators::labelled_cycle(&c);
            let v = Exploration::explore(&BroadcastSystem::new(&bm, &g), 500_000)
                .map(|e| e.verdict())
                .unwrap();
            assert_eq!(v, Verdict::Accepts, "a={a}");
        }
    }

    #[test]
    fn interval_and_exact_count() {
        for (a, b, lo, hi, expect) in [
            (2u64, 1u64, 1u8, 3u8, true),
            (4, 1, 1, 3, false),
            (0, 3, 1, 3, false),
            (3, 1, 3, 3, true),
        ] {
            let bm = interval_machine(2, 0, lo, hi);
            let c = LabelCount::from_vec(vec![a, b]);
            let g = generators::labelled_cycle(&c);
            let v = Exploration::explore(&BroadcastSystem::new(&bm, &g), 2_000_000)
                .map(|e| e.verdict())
                .unwrap();
            assert_eq!(v.decided(), Some(expect), "{lo}≤{a}≤{hi}");
        }
        let exact = exact_count_machine(2, 1, 2);
        let c = LabelCount::from_vec(vec![2, 2]);
        let g = generators::labelled_star(&c);
        let v = Exploration::explore(&BroadcastSystem::new(&exact, &g), 2_000_000)
            .map(|e| e.verdict())
            .unwrap();
        assert_eq!(v, Verdict::Accepts);
    }

    #[test]
    fn ladder_occupancy_is_sound() {
        // With a single label-0 agent, level 2 is unreachable: x ≥ 2 rejects.
        let bm = threshold_machine(2, 0, 2);
        let c = LabelCount::from_vec(vec![1, 2]);
        let g = generators::labelled_clique(&c);
        let v = Exploration::explore(&BroadcastSystem::new(&bm, &g), 500_000)
            .map(|e| e.verdict())
            .unwrap();
        assert_eq!(v, Verdict::Rejects);
    }
}
