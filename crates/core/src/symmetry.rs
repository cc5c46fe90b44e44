//! Orbit-quotient exploration: symmetry reduction of configuration spaces
//! under graph automorphisms.
//!
//! # Soundness
//!
//! Let `G` be a communication graph and `π` a *structural* automorphism of
//! `G` (labels need not be preserved — see below). A permutation of nodes
//! acts on configurations by `(π · c)(v) = c(π(v))` (see
//! [`PermuteNodes::permute`]). Every model family in this reproduction has
//! **node-anonymous** transition rules: a node's step depends only on its
//! own state and the (β-clipped) multiset of neighbour states, never on
//! node identities. Since `π` maps neighbourhoods to neighbourhoods, the
//! one-step successor relation is *equivariant*:
//! `succ(π · c) = π · succ(c)` — and acceptance/rejection ("all nodes
//! accept/reject") is orbit-invariant. Consequently, for the reachability
//! set from a start configuration `c₀`,
//! `Reach(π · c₀) = π · Reach(c₀)`, and the reach graph from `c₀` modulo
//! the group `Γ = Aut(G)` is exactly the orbit quotient: exploring one
//! lexicographically least representative per orbit preserves the
//! existence of stably accepting / stably rejecting reachable
//! configurations, hence the [`Verdict`](crate::Verdict).
//!
//! Two subtleties the implementation enforces:
//!
//! * **The element list must be a group.** Representatives are defined as
//!   orbit minima; if the enumeration of `Aut(G)` were truncated, the
//!   "minimum" would not be orbit-invariant and states would be conflated
//!   or duplicated unsoundly. [`QuotientSystem::new`] therefore rejects
//!   incomplete groups, and `wam-graph` returns the *trivial* group (no
//!   reduction) rather than a truncated list when its cap is hit.
//! * **Labels only seed the initial configuration.** δ₀ reads labels, δ
//!   does not — so the quotient uses the full *structural* group even on
//!   graphs whose labelling is asymmetric. The argument above quotients
//!   the reach set *of the concrete `c₀`*, which is closed under nothing
//!   but the step relation; equivariance of `succ` alone makes
//!   `min`-canonicalising every discovered configuration sound, whether or
//!   not `π · c₀ = c₀`. (A rotated run explores the rotated space — same
//!   verdict either way.)
//!
//! Equivariance itself is asserted empirically: a debug check at
//! construction ([`QuotientSystem::check_equivariance`]) plus the
//! differential suite in `tests/symmetry_differential.rs`, which replays
//! random machines over random graphs through all six model families with
//! and without reduction and compares verdicts.

use crate::{Config, ExclusiveSystem, LiberalSystem, State, TransitionSystem};
use wam_graph::{AutomorphismGroup, Graph};

/// Configurations a node permutation acts on.
///
/// `Ord` supplies the canonical orbit representative (the minimum of the
/// orbit); the particular order is irrelevant as long as it is total.
pub trait PermuteNodes: Clone + Ord {
    /// The action `(π · c)(v) = c(π(v))`: node `v` of the result holds what
    /// node `perm[v]` held before.
    fn permute(&self, perm: &[u32]) -> Self;

    /// The lexicographically least configuration in the orbit of `self`
    /// under the given permutations (which must include the identity's
    /// effect implicitly: `self` itself is always a candidate).
    fn min_under(self, perms: &[Vec<u32>]) -> Self {
        let mut best: Option<&Vec<u32>> = None;
        for p in perms {
            let candidate_is_less = {
                let current = |v: usize| match best {
                    Some(b) => self.permuted_entry(b, v),
                    None => self.permuted_entry_id(v),
                };
                (0..self.node_count_for_permute())
                    .map(|v| self.permuted_entry(p, v).cmp(current(v)))
                    .find(|o| *o != std::cmp::Ordering::Equal)
                    == Some(std::cmp::Ordering::Less)
            };
            if candidate_is_less {
                best = Some(p);
            }
        }
        match best {
            None => self,
            Some(p) => self.permute(p),
        }
    }

    /// Entry `v` of `π · self` (used by the default `min_under` to compare
    /// permuted configurations without materialising them).
    fn permuted_entry(&self, perm: &[u32], v: usize) -> &Self::Entry;

    /// Entry `v` of `self` (the identity view).
    fn permuted_entry_id(&self, v: usize) -> &Self::Entry;

    /// Number of entries `min_under` compares.
    fn node_count_for_permute(&self) -> usize;

    /// The per-node entry type compared by `min_under`.
    type Entry: Ord + ?Sized;
}

impl<S: State> PermuteNodes for Config<S> {
    type Entry = S;

    fn permute(&self, perm: &[u32]) -> Self {
        Config::from_states(
            perm.iter()
                .map(|&u| self.state(u as usize).clone())
                .collect(),
        )
    }

    fn permuted_entry(&self, perm: &[u32], v: usize) -> &S {
        self.state(perm[v] as usize)
    }

    fn permuted_entry_id(&self, v: usize) -> &S {
        self.state(v)
    }

    fn node_count_for_permute(&self) -> usize {
        self.len()
    }
}

/// A transition system whose step relation commutes with the automorphisms
/// of a communication graph.
///
/// # Contract
///
/// Implementors guarantee, for every structural automorphism `π` of
/// [`symmetry_graph`](NodeSymmetric::symmetry_graph):
///
/// * `successors(π · c)` equals `π · successors(c)` as a *set*, and
/// * `is_accepting` / `is_rejecting` are constant on orbits.
///
/// This holds for any family whose rules are node-anonymous (read own
/// state + neighbour-state multiset only) — all six families of this
/// reproduction. [`QuotientSystem`] spot-checks the contract in debug
/// builds; the differential test suite checks it statistically.
pub trait NodeSymmetric: TransitionSystem {
    /// The communication graph whose automorphisms the step relation
    /// commutes with.
    fn symmetry_graph(&self) -> &Graph;
}

impl<S: State> NodeSymmetric for ExclusiveSystem<'_, S> {
    fn symmetry_graph(&self) -> &Graph {
        self.graph()
    }
}

impl<S: State> NodeSymmetric for LiberalSystem<'_, S> {
    fn symmetry_graph(&self) -> &Graph {
        self.graph()
    }
}

/// The orbit quotient of a [`NodeSymmetric`] transition system: every
/// configuration handed to the exploration engine is first mapped to the
/// lexicographic minimum of its orbit under a (complete) automorphism
/// group, so the engine interns one representative per orbit and the
/// explored space shrinks by up to a factor of the group order.
#[derive(Debug)]
pub struct QuotientSystem<'a, T> {
    inner: &'a T,
    group: AutomorphismGroup,
}

impl<'a, T> QuotientSystem<'a, T>
where
    T: NodeSymmetric,
    T::C: PermuteNodes,
{
    /// Wraps `system`, canonicalising through `group`.
    ///
    /// # Panics
    ///
    /// Panics if `group` is incomplete (a truncated element list is not
    /// closed under composition, so orbit minima would be ill-defined and
    /// the reduction unsound) or if it acts on the wrong number of nodes.
    /// In debug builds, additionally spot-checks equivariance at the
    /// initial configuration.
    pub fn new(system: &'a T, group: AutomorphismGroup) -> Self {
        assert!(
            group.is_complete(),
            "orbit reduction requires the complete automorphism group: \
             a truncated enumeration is not closed under composition"
        );
        assert_eq!(
            group.node_count(),
            system.symmetry_graph().node_count(),
            "group acts on the wrong node set"
        );
        let q = QuotientSystem {
            inner: system,
            group,
        };
        debug_assert!(
            q.check_equivariance(&system.initial_config()),
            "successor relation is not equivariant under Aut(G): \
             the NodeSymmetric contract is violated"
        );
        q
    }

    /// The orbit representative (lexicographic minimum) of `c`.
    pub fn canonical(&self, c: T::C) -> T::C {
        c.min_under(self.group.elements())
    }

    /// Verifies `successors(π · c) = π · successors(c)` (as sets) for every
    /// group element `π` — the equivariance half of the [`NodeSymmetric`]
    /// contract, at one configuration.
    pub fn check_equivariance(&self, c: &T::C) -> bool {
        let mut base: Vec<T::C> = self.inner.successors(c);
        base.sort_unstable();
        base.dedup();
        self.group.elements().iter().all(|p| {
            let mut lhs: Vec<T::C> = self.inner.successors(&c.permute(p));
            lhs.sort_unstable();
            lhs.dedup();
            let mut rhs: Vec<T::C> = base.iter().map(|s| s.permute(p)).collect();
            rhs.sort_unstable();
            rhs.dedup();
            lhs == rhs
        })
    }
}

impl<T> TransitionSystem for QuotientSystem<'_, T>
where
    T: NodeSymmetric,
    T::C: PermuteNodes,
{
    type C = T::C;

    fn initial_config(&self) -> T::C {
        self.canonical(self.inner.initial_config())
    }

    fn successors(&self, c: &T::C) -> Vec<T::C> {
        self.inner
            .successors(c)
            .into_iter()
            .map(|s| self.canonical(s))
            .collect()
    }

    fn is_accepting(&self, c: &T::C) -> bool {
        self.inner.is_accepting(c)
    }

    fn is_rejecting(&self, c: &T::C) -> bool {
        self.inner.is_rejecting(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Exploration, Machine, Output};
    use wam_graph::{automorphism_group, generators, LabelCount};

    /// "Some node carries label x1", by flag flooding.
    fn flood() -> Machine<bool> {
        Machine::new(
            1,
            |l| l.0 == 1,
            |&s, n| s || n.exists(|&t| t),
            |&s| if s { Output::Accept } else { Output::Reject },
        )
    }

    #[test]
    fn permute_acts_on_positions() {
        let c = Config::from_states(vec![10u32, 20, 30]);
        let p = vec![2u32, 0, 1];
        assert_eq!(c.permute(&p).states(), &[30, 10, 20]);
    }

    #[test]
    fn min_under_picks_orbit_minimum() {
        let c = Config::from_states(vec![2u32, 0, 1]);
        let g = generators::cycle(3);
        let aut = automorphism_group(&g, 100);
        let m = c.clone().min_under(aut.elements());
        assert_eq!(m.states(), &[0, 1, 2]);
        // Idempotent, and invariant across the orbit.
        assert_eq!(m.clone().min_under(aut.elements()), m);
        for p in aut.elements() {
            assert_eq!(c.permute(p).min_under(aut.elements()), m);
        }
    }

    #[test]
    fn quotient_shrinks_space_and_preserves_verdict() {
        let g = generators::labelled_cycle(&LabelCount::from_vec(vec![5, 1]));
        let m = flood();
        let sys = ExclusiveSystem::new(&m, &g);
        let full = Exploration::explore(&sys, 100_000).unwrap();
        let aut = automorphism_group(&g, 1000);
        assert_eq!(aut.order(), 12);
        let q = QuotientSystem::new(&sys, aut);
        let reduced = Exploration::explore_from(&q, q.initial_config(), 100_000).unwrap();
        assert!(reduced.len() < full.len());
        assert_eq!(reduced.verdict(), full.verdict());
    }

    #[test]
    fn equivariance_check_passes_for_exclusive_and_liberal() {
        let g = generators::labelled_cycle(&LabelCount::from_vec(vec![3, 2]));
        let m = flood();
        let aut = automorphism_group(&g, 1000);
        let ex = ExclusiveSystem::new(&m, &g);
        let qe = QuotientSystem::new(&ex, aut.clone());
        assert!(qe.check_equivariance(&ex.initial_config()));
        let li = LiberalSystem::new(&m, &g);
        let ql = QuotientSystem::new(&li, aut);
        assert!(ql.check_equivariance(&li.initial_config()));
        assert_eq!(
            Exploration::explore_from(&qe, qe.initial_config(), 100_000)
                .unwrap()
                .verdict(),
            Exploration::explore_from(&ql, ql.initial_config(), 100_000)
                .unwrap()
                .verdict()
        );
    }

    #[test]
    #[should_panic(expected = "complete automorphism group")]
    fn quotient_rejects_truncated_groups() {
        let g = generators::clique(8);
        let m = flood();
        let sys = ExclusiveSystem::new(&m, &g);
        let aut = automorphism_group(&g, 10); // 8! ≫ 10 → truncated
                                              // Sneak past the fallback by lying about completeness is impossible
                                              // from outside the crate; here we check the constructor's guard on
                                              // the honest incomplete marker.
        let _ = QuotientSystem::new(&sys, aut);
    }
}
