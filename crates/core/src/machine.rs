//! Distributed machines `M = (Q, δ₀, δ, Y, N)` with counting bound β.

use crate::Neighbourhood;
use std::fmt;
use std::hash::Hash;
use std::sync::Arc;
use wam_graph::Label;

/// Marker trait for machine states.
///
/// Blanket-implemented: any `Clone + Ord + Hash + Debug + Send + Sync +
/// 'static` type is a state. Constructions in this workspace use structural
/// states (nested enums/tuples) so that products and simulation compilers
/// never have to enumerate their state spaces. The `Ord` bound gives
/// simulation compilers a canonical tie-breaking order (e.g. the choice
/// function `g` of Lemma 4.7 picks the least available response).
///
/// States are cloned freely: into the interner, into the neighbourhood
/// of every δ-memo miss and into every successor the certificate
/// verifier replays. A heap field (a `Vec`, `String` or `Box`) costs
/// one allocation on each of those clones, so prefer inline fields, as
/// `wam_protocols::CutoffState` does for its estimate vector.
pub trait State: Clone + Ord + Eq + Hash + fmt::Debug + Send + Sync + 'static {}

impl<T: Clone + Ord + Eq + Hash + fmt::Debug + Send + Sync + 'static> State for T {}

/// The output classification of a state: accepting (`∈ Y`), rejecting
/// (`∈ N`), or neither.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Output {
    /// The state is in the accepting set `Y`.
    Accept,
    /// The state is in the rejecting set `N`.
    Reject,
    /// The state is in neither set.
    Neutral,
}

/// A distributed machine: counting bound β, initialisation `δ₀ : Λ → Q`,
/// transition `δ : Q × [β]^Q → Q`, and output sets `Y, N` (as a map `Q →`
/// [`Output`]).
///
/// The transition function receives only the β-clipped [`Neighbourhood`],
/// so "detection up to β" holds by construction: a machine physically cannot
/// depend on counts beyond its bound. Machines with β = 1 are the paper's
/// *non-counting* machines.
///
/// Machines are cheaply cloneable (the three functions are shared behind
/// [`Arc`]s) and composable: see [`Machine::map_output`] and
/// [`Machine::tagged`].
pub struct Machine<S: State> {
    beta: u32,
    init: Arc<dyn Fn(Label) -> S + Send + Sync>,
    delta: DeltaFn<S>,
    output: Arc<dyn Fn(&S) -> Output + Send + Sync>,
}

/// A shared transition function `δ : Q × [β]^Q → Q`.
type DeltaFn<S> = Arc<dyn Fn(&S, &Neighbourhood<S>) -> S + Send + Sync>;

impl<S: State> Clone for Machine<S> {
    fn clone(&self) -> Self {
        Machine {
            beta: self.beta,
            init: Arc::clone(&self.init),
            delta: Arc::clone(&self.delta),
            output: Arc::clone(&self.output),
        }
    }
}

impl<S: State> fmt::Debug for Machine<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Machine").field("beta", &self.beta).finish()
    }
}

impl<S: State> Machine<S> {
    /// Creates a machine from its four components.
    ///
    /// # Panics
    ///
    /// Panics if `beta == 0` (the counting bound is positive by definition).
    pub fn new(
        beta: u32,
        init: impl Fn(Label) -> S + Send + Sync + 'static,
        delta: impl Fn(&S, &Neighbourhood<S>) -> S + Send + Sync + 'static,
        output: impl Fn(&S) -> Output + Send + Sync + 'static,
    ) -> Self {
        assert!(beta >= 1, "counting bound must be at least 1");
        Machine {
            beta,
            init: Arc::new(init),
            delta: Arc::new(delta),
            output: Arc::new(output),
        }
    }

    /// The counting bound β.
    pub fn beta(&self) -> u32 {
        self.beta
    }

    /// Whether the machine is non-counting (β = 1, detection `d`).
    pub fn is_non_counting(&self) -> bool {
        self.beta == 1
    }

    /// The initial state for a node labelled `label`.
    pub fn initial(&self, label: Label) -> S {
        (self.init)(label)
    }

    /// One application of δ for a node in state `s` observing `n`.
    pub fn step(&self, s: &S, n: &Neighbourhood<S>) -> S {
        (self.delta)(s, n)
    }

    /// The output classification of a state.
    pub fn output(&self, s: &S) -> Output {
        (self.output)(s)
    }

    /// Replaces the output map, keeping dynamics identical.
    pub fn map_output(&self, output: impl Fn(&S) -> Output + Send + Sync + 'static) -> Self {
        Machine {
            beta: self.beta,
            init: Arc::clone(&self.init),
            delta: Arc::clone(&self.delta),
            output: Arc::new(output),
        }
    }

    /// The paper's `P × Q'` product: attaches a static tag to every state.
    /// Transitions act on the machine component and leave the tag untouched;
    /// the tag is derived from the node's label at initialisation.
    ///
    /// The neighbourhood handed to the underlying δ is the projection onto
    /// the machine component (clip-exact; see [`Neighbourhood::project`]).
    pub fn tagged<T: State>(
        &self,
        tag_init: impl Fn(Label) -> T + Send + Sync + 'static,
    ) -> Machine<(S, T)> {
        let init = Arc::clone(&self.init);
        let delta = Arc::clone(&self.delta);
        let output = Arc::clone(&self.output);
        let beta = self.beta;
        Machine::new(
            beta,
            move |l| (init(l), tag_init(l)),
            move |(s, t), n| {
                let projected = n.project(|(s, _)| s.clone());
                (delta(s, &projected), t.clone())
            },
            move |(s, _)| output(s),
        )
    }

    /// Renames states through a bijection-like pair of maps. Useful for
    /// wrapping a machine's states into a larger enum.
    pub fn map_states<T: State>(
        &self,
        into: impl Fn(&S) -> T + Send + Sync + 'static,
        back: impl Fn(&T) -> S + Send + Sync + 'static,
    ) -> Machine<T> {
        let init = Arc::clone(&self.init);
        let delta = Arc::clone(&self.delta);
        let output = Arc::clone(&self.output);
        let into = Arc::new(into);
        let into2 = Arc::clone(&into);
        let back = Arc::new(back);
        let back2 = Arc::clone(&back);
        let back3 = Arc::clone(&back);
        Machine::new(
            self.beta,
            move |l| into(&init(l)),
            move |t, n| {
                let s = back(t);
                let projected = n.project(|t| back2(t));
                into2(&delta(&s, &projected))
            },
            move |t| output(&back3(t)),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Neighbourhood;

    fn nbhd(states: &[i32], beta: u32) -> Neighbourhood<i32> {
        Neighbourhood::from_states(states.iter().copied(), beta)
    }

    fn max_machine() -> Machine<i32> {
        // Each node moves to the max of itself and its neighbours.
        Machine::new(
            2,
            |l: Label| l.0 as i32,
            |&s, n| n.states().map(|(t, _)| *t).chain([s]).max().unwrap(),
            |&s| {
                if s > 0 {
                    Output::Accept
                } else {
                    Output::Reject
                }
            },
        )
    }

    #[test]
    fn step_applies_delta() {
        let m = max_machine();
        assert_eq!(m.step(&1, &nbhd(&[0, 3, 2], 2)), 3);
        assert_eq!(m.step(&5, &nbhd(&[0, 3, 2], 2)), 5);
    }

    #[test]
    fn output_classification() {
        let m = max_machine();
        assert_eq!(m.output(&0), Output::Reject);
        assert_eq!(m.output(&7), Output::Accept);
    }

    #[test]
    fn map_output_keeps_dynamics() {
        let m = max_machine().map_output(|_| Output::Neutral);
        assert_eq!(m.step(&1, &nbhd(&[4], 2)), 4);
        assert_eq!(m.output(&7), Output::Neutral);
    }

    #[test]
    fn tagged_product_preserves_tag() {
        let m = max_machine().tagged(|l| l.0);
        let s0 = m.initial(Label(3));
        assert_eq!(s0, (3, 3));
        let n = Neighbourhood::from_states([(7, 0u16)], 2);
        let s1 = m.step(&s0, &n);
        assert_eq!(s1, (7, 3));
    }

    #[test]
    fn map_states_roundtrip() {
        #[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
        enum Wrap {
            V(i32),
        }
        let m = max_machine().map_states(|&s| Wrap::V(s), |Wrap::V(s)| *s);
        let n = Neighbourhood::from_states([Wrap::V(9)], 2);
        assert_eq!(m.step(&Wrap::V(1), &n), Wrap::V(9));
        assert_eq!(m.output(&Wrap::V(0)), Output::Reject);
    }

    #[test]
    #[should_panic(expected = "counting bound")]
    fn zero_beta_rejected() {
        Machine::new(0, |_: Label| 0i32, |&s, _| s, |_| Output::Neutral);
    }
}
