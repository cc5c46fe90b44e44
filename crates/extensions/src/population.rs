//! Graph population protocols (Definition B.19): rendez-vous transitions
//! between adjacent nodes under pseudo-stochastic pair selection.

use rand::rngs::StdRng;
use rand::RngExt;
use std::fmt;
use std::sync::Arc;
use wam_core::{Config, Output, ScheduledSystem, State, StepOutcome, SuccBuf, TransitionSystem};
use wam_graph::{Graph, Label};

/// A population protocol on graphs: `(Q, δ)` with total rendez-vous
/// transition function `δ : Q² → Q²`, plus initialisation and output maps.
///
/// Selections are ordered pairs of adjacent nodes; schedules are
/// pseudo-stochastic. This is exactly the model of Angluin et al. on graphs
/// that the paper reuses.
pub struct GraphPopulationProtocol<S: State> {
    init: Arc<dyn Fn(Label) -> S + Send + Sync>,
    delta: RendezvousFn<S>,
    output: Arc<dyn Fn(&S) -> Output + Send + Sync>,
}

/// A shared rendez-vous transition function `δ : Q² → Q²`.
type RendezvousFn<S> = Arc<dyn Fn(&S, &S) -> (S, S) + Send + Sync>;

impl<S: State> Clone for GraphPopulationProtocol<S> {
    fn clone(&self) -> Self {
        GraphPopulationProtocol {
            init: Arc::clone(&self.init),
            delta: Arc::clone(&self.delta),
            output: Arc::clone(&self.output),
        }
    }
}

impl<S: State> fmt::Debug for GraphPopulationProtocol<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("GraphPopulationProtocol")
    }
}

impl<S: State> GraphPopulationProtocol<S> {
    /// Creates a protocol from its three components. `delta` must be total;
    /// return the inputs unchanged for non-interacting pairs.
    pub fn new(
        init: impl Fn(Label) -> S + Send + Sync + 'static,
        delta: impl Fn(&S, &S) -> (S, S) + Send + Sync + 'static,
        output: impl Fn(&S) -> Output + Send + Sync + 'static,
    ) -> Self {
        GraphPopulationProtocol {
            init: Arc::new(init),
            delta: Arc::new(delta),
            output: Arc::new(output),
        }
    }

    /// The initial state for a label.
    pub fn initial(&self, label: Label) -> S {
        (self.init)(label)
    }

    /// One rendez-vous: `δ(p, q) = (p', q')`.
    pub fn interact(&self, p: &S, q: &S) -> (S, S) {
        (self.delta)(p, q)
    }

    /// The output classification of a state.
    pub fn output(&self, s: &S) -> Output {
        (self.output)(s)
    }

    /// The four-state exact-majority protocol with swaps, deciding
    /// `#(label 0) > #(label 1)` on any connected graph (ties reject).
    ///
    /// States: strong `P`/`M` votes and weak `p`/`m` opinions.
    /// Transitions: `(P,M) ↦ (p,m)` cancellation; strong states convert weak
    /// opposites; `(p,m) ↦ (m,m)` breaks ties toward rejection; `(P,p)` and
    /// `(M,m)` swap so strong tokens can walk the graph.
    pub fn majority() -> GraphPopulationProtocol<MajorityState> {
        use MajorityState::*;
        GraphPopulationProtocol::new(
            |l| if l.0 == 0 { P } else { M },
            |&a, &b| match (a, b) {
                (P, M) => (WeakP, WeakM),
                (M, P) => (WeakM, WeakP),
                (P, WeakM) => (P, WeakP),
                (WeakM, P) => (WeakP, P),
                (M, WeakP) => (M, WeakM),
                (WeakP, M) => (WeakM, M),
                (WeakP, WeakM) => (WeakM, WeakM),
                (WeakM, WeakP) => (WeakM, WeakM),
                (P, WeakP) => (WeakP, P),
                (WeakP, P) => (P, WeakP),
                (M, WeakM) => (WeakM, M),
                (WeakM, M) => (M, WeakM),
                other => other,
            },
            |&s| match s {
                P | WeakP => Output::Accept,
                M | WeakM => Output::Reject,
            },
        )
    }
}

/// States of the built-in majority protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MajorityState {
    /// Strong `+` vote.
    P,
    /// Strong `−` vote.
    M,
    /// Weak `+` opinion.
    WeakP,
    /// Weak `−` opinion.
    WeakM,
}

/// The semantic transition system of a graph population protocol: successors
/// apply `δ` to every ordered pair of adjacent nodes.
#[derive(Debug)]
pub struct PopulationSystem<'a, S: State> {
    pp: &'a GraphPopulationProtocol<S>,
    graph: &'a Graph,
}

impl<'a, S: State> PopulationSystem<'a, S> {
    /// Wraps a protocol and a graph.
    pub fn new(pp: &'a GraphPopulationProtocol<S>, graph: &'a Graph) -> Self {
        PopulationSystem { pp, graph }
    }
}

impl<S: State> TransitionSystem for PopulationSystem<'_, S> {
    type C = Config<S>;

    fn initial_config(&self) -> Config<S> {
        Config::from_states(
            self.graph
                .nodes()
                .map(|v| self.pp.initial(self.graph.label(v)))
                .collect(),
        )
    }

    fn successors(&self, c: &Config<S>) -> Vec<Config<S>> {
        let mut out = SuccBuf::new();
        self.successors_into(c, &mut out);
        out.into_vec()
    }

    fn successors_into(&self, c: &Config<S>, out: &mut SuccBuf<Config<S>>) {
        for &(u, v) in self.graph.edges() {
            for (a, b) in [(u, v), (v, u)] {
                let (pa, pb) = self.pp.interact(c.state(a), c.state(b));
                if pa == *c.state(a) && pb == *c.state(b) {
                    continue;
                }
                let mut states = c.states().to_vec();
                states[a] = pa;
                states[b] = pb;
                let next = Config::from_states(states);
                if !out.contains(&next) {
                    out.push(next);
                }
            }
        }
    }

    fn is_accepting(&self, c: &Config<S>) -> bool {
        c.states()
            .iter()
            .all(|s| self.pp.output(s) == Output::Accept)
    }

    fn is_rejecting(&self, c: &Config<S>) -> bool {
        c.states()
            .iter()
            .all(|s| self.pp.output(s) == Output::Reject)
    }
}

impl<S: State> ScheduledSystem for PopulationSystem<'_, S> {
    fn node_count(&self) -> usize {
        self.graph.node_count()
    }

    fn outputs(&self, c: &Config<S>) -> Vec<Output> {
        c.states().iter().map(|s| self.pp.output(s)).collect()
    }

    /// One rendez-vous between a uniformly random ordered adjacent pair. An
    /// edgeless graph hangs (no pair will ever be selectable).
    fn sampled_step(&self, c: &Config<S>, rng: &mut StdRng) -> StepOutcome<Config<S>> {
        let edges = self.graph.edges();
        if edges.is_empty() {
            return StepOutcome::Hung;
        }
        let &(u, v) = &edges[rng.random_range(0..edges.len())];
        let (a, b) = if rng.random_bool(0.5) { (u, v) } else { (v, u) };
        let (pa, pb) = self.pp.interact(c.state(a), c.state(b));
        if pa == *c.state(a) && pb == *c.state(b) {
            return StepOutcome::Stepped(c.clone());
        }
        let mut states = c.states().to_vec();
        states[a] = pa;
        states[b] = pb;
        StepOutcome::Stepped(Config::from_states(states))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wam_core::{run_until_stable, Exploration, StabilityOptions, Verdict};
    use wam_graph::{generators, LabelCount};

    #[test]
    fn majority_exact_on_small_graphs() {
        let pp = GraphPopulationProtocol::<MajorityState>::majority();
        for (a, b) in [(3u64, 1u64), (1, 3), (2, 2), (3, 2), (1, 2)] {
            let c = LabelCount::from_vec(vec![a, b]);
            for g in [
                generators::labelled_clique(&c),
                generators::labelled_line(&c),
                generators::labelled_cycle(&c),
            ] {
                let sys = PopulationSystem::new(&pp, &g);
                let v = Exploration::explore(&sys, 500_000).unwrap().verdict();
                assert_eq!(
                    v.decided(),
                    Some(a > b),
                    "majority({a},{b}) on {g:?} gave {v:?}"
                );
            }
        }
    }

    #[test]
    fn majority_statistical_on_larger_graph() {
        let pp = GraphPopulationProtocol::<MajorityState>::majority();
        let c = LabelCount::from_vec(vec![12, 8]);
        let g = generators::random_degree_bounded(&c, 3, 5, 7);
        let sys = PopulationSystem::new(&pp, &g);
        // The step budget is stream-dependent: under the vendored SplitMix64
        // `StdRng` this (graph, seed) pair stabilises around 6.8M steps, so
        // give it 10M. Other nearby seeds converge within 2M.
        let r = run_until_stable(&sys, 123, StabilityOptions::new(10_000_000, 20_000));
        assert_eq!(r.verdict, Verdict::Accepts);
    }

    #[test]
    fn tie_rejects() {
        let pp = GraphPopulationProtocol::<MajorityState>::majority();
        let c = LabelCount::from_vec(vec![2, 2]);
        let g = generators::labelled_cycle(&c);
        let sys = PopulationSystem::new(&pp, &g);
        assert_eq!(
            Exploration::explore(&sys, 500_000).unwrap().verdict(),
            Verdict::Rejects
        );
    }

    #[test]
    fn successors_only_touch_adjacent_pairs() {
        let pp = GraphPopulationProtocol::<MajorityState>::majority();
        // Line P - M - M: P can only cancel with the middle M.
        let c = LabelCount::from_vec(vec![1, 2]);
        let g = generators::labelled_line(&c);
        let sys = PopulationSystem::new(&pp, &g);
        let c0 = sys.initial_config();
        for s in sys.successors(&c0) {
            // The far end (node 2) can only change if it interacted with
            // node 1; node 0 and node 2 are not adjacent, so they never
            // change in the same step.
            let changed: Vec<bool> = (0..3).map(|v| s.state(v) != c0.state(v)).collect();
            assert!(!(changed[0] && changed[2]));
        }
    }
}
