//! Strong broadcast protocols: the broadcast consensus protocols of
//! Blondin–Esparza–Jaax (CONCUR 2019), which decide exactly the predicates
//! in NL. The paper's Lemma 5.1 compiles them to DAF-automata.

use rand::rngs::StdRng;
use rand::RngExt;
use std::fmt;
use std::sync::Arc;
use wam_core::{Config, Output, ScheduledSystem, State, StepOutcome, SuccBuf, TransitionSystem};
use wam_graph::{Graph, Label};

/// A response function of a strong broadcast.
pub type ResponseFn<S> = Arc<dyn Fn(&S) -> S + Send + Sync>;

/// A strong broadcast protocol `P = (Q, δ₀, B, Y, N)`: **every** state has
/// exactly one broadcast transition `q ↦ (q', f)`, and exactly one agent
/// broadcasts at each step, with all other agents applying `f`.
///
/// States whose broadcast is silent (`q ↦ q, id`) simply pass their turn.
pub struct StrongBroadcastProtocol<S: State> {
    init: Arc<dyn Fn(Label) -> S + Send + Sync>,
    broadcast: BroadcastFn<S>,
    output: Arc<dyn Fn(&S) -> Output + Send + Sync>,
}

/// A shared broadcast map `B : Q → Q × (Q → Q)`.
type BroadcastFn<S> = Arc<dyn Fn(&S) -> (S, ResponseFn<S>) + Send + Sync>;

impl<S: State> Clone for StrongBroadcastProtocol<S> {
    fn clone(&self) -> Self {
        StrongBroadcastProtocol {
            init: Arc::clone(&self.init),
            broadcast: Arc::clone(&self.broadcast),
            output: Arc::clone(&self.output),
        }
    }
}

impl<S: State> fmt::Debug for StrongBroadcastProtocol<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("StrongBroadcastProtocol")
    }
}

impl<S: State> StrongBroadcastProtocol<S> {
    /// Creates a strong broadcast protocol. `broadcast` must be total;
    /// return `(q.clone(), identity)` for states that should pass.
    pub fn new(
        init: impl Fn(Label) -> S + Send + Sync + 'static,
        broadcast: impl Fn(&S) -> (S, ResponseFn<S>) + Send + Sync + 'static,
        output: impl Fn(&S) -> Output + Send + Sync + 'static,
    ) -> Self {
        StrongBroadcastProtocol {
            init: Arc::new(init),
            broadcast: Arc::new(broadcast),
            output: Arc::new(output),
        }
    }

    /// The initial state for a label.
    pub fn initial(&self, label: Label) -> S {
        (self.init)(label)
    }

    /// The broadcast `B(s) = (s', f)`.
    pub fn broadcast(&self, s: &S) -> (S, ResponseFn<S>) {
        (self.broadcast)(s)
    }

    /// The output classification of a state.
    pub fn output(&self, s: &S) -> Output {
        (self.output)(s)
    }
}

/// The semantic transition system of a strong broadcast protocol on a graph
/// (topology is irrelevant to broadcasts; only the label multiset matters —
/// strong broadcast protocols decide labelling predicates).
#[derive(Debug)]
pub struct StrongBroadcastSystem<'a, S: State> {
    sb: &'a StrongBroadcastProtocol<S>,
    graph: &'a Graph,
}

impl<'a, S: State> StrongBroadcastSystem<'a, S> {
    /// Wraps a protocol and a graph.
    pub fn new(sb: &'a StrongBroadcastProtocol<S>, graph: &'a Graph) -> Self {
        StrongBroadcastSystem { sb, graph }
    }
}

impl<S: State> TransitionSystem for StrongBroadcastSystem<'_, S> {
    type C = Config<S>;

    fn initial_config(&self) -> Config<S> {
        Config::from_states(
            self.graph
                .nodes()
                .map(|v| self.sb.initial(self.graph.label(v)))
                .collect(),
        )
    }

    fn successors(&self, c: &Config<S>) -> Vec<Config<S>> {
        let mut out = SuccBuf::new();
        self.successors_into(c, &mut out);
        out.into_vec()
    }

    fn successors_into(&self, c: &Config<S>, out: &mut SuccBuf<Config<S>>) {
        for v in self.graph.nodes() {
            let (q2, f) = self.sb.broadcast(c.state(v));
            let states: Vec<S> = self
                .graph
                .nodes()
                .map(|u| if u == v { q2.clone() } else { f(c.state(u)) })
                .collect();
            let next = Config::from_states(states);
            if next != *c && !out.contains(&next) {
                out.push(next);
            }
        }
    }

    fn is_accepting(&self, c: &Config<S>) -> bool {
        c.states()
            .iter()
            .all(|s| self.sb.output(s) == Output::Accept)
    }

    fn is_rejecting(&self, c: &Config<S>) -> bool {
        c.states()
            .iter()
            .all(|s| self.sb.output(s) == Output::Reject)
    }
}

impl<S: State> ScheduledSystem for StrongBroadcastSystem<'_, S> {
    fn node_count(&self) -> usize {
        self.graph.node_count()
    }

    fn outputs(&self, c: &Config<S>) -> Vec<Output> {
        c.states().iter().map(|s| self.sb.output(s)).collect()
    }

    /// A uniformly random speaker broadcasts; every other agent applies the
    /// response function.
    fn sampled_step(&self, c: &Config<S>, rng: &mut StdRng) -> StepOutcome<Config<S>> {
        let v = rng.random_range(0..self.graph.node_count());
        let (q2, f) = self.sb.broadcast(c.state(v));
        let states: Vec<S> = self
            .graph
            .nodes()
            .map(|u| if u == v { q2.clone() } else { f(c.state(u)) })
            .collect();
        StepOutcome::Stepped(Config::from_states(states))
    }
}

/// The Lemma C.5-style threshold protocol `#(label 0) ≥ k` as a strong
/// broadcast protocol: levels `1..k` bump one peer per turn, level `k`
/// floods acceptance.
pub fn threshold_protocol(k: u32) -> StrongBroadcastProtocol<u32> {
    StrongBroadcastProtocol::new(
        move |l| if l.0 == 0 { 1 } else { 0 },
        move |&s| {
            if s == k && k > 0 {
                (k, Arc::new(move |_: &u32| k) as ResponseFn<u32>)
            } else if s >= 1 {
                (
                    s,
                    Arc::new(move |&r: &u32| if r == s && r < k { r + 1 } else { r })
                        as ResponseFn<u32>,
                )
            } else {
                (s, Arc::new(|&r: &u32| r) as ResponseFn<u32>)
            }
        },
        move |&s| {
            if s == k {
                Output::Accept
            } else {
                Output::Reject
            }
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use wam_core::{run_until_stable, Exploration, StabilityOptions, Verdict};
    use wam_graph::{generators, LabelCount};

    #[test]
    fn threshold_exact_verdicts() {
        for (a, b, expect) in [
            (3u64, 1u64, true),
            (2, 2, true),
            (1, 3, false),
            (4, 0, true),
        ] {
            let sb = threshold_protocol(2);
            let c = LabelCount::from_vec(vec![a, b]);
            let g = generators::labelled_cycle(&c);
            let sys = StrongBroadcastSystem::new(&sb, &g);
            let v = Exploration::explore(&sys, 100_000).unwrap().verdict();
            assert_eq!(v.decided(), Some(expect), "x≥2 on ({a},{b})");
        }
    }

    #[test]
    fn statistical_runner_agrees() {
        let sb = threshold_protocol(3);
        let c = LabelCount::from_vec(vec![5, 2]);
        let g = generators::labelled_clique(&c);
        let sys = StrongBroadcastSystem::new(&sb, &g);
        let r = run_until_stable(&sys, 3, StabilityOptions::new(100_000, 1_000));
        assert_eq!(r.verdict, Verdict::Accepts);
    }

    #[test]
    fn one_broadcast_moves_everyone() {
        let sb = threshold_protocol(2);
        let c = LabelCount::from_vec(vec![3, 0]);
        let g = generators::labelled_clique(&c);
        let sys = StrongBroadcastSystem::new(&sb, &g);
        let c0 = sys.initial_config();
        // Any speaker at level 1 bumps both peers to 2 simultaneously.
        let succs = sys.successors(&c0);
        assert!(succs
            .iter()
            .any(|s| s.states().iter().filter(|&&x| x == 2).count() == 2));
    }
}
