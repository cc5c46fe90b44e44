//! Distributed machines with weak broadcasts (Definition 4.5) and their
//! semantic (atomic) execution.

use crate::util::{cartesian_product, independent_subsets};
use rand::rngs::StdRng;
use rand::RngExt;
use std::fmt;
use std::sync::Arc;
use wam_core::{
    Config, Machine, Output, ScheduledSystem, State, StepOutcome, SuccBuf, TransitionSystem,
};
use wam_graph::{Graph, Label, NodeId};

/// A response function `f : Q → Q` of a weak broadcast, shared and cheap to
/// clone.
pub type ResponseFn<S> = Arc<dyn Fn(&S) -> S + Send + Sync>;

/// A distributed machine with weak broadcasts
/// `M = (Q, δ₀, δ, Q_B, B, Y, N)`.
///
/// The neighbourhood part `(Q, δ₀, δ, Y, N)` is an ordinary
/// [`Machine`]; `initiates` is the membership predicate of `Q_B`, and
/// `broadcast` is `B`, mapping each initiating state `q` to `(q', f)`.
///
/// Semantics (Definition 4.5): a schedule alternates `(n, S)` steps, which
/// let the *non-initiating* agents of `S` perform neighbourhood transitions,
/// and `(b, S)` steps, which make every initiating agent of the independent
/// set `S` fire its broadcast; every other agent receives exactly one of the
/// fired signals (the scheduler chooses which) and applies that signal's
/// response function.
pub struct BroadcastMachine<S: State> {
    machine: Machine<S>,
    initiates: Arc<dyn Fn(&S) -> bool + Send + Sync>,
    broadcast: BroadcastFn<S>,
}

/// A shared broadcast map `B : Q_B → Q × (Q → Q)`.
type BroadcastFn<S> = Arc<dyn Fn(&S) -> (S, ResponseFn<S>) + Send + Sync>;

impl<S: State> Clone for BroadcastMachine<S> {
    fn clone(&self) -> Self {
        BroadcastMachine {
            machine: self.machine.clone(),
            initiates: Arc::clone(&self.initiates),
            broadcast: Arc::clone(&self.broadcast),
        }
    }
}

impl<S: State> fmt::Debug for BroadcastMachine<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BroadcastMachine")
            .field("machine", &self.machine)
            .finish()
    }
}

impl<S: State> BroadcastMachine<S> {
    /// Creates a machine with weak broadcasts.
    pub fn new(
        machine: Machine<S>,
        initiates: impl Fn(&S) -> bool + Send + Sync + 'static,
        broadcast: impl Fn(&S) -> (S, ResponseFn<S>) + Send + Sync + 'static,
    ) -> Self {
        BroadcastMachine {
            machine,
            initiates: Arc::new(initiates),
            broadcast: Arc::new(broadcast),
        }
    }

    /// The underlying neighbourhood machine.
    pub fn machine(&self) -> &Machine<S> {
        &self.machine
    }

    /// Whether `s ∈ Q_B` initiates broadcasts.
    pub fn initiates(&self, s: &S) -> bool {
        (self.initiates)(s)
    }

    /// The broadcast `B(s) = (s', f)` of an initiating state.
    pub fn broadcast(&self, s: &S) -> (S, ResponseFn<S>) {
        (self.broadcast)(s)
    }

    /// The initial state for a label.
    pub fn initial(&self, label: Label) -> S {
        self.machine.initial(label)
    }

    /// The output classification of a state.
    pub fn output(&self, s: &S) -> Output {
        self.machine.output(s)
    }
}

/// The semantic transition system of a [`BroadcastMachine`] on a graph:
/// successors enumerate single-agent neighbourhood steps plus every weak
/// broadcast (all independent initiator sets × all signal attributions).
///
/// Exhaustive by construction; panics (via [`cartesian_product`]) if the
/// instance is too large for exact treatment — use
/// [`run_until_stable`](wam_core::run_until_stable) for those.
#[derive(Debug)]
pub struct BroadcastSystem<'a, S: State> {
    bm: &'a BroadcastMachine<S>,
    graph: &'a Graph,
    choice_cap: usize,
    broadcast_prob: f64,
}

impl<'a, S: State> BroadcastSystem<'a, S> {
    /// Wraps a broadcast machine and a graph with the default choice cap and
    /// a sampled broadcast probability of 0.3.
    pub fn new(bm: &'a BroadcastMachine<S>, graph: &'a Graph) -> Self {
        BroadcastSystem {
            bm,
            graph,
            choice_cap: 1 << 14,
            broadcast_prob: 0.3,
        }
    }

    /// Overrides the per-step choice-enumeration cap.
    pub fn with_choice_cap(mut self, cap: usize) -> Self {
        self.choice_cap = cap;
        self
    }

    /// Overrides the probability that a sampled step fires a broadcast when
    /// initiators exist (see
    /// [`sampled_step`](ScheduledSystem::sampled_step)). Only the sampled
    /// runner uses it; the exact successor enumeration does not.
    pub fn with_broadcast_prob(mut self, p: f64) -> Self {
        self.broadcast_prob = p;
        self
    }

    fn initiators(&self, c: &Config<S>) -> Vec<NodeId> {
        self.graph
            .nodes()
            .filter(|&v| self.bm.initiates(c.state(v)))
            .collect()
    }

    /// All configurations reachable by one weak-broadcast step.
    pub fn broadcast_successors(&self, c: &Config<S>) -> Vec<Config<S>> {
        let initiators = self.initiators(c);
        if initiators.is_empty() {
            return Vec::new();
        }
        let sets = independent_subsets(
            &initiators,
            |&a, &b| self.graph.has_edge(a, b),
            self.choice_cap,
        );
        let mut out: Vec<Config<S>> = Vec::new();
        for set in sets {
            // Per-receiver options: each non-initiator may apply any fired
            // signal's response function. Deduplicate per node by resulting
            // state.
            let responses: Vec<ResponseFn<S>> = set
                .iter()
                .map(|&v| self.bm.broadcast(c.state(v)).1)
                .collect();
            let mut options: Vec<Vec<S>> = Vec::with_capacity(c.len());
            for v in self.graph.nodes() {
                if set.contains(&v) {
                    options.push(vec![self.bm.broadcast(c.state(v)).0]);
                } else {
                    let mut opts: Vec<S> = Vec::new();
                    for f in &responses {
                        let s = f(c.state(v));
                        if !opts.contains(&s) {
                            opts.push(s);
                        }
                    }
                    options.push(opts);
                }
            }
            for states in cartesian_product(&options, self.choice_cap) {
                let next = Config::from_states(states);
                if next != *c && !out.contains(&next) {
                    out.push(next);
                }
            }
        }
        out
    }

    /// All configurations reachable by one single-agent neighbourhood step
    /// (initiating agents cannot take neighbourhood steps).
    pub fn neighbourhood_successors(&self, c: &Config<S>) -> Vec<Config<S>> {
        let mut out = Vec::new();
        for v in self.graph.nodes() {
            if self.bm.initiates(c.state(v)) {
                continue;
            }
            let stepped = c.stepped_state(self.bm.machine(), self.graph, v);
            if stepped == *c.state(v) {
                continue;
            }
            let mut states = c.states().to_vec();
            states[v] = stepped;
            let next = Config::from_states(states);
            if !out.contains(&next) {
                out.push(next);
            }
        }
        out
    }
}

impl<S: State> TransitionSystem for BroadcastSystem<'_, S> {
    type C = Config<S>;

    fn initial_config(&self) -> Config<S> {
        Config::initial(self.bm.machine(), self.graph)
    }

    fn successors(&self, c: &Config<S>) -> Vec<Config<S>> {
        let mut out = SuccBuf::new();
        self.successors_into(c, &mut out);
        out.into_vec()
    }

    fn successors_into(&self, c: &Config<S>, out: &mut SuccBuf<Config<S>>) {
        // Single-agent neighbourhood steps first, then weak broadcasts —
        // the emission order and dedup of the Vec-returning enumeration,
        // with the neighbourhood steps written straight into the reusable
        // buffer.
        for v in self.graph.nodes() {
            if self.bm.initiates(c.state(v)) {
                continue;
            }
            let stepped = c.stepped_state(self.bm.machine(), self.graph, v);
            if stepped == *c.state(v) {
                continue;
            }
            let mut states = c.states().to_vec();
            states[v] = stepped;
            let next = Config::from_states(states);
            if !out.contains(&next) {
                out.push(next);
            }
        }
        for next in self.broadcast_successors(c) {
            if !out.contains(&next) {
                out.push(next);
            }
        }
    }

    fn is_accepting(&self, c: &Config<S>) -> bool {
        c.is_accepting(self.bm.machine())
    }

    fn is_rejecting(&self, c: &Config<S>) -> bool {
        c.is_rejecting(self.bm.machine())
    }
}

impl<S: State> ScheduledSystem for BroadcastSystem<'_, S> {
    fn node_count(&self) -> usize {
        self.graph.node_count()
    }

    fn outputs(&self, c: &Config<S>) -> Vec<Output> {
        c.states().iter().map(|s| self.bm.output(s)).collect()
    }

    /// A random neighbourhood step, or (with probability
    /// [`broadcast_prob`](BroadcastSystem::with_broadcast_prob) when
    /// initiators exist) a random weak broadcast with a greedy random
    /// independent initiator set and uniform signal attribution.
    fn sampled_step(&self, c: &Config<S>, rng: &mut StdRng) -> StepOutcome<Config<S>> {
        let initiators = self.initiators(c);
        if !initiators.is_empty() && rng.random_bool(self.broadcast_prob) {
            // Random nonempty independent set of initiators: shuffle, keep
            // the first element, then include further compatible initiators
            // with probability ½ each (maximal sets alone would starve
            // protocols that need singleton broadcasts to make progress).
            let mut order = initiators;
            for i in (1..order.len()).rev() {
                order.swap(i, rng.random_range(0..=i));
            }
            let mut set: Vec<NodeId> = Vec::new();
            for v in order {
                if set.iter().all(|&u| !self.graph.has_edge(u, v))
                    && (set.is_empty() || rng.random_bool(0.5))
                {
                    set.push(v);
                }
            }
            let responses: Vec<ResponseFn<S>> = set
                .iter()
                .map(|&v| self.bm.broadcast(c.state(v)).1)
                .collect();
            let states: Vec<S> = self
                .graph
                .nodes()
                .map(|v| {
                    if set.contains(&v) {
                        self.bm.broadcast(c.state(v)).0
                    } else {
                        let f = &responses[rng.random_range(0..responses.len())];
                        f(c.state(v))
                    }
                })
                .collect();
            StepOutcome::Stepped(Config::from_states(states))
        } else {
            // Random single-agent neighbourhood step; a selected initiator
            // passes (initiating agents take no neighbourhood steps).
            let v = rng.random_range(0..self.graph.node_count());
            if self.bm.initiates(c.state(v)) {
                return StepOutcome::Stepped(c.clone());
            }
            let stepped = c.stepped_state(self.bm.machine(), self.graph, v);
            let mut states = c.states().to_vec();
            states[v] = stepped;
            StepOutcome::Stepped(Config::from_states(states))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wam_core::{run_until_stable, Exploration, Machine, StabilityOptions};
    use wam_graph::{generators, LabelCount};

    /// The Lemma C.5 threshold protocol `x ≥ k` as a broadcast machine:
    /// states 0..=k, broadcasts `i ↦ i, {i ↦ i+1}` for 0 < i < k and
    /// `k ↦ k, {q ↦ k}`.
    pub(crate) fn threshold(k: u32) -> BroadcastMachine<u32> {
        let machine = Machine::new(
            1,
            move |l: Label| if l.0 == 0 { 1 } else { 0 },
            |&s: &u32, _| s, // no neighbourhood transitions
            move |&s| {
                if s == k {
                    Output::Accept
                } else {
                    Output::Reject
                }
            },
        );
        BroadcastMachine::new(
            machine,
            move |&s| s >= 1,
            move |&s| {
                if s == k {
                    (k, Arc::new(move |_: &u32| k) as ResponseFn<u32>)
                } else {
                    (
                        s,
                        Arc::new(move |&r: &u32| if r == s && r < k { r + 1 } else { r })
                            as ResponseFn<u32>,
                    )
                }
            },
        )
    }

    #[test]
    fn threshold_protocol_exact_verdicts() {
        for (a, b, expect) in [
            (3u64, 2u64, true), // 3 ≥ 3
            (2, 3, false),      // 2 < 3
            (4, 1, true),
            (1, 3, false),
        ] {
            let g = generators::labelled_cycle(&LabelCount::from_vec(vec![a, b]));
            let bm = threshold(3);
            let sys = BroadcastSystem::new(&bm, &g);
            let v = Exploration::explore(&sys, 200_000).unwrap().verdict();
            assert_eq!(v.decided(), Some(expect), "x≥3 on a={a}, b={b} gave {v:?}");
        }
    }

    #[test]
    fn broadcast_successors_respect_independence() {
        // Two adjacent initiators can never fire together.
        let g = generators::labelled_line(&LabelCount::from_vec(vec![2, 1]));
        let bm = threshold(2);
        let sys = BroadcastSystem::new(&bm, &g);
        let c0 = sys.initial_config();
        // Initial states on the line x0 x0 x1 → 1 1 0: nodes 0,1 initiate and
        // are adjacent.
        let succs = sys.broadcast_successors(&c0);
        for s in &succs {
            // At most one of nodes 0,1 kept its own state while the other
            // bumped... specifically never both stay 1 with node 2 bumped by
            // two simultaneous adjacent broadcasts — just check none of the
            // successors is produced by a non-independent set: both 0 and 1
            // remaining at 1 while 2 stays 0 is the silent case, excluded.
            assert_ne!(s, &c0);
        }
        assert!(!succs.is_empty());
    }

    #[test]
    fn statistical_runner_matches_exact() {
        let g = generators::labelled_cycle(&LabelCount::from_vec(vec![3, 2]));
        let bm = threshold(3);
        let sys = BroadcastSystem::new(&bm, &g);
        let r = run_until_stable(&sys, 42, StabilityOptions::new(50_000, 500));
        assert_eq!(r.verdict, wam_core::Verdict::Accepts);
    }

    #[test]
    fn initiators_cannot_take_neighbourhood_steps() {
        // A machine whose δ would move initiators if it could.
        let machine = Machine::new(1, |_| 0u8, |&s, _| s + 1, |_| Output::Neutral);
        let bm = BroadcastMachine::new(
            machine,
            |&s| s == 0,
            |&s| (s, Arc::new(|&r: &u8| r) as ResponseFn<u8>),
        );
        let g = generators::cycle(3);
        let sys = BroadcastSystem::new(&bm, &g);
        let c0 = sys.initial_config();
        assert!(sys.neighbourhood_successors(&c0).is_empty());
    }
}
