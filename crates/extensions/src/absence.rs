//! Distributed machines with weak absence detection (Definition 4.8):
//! synchronous scheduling, where initiating agents learn the support of a
//! covering subset of the configuration.

use crate::util::cartesian_product;
use rand::rngs::StdRng;
use rand::RngExt;
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;
use wam_core::{
    Config, Machine, Output, ScheduledSystem, State, StepOutcome, SuccBuf, TransitionSystem,
};
use wam_graph::{Graph, Label, NodeId};

/// A distributed machine with weak absence detection
/// `(Q, δ₀, δ, Q_A, A, Y, N)` under the synchronous scheduler (the paper's
/// `DA$` setting).
///
/// A step from `C` first lets **every** agent execute its neighbourhood
/// transition simultaneously (yielding `C'`), then performs a weak absence
/// detection: with `S` the agents of `C'` in initiating states, the scheduler
/// picks sets `S_v ∋ v` with `⋃_v S_v = V`, and each `v ∈ S` moves to
/// `A(C'(v), support(C'(S_v)))`. If `S` is empty the computation hangs
/// (`C'' := C`).
pub struct AbsenceMachine<S: State> {
    machine: Machine<S>,
    initiates: Arc<dyn Fn(&S) -> bool + Send + Sync>,
    detect: DetectFn<S>,
}

/// A shared absence-detection map `A : Q_A × 2^Q → Q`.
type DetectFn<S> = Arc<dyn Fn(&S, &BTreeSet<S>) -> S + Send + Sync>;

impl<S: State> Clone for AbsenceMachine<S> {
    fn clone(&self) -> Self {
        AbsenceMachine {
            machine: self.machine.clone(),
            initiates: Arc::clone(&self.initiates),
            detect: Arc::clone(&self.detect),
        }
    }
}

impl<S: State> fmt::Debug for AbsenceMachine<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AbsenceMachine")
            .field("machine", &self.machine)
            .finish()
    }
}

impl<S: State> AbsenceMachine<S> {
    /// Creates a machine with weak absence detection.
    pub fn new(
        machine: Machine<S>,
        initiates: impl Fn(&S) -> bool + Send + Sync + 'static,
        detect: impl Fn(&S, &BTreeSet<S>) -> S + Send + Sync + 'static,
    ) -> Self {
        AbsenceMachine {
            machine,
            initiates: Arc::new(initiates),
            detect: Arc::new(detect),
        }
    }

    /// The underlying neighbourhood machine.
    pub fn machine(&self) -> &Machine<S> {
        &self.machine
    }

    /// Whether `s ∈ Q_A` initiates absence detections.
    pub fn initiates(&self, s: &S) -> bool {
        (self.initiates)(s)
    }

    /// The absence-detection transition `A(s, support)`.
    pub fn detect(&self, s: &S, support: &BTreeSet<S>) -> S {
        (self.detect)(s, support)
    }

    /// The initial state for a label.
    pub fn initial(&self, label: Label) -> S {
        self.machine.initial(label)
    }

    /// The output classification of a state.
    pub fn output(&self, s: &S) -> Output {
        self.machine.output(s)
    }

    /// The synchronous neighbourhood half-step: every agent applies δ.
    pub fn sync_step(&self, graph: &Graph, c: &Config<S>) -> Config<S> {
        let states = graph
            .nodes()
            .map(|v| c.stepped_state(&self.machine, graph, v))
            .collect();
        Config::from_states(states)
    }
}

/// The semantic transition system of an [`AbsenceMachine`]: successors
/// enumerate every achievable family of observed supports.
///
/// A family `(T_v)_{v∈S}` of supports is achievable iff each
/// `T_v ⊆ supp(C')` contains `C'(v)` and the family jointly covers
/// `supp(C')` (each node must belong to some `S_v`).
#[derive(Debug)]
pub struct AbsenceSystem<'a, S: State> {
    am: &'a AbsenceMachine<S>,
    graph: &'a Graph,
    choice_cap: usize,
}

impl<'a, S: State> AbsenceSystem<'a, S> {
    /// Wraps an absence machine and a graph with the default choice cap.
    pub fn new(am: &'a AbsenceMachine<S>, graph: &'a Graph) -> Self {
        AbsenceSystem {
            am,
            graph,
            choice_cap: 1 << 14,
        }
    }

    /// Overrides the per-step choice-enumeration cap.
    pub fn with_choice_cap(mut self, cap: usize) -> Self {
        self.choice_cap = cap;
        self
    }
}

fn subsets_containing<S: State>(supp: &BTreeSet<S>, must: &S) -> Vec<BTreeSet<S>> {
    let rest: Vec<&S> = supp.iter().filter(|s| *s != must).collect();
    let mut out = Vec::with_capacity(1 << rest.len());
    for mask in 0..(1usize << rest.len()) {
        let mut t = BTreeSet::new();
        t.insert(must.clone());
        for (i, s) in rest.iter().enumerate() {
            if mask & (1 << i) != 0 {
                t.insert((*s).clone());
            }
        }
        out.push(t);
    }
    out
}

impl<S: State> TransitionSystem for AbsenceSystem<'_, S> {
    type C = Config<S>;

    fn initial_config(&self) -> Config<S> {
        Config::initial(self.am.machine(), self.graph)
    }

    fn successors(&self, c: &Config<S>) -> Vec<Config<S>> {
        let mut out = SuccBuf::new();
        self.successors_into(c, &mut out);
        out.into_vec()
    }

    fn successors_into(&self, c: &Config<S>, out: &mut SuccBuf<Config<S>>) {
        let c1 = self.am.sync_step(self.graph, c);
        let initiators: Vec<NodeId> = self
            .graph
            .nodes()
            .filter(|&v| self.am.initiates(c1.state(v)))
            .collect();
        if initiators.is_empty() {
            // The computation hangs: C'' = C, a silent self-loop.
            return;
        }
        let supp: BTreeSet<S> = c1.states().iter().cloned().collect();
        let options: Vec<Vec<BTreeSet<S>>> = initiators
            .iter()
            .map(|&v| subsets_containing(&supp, c1.state(v)))
            .collect();
        for family in cartesian_product(&options, self.choice_cap) {
            // Joint coverage: every observed state must appear in some T_v.
            let mut union: BTreeSet<S> = BTreeSet::new();
            for t in &family {
                union.extend(t.iter().cloned());
            }
            if union != supp {
                continue;
            }
            let mut states = c1.states().to_vec();
            for (i, &v) in initiators.iter().enumerate() {
                states[v] = self.am.detect(c1.state(v), &family[i]);
            }
            let next = Config::from_states(states);
            if next != *c && !out.contains(&next) {
                out.push(next);
            }
        }
    }

    fn is_accepting(&self, c: &Config<S>) -> bool {
        c.is_accepting(self.am.machine())
    }

    fn is_rejecting(&self, c: &Config<S>) -> bool {
        c.is_rejecting(self.am.machine())
    }
}

impl<S: State> ScheduledSystem for AbsenceSystem<'_, S> {
    fn node_count(&self) -> usize {
        self.graph.node_count()
    }

    fn outputs(&self, c: &Config<S>) -> Vec<Output> {
        c.states().iter().map(|s| self.am.output(s)).collect()
    }

    /// One synchronous step with a random cover: every node is assigned to a
    /// uniformly random initiator. A configuration without initiators hangs
    /// (`C'' = C` forever).
    fn sampled_step(&self, c: &Config<S>, rng: &mut StdRng) -> StepOutcome<Config<S>> {
        let c1 = self.am.sync_step(self.graph, c);
        let initiators: Vec<NodeId> = self
            .graph
            .nodes()
            .filter(|&v| self.am.initiates(c1.state(v)))
            .collect();
        if initiators.is_empty() {
            return StepOutcome::Hung;
        }
        let mut observed: Vec<BTreeSet<S>> = vec![BTreeSet::new(); initiators.len()];
        for v in self.graph.nodes() {
            let i = rng.random_range(0..initiators.len());
            observed[i].insert(c1.state(v).clone());
        }
        for (i, &v) in initiators.iter().enumerate() {
            observed[i].insert(c1.state(v).clone());
        }
        let mut states = c1.states().to_vec();
        for (i, &v) in initiators.iter().enumerate() {
            states[v] = self.am.detect(c1.state(v), &observed[i]);
        }
        StepOutcome::Stepped(Config::from_states(states))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wam_core::{run_until_stable, Exploration, Machine, StabilityOptions, Verdict};
    use wam_graph::{generators, LabelCount};

    /// One-shot "is state B absent" detector: label-0 agents start in `A`
    /// (initiating), label-1 agents sit in `B`. `A(A, s)` moves to `Acc` or
    /// `Rej` depending on whether `B ∈ s`.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
    enum D {
        A,
        B,
        Acc,
        Rej,
    }

    fn detector() -> AbsenceMachine<D> {
        let machine = Machine::new(
            1,
            |l: Label| if l.0 == 0 { D::A } else { D::B },
            |&s, _| s,
            |&s| match s {
                D::A | D::Acc => Output::Accept,
                D::B | D::Rej => Output::Reject,
            },
        );
        AbsenceMachine::new(
            machine,
            |&s| s == D::A,
            |_, supp| if supp.contains(&D::B) { D::Rej } else { D::Acc },
        )
    }

    #[test]
    fn all_a_accepts() {
        let c = LabelCount::from_vec(vec![4, 0]);
        let g = generators::labelled_cycle(&c);
        let am = detector();
        let sys = AbsenceSystem::new(&am, &g);
        assert_eq!(
            Exploration::explore(&sys, 100_000).unwrap().verdict(),
            Verdict::Accepts
        );
    }

    #[test]
    fn some_b_rejects_via_stable_reachability() {
        // With a B present, an all-Rej configuration is reachable (every
        // cover includes B) and terminal; no accepting configuration is ever
        // reachable because B never accepts.
        let c = LabelCount::from_vec(vec![2, 1]);
        let g = generators::labelled_cycle(&c);
        let am = detector();
        let sys = AbsenceSystem::new(&am, &g);
        assert_eq!(
            Exploration::explore(&sys, 100_000).unwrap().verdict(),
            Verdict::Rejects
        );
    }

    #[test]
    fn coverage_constraint_enforced() {
        // On a triangle with one B, the family where *no* initiator observes
        // B is not achievable: every successor in which all initiators saw
        // {A} only is absent.
        let c = LabelCount::from_vec(vec![2, 1]);
        let g = generators::labelled_clique(&c);
        let am = detector();
        let sys = AbsenceSystem::new(&am, &g);
        let c0 = sys.initial_config();
        for s in sys.successors(&c0) {
            let accs = s.states().iter().filter(|&&x| x == D::Acc).count();
            let rejs = s.states().iter().filter(|&&x| x == D::Rej).count();
            assert!(rejs >= 1, "someone must have observed B: {s:?}");
            assert!(accs + rejs == 2);
        }
    }

    #[test]
    fn hang_when_no_initiators() {
        let c = LabelCount::from_vec(vec![0, 3]);
        let g = generators::labelled_cycle(&c);
        let am = detector();
        let sys = AbsenceSystem::new(&am, &g);
        let c0 = sys.initial_config();
        assert!(sys.successors(&c0).is_empty());
        let r = run_until_stable(&sys, 5, StabilityOptions::default());
        // All-B hangs immediately, and the hung configuration is a rejecting
        // consensus, so the runner resolves the verdict at the hang.
        assert_eq!(r.verdict, Verdict::Rejects);
        assert_eq!(r.steps, 0);
    }

    #[test]
    fn statistical_runner_accepts_all_a() {
        let c = LabelCount::from_vec(vec![5, 0]);
        let g = generators::labelled_cycle(&c);
        let am = detector();
        let sys = AbsenceSystem::new(&am, &g);
        let r = run_until_stable(&sys, 9, StabilityOptions::new(10_000, 10));
        assert_eq!(r.verdict, Verdict::Accepts);
    }
}
