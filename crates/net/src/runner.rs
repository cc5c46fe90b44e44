//! The chaos runner: one sequential virtual-time router over real wire
//! lines, emergent-stabilisation detection, and cross-validation against
//! the exact deciders.
//!
//! ## Determinism by seed
//!
//! The network is a discrete-event simulation: a priority queue of
//! `(tick, seq)`-ordered events. The router pops one event, hands a
//! delivered line to the destination node's [`NodeProto::handle`], parses
//! and routes every line the node emits, and only then touches the next
//! event. No two activations ever overlap, so the sequence of deliveries
//! — and every RNG draw that shapes it — is a pure function of
//! `(machine, graph, plan, seed, options)`. The whole run folds into an
//! FNV-1a trace digest: the same seed replays the same digest.
//!
//! ## Emergent stabilisation
//!
//! The hub never inspects node internals. It watches the stream of
//! `activate_ok` receipts — each carries the node's output — and declares
//! stabilisation the way an outside observer must: when the believed
//! outputs have been a non-neutral consensus and no node has reported a
//! state change for a full window of concluded activations (quiescence +
//! unchanged-output window). Exhausting the activation budget first yields
//! [`Verdict::NoConsensus`].

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::rc::Rc;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use wam_core::{
    decide, Backend, ExploreError, ExploreOptions, Machine, Output, Schedule, State, Verdict,
};
use wam_graph::Graph;

use crate::fault::FaultPlan;
use crate::node::{NodeProto, StateIntern};
use crate::wire::{node_addr, parse_line, render_line, Body, Envelope, Payload, HUB};

/// Tuning knobs for a chaos run.
#[derive(Debug, Clone)]
pub struct ChaosOptions {
    /// Budget: maximum number of concluded activations before the run
    /// gives up with [`Verdict::NoConsensus`].
    pub max_rounds: u64,
    /// Stability window: concluded activations with consensus outputs and
    /// no reported state change required to declare stabilisation.
    pub window: u64,
}

impl Default for ChaosOptions {
    fn default() -> Self {
        ChaosOptions {
            max_rounds: 50_000,
            window: 600,
        }
    }
}

impl ChaosOptions {
    /// The given budget and window (the two that vary between quick
    /// smokes and long soak runs).
    pub fn budget(max_rounds: u64, window: u64) -> Self {
        ChaosOptions { max_rounds, window }
    }
}

/// The long-consensus clock fires after `CONSENSUS_FACTOR × window`
/// concluded activations of unchanged output consensus even while states
/// keep churning — compiled simulation machines (broadcast, rendezvous)
/// never quiesce state-wise, so this mirrors the second clock of
/// [`wam_core::StabilityClock`].
const CONSENSUS_FACTOR: u64 = 10;
/// Virtual ticks between activation retries when a receipt is missing.
const RETRY_TICKS: u64 = 64;
/// Retries before an activation is written off as starved.
const MAX_RETRIES: u32 = 8;

/// Counters from one chaos run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosStats {
    /// Concluded activations (completed + starved).
    pub rounds: u64,
    /// Activations that produced an `activate_ok`.
    pub completed: u64,
    /// Activations written off after `MAX_RETRIES` retries.
    pub starved: u64,
    /// Lines delivered to a node or the hub.
    pub delivered: u64,
    /// Data messages dropped by the Bernoulli fault.
    pub dropped_random: u64,
    /// Data messages dropped by partitions / starved links.
    pub dropped_blocked: u64,
    /// Data messages duplicated in flight.
    pub duplicated: u64,
    /// Crash events injected.
    pub crashes: u64,
    /// Distinct machine states interned over the run.
    pub distinct_states: u64,
}

/// The result of one chaos run.
#[derive(Debug, Clone)]
pub struct ChaosOutcome {
    /// The emergent verdict.
    pub verdict: Verdict,
    /// FNV-1a digest of the delivered-line trace: the replay fingerprint.
    pub digest: u64,
    /// Concluded-activation count at which stabilisation was declared.
    pub stabilised_at: Option<u64>,
    /// Counters.
    pub stats: ChaosStats,
}

/// A structured record of a chaos verdict disagreeing with the exact
/// decider — data, not failure: under unfair fault plans divergence is the
/// *expected* finding.
#[derive(Debug, Clone)]
pub struct DivergenceReport {
    /// What [`wam_core::decide`] says.
    pub expected: Verdict,
    /// What emerged over the faulty network.
    pub emergent: Verdict,
    /// The seed that replays the run.
    pub seed: u64,
    /// Whether the plan preserves the paper's fairness premises. A
    /// divergence with `true` here is a bug; with `false` it is a
    /// demonstration that the fairness premise is load-bearing.
    pub fairness_preserved: bool,
    /// Human-readable fault summary.
    pub faults: String,
    /// Counters of the diverging run.
    pub stats: ChaosStats,
}

impl std::fmt::Display for DivergenceReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "divergence: exact {:?} vs emergent {:?} (seed {}, fairness {}, faults: {}; {} rounds, {} starved)",
            self.expected,
            self.emergent,
            self.seed,
            if self.fairness_preserved { "preserved" } else { "broken" },
            self.faults,
            self.stats.rounds,
            self.stats.starved,
        )
    }
}

/// One cross-validated chaos run.
#[derive(Debug, Clone)]
pub struct CrossValidation {
    /// The exact verdict.
    pub expected: Verdict,
    /// The chaos run.
    pub outcome: ChaosOutcome,
    /// `Some` iff the verdicts disagree.
    pub divergence: Option<DivergenceReport>,
}

impl CrossValidation {
    /// Did the emergent verdict match the exact one?
    pub fn agrees(&self) -> bool {
        self.divergence.is_none()
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Where a line is headed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Dest {
    Node(usize),
    Hub,
}

#[derive(Debug)]
enum Ev {
    /// A line crossing the network arrives.
    Deliver { dest: Dest, line: String },
    /// Check whether activation `round` produced a receipt; retry or give
    /// up if not.
    Retry { round: u64, attempt: u32 },
    /// Injected crash of a node.
    Crash(usize),
    /// Injected restart of a node.
    Restart(usize),
}

struct QEntry {
    tick: u64,
    seq: u64,
    ev: Ev,
}

impl PartialEq for QEntry {
    fn eq(&self, other: &Self) -> bool {
        (self.tick, self.seq) == (other.tick, other.seq)
    }
}
impl Eq for QEntry {}
impl PartialOrd for QEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for QEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest-first.
        (other.tick, other.seq).cmp(&(self.tick, self.seq))
    }
}

const CONTROL_DELAY: u64 = 1;

struct Driver<S: State> {
    machine: Machine<S>,
    labels: Vec<u64>,
    neighbours: Vec<Vec<u64>>,
    plan: FaultPlan,
    opts: ChaosOptions,
    rng: StdRng,
    now: u64,
    seq: u64,
    queue: BinaryHeap<QEntry>,
    nodes: Vec<NodeProto<S>>,
    intern: Rc<StateIntern<S>>,
    hub_msg_id: u64,
    // Activation state.
    current_round: u64,
    current_node: usize,
    // Observer state.
    believed: Vec<Output>,
    rounds: u64,
    last_change: u64,
    last_output_change: u64,
    stats: ChaosStats,
    digest: u64,
    verdict: Option<Verdict>,
    stabilised_at: Option<u64>,
}

impl<S: State> Driver<S> {
    fn push(&mut self, tick: u64, ev: Ev) {
        self.seq += 1;
        self.queue.push(QEntry {
            tick,
            seq: self.seq,
            ev,
        });
    }

    fn hub_line(&mut self, dest: usize, payload: Payload) -> String {
        self.hub_msg_id += 1;
        render_line(&Envelope {
            src: HUB.to_string(),
            dest: node_addr(dest),
            body: Body {
                msg_id: Some(self.hub_msg_id),
                in_reply_to: None,
                payload,
            },
        })
    }

    /// Routes one outbound line: control traffic (hub-involved) is
    /// reliable with unit delay; node-to-node data traffic goes through
    /// the fault plan. RNG draws happen in a fixed order (block check,
    /// drop, delay, duplicate, duplicate-delay) so the stream is
    /// replayable.
    fn route(&mut self, line: String) {
        let Ok(env) = parse_line(&line) else {
            return; // the harness never emits malformed lines
        };
        if env.dest == HUB {
            self.push(
                self.now + CONTROL_DELAY,
                Ev::Deliver {
                    dest: Dest::Hub,
                    line,
                },
            );
            return;
        }
        let Some(dest) = crate::wire::parse_node_addr(&env.dest) else {
            return;
        };
        if env.src == HUB {
            self.push(
                self.now + CONTROL_DELAY,
                Ev::Deliver {
                    dest: Dest::Node(dest),
                    line,
                },
            );
            return;
        }
        let Some(src) = crate::wire::parse_node_addr(&env.src) else {
            return;
        };
        if self.plan.link_blocked(src, dest, self.now) {
            self.stats.dropped_blocked += 1;
            return;
        }
        if self.rng.random_bool(self.plan.drop_p) {
            self.stats.dropped_random += 1;
            return;
        }
        let (lo, hi) = self.plan.delay;
        let delay = self.rng.random_range(lo..=hi).max(1);
        self.push(
            self.now + delay,
            Ev::Deliver {
                dest: Dest::Node(dest),
                line: line.clone(),
            },
        );
        if self.rng.random_bool(self.plan.dup_p) {
            self.stats.duplicated += 1;
            let delay = self.rng.random_range(lo..=hi).max(1);
            self.push(
                self.now + delay,
                Ev::Deliver {
                    dest: Dest::Node(dest),
                    line,
                },
            );
        }
    }

    fn deliver_to_node(&mut self, v: usize, line: String) {
        self.stats.delivered += 1;
        self.digest = fnv(self.digest, &self.now.to_le_bytes());
        self.digest = fnv(self.digest, line.as_bytes());
        for o in self.nodes[v].handle(&line) {
            self.route(o);
        }
    }

    fn start_round(&mut self, round: u64) {
        self.current_round = round;
        self.current_node = self.rng.random_range(0..self.labels.len());
        let line = self.hub_line(self.current_node, Payload::Activate { round });
        self.route(line);
        self.push(self.now + RETRY_TICKS, Ev::Retry { round, attempt: 1 });
    }

    /// Concludes the current activation (completed or starved), runs the
    /// two-clock stability check, and either finishes or starts the next
    /// round.
    fn conclude_round(&mut self, changed: bool, output_changed: bool) {
        self.rounds += 1;
        self.stats.rounds = self.rounds;
        if changed {
            self.last_change = self.rounds;
        }
        if output_changed {
            self.last_output_change = self.rounds;
        }
        let consensus = match self.believed.first() {
            Some(&o) if o != Output::Neutral => self.believed.iter().all(|&b| b == o),
            _ => false,
        };
        let quiescent = self.rounds - self.last_change >= self.opts.window;
        let long_consensus = self.rounds - self.last_output_change
            >= self.opts.window.saturating_mul(CONSENSUS_FACTOR);
        if consensus && (quiescent || long_consensus) {
            self.verdict = Some(match self.believed[0] {
                Output::Accept => Verdict::Accepts,
                Output::Reject => Verdict::Rejects,
                Output::Neutral => unreachable!("consensus is non-neutral"),
            });
            self.stabilised_at = Some(self.rounds);
            return;
        }
        if self.rounds >= self.opts.max_rounds {
            self.verdict = Some(Verdict::NoConsensus);
            return;
        }
        let next = self.current_round + 1;
        self.start_round(next);
    }

    fn handle_hub(&mut self, line: &str) {
        self.stats.delivered += 1;
        self.digest = fnv(self.digest, &self.now.to_le_bytes());
        self.digest = fnv(self.digest, line.as_bytes());
        let Ok(env) = parse_line(line) else {
            return;
        };
        if let Payload::ActivateOk {
            round,
            changed,
            output,
            ..
        } = env.body.payload
        {
            if round != self.current_round {
                return; // receipt for a round already concluded
            }
            let Some(node) = crate::wire::parse_node_addr(&env.src) else {
                return;
            };
            let new: Output = output.into();
            let output_changed = self.believed[node] != new;
            self.believed[node] = new;
            self.stats.completed += 1;
            self.conclude_round(changed, output_changed);
        }
        // init_ok / topology_ok / crash_ok need no bookkeeping.
    }

    fn run(mut self) -> ChaosOutcome {
        // Birth: init + topology over the (reliable) control plane,
        // delivered synchronously so every node is up before chaos starts.
        for v in 0..self.labels.len() {
            let init = self.hub_line(
                v,
                Payload::Init {
                    node: v as u64,
                    label: self.labels[v],
                },
            );
            self.deliver_to_node(v, init);
        }
        for v in 0..self.labels.len() {
            let neighbours = self.neighbours[v].clone();
            let topo = self.hub_line(v, Payload::Topology { neighbours });
            self.deliver_to_node(v, topo);
        }
        // Inject the crash schedule.
        let crashes = self.plan.crashes.clone();
        for c in &crashes {
            self.push(c.at, Ev::Crash(c.node));
            if let Some(r) = c.restart_at {
                self.push(r, Ev::Restart(c.node));
            }
        }
        self.start_round(1);

        while self.verdict.is_none() {
            let Some(entry) = self.queue.pop() else {
                // Defensive: a pending Retry always exists while a round is
                // open, so an empty queue means the run leaked its round.
                self.verdict = Some(Verdict::NoConsensus);
                break;
            };
            self.now = self.now.max(entry.tick);
            match entry.ev {
                Ev::Deliver {
                    dest: Dest::Node(v),
                    line,
                } => self.deliver_to_node(v, line),
                Ev::Deliver {
                    dest: Dest::Hub,
                    line,
                } => self.handle_hub(&line),
                Ev::Retry { round, attempt } => {
                    if round != self.current_round {
                        continue; // the round concluded; stale timer
                    }
                    if attempt > MAX_RETRIES {
                        // Starved: the node never got a complete fresh view.
                        self.stats.starved += 1;
                        self.conclude_round(false, false);
                        continue;
                    }
                    let line = self.hub_line(self.current_node, Payload::Activate { round });
                    self.route(line);
                    self.push(
                        self.now + RETRY_TICKS,
                        Ev::Retry {
                            round,
                            attempt: attempt + 1,
                        },
                    );
                }
                Ev::Crash(v) => {
                    self.stats.crashes += 1;
                    let line = self.hub_line(v, Payload::Crash);
                    self.route(line);
                }
                Ev::Restart(v) => {
                    let init = self.hub_line(
                        v,
                        Payload::Init {
                            node: v as u64,
                            label: self.labels[v],
                        },
                    );
                    self.route(init);
                    let neighbours = self.neighbours[v].clone();
                    let topo = self.hub_line(v, Payload::Topology { neighbours });
                    self.route(topo);
                    // The restart resets the node to δ₀: a state change in
                    // the observer's book.
                    self.believed[v] = self.machine.output(
                        &self
                            .machine
                            .initial(wam_graph::Label(self.labels[v] as u16)),
                    );
                    self.last_change = self.rounds;
                    self.last_output_change = self.rounds;
                }
            }
        }

        self.stats.distinct_states = self.intern.len() as u64;
        ChaosOutcome {
            verdict: self.verdict.expect("loop exits with a verdict"),
            digest: self.digest,
            stabilised_at: self.stabilised_at,
            stats: self.stats,
        }
    }
}

/// Runs `machine` on `graph` as real communicating nodes over a simulated
/// network governed by `plan`, with all randomness derived from `seed`.
///
/// Every completed activation is an atomic exclusive-model step (see the
/// [`node`](crate::node) module docs), so under a fairness-preserving plan
/// the run is a fair run of the paper's model and its emergent verdict is
/// expected to match [`wam_core::decide`]; under unfair plans starvation
/// shows up as frozen outputs and the run typically ends in
/// [`Verdict::NoConsensus`] or a wrong consensus — which is the point.
pub fn run_chaos<S: State>(
    machine: &Machine<S>,
    graph: &Graph,
    plan: &FaultPlan,
    seed: u64,
    opts: &ChaosOptions,
) -> ChaosOutcome {
    let n = graph.node_count();
    assert!(n > 0, "cannot run chaos on an empty graph");
    let intern: Rc<StateIntern<S>> = Rc::new(StateIntern::new());
    let driver = Driver {
        machine: machine.clone(),
        labels: graph.nodes().map(|v| u64::from(graph.label(v).0)).collect(),
        neighbours: graph
            .nodes()
            .map(|v| graph.neighbours(v).iter().map(|&u| u as u64).collect())
            .collect(),
        plan: plan.clone(),
        opts: opts.clone(),
        rng: StdRng::seed_from_u64(seed),
        now: 0,
        seq: 0,
        queue: BinaryHeap::new(),
        nodes: (0..n)
            .map(|_| NodeProto::new(machine.clone(), Rc::clone(&intern)))
            .collect(),
        intern,
        hub_msg_id: 0,
        current_round: 0,
        current_node: 0,
        believed: graph
            .nodes()
            .map(|v| machine.output(&machine.initial(graph.label(v))))
            .collect(),
        rounds: 0,
        last_change: 0,
        last_output_change: 0,
        stats: ChaosStats::default(),
        digest: FNV_OFFSET,
        verdict: None,
        stabilised_at: None,
    };
    driver.run()
}

/// Runs a chaos run *and* the exact decider, packaging any disagreement as
/// a [`DivergenceReport`].
///
/// # Errors
///
/// Propagates [`ExploreError`] from the exact decider (state-space limit,
/// inconsistency); the chaos run itself cannot fail.
pub fn cross_validate<S: State>(
    machine: &Machine<S>,
    graph: &Graph,
    plan: &FaultPlan,
    seed: u64,
    opts: &ChaosOptions,
    explore: ExploreOptions,
) -> Result<CrossValidation, ExploreError> {
    let outcome = run_chaos(machine, graph, plan, seed, opts);
    let (expected, _) = decide(
        machine,
        graph,
        Schedule::PseudoStochastic,
        Backend::Auto,
        explore,
    )?;
    let divergence = (outcome.verdict != expected).then(|| DivergenceReport {
        expected,
        emergent: outcome.verdict,
        seed,
        fairness_preserved: plan.preserves_fairness(),
        faults: plan.summary(),
        stats: outcome.stats,
    });
    Ok(CrossValidation {
        expected,
        outcome,
        divergence,
    })
}
