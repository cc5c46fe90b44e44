//! The independent certificate checker.
//!
//! # Trust argument
//!
//! This module is the trusted computing base of the certificate subsystem,
//! and it is deliberately small: every claim in a [`Certificate`] is
//! re-validated by **direct re-execution of the step semantics** — the
//! [`TransitionSystem::successors`] enumeration or
//! [`Config::successor`](wam_core::Config::successor) on a [`Machine`] —
//! plus plain set membership over the configurations stored in the
//! certificate. Nothing here touches the engine that emitted the
//! certificate: no hash-consed id spaces, no CSR edge arrays, no reverse
//! reachability machinery, no memoisation (a test in
//! `crates/certify/tests/independence.rs` greps this file's imports to keep
//! it that way).
//! A bug in the engine therefore cannot hide in a certificate that this
//! module accepts — the only shared code is the step function itself, which
//! *defines* the semantics being certified.
//!
//! # What each certificate kind establishes
//!
//! * [`Certificate::Stable`]: the path re-executes from the initial
//!   configuration; the invariant contains the endpoint, is uniformly
//!   accepting/rejecting, and is closed under every enumerated successor.
//!   The invariant is then closed under steps and output-uniform, and one
//!   of its members is reachable — exactly Prop. D.2's "a stably
//!   accepting/rejecting configuration is reachable".
//! * [`Certificate::Inconsistent`]: one accepting and one rejecting such
//!   witness from the same initial configuration.
//! * [`Certificate::NoConsensus`]: the space contains the initial
//!   configuration and is closed under steps, so it
//!   over-approximates the reachable set; every member's escape chain
//!   reaches a non-accepting (resp. non-rejecting) configuration through
//!   validated successor steps, so *no* reachable configuration is stably
//!   accepting or stably rejecting.
//! * [`Certificate::Lasso`]: replaying the deterministic schedule from the
//!   initial configuration reaches `entry` after `stem_len` steps and
//!   first returns to it, period-aligned, after `cycle_len` more, so the
//!   run's limit behaviour is that cycle; the verdict is the consensus
//!   over the outputs read at each replayed cycle step.

use crate::certificate::{
    Certificate, Escape, LassoCertificate, LassoSchedule, NoConsensusCertificate, Polarity,
    StableCertificate, StepSelection,
};
use rustc_hash::FxHashMap;
use std::fmt;
use std::hash::Hash;
use wam_core::{Config, ExclusiveSystem, Machine, Selection, State, TransitionSystem, Verdict};
use wam_graph::Graph;

/// Why a certificate was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CertError {
    /// The path does not start at the system's initial configuration.
    WrongStart,
    /// Re-executing step `index` did not produce the recorded configuration.
    PathStepMismatch {
        /// Index of the offending step.
        index: usize,
    },
    /// A `Choice` selection index is out of range for the enumerated
    /// successors, or a `Node` selection for the node set.
    BadChoice {
        /// Index of the offending step.
        index: usize,
        /// The recorded choice or node.
        choice: u32,
        /// How many successors (or nodes) there are at that point.
        available: usize,
    },
    /// The checker entry point cannot re-execute this selection kind (e.g.
    /// a `Node` selection handed to the generic system checker).
    UnsupportedSelection {
        /// Index of the offending step.
        index: usize,
    },
    /// A stability invariant with no members proves nothing.
    EmptyInvariant,
    /// The path endpoint is not an invariant member.
    EndpointNotInInvariant,
    /// Invariant member `index` does not have the claimed output polarity.
    NotUniform {
        /// Index of the offending member.
        index: usize,
    },
    /// A successor of member `index` leaves the set.
    ClosureEscape {
        /// Index of the offending member.
        index: usize,
        /// Which enumerated successor escapes.
        successor: usize,
    },
    /// An `Inconsistent` certificate must pair an accepting and a
    /// rejecting witness.
    WrongPolarities,
    /// A no-consensus space with no members cannot contain the initial
    /// configuration.
    EmptySpace,
    /// The initial configuration is not in the space.
    InitialNotInSpace,
    /// An escape table's length does not match the space.
    EscapeArity,
    /// The terminal configuration of an escape chain does not violate the
    /// polarity it should escape.
    EscapeNotViolating {
        /// Index of the offending member.
        index: usize,
    },
    /// An escape pointer names a member that is not an enumerated
    /// successor.
    EscapeNotASuccessor {
        /// Index of the offending member.
        index: usize,
        /// The pointer's target.
        via: u32,
    },
    /// An escape chain loops and never reaches a violating configuration.
    EscapeCycle {
        /// Index of the member where the loop closed.
        index: usize,
    },
    /// A lasso with an empty cycle proves nothing.
    EmptyCycle,
    /// The cycle length is not a multiple of the schedule period, so the
    /// `(configuration, step mod period)` pair never recurs.
    CycleNotPeriodAligned {
        /// The recorded cycle length.
        cycle: usize,
        /// The schedule period.
        period: usize,
    },
    /// Replaying the stem did not arrive at `entry`.
    StemMismatch,
    /// Cycle replay step `index` is back at `entry` early, or is the last and is not.
    CycleMismatch {
        /// Steps replayed from `entry`.
        index: usize,
    },
    /// The certificate's claimed verdict differs from the one the checker
    /// derives.
    VerdictMismatch {
        /// What the certificate claims.
        claimed: Verdict,
        /// What re-checking derives.
        derived: Verdict,
    },
    /// A lasso certificate was handed to an entry point without a machine
    /// to replay the deterministic schedule on.
    LassoNeedsMachine,
    /// The abstraction the certificate is phrased in (counter vectors,
    /// ring necklaces) cannot be reconstructed for this machine/graph pair,
    /// so the certificate cannot possibly witness a verdict about it.
    BackendUnavailable {
        /// Why the abstraction does not apply.
        reason: String,
    },
    /// A JSON import failed (malformed text or codec mismatch).
    Json(String),
}

impl fmt::Display for CertError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CertError::WrongStart => write!(f, "path does not start at the initial configuration"),
            CertError::PathStepMismatch { index } => {
                write!(
                    f,
                    "re-executed step {index} does not match the recorded one"
                )
            }
            CertError::BadChoice {
                index,
                choice,
                available,
            } => write!(
                f,
                "step {index}: selection {choice} out of range ({available} available)"
            ),
            CertError::UnsupportedSelection { index } => {
                write!(f, "step {index}: selection kind not replayable here")
            }
            CertError::EmptyInvariant => write!(f, "stability invariant is empty"),
            CertError::EndpointNotInInvariant => {
                write!(f, "path endpoint is not in the stability invariant")
            }
            CertError::NotUniform { index } => {
                write!(f, "invariant member {index} lacks the claimed output")
            }
            CertError::ClosureEscape { index, successor } => write!(
                f,
                "successor {successor} of member {index} leaves the certified set"
            ),
            CertError::WrongPolarities => {
                write!(
                    f,
                    "inconsistency witness must pair accepting and rejecting halves"
                )
            }
            CertError::EmptySpace => write!(f, "no-consensus space is empty"),
            CertError::InitialNotInSpace => {
                write!(f, "initial configuration is not in the certified space")
            }
            CertError::EscapeArity => write!(f, "escape table length differs from the space"),
            CertError::EscapeNotViolating { index } => {
                write!(
                    f,
                    "escape chain from member {index} ends without violating the output"
                )
            }
            CertError::EscapeNotASuccessor { index, via } => {
                write!(
                    f,
                    "escape pointer {via} of member {index} is not a successor"
                )
            }
            CertError::EscapeCycle { index } => {
                write!(f, "escape chain loops at member {index}")
            }
            CertError::EmptyCycle => write!(f, "lasso cycle is empty"),
            CertError::CycleNotPeriodAligned { cycle, period } => write!(
                f,
                "cycle length {cycle} is not a multiple of the schedule period {period}"
            ),
            CertError::StemMismatch => write!(f, "stem replay does not reach the cycle entry"),
            CertError::CycleMismatch { index } => {
                write!(f, "cycle replay breaks the recorded cycle at step {index}")
            }
            CertError::VerdictMismatch { claimed, derived } => {
                write!(
                    f,
                    "certificate claims {claimed} but re-checking derives {derived}"
                )
            }
            CertError::LassoNeedsMachine => {
                write!(
                    f,
                    "lasso certificates need a machine-level entry point to replay"
                )
            }
            CertError::BackendUnavailable { reason } => {
                write!(f, "certificate backend does not apply here: {reason}")
            }
            CertError::Json(msg) => write!(f, "JSON import failed: {msg}"),
        }
    }
}

impl std::error::Error for CertError {}

/// The re-execution surface a checker entry point provides. Private: the
/// public API is the two `verify_*` functions below.
trait Checker {
    type C: Clone + Eq + Hash + fmt::Debug;

    fn initial(&self) -> Self::C;
    fn successors(&self, c: &Self::C) -> Vec<Self::C>;
    fn is_accepting(&self, c: &Self::C) -> bool;
    fn is_rejecting(&self, c: &Self::C) -> bool;

    /// Re-executes one recorded path step by direct semantics.
    fn apply(&self, c: &Self::C, sel: &StepSelection, index: usize) -> Result<Self::C, CertError>;

    /// Resolves a `Choice` selection against the enumerated successors —
    /// shared by every checker.
    fn choose(&self, c: &Self::C, choice: u32, index: usize) -> Result<Self::C, CertError> {
        let succs = self.successors(c);
        succs
            .get(choice as usize)
            .cloned()
            .ok_or(CertError::BadChoice {
                index,
                choice,
                available: succs.len(),
            })
    }
}

/// Checker over any [`TransitionSystem`]: replays `Choice` selections only.
struct SystemChecker<'a, T: TransitionSystem>(&'a T);

impl<T: TransitionSystem> Checker for SystemChecker<'_, T> {
    type C = T::C;

    fn initial(&self) -> T::C {
        self.0.initial_config()
    }

    fn successors(&self, c: &T::C) -> Vec<T::C> {
        self.0.successors(c)
    }

    fn is_accepting(&self, c: &T::C) -> bool {
        self.0.is_accepting(c)
    }

    fn is_rejecting(&self, c: &T::C) -> bool {
        self.0.is_rejecting(c)
    }

    fn apply(&self, c: &T::C, sel: &StepSelection, index: usize) -> Result<T::C, CertError> {
        match sel {
            StepSelection::Choice(j) => self.choose(c, *j, index),
            _ => Err(CertError::UnsupportedSelection { index }),
        }
    }
}

/// Checker over a plain machine under exclusive selection: replays `Node`,
/// `All` and `Choice` selections. The successor enumeration is
/// [`ExclusiveSystem`]'s — the direct one-node-steps semantics, not
/// anything engine-derived.
struct MachineChecker<'a, S: State> {
    machine: &'a Machine<S>,
    graph: &'a Graph,
    system: ExclusiveSystem<'a, S>,
}

impl<'a, S: State> MachineChecker<'a, S> {
    fn new(machine: &'a Machine<S>, graph: &'a Graph) -> Self {
        MachineChecker {
            machine,
            graph,
            system: ExclusiveSystem::new(machine, graph),
        }
    }
}

impl<S: State> Checker for MachineChecker<'_, S> {
    type C = Config<S>;

    fn initial(&self) -> Config<S> {
        Config::initial(self.machine, self.graph)
    }

    fn successors(&self, c: &Config<S>) -> Vec<Config<S>> {
        self.system.successors(c)
    }

    fn is_accepting(&self, c: &Config<S>) -> bool {
        c.is_accepting(self.machine)
    }

    fn is_rejecting(&self, c: &Config<S>) -> bool {
        c.is_rejecting(self.machine)
    }

    fn apply(
        &self,
        c: &Config<S>,
        sel: &StepSelection,
        index: usize,
    ) -> Result<Config<S>, CertError> {
        match sel {
            StepSelection::Node(v) if *v as usize >= self.graph.node_count() => {
                Err(CertError::BadChoice {
                    index,
                    choice: *v,
                    available: self.graph.node_count(),
                })
            }
            StepSelection::Node(v) => {
                Ok(c.successor(self.machine, self.graph, &Selection::exclusive(*v as usize)))
            }
            StepSelection::All => {
                Ok(c.successor(self.machine, self.graph, &Selection::all(self.graph)))
            }
            StepSelection::Choice(j) => self.choose(c, *j, index),
        }
    }
}

/// Checks one closure row: every enumerated successor of `member` must land
/// back in `members`. Returns the member indices of the successors, which
/// the no-consensus escape check consumes as the validated adjacency.
fn check_closure_row<K: Checker>(
    ck: &K,
    member_index: &FxHashMap<&K::C, u32>,
    member: &K::C,
    i: usize,
) -> Result<Vec<u32>, CertError> {
    ck.successors(member)
        .iter()
        .enumerate()
        .map(|(j, s)| {
            member_index
                .get(s)
                .copied()
                .ok_or(CertError::ClosureEscape {
                    index: i,
                    successor: j,
                })
        })
        .collect()
}

/// Replays a reachability path from the initial configuration, returning
/// the concrete endpoint.
fn check_path<K: Checker>(
    ck: &K,
    path: &crate::certificate::ReachPath<K::C>,
) -> Result<K::C, CertError> {
    if path.start != ck.initial() {
        return Err(CertError::WrongStart);
    }
    let mut cur = path.start.clone();
    for (index, step) in path.steps.iter().enumerate() {
        let next = ck.apply(&cur, &step.selection, index)?;
        if next != step.to {
            return Err(CertError::PathStepMismatch { index });
        }
        cur = next;
    }
    Ok(cur)
}

fn check_stable<K: Checker>(ck: &K, cert: &StableCertificate<K::C>) -> Result<Verdict, CertError> {
    let endpoint = check_path(ck, &cert.path)?;
    let inv = &cert.invariant;
    if inv.members.is_empty() {
        return Err(CertError::EmptyInvariant);
    }
    let member_index: FxHashMap<&K::C, u32> = inv
        .members
        .iter()
        .enumerate()
        .map(|(i, m)| (m, i as u32))
        .collect();

    if !member_index.contains_key(&endpoint) {
        return Err(CertError::EndpointNotInInvariant);
    }
    for (i, m) in inv.members.iter().enumerate() {
        let uniform = match cert.polarity {
            Polarity::Accepting => ck.is_accepting(m),
            Polarity::Rejecting => ck.is_rejecting(m),
        };
        if !uniform {
            return Err(CertError::NotUniform { index: i });
        }
        check_closure_row(ck, &member_index, m, i)?;
    }
    Ok(cert.polarity.verdict())
}

/// Follows every escape chain through the validated adjacency, memoising
/// resolved members and rejecting loops.
fn check_escapes<C>(
    space: &[C],
    adjacency: &[Vec<u32>],
    escapes: &[Escape],
    violates: impl Fn(&C) -> bool,
) -> Result<(), CertError> {
    if escapes.len() != space.len() {
        return Err(CertError::EscapeArity);
    }
    // 0 = unvisited, 1 = on the current chain, 2 = known good.
    let mut state = vec![0u8; space.len()];
    for start in 0..space.len() {
        if state[start] == 2 {
            continue;
        }
        let mut chain = vec![start];
        state[start] = 1;
        loop {
            let i = *chain.last().expect("chain is never empty");
            match escapes[i] {
                Escape::Here => {
                    if !violates(&space[i]) {
                        return Err(CertError::EscapeNotViolating { index: i });
                    }
                    break;
                }
                Escape::Via(j) => {
                    if !adjacency[i].contains(&j) {
                        return Err(CertError::EscapeNotASuccessor { index: i, via: j });
                    }
                    let j = j as usize;
                    match state[j] {
                        2 => break,
                        1 => return Err(CertError::EscapeCycle { index: j }),
                        _ => {
                            state[j] = 1;
                            chain.push(j);
                        }
                    }
                }
            }
        }
        for i in chain {
            state[i] = 2;
        }
    }
    Ok(())
}

fn check_no_consensus<K: Checker>(
    ck: &K,
    cert: &NoConsensusCertificate<K::C>,
) -> Result<Verdict, CertError> {
    if cert.space.is_empty() {
        return Err(CertError::EmptySpace);
    }
    let member_index: FxHashMap<&K::C, u32> = cert
        .space
        .iter()
        .enumerate()
        .map(|(i, m)| (m, i as u32))
        .collect();

    if !member_index.contains_key(&ck.initial()) {
        return Err(CertError::InitialNotInSpace);
    }
    let adjacency = cert
        .space
        .iter()
        .enumerate()
        .map(|(i, m)| check_closure_row(ck, &member_index, m, i))
        .collect::<Result<Vec<_>, _>>()?;

    check_escapes(&cert.space, &adjacency, &cert.escape_accepting, |c| {
        !ck.is_accepting(c)
    })?;
    check_escapes(&cert.space, &adjacency, &cert.escape_rejecting, |c| {
        !ck.is_rejecting(c)
    })?;
    Ok(Verdict::NoConsensus)
}

fn check_certificate<K: Checker>(ck: &K, cert: &Certificate<K::C>) -> Result<Verdict, CertError> {
    match cert {
        Certificate::Stable(s) => check_stable(ck, s),
        Certificate::Inconsistent(acc, rej) => {
            if acc.polarity != Polarity::Accepting || rej.polarity != Polarity::Rejecting {
                return Err(CertError::WrongPolarities);
            }
            let _ = check_stable(ck, acc)?;
            let _ = check_stable(ck, rej)?;
            Ok(Verdict::Inconsistent)
        }
        Certificate::NoConsensus(n) => check_no_consensus(ck, n),
        Certificate::Lasso(_) => Err(CertError::LassoNeedsMachine),
    }
}

fn check_lasso<S: State>(
    machine: &Machine<S>,
    graph: &Graph,
    cert: &LassoCertificate<Config<S>>,
) -> Result<Verdict, CertError> {
    if cert.cycle_len == 0 {
        return Err(CertError::EmptyCycle);
    }
    let n = graph.node_count();
    let all = Selection::all(graph);
    let period = match cert.schedule {
        LassoSchedule::RoundRobin => n,
        LassoSchedule::Synchronous => 1,
    };
    let step = |c: &Config<S>, t: usize| match cert.schedule {
        LassoSchedule::RoundRobin => c.successor(machine, graph, &Selection::exclusive(t % n)),
        LassoSchedule::Synchronous => c.successor(machine, graph, &all),
    };
    if !cert.cycle_len.is_multiple_of(period) {
        return Err(CertError::CycleNotPeriodAligned {
            cycle: cert.cycle_len,
            period,
        });
    }
    let mut c = (0..cert.stem_len).fold(Config::initial(machine, graph), |c, t| step(&c, t));
    if c != cert.entry {
        return Err(CertError::StemMismatch);
    }
    // Only a first return closes the cycle, so a forged multiple of the
    // true length costs no more replay than the true length.
    let (mut acc, mut rej) = (true, true);
    for k in 1..=cert.cycle_len {
        acc = acc && c.is_accepting(machine);
        rej = rej && c.is_rejecting(machine);
        c = step(&c, cert.stem_len + k - 1);
        if k.is_multiple_of(period) && (c == cert.entry) != (k == cert.cycle_len) {
            return Err(CertError::CycleMismatch { index: k });
        }
    }
    let derived = match (acc, rej) {
        (true, _) => Verdict::Accepts,
        (_, true) => Verdict::Rejects,
        _ => Verdict::NoConsensus,
    };
    if derived != cert.verdict {
        return Err(CertError::VerdictMismatch {
            claimed: cert.verdict,
            derived,
        });
    }
    Ok(derived)
}

/// Verifies a certificate against any [`TransitionSystem`] by direct
/// re-execution of its `successors` semantics.
///
/// This entry point replays `Choice` selections only and has no machine to
/// replay a deterministic schedule on, so it rejects lasso certificates —
/// use [`verify_machine`] for those.
///
/// # Errors
///
/// A [`CertError`] describing the first check that failed.
pub fn verify_system<T: TransitionSystem>(
    system: &T,
    cert: &Certificate<T::C>,
) -> Result<Verdict, CertError> {
    check_certificate(&SystemChecker(system), cert)
}

/// Verifies a certificate for a plain machine under exclusive selection:
/// replays `Node` / `All` / `Choice` selections via
/// [`Config::successor`](wam_core::Config::successor) and replays lasso
/// certificates deterministically.
///
/// # Errors
///
/// A [`CertError`] describing the first check that failed.
pub fn verify_machine<S: State>(
    machine: &Machine<S>,
    graph: &Graph,
    cert: &Certificate<Config<S>>,
) -> Result<Verdict, CertError> {
    match cert {
        Certificate::Lasso(l) => check_lasso(machine, graph, l),
        _ => check_certificate(&MachineChecker::new(machine, graph), cert),
    }
}
