//! The certificate data model.
//!
//! A [`Certificate`] is a self-contained, machine-checkable witness for a
//! [`Verdict`] produced by one of the exact deciders. Certificates store
//! **concrete configurations** — never engine ids — so that the verifier in
//! [`crate::verify`] can re-validate every claim by direct re-execution of
//! the step semantics, without trusting the exploration engine that emitted
//! them.
//!
//! Four certificate shapes cover the decider surface:
//!
//! * [`StableCertificate`] — Prop. D.2 witness for `Accepts` / `Rejects`
//!   under pseudo-stochastic fairness: a reachability path to a
//!   configuration together with an explicit closed invariant set showing
//!   that configuration is *stably* accepting (or rejecting).
//! * [`Certificate::Inconsistent`] — two stable certificates of opposite
//!   polarity from the same initial configuration.
//! * [`NoConsensusCertificate`] — the negative witness: the full reachable
//!   space plus, for every configuration, an escape pointer leading to a
//!   non-accepting configuration and one leading to a non-rejecting
//!   configuration, so *no* reachable configuration is stably accepting or
//!   stably rejecting.
//! * [`LassoCertificate`] — for the deterministic round-robin / synchronous
//!   deciders: a stem length, the configuration entering the cycle and
//!   the cycle length; the verifier replays the deterministic run and
//!   reads the verdict off the cycle.

use wam_core::Verdict;

/// Which consensus a stable certificate claims.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Polarity {
    /// The witnessed configuration is stably accepting.
    Accepting,
    /// The witnessed configuration is stably rejecting.
    Rejecting,
}

impl Polarity {
    /// The verdict this polarity witnesses.
    pub fn verdict(self) -> Verdict {
        match self {
            Polarity::Accepting => Verdict::Accepts,
            Polarity::Rejecting => Verdict::Rejects,
        }
    }
}

/// How one step of a reachability path was selected, recorded so the
/// verifier can re-execute it by direct semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StepSelection {
    /// Exclusive selection: the single node that stepped (plain machines
    /// under exclusive selection; re-executed via
    /// [`Config::successor`](wam_core::Config::successor)).
    Node(u32),
    /// The index of the chosen successor in the order
    /// `TransitionSystem::successors` enumerates them — the generic form
    /// for extended models whose nondeterminism is not a node choice.
    Choice(u32),
    /// Synchronous selection: every node steps simultaneously.
    All,
}

/// One step of a reachability path: the configuration reached and the
/// selection that reached it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathStep<C> {
    /// The configuration after the step.
    pub to: C,
    /// The recorded selection.
    pub selection: StepSelection,
}

/// A step-by-step path of concrete configurations. `start` must equal the
/// system's initial configuration when used inside a [`StableCertificate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReachPath<C> {
    /// The first configuration of the path.
    pub start: C,
    /// The steps, in order; may be empty (the start already witnesses).
    pub steps: Vec<PathStep<C>>,
}

impl<C> ReachPath<C> {
    /// The last configuration of the path.
    pub fn endpoint(&self) -> &C {
        self.steps.last().map_or(&self.start, |s| &s.to)
    }

    /// Number of steps.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Whether the path has no steps.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }
}

/// The explicit closed set witnessing "stably accepting/rejecting": every
/// member has uniform output of the claimed polarity, and every enumerated
/// successor of a member is again a member.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StabilityInvariant<C> {
    /// The members of the closed set. Must contain the path endpoint.
    pub members: Vec<C>,
}

/// Prop. D.2 witness for `Accepts` / `Rejects`: a reachability path from
/// the initial configuration into an explicit stability invariant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StableCertificate<C> {
    /// Whether the invariant claims accepting or rejecting consensus.
    pub polarity: Polarity,
    /// Concrete path from the initial configuration to a member of the
    /// invariant.
    pub path: ReachPath<C>,
    /// The closed, output-uniform set containing the path endpoint.
    pub invariant: StabilityInvariant<C>,
}

/// One escape pointer of a [`NoConsensusCertificate`]: how a configuration
/// of the space reaches an output violation of the respective polarity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Escape {
    /// The configuration itself already violates the polarity (is
    /// non-accepting / non-rejecting).
    Here,
    /// Follow the step to the member with this index (which must be an
    /// enumerated successor); its own escape pointer
    /// continues the walk. The chains must be acyclic.
    Via(u32),
}

/// Witness for `NoConsensus` under pseudo-stochastic fairness: the entire
/// reachable space, closed under steps, where every configuration can reach
/// both a non-accepting and a non-rejecting configuration — so no stably
/// accepting or stably rejecting configuration exists.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NoConsensusCertificate<C> {
    /// All reachable configurations. Closure of this set under
    /// `successors` is re-checked by the verifier, which makes it a genuine
    /// over-approximation witness.
    pub space: Vec<C>,
    /// For each space member: an escape to a non-accepting configuration.
    pub escape_accepting: Vec<Escape>,
    /// For each space member: an escape to a non-rejecting configuration.
    pub escape_rejecting: Vec<Escape>,
}

/// Which deterministic schedule a [`LassoCertificate`] replays.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LassoSchedule {
    /// Exclusive selection of node `t mod |V|` at step `t`.
    RoundRobin,
    /// Synchronous selection (all nodes) at every step.
    Synchronous,
}

/// Witness for the deterministic round-robin / synchronous deciders: after
/// `stem_len` steps the run reaches `entry` and is back there `cycle_len`
/// steps later, so it repeats that cycle forever; the verdict is the
/// consensus the verifier reads off the replayed cycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LassoCertificate<C> {
    /// The deterministic schedule to replay.
    pub schedule: LassoSchedule,
    /// The verdict claimed for the run.
    pub verdict: Verdict,
    /// Steps from the initial configuration to `entry`.
    pub stem_len: usize,
    /// The configuration the cycle starts and ends at.
    pub entry: C,
    /// Steps in one cycle, a multiple of the schedule period.
    pub cycle_len: usize,
}

/// A machine-checkable witness for a decider verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Certificate<C> {
    /// `Accepts` or `Rejects` by reachable stability (Prop. D.2).
    Stable(StableCertificate<C>),
    /// `Inconsistent`: an accepting and a rejecting stable witness from the
    /// same initial configuration.
    Inconsistent(Box<StableCertificate<C>>, Box<StableCertificate<C>>),
    /// `NoConsensus` under pseudo-stochastic fairness.
    NoConsensus(NoConsensusCertificate<C>),
    /// Verdict of a deterministic adversarial run.
    Lasso(LassoCertificate<C>),
}

impl<C> Certificate<C> {
    /// The verdict this certificate claims.
    pub fn verdict(&self) -> Verdict {
        match self {
            Certificate::Stable(s) => s.polarity.verdict(),
            Certificate::Inconsistent(..) => Verdict::Inconsistent,
            Certificate::NoConsensus(_) => Verdict::NoConsensus,
            Certificate::Lasso(l) => l.verdict,
        }
    }

    /// A short kind tag (also used by the JSON codec).
    pub fn kind(&self) -> &'static str {
        match self {
            Certificate::Stable(_) => "stable",
            Certificate::Inconsistent(..) => "inconsistent",
            Certificate::NoConsensus(_) => "no-consensus",
            Certificate::Lasso(_) => "lasso",
        }
    }

    /// Total number of configurations stored in the certificate.
    pub fn config_count(&self) -> usize {
        let stable = |s: &StableCertificate<C>| 1 + s.path.len() + s.invariant.members.len();
        match self {
            Certificate::Stable(s) => stable(s),
            Certificate::Inconsistent(a, r) => stable(a) + stable(r),
            Certificate::NoConsensus(n) => n.space.len(),
            Certificate::Lasso(_) => 1,
        }
    }

    /// Calls `f` on every configuration stored in the certificate (used by
    /// codecs to build a state table).
    pub fn for_each_config<'a>(&'a self, mut f: impl FnMut(&'a C)) {
        let stable = |s: &'a StableCertificate<C>, f: &mut dyn FnMut(&'a C)| {
            f(&s.path.start);
            for step in &s.path.steps {
                f(&step.to);
            }
            for m in &s.invariant.members {
                f(m);
            }
        };
        match self {
            Certificate::Stable(s) => stable(s, &mut f),
            Certificate::Inconsistent(a, r) => {
                stable(a, &mut f);
                stable(r, &mut f);
            }
            Certificate::NoConsensus(n) => n.space.iter().for_each(f),
            Certificate::Lasso(l) => f(&l.entry),
        }
    }

    /// One-line human-readable summary (kind, verdict, sizes).
    pub fn summary(&self) -> String {
        match self {
            Certificate::Stable(s) => format!(
                "stable {}: path of {} steps, invariant of {} configurations",
                s.polarity.verdict(),
                s.path.len(),
                s.invariant.members.len(),
            ),
            Certificate::Inconsistent(a, r) => format!(
                "inconsistent: accepting witness ({} steps, {} members) \
                 + rejecting witness ({} steps, {} members)",
                a.path.len(),
                a.invariant.members.len(),
                r.path.len(),
                r.invariant.members.len()
            ),
            Certificate::NoConsensus(n) => format!(
                "no consensus: closed space of {} configurations with escape pointers",
                n.space.len()
            ),
            Certificate::Lasso(l) => format!(
                "{} lasso {}: stem of {} steps, cycle of {}",
                match l.schedule {
                    LassoSchedule::RoundRobin => "round-robin",
                    LassoSchedule::Synchronous => "synchronous",
                },
                l.verdict,
                l.stem_len,
                l.cycle_len
            ),
        }
    }
}
