//! The ergonomic decision entry point: one builder covering every
//! schedule, every exploration backend, and optional certificate emission.
//!
//! [`Decider`] is the user-facing half of the decision API. The engine
//! half is [`wam_core::decide`], which returns a verdict plus
//! [`DecisionStats`]. `Decider` adds what only this crate can:
//! machine-checkable witnesses. With `.certified(true)` the decision runs
//! through the certificate emitters and the returned [`Decision`] carries
//! a [`DecisionCertificate`] that the independent checker
//! ([`crate::verify`]) re-validates without trusting the engine. Both
//! paths pick their representation through the same
//! [`resolve_backend`], and both lasso schedules walk the same
//! [`lasso_verdict`], so certification never changes the verdict or the
//! resolved backend.
//!
//! The certificate is phrased in whatever representation the backend
//! explored — explicit node configurations, counter vectors over the twin
//! partition, or ring necklaces — because that is the space in which the
//! stability/escape arguments are small. [`DecisionCertificate::verify`]
//! reconstructs the matching abstraction from the machine and graph alone
//! (re-checking its soundness precondition) and replays the witness
//! against it.
//!
//! ```
//! use wam_certify::Decider;
//! use wam_core::{Backend, Machine, Output, Schedule};
//! use wam_graph::{generators, LabelCount};
//!
//! let m = Machine::new(
//!     1,
//!     |l: wam_graph::Label| l.0 == 1,
//!     |&s: &bool, n| s || n.exists(|&t| t),
//!     |&s| if s { Output::Accept } else { Output::Reject },
//! );
//! let g = generators::labelled_cycle(&LabelCount::from_vec(vec![3, 1]));
//! let decision = Decider::new(&m, &g)
//!     .schedule(Schedule::PseudoStochastic)
//!     .backend(Backend::Auto)
//!     .certified(true)
//!     .limit(100_000)
//!     .decide()
//!     .unwrap();
//! assert!(decision.verdict.is_accepting());
//! let cert = decision.certificate.as_ref().unwrap();
//! assert_eq!(cert.verify(&m, &g).unwrap(), decision.verdict);
//! ```

use crate::certificate::{Certificate, LassoCertificate, LassoSchedule};
use crate::emit::{certify_exploration, relabel_exclusive_path, Explored};
use crate::verify::{verify_machine, verify_system, CertError};
use wam_core::{
    dense_or, explore_counter_kernel, explore_kernel, explore_ring_kernel, lasso_verdict,
    resolve_backend, Backend, Config, CounterConfig, CounterError, CounterSystem, DecisionStats,
    ExclusiveSystem, Exploration, ExploreError, ExploreOptions, Machine, Resolution,
    ResolvedBackend, RingConfig, RingSystem, Schedule, State, TransitionSystem, Verdict,
};
use wam_graph::Graph;

/// A verdict witness phrased in the representation the decision ran on.
///
/// Exploration certificates are only meaningful relative to the transition
/// system they were emitted from, so the variant records which abstraction
/// that was; [`DecisionCertificate::verify`] rebuilds it from the
/// machine/graph pair (re-checking the abstraction's soundness
/// precondition) before replaying the witness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecisionCertificate<S: State> {
    /// A witness over explicit node configurations (the explicit backend
    /// and the deterministic lasso schedules).
    Node(Certificate<Config<S>>),
    /// A witness over count vectors of the twin partition.
    Counter(Certificate<CounterConfig<S>>),
    /// A witness over canonical necklaces of a cycle.
    Ring(Certificate<RingConfig<S>>),
}

impl<S: State> DecisionCertificate<S> {
    /// Independently re-validates the witness against `machine` on
    /// `graph`, re-deriving the verdict without trusting the engine.
    ///
    /// # Errors
    ///
    /// A [`CertError`] describing the first failed check —
    /// [`CertError::BackendUnavailable`] if the certificate's abstraction
    /// does not apply to this machine/graph pair at all.
    pub fn verify(&self, machine: &Machine<S>, graph: &Graph) -> Result<Verdict, CertError> {
        let unavailable = |e: CounterError| CertError::BackendUnavailable {
            reason: e.to_string(),
        };
        match self {
            DecisionCertificate::Node(cert) => verify_machine(machine, graph, cert),
            DecisionCertificate::Counter(cert) => verify_system(
                &CounterSystem::new(machine, graph).map_err(unavailable)?,
                cert,
            ),
            DecisionCertificate::Ring(cert) => {
                verify_system(&RingSystem::new(machine, graph).map_err(unavailable)?, cert)
            }
        }
    }
}

/// The outcome of a [`Decider`] run: the verdict, the witness (when
/// requested), and what the decision cost.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Decision<S: State> {
    /// The decided verdict.
    pub verdict: Verdict,
    /// The machine-checkable witness; `Some` iff `.certified(true)`.
    pub certificate: Option<DecisionCertificate<S>>,
    /// The backend that actually ran and how much state it visited.
    pub stats: DecisionStats,
}

/// Builder for a single decision of a machine on a graph.
///
/// Defaults: [`Schedule::PseudoStochastic`], [`Backend::Auto`], no
/// certificate, and [`ExploreOptions::default`] (limit 1 000 000).
#[derive(Debug, Clone)]
pub struct Decider<'a, S: State> {
    machine: &'a Machine<S>,
    graph: &'a Graph,
    schedule: Schedule,
    backend: Backend,
    certified: bool,
    options: ExploreOptions,
}

impl<'a, S: State> Decider<'a, S> {
    /// Starts a decision of `machine` on `graph` with default settings.
    pub fn new(machine: &'a Machine<S>, graph: &'a Graph) -> Self {
        Decider {
            machine,
            graph,
            schedule: Schedule::default(),
            backend: Backend::default(),
            certified: false,
            options: ExploreOptions::default(),
        }
    }

    /// Selects the fairness regime / schedule to decide under.
    pub fn schedule(mut self, schedule: Schedule) -> Self {
        self.schedule = schedule;
        self
    }

    /// Selects the state-space representation (ignored by the lasso
    /// schedules, which walk a single deterministic run).
    pub fn backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Requests a machine-checkable certificate alongside the verdict.
    pub fn certified(mut self, certified: bool) -> Self {
        self.certified = certified;
        self
    }

    /// Bounds the number of interned configurations / lasso steps.
    pub fn limit(mut self, limit: usize) -> Self {
        self.options = self.options.limit(limit);
        self
    }

    /// Replaces the full exploration options (the limit and the memory
    /// budget).
    pub fn options(mut self, options: ExploreOptions) -> Self {
        self.options = options;
        self
    }

    /// Runs the decision.
    ///
    /// # Errors
    ///
    /// * [`ExploreError::TooLarge`] / [`ExploreError::NoLasso`] when the
    ///   limit is exhausted;
    /// * [`ExploreError::Unsupported`] when [`Backend::Counter`] was
    ///   requested on a graph that is neither twin-compressible nor a
    ///   cycle.
    pub fn decide(self) -> Result<Decision<S>, ExploreError> {
        let Decider {
            machine,
            graph,
            schedule,
            backend,
            certified,
            options,
        } = self;
        if !certified {
            let (verdict, stats) = wam_core::decide(machine, graph, schedule, backend, options)?;
            return Ok(Decision {
                verdict,
                certificate: None,
                stats,
            });
        }
        let lasso_schedule = match schedule {
            Schedule::RoundRobin => LassoSchedule::RoundRobin,
            Schedule::Synchronous => LassoSchedule::Synchronous,
            Schedule::PseudoStochastic => {
                return certified_pseudo_stochastic(machine, graph, backend, options)
            }
        };
        let lasso = lasso_verdict(machine, graph, schedule, options.limit)?;
        let steps = lasso.steps();
        let certificate = Certificate::Lasso(LassoCertificate {
            schedule: lasso_schedule,
            verdict: lasso.verdict,
            stem_len: lasso.stem_len,
            entry: lasso.entry,
            cycle_len: lasso.cycle_len,
        });
        Ok(Decision {
            verdict: lasso.verdict,
            certificate: Some(DecisionCertificate::Node(certificate)),
            stats: DecisionStats::new(ResolvedBackend::Lasso, steps),
        })
    }
}

/// Certified pseudo-stochastic decision over the backend
/// [`resolve_backend`] picks, explored the way [`wam_core::decide`]
/// explores it: the explicit, counter and ring resolutions run on the
/// dense rows of the shared δ session, falling back to the generic system
/// through the same [`dense_or`] past 65 534 reachable states. The
/// emitter unpacks only the rows a certificate holds; rows map one-to-one
/// onto the generic configurations, so each `Choice` selection is still
/// the index of the next configuration among the generic successors the
/// verifier replays.
fn certified_pseudo_stochastic<S: State>(
    machine: &Machine<S>,
    graph: &Graph,
    backend: Backend,
    options: ExploreOptions,
) -> Result<Decision<S>, ExploreError> {
    let resolution = resolve_backend(machine, graph, backend)?;
    let resolved = resolution.backend();
    let system = ExclusiveSystem::new(machine, graph);
    let (verdict, certificate, explored, spilled) = match resolution {
        Resolution::Explicit => dense_or(
            explore_kernel(machine, graph, options),
            |e| emit(&system, &e, node),
            || explore(&system, options).map(|e| emit(&system, &e, node)),
        )?,
        Resolution::Counter(counter) => dense_or(
            explore_counter_kernel(&counter, options),
            |e| emit(&counter, &e, DecisionCertificate::Counter),
            || explore(&counter, options).map(|e| emit(&counter, &e, DecisionCertificate::Counter)),
        )?,
        Resolution::Ring(ring) => dense_or(
            explore_ring_kernel(&ring, options),
            |e| emit(&ring, &e, DecisionCertificate::Ring),
            || explore(&ring, options).map(|e| emit(&ring, &e, DecisionCertificate::Ring)),
        )?,
    };
    Ok(Decision {
        verdict,
        certificate: Some(certificate),
        stats: DecisionStats::new(resolved, explored).with_spilled(spilled),
    })
}

/// Emits the certificate of a finished full-space exploration of `system`:
/// the verdict, the wrapped witness, the explored count and whether edges
/// spilled.
fn emit<S: State, T: TransitionSystem, E: Explored<C = T::C>>(
    system: &T,
    e: &E,
    wrap: impl FnOnce(Certificate<T::C>) -> DecisionCertificate<S>,
) -> (Verdict, DecisionCertificate<S>, usize, bool) {
    let cv = certify_exploration(system, e);
    let x = e.exploration();
    (cv.verdict, wrap(cv.certificate), x.len(), x.was_spilled())
}

/// Exclusive steps change one node, so node-space paths are relabelled to
/// `Node` selections that `verify_machine` replays directly.
fn node<S: State>(mut certificate: Certificate<Config<S>>) -> DecisionCertificate<S> {
    relabel_exclusive_path(&mut certificate);
    DecisionCertificate::Node(certificate)
}

fn explore<T>(system: &T, options: ExploreOptions) -> Result<Exploration<T::C>, ExploreError>
where
    T: TransitionSystem,
{
    Exploration::explore_with(system, system.initial_config(), options)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wam_core::{Machine, Output};
    use wam_graph::{generators, LabelCount};

    fn flood() -> Machine<bool> {
        Machine::new(
            1,
            |l| l.0 == 1,
            |&s, n| s || n.exists(|&t| t),
            |&s| if s { Output::Accept } else { Output::Reject },
        )
    }

    #[test]
    fn uncertified_matches_engine_decide() {
        let m = flood();
        let g = generators::labelled_clique(&LabelCount::from_vec(vec![3, 1]));
        let d = Decider::new(&m, &g).limit(100_000).decide().unwrap();
        let (v, stats) = wam_core::decide(
            &m,
            &g,
            Schedule::PseudoStochastic,
            Backend::Auto,
            ExploreOptions::with_limit(100_000),
        )
        .unwrap();
        assert_eq!(d.verdict, v);
        assert_eq!(d.stats, stats);
        assert!(d.certificate.is_none());
    }

    #[test]
    fn certified_decisions_verify_on_every_backend() {
        let m = flood();
        for counts in [vec![3u64, 1], vec![4, 0]] {
            for g in [
                generators::labelled_clique(&LabelCount::from_vec(counts.clone())),
                generators::labelled_star(&LabelCount::from_vec(counts.clone())),
                generators::labelled_cycle(&LabelCount::from_vec(counts.clone())),
            ] {
                for backend in [Backend::Auto, Backend::Explicit, Backend::Counter] {
                    let d = Decider::new(&m, &g)
                        .backend(backend)
                        .certified(true)
                        .limit(1_000_000)
                        .decide()
                        .unwrap();
                    let cert = d.certificate.as_ref().expect("certified run");
                    assert_eq!(
                        cert.verify(&m, &g).unwrap(),
                        d.verdict,
                        "{backend:?} on {g:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn certified_and_uncertified_resolve_identically() {
        let m = flood();
        let line = generators::labelled_line(&LabelCount::from_vec(vec![4, 1]));
        for g in [
            generators::labelled_clique(&LabelCount::from_vec(vec![4, 1])),
            generators::labelled_cycle(&LabelCount::from_vec(vec![5, 1])),
            line.clone(),
        ] {
            for backend in [Backend::Auto, Backend::Explicit, Backend::Counter] {
                let run = |certified| {
                    Decider::new(&m, &g)
                        .backend(backend)
                        .certified(certified)
                        .decide()
                };
                match (run(false), run(true)) {
                    (Ok(plain), Ok(certified)) => {
                        assert_eq!(plain.verdict, certified.verdict);
                        assert_eq!(plain.stats.backend, certified.stats.backend);
                        assert_eq!(plain.stats.explored, certified.stats.explored);
                    }
                    (Err(plain), Err(certified)) => {
                        // The twin-free path is the one refusal.
                        assert!(backend == Backend::Counter && g == line, "{plain:?}");
                        assert!(matches!(plain, ExploreError::Unsupported { .. }));
                        assert_eq!(plain, certified);
                    }
                    (plain, certified) => {
                        panic!("{backend:?} on {g:?}: {plain:?} vs {certified:?}")
                    }
                }
            }
        }
    }

    #[test]
    fn certified_lasso_schedules_verify() {
        let m = flood();
        let g = generators::labelled_cycle(&LabelCount::from_vec(vec![3, 1]));
        for schedule in [Schedule::RoundRobin, Schedule::Synchronous] {
            let d = Decider::new(&m, &g)
                .schedule(schedule)
                .certified(true)
                .limit(10_000)
                .decide()
                .unwrap();
            assert_eq!(d.stats.backend, ResolvedBackend::Lasso);
            let cert = d.certificate.as_ref().unwrap();
            assert_eq!(cert.verify(&m, &g).unwrap(), d.verdict);
        }
    }

    #[test]
    fn counter_certificate_rejected_on_wrong_graph() {
        let m = flood();
        let clique = generators::labelled_clique(&LabelCount::from_vec(vec![4, 1]));
        let d = Decider::new(&m, &clique)
            .backend(Backend::Counter)
            .certified(true)
            .decide()
            .unwrap();
        let cert = d.certificate.unwrap();
        assert!(matches!(cert, DecisionCertificate::Counter(_)));
        // Replaying a counter certificate against a twin-free graph must
        // fail its precondition check, not silently "verify".
        let line = generators::labelled_line(&LabelCount::from_vec(vec![4, 1]));
        let err = cert.verify(&m, &line).unwrap_err();
        assert!(
            matches!(err, CertError::BackendUnavailable { .. }),
            "{err:?}"
        );
    }
}
