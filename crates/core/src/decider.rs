//! The engine-level decision dispatch: one function covering every
//! schedule and exploration backend.
//!
//! [`decide`] is the single engine entry point: callers pick a
//! [`Schedule`] and a [`Backend`] and get a verdict plus
//! [`DecisionStats`] describing what actually ran. Which representation
//! a pseudo-stochastic decision explores is chosen in exactly one place,
//! [`resolve_backend`]; the certificate-aware builder `wam_certify::Decider`
//! matches on the same [`Resolution`], so plain and certified decisions
//! can never resolve differently. The lasso schedules walk one
//! deterministic run through [`lasso_verdict`].
//!
//! Plain and certified decisions explore the explicit, counter and ring
//! resolutions on the dense rows of the shared δ session (`kernel`,
//! `dense`), falling back to the generic systems through the one
//! [`dense_or`].

use crate::counter::{CounterSystem, RingSystem};
use crate::dense::{explore_counter_kernel, explore_ring_kernel};
use crate::explore::{
    lasso_verdict, ExclusiveSystem, Exploration, ExploreError, ExploreOptions, TransitionSystem,
    Verdict,
};
use crate::kernel::{explore_kernel, KernelExploration, KernelRow};
use crate::{Machine, State};
use std::fmt;
use std::hash::Hash;
use wam_graph::Graph;

/// Which fairness regime / schedule to decide under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Schedule {
    /// Pseudo-stochastic fairness: exhaustive exploration of the reachable
    /// configuration space and its stable-consensus sets (the paper's
    /// Prop. D.2 characterisation). The default.
    #[default]
    PseudoStochastic,
    /// The round-robin exclusive run — a fair adversarial schedule with
    /// period `|V|`, decided by deterministic lasso detection.
    RoundRobin,
    /// The synchronous run (every node steps each round; period 1), the
    /// unique fair schedule of synchronous selection.
    Synchronous,
}

/// Which state-space representation to explore under
/// [`Schedule::PseudoStochastic`]. Lasso schedules walk explicit
/// configurations regardless (a single deterministic run needs no
/// abstraction).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Backend {
    /// The cheapest dense rows that apply: the counter abstraction if the
    /// twin partition compresses, the ring abstraction on cycles, else the
    /// full space. Never computes `Aut(G)` and never fails on backend
    /// grounds. The default.
    #[default]
    Auto,
    /// The full explicit configuration space, no reduction.
    Explicit,
    /// The counter abstraction over the twin partition, or the ring
    /// abstraction on cycles. Errors with [`ExploreError::Unsupported`] on
    /// graphs where neither applies — the abstraction's soundness
    /// precondition is checked, not assumed.
    Counter,
}

/// The representation a decision actually ran on (recorded in
/// [`DecisionStats`]; `Auto` resolves to one of these).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ResolvedBackend {
    /// Full explicit configuration space.
    Explicit,
    /// Count vectors over the twin partition.
    Counter,
    /// Canonical necklaces on a cycle.
    Ring,
    /// Deterministic lasso walk (round-robin / synchronous schedules).
    Lasso,
}

impl fmt::Display for ResolvedBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ResolvedBackend::Explicit => "explicit",
            ResolvedBackend::Counter => "counter",
            ResolvedBackend::Ring => "ring",
            ResolvedBackend::Lasso => "lasso",
        })
    }
}

/// What a decision cost: the backend that ran and how much state it
/// visited. `#[non_exhaustive]` so future fields (timings, peak frontier)
/// are non-breaking.
#[non_exhaustive]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecisionStats {
    /// The representation the decision ran on.
    pub backend: ResolvedBackend,
    /// Configurations interned (exploration backends) or steps walked
    /// before the lasso closed (lasso backends).
    pub explored: usize,
    /// Whether the exploration spilled successor storage to disk (see
    /// [`ExploreOptions::memory_budget`]; always `false` for lasso
    /// backends and budget-less runs).
    pub spilled: bool,
}

impl DecisionStats {
    /// Bundles a backend with its explored-state count (no spill).
    pub fn new(backend: ResolvedBackend, explored: usize) -> Self {
        DecisionStats {
            backend,
            explored,
            spilled: false,
        }
    }

    /// Records whether the decision's exploration spilled to disk.
    pub fn with_spilled(mut self, spilled: bool) -> Self {
        self.spilled = spilled;
        self
    }
}

/// The representation a pseudo-stochastic decision explores, as chosen by
/// [`resolve_backend`]. Callers match on it to build the matching
/// transition system: [`decide`] explores it plainly, and
/// `wam_certify::Decider` explores it and emits a certificate.
#[derive(Debug)]
pub enum Resolution<'a, S: State> {
    /// The full explicit configuration space.
    Explicit,
    /// Count vectors over the twin partition.
    Counter(CounterSystem<'a, S>),
    /// Canonical necklaces on a cycle.
    Ring(RingSystem<'a, S>),
}

impl<S: State> Resolution<'_, S> {
    /// The backend this resolution reports in [`DecisionStats`].
    pub fn backend(&self) -> ResolvedBackend {
        match self {
            Resolution::Explicit => ResolvedBackend::Explicit,
            Resolution::Counter(_) => ResolvedBackend::Counter,
            Resolution::Ring(_) => ResolvedBackend::Ring,
        }
    }
}

/// Chooses the representation a pseudo-stochastic decision of `machine`
/// on `graph` explores — the one place the backend policy lives:
///
/// * [`Backend::Explicit`] — the full space;
/// * [`Backend::Counter`] — the counter abstraction if the twin partition
///   compresses, else the ring abstraction on a cycle;
/// * [`Backend::Auto`] — the counter, then the ring abstraction, else the
///   full space. All three run on the dense rows of the δ session; `Auto`
///   never enumerates `Aut(G)`.
///
/// # Errors
///
/// [`ExploreError::Unsupported`] when [`Backend::Counter`] was requested on
/// a graph that is neither twin-compressible nor a cycle.
pub fn resolve_backend<'a, S: State>(
    machine: &'a Machine<S>,
    graph: &'a Graph,
    backend: Backend,
) -> Result<Resolution<'a, S>, ExploreError> {
    let counter_or_ring = || {
        CounterSystem::new(machine, graph)
            .map(Resolution::Counter)
            .or_else(|_| RingSystem::new(machine, graph).map(Resolution::Ring))
            .ok()
    };
    match backend {
        Backend::Explicit => Ok(Resolution::Explicit),
        Backend::Counter => counter_or_ring().ok_or_else(|| ExploreError::Unsupported {
            reason: format!(
                "the counter backend needs a twin-compressible graph or a cycle; \
                 the {}-node graph is neither",
                graph.node_count()
            ),
        }),
        Backend::Auto => Ok(counter_or_ring().unwrap_or(Resolution::Explicit)),
    }
}

/// Decides `machine` on `graph` under the given schedule and backend —
/// the single engine entry point, and the one behind
/// `wam_certify::Decider`.
///
/// All backends are exact: they differ in how the reachable space is
/// represented, never in the verdict (the counter and ring backends are
/// orbit quotients under subgroups of `Aut(G)`, see `wam-core::counter`).
/// `options.limit` bounds whatever the backend interns — explicit
/// configurations, count vectors or necklaces — or
/// the number of lasso steps.
///
/// The explicit, counter and ring resolutions — every [`Backend::Auto`]
/// decision among them — explore dense rows over one shared δ session per
/// decision (interned `u16` state ids, memoized δ steps) through [`explore_kernel`](crate::explore_kernel),
/// [`explore_counter_kernel`](crate::explore_counter_kernel) and
/// [`explore_ring_kernel`](crate::explore_ring_kernel). Their rows map
/// one-to-one onto the generic systems' configurations, so the verdict and
/// [`DecisionStats`] are those of the generic engine; past 65 534
/// reachable states the rows refuse and the generic system runs instead
/// ([`dense_or`]). Certified decisions (`wam_certify::Decider`) explore
/// the same rows and emit their certificates from them.
///
/// # Errors
///
/// * [`ExploreError::TooLarge`] / [`ExploreError::NoLasso`] when
///   `options.limit` is exhausted;
/// * [`ExploreError::Unsupported`] when [`Backend::Counter`] was requested
///   on a graph that is neither twin-compressible nor a cycle.
pub fn decide<S: State>(
    machine: &Machine<S>,
    graph: &Graph,
    schedule: Schedule,
    backend: Backend,
    options: ExploreOptions,
) -> Result<(Verdict, DecisionStats), ExploreError> {
    if schedule != Schedule::PseudoStochastic {
        let lasso = lasso_verdict(machine, graph, schedule, options.limit)?;
        return Ok((
            lasso.verdict,
            DecisionStats::new(ResolvedBackend::Lasso, lasso.steps()),
        ));
    }
    let resolution = resolve_backend(machine, graph, backend)?;
    let resolved = resolution.backend();
    // The dense systems explore the same spaces over rows of interned
    // state ids with memoized δ steps, one row per generic configuration
    // (pinned by the kernel and counter differential suites), so verdicts
    // and stats coincide. They refuse machines whose reachable state set
    // overflows `u16` ids; only then does the generic system run.
    let (verdict, explored, spilled) = match resolution {
        Resolution::Explicit => dense_or(
            explore_kernel(machine, graph, options),
            |e| summary(e.exploration()),
            || explore(&ExclusiveSystem::new(machine, graph), options).map(|e| summary(&e)),
        )?,
        Resolution::Counter(counter) => dense_or(
            explore_counter_kernel(&counter, options),
            |e| summary(e.exploration()),
            || explore(&counter, options).map(|e| summary(&e)),
        )?,
        Resolution::Ring(ring) => dense_or(
            explore_ring_kernel(&ring, options),
            |e| summary(e.exploration()),
            || explore(&ring, options).map(|e| summary(&e)),
        )?,
    };
    Ok((
        verdict,
        DecisionStats::new(resolved, explored).with_spilled(spilled),
    ))
}

/// `on_dense` over a finished dense exploration, or `generic` if the dense
/// system refused (its `u16` state ids ran out) — the one fallback from
/// the dense rows to the generic systems, shared by [`decide`] and
/// `wam_certify::Decider`.
///
/// # Errors
///
/// Any error of `dense` other than [`ExploreError::Unsupported`], or of
/// `generic`.
pub fn dense_or<S: State, R: KernelRow<S>, T>(
    dense: Result<KernelExploration<S, R>, ExploreError>,
    on_dense: impl FnOnce(KernelExploration<S, R>) -> T,
    generic: impl FnOnce() -> Result<T, ExploreError>,
) -> Result<T, ExploreError> {
    match dense {
        Ok(e) => Ok(on_dense(e)),
        Err(ExploreError::Unsupported { .. }) => generic(),
        Err(e) => Err(e),
    }
}

/// The verdict, the number of interned configurations, and whether edges
/// spilled.
fn summary<C: Clone + Eq + Hash + fmt::Debug>(e: &Exploration<C>) -> (Verdict, usize, bool) {
    (e.verdict(), e.len(), e.was_spilled())
}

/// Explores `system` from its initial configuration.
fn explore<T>(system: &T, options: ExploreOptions) -> Result<Exploration<T::C>, ExploreError>
where
    T: TransitionSystem,
{
    Exploration::explore_with(system, system.initial_config(), options)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Machine, Output};
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
    fn all_backends_agree_on_flood() {
        let m = flood();
        for counts in [vec![3u64, 1], vec![4, 0]] {
            for g in [
                generators::labelled_clique(&LabelCount::from_vec(counts.clone())),
                generators::labelled_star(&LabelCount::from_vec(counts.clone())),
                generators::labelled_cycle(&LabelCount::from_vec(counts.clone())),
            ] {
                let opts = ExploreOptions::with_limit(1_000_000);
                let reference = decide(&m, &g, Schedule::PseudoStochastic, Backend::Explicit, opts)
                    .unwrap()
                    .0;
                for backend in [Backend::Auto, Backend::Counter] {
                    let (v, stats) =
                        decide(&m, &g, Schedule::PseudoStochastic, backend, opts).unwrap();
                    assert_eq!(v, reference, "{backend:?} on {g:?}");
                    assert!(stats.explored > 0);
                }
            }
        }
    }

    #[test]
    fn auto_resolves_to_counter_on_cliques_and_ring_on_cycles() {
        let m = flood();
        let opts = ExploreOptions::with_limit(100_000);
        let clique = generators::labelled_clique(&LabelCount::from_vec(vec![5, 1]));
        let (_, stats) =
            decide(&m, &clique, Schedule::PseudoStochastic, Backend::Auto, opts).unwrap();
        assert_eq!(stats.backend, ResolvedBackend::Counter);
        let cycle = generators::labelled_cycle(&LabelCount::from_vec(vec![6, 1]));
        let (_, stats) =
            decide(&m, &cycle, Schedule::PseudoStochastic, Backend::Auto, opts).unwrap();
        assert_eq!(stats.backend, ResolvedBackend::Ring);
    }

    #[test]
    fn resolver_policy_table() {
        let m = flood();
        let c = LabelCount::from_vec(vec![4, 2]);
        // A 6-node path: twin-free, not a cycle, |Aut| = 2.
        let (line, clique) = (
            generators::labelled_line(&c),
            generators::labelled_clique(&c),
        );
        let (star, cycle) = (
            generators::labelled_star(&c),
            generators::labelled_cycle(&c),
        );
        for (backend, g, expected) in [
            (Backend::Auto, &line, ResolvedBackend::Explicit),
            (Backend::Auto, &star, ResolvedBackend::Counter),
            (Backend::Auto, &clique, ResolvedBackend::Counter),
            (Backend::Auto, &cycle, ResolvedBackend::Ring),
            (Backend::Explicit, &clique, ResolvedBackend::Explicit),
        ] {
            let r = resolve_backend(&m, g, backend).unwrap();
            assert_eq!(r.backend(), expected, "{backend:?} on {g:?}");
        }
    }

    #[test]
    fn counter_backend_refuses_rigid_graphs() {
        // A 5-node path is twin-free and not a cycle.
        let g = generators::labelled_line(&LabelCount::from_vec(vec![5]));
        let err = decide(
            &flood(),
            &g,
            Schedule::PseudoStochastic,
            Backend::Counter,
            ExploreOptions::with_limit(10_000),
        )
        .unwrap_err();
        assert!(matches!(err, ExploreError::Unsupported { .. }), "{err:?}");
        // Auto falls back instead of failing.
        let (v, _) = decide(
            &flood(),
            &g,
            Schedule::PseudoStochastic,
            Backend::Auto,
            ExploreOptions::with_limit(10_000),
        )
        .unwrap();
        assert_eq!(v, Verdict::Rejects);
    }

    #[test]
    fn lasso_schedules_report_steps() {
        let m = flood();
        let g = generators::labelled_cycle(&LabelCount::from_vec(vec![3, 1]));
        for schedule in [Schedule::RoundRobin, Schedule::Synchronous] {
            let (v, stats) = decide(
                &m,
                &g,
                schedule,
                Backend::Auto,
                ExploreOptions::with_limit(10_000),
            )
            .unwrap();
            assert_eq!(v, Verdict::Accepts);
            assert_eq!(stats.backend, ResolvedBackend::Lasso);
            assert!(stats.explored > 0);
        }
    }
}
