//! The machine registry: named decision procedures the service exposes.
//!
//! Each entry erases a concrete `Machine<S>` behind a `Fn(&Graph, bool)`
//! closure (graph, certified) returning a [`CachedVerdict`] — the state
//! type stays private to the closure, so one registry can hold the whole
//! heterogeneous Figure-1 catalog. Certificates are rendered to JSON
//! *inside* the closure (where `S` is still known) and re-checked by the
//! independent verifier before they are allowed into the cache: the
//! service never serves a certificate it has not verified.
//!
//! Entries registered with a typed machine also carry a chaos runner for
//! the `--net` backend: a second closure over the same shared machine
//! that runs it as real communicating nodes over a simulated faulty
//! network ([`wam_net::cross_validate`]) next to the exact decider. A
//! chaos run is a diagnostic, not a cached decision: it reruns on every
//! request (same seed, same trace digest), never touches the verdict
//! store, and executes synchronously on the transport's read loop, where
//! one sequential router delivers every wire line. Because each
//! activation renders, routes and parses a probe round over the whole
//! neighbourhood, chaos requests are bounded far tighter than decisions:
//! at most [`MAX_CHAOS_NODES`] nodes and [`MAX_CHAOS_ROUNDS`] activations
//! per run.

use crate::error::ServeError;
use crate::proto::{family_of, ChaosReply, ChaosRequest};
use std::sync::Arc;
use wam_analysis::system_fingerprint;
use wam_certify::{certificate_to_json, Decider, DecisionCertificate, Json, StateTable};
use wam_core::{Backend, ExploreOptions, Machine, Schedule, State, Verdict};
use wam_extensions::{
    compile_broadcasts, compile_rendezvous, GraphPopulationProtocol, MajorityState,
};
use wam_graph::generators::Family;
use wam_graph::{Graph, LabelCount};
use wam_net::{ChaosOptions, CrossValidation, FaultPlan};
use wam_protocols::{cutoff_one_machine, modulo_protocol, threshold_machine};

/// Hard cap on the node count of one chaos run. Every node keeps its own
/// protocol state and answers correlated probe rounds, so one activation
/// costs wire lines in proportion to its degree; a request is untrusted
/// input and must not be able to make every activation unboundedly
/// expensive.
pub const MAX_CHAOS_NODES: u64 = 32;

/// Hard cap on the activation budget a request may ask for.
pub const MAX_CHAOS_ROUNDS: u64 = 200_000;

/// Hard cap on the per-message delay bound a request may ask for (huge
/// delays just stall the virtual clock without exploring anything new).
pub const MAX_CHAOS_DELAY: u64 = 1_000;

/// One verdict as the cache stores it: the decision outcome plus the
/// certificate JSON, encoded once when the decision ran and shared behind
/// an [`Arc`]. Every reply that carries it, cache hits included, splices
/// that text as it is: no reply re-parses or re-renders it.
#[derive(Debug, Clone, PartialEq)]
pub struct CachedVerdict {
    /// The decided verdict.
    pub verdict: Verdict,
    /// The backend that ran, rendered (`explicit`, `counter`, …).
    pub backend: String,
    /// Configurations (or lasso steps) the decision visited.
    pub explored: usize,
    /// The verified certificate, when the decision was certified.
    pub certificate: Option<Arc<CertificateBlob>>,
}

/// A certificate rendered to its JSON wire form, tagged with the
/// abstraction it lives in.
///
/// The text is always one compact JSON value, so a reply line can splice
/// it verbatim. The catalog's decisions build their blobs from
/// [`certificate_to_json`], whose output is well formed by construction,
/// and skip any check. Text from elsewhere, such as a
/// [`register_with`](MachineRegistry::register_with) closure that renders
/// its own certificate, goes through [`CertificateBlob::new`], which
/// parses it once.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CertificateBlob {
    kind: &'static str,
    json: String,
}

impl CertificateBlob {
    /// A blob from foreign certificate text, parsed once here. A JSON
    /// document is stored in its compact rendering; any other text is
    /// stored as a JSON string literal holding it. Either way every reply
    /// stays one line of valid JSON.
    pub fn new(kind: &'static str, json: &str) -> Self {
        let json = match Json::parse(json) {
            Ok(doc) => doc.render(),
            Err(_) => Json::Str(json.to_string()).render(),
        };
        CertificateBlob { kind, json }
    }

    /// A blob from text [`certificate_to_json`] wrote, stored unchecked.
    fn encoded(kind: &'static str, json: String) -> Self {
        debug_assert!(
            Json::parse(&json).is_ok(),
            "certificate_to_json wrote malformed JSON"
        );
        CertificateBlob { kind, json }
    }

    /// `"node"`, `"counter"`, or `"ring"` — which transition system the
    /// witness replays in.
    pub fn kind(&self) -> &'static str {
        self.kind
    }

    /// The certificate as compact JSON text.
    pub fn json(&self) -> &str {
        &self.json
    }
}

/// A decision closure: `(graph, certified)`.
type DecideFn = Box<dyn Fn(&Graph, bool) -> Result<CachedVerdict, ServeError> + Send + Sync>;

type ChaosFn = Box<
    dyn Fn(&Graph, &FaultPlan, u64, &ChaosOptions) -> Result<CrossValidation, ServeError>
        + Send
        + Sync,
>;

/// A typed entry's network runner and the stabilisation budget a chaos
/// request inherits when it does not override `max_rounds`/`window`.
struct ChaosRunner {
    defaults: ChaosOptions,
    run: ChaosFn,
}

/// One named machine the service can decide.
pub struct MachineEntry {
    name: String,
    summary: String,
    arity: usize,
    fingerprint_plain: u64,
    fingerprint_certified: u64,
    decide: DecideFn,
    /// `None` for [`MachineRegistry::register_with`] entries, whose
    /// closure hides the machine the chaos nodes would need.
    chaos: Option<ChaosRunner>,
}

impl MachineEntry {
    /// The registry name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// A one-line human description (for the `catalog` op).
    pub fn summary(&self) -> &str {
        &self.summary
    }

    /// The label arity requests must supply counts for.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// The store fingerprint for this entry. Plain and certified results
    /// have different shapes, so they live in disjoint key namespaces.
    pub fn fingerprint(&self, certified: bool) -> u64 {
        if certified {
            self.fingerprint_certified
        } else {
            self.fingerprint_plain
        }
    }

    /// Runs the decision (uncached — the service layers the store on top).
    pub fn decide(&self, graph: &Graph, certified: bool) -> Result<CachedVerdict, ServeError> {
        (self.decide)(graph, certified)
    }
}

impl std::fmt::Debug for MachineEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MachineEntry")
            .field("name", &self.name)
            .field("arity", &self.arity)
            .finish()
    }
}

/// The set of machines a [`VerdictService`](crate::service::VerdictService)
/// exposes, looked up by name.
#[derive(Debug, Default)]
pub struct MachineRegistry {
    entries: Vec<MachineEntry>,
}

impl MachineRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MachineRegistry::default()
    }

    /// Registers `machine` under `name`, deciding through the
    /// [`Decider`] with the given schedule and exploration limit
    /// (backend [`Backend::Auto`]). Certified decisions are re-checked by
    /// the independent verifier before they are returned. The entry also
    /// serves chaos runs of the same machine; `chaos` sets the
    /// stabilisation budget a chaos request inherits, and `limit` bounds
    /// the exact decider it is cross-validated against.
    #[allow(clippy::too_many_arguments)]
    pub fn register<S: State>(
        &mut self,
        name: &str,
        summary: &str,
        arity: usize,
        machine: Machine<S>,
        schedule: Schedule,
        limit: usize,
        chaos: ChaosOptions,
    ) {
        let machine = Arc::new(machine);
        let net_machine = Arc::clone(&machine);
        let run: ChaosFn = Box::new(move |graph, plan, seed, opts| {
            wam_net::cross_validate(
                &net_machine,
                graph,
                plan,
                seed,
                opts,
                ExploreOptions::with_limit(limit),
            )
            .map_err(ServeError::Explore)
        });
        let decide: DecideFn = Box::new(move |graph, certified| {
            let d = Decider::new(&machine, graph)
                .schedule(schedule)
                .backend(Backend::Auto)
                .certified(certified)
                .limit(limit)
                .decide()
                .map_err(ServeError::Explore)?;
            let certificate = match &d.certificate {
                None => None,
                Some(cert) => {
                    let verified = cert
                        .verify(&machine, graph)
                        .map_err(ServeError::Certificate)?;
                    if verified != d.verdict {
                        return Err(ServeError::Internal {
                            reason: format!(
                                "verifier derived {verified} but the engine decided {}",
                                d.verdict
                            ),
                        });
                    }
                    Some(Arc::new(render_certificate(cert)))
                }
            };
            Ok(CachedVerdict {
                verdict: d.verdict,
                backend: d.stats.backend.to_string(),
                explored: d.stats.explored,
                certificate,
            })
        });
        self.register_with(name, summary, arity, decide);
        let entry = self.entries.last_mut().expect("just registered");
        entry.chaos = Some(ChaosRunner {
            defaults: chaos,
            run,
        });
    }

    /// Registers a pre-erased decision closure. This is the raw hook the
    /// typed [`register`](Self::register) goes through; tests use it to
    /// install instrumented or artificially slow deciders. Such entries
    /// serve no chaos runs.
    pub fn register_with(&mut self, name: &str, summary: &str, arity: usize, decide: DecideFn) {
        self.entries.push(MachineEntry {
            name: name.to_string(),
            summary: summary.to_string(),
            arity,
            fingerprint_plain: system_fingerprint(&format!("serve/{name}")),
            fingerprint_certified: system_fingerprint(&format!("serve/{name}/certified")),
            decide,
            chaos: None,
        });
    }

    /// Looks an entry up by name.
    pub fn get(&self, name: &str) -> Option<&MachineEntry> {
        self.entries.iter().find(|e| e.name == name)
    }

    /// The entry `machine` names and the family of its graph on `counts`,
    /// once the arity, the node bounds and the family name check out.
    pub(crate) fn resolve(
        &self,
        machine: &str,
        family: &str,
        counts: &[u64],
        max_nodes: u64,
    ) -> Result<(&MachineEntry, Family), ServeError> {
        let entry = self
            .get(machine)
            .ok_or_else(|| ServeError::UnknownMachine {
                name: machine.to_string(),
            })?;
        if counts.len() != entry.arity {
            return Err(ServeError::BadRequest {
                reason: format!(
                    "machine {machine:?} has arity {}, got {} counts",
                    entry.arity,
                    counts.len()
                ),
            });
        }
        Ok((entry, family_of(family, counts, max_nodes)?))
    }

    /// All entries, in registration order.
    pub fn entries(&self) -> impl Iterator<Item = &MachineEntry> {
        self.entries.iter()
    }

    /// Number of registered machines.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The paper's Figure-1 witness catalog — the same four machines the
    /// E1 certified grid exercises:
    ///
    /// * `presence` — Cutoff(1) flooding (`dAf`), round-robin lassos;
    /// * `ladder` — the compiled ⟨level⟩ threshold ladder (`dAF ⊇ Cutoff`);
    /// * `majority` — Lemma 4.10-compiled population majority (`DAF ⊇ NL`);
    /// * `parity` — the modulo-2 witness outside Cutoff.
    ///
    /// All four are binary-labelled (arity 2). The compiled simulation
    /// machines (ladder, majority, parity) never quiesce state-wise and
    /// stabilise through the long-consensus clock, so their chaos runs
    /// get a much larger default budget than the flooding machine.
    pub fn paper_catalog() -> Self {
        let mut reg = MachineRegistry::new();
        let compiled_budget = ChaosOptions::budget(60_000, 600);
        reg.register(
            "presence",
            "Cutoff(1) flooding: accepts iff a node labelled 1 is present",
            2,
            cutoff_one_machine(2, |p| p[1]),
            Schedule::RoundRobin,
            500_000,
            ChaosOptions::budget(6_000, 150),
        );
        reg.register(
            "ladder",
            "compiled broadcast ladder: accepts iff at least two nodes are labelled 0",
            2,
            compile_broadcasts(&threshold_machine(2, 0, 2)),
            Schedule::PseudoStochastic,
            3_000_000,
            compiled_budget.clone(),
        );
        reg.register(
            "majority",
            "compiled population majority: accepts iff #0 > #1",
            2,
            compile_rendezvous(&GraphPopulationProtocol::<MajorityState>::majority()),
            Schedule::PseudoStochastic,
            5_000_000,
            compiled_budget.clone(),
        );
        reg.register(
            "parity",
            "compiled modulo protocol: accepts iff #0 is odd",
            2,
            compile_rendezvous(&modulo_protocol(vec![1, 0], 2, 1)),
            Schedule::PseudoStochastic,
            5_000_000,
            compiled_budget,
        );
        reg
    }

    /// Validates and executes one chaos request: builds the graph and
    /// fault plan, runs the entry's machine as network nodes next to the
    /// exact decider, and packages the cross-validation as a reply
    /// (`micros` is left at 0 for the caller to stamp).
    ///
    /// # Errors
    ///
    /// `UnknownMachine` for names outside the registry, `BadRequest` for
    /// entries without a chaos runner, arity mismatches, out-of-range
    /// fault knobs, or over-cap sizes, and `Explore` when the exact
    /// decider exceeds its limit.
    pub fn run_chaos(&self, req: &ChaosRequest, max_nodes: u64) -> Result<ChaosReply, ServeError> {
        let bad = |reason: String| ServeError::BadRequest { reason };
        let max_nodes = max_nodes.min(MAX_CHAOS_NODES);
        let (entry, family) = self.resolve(&req.machine, &req.family, &req.counts, max_nodes)?;
        let runner = entry.chaos.as_ref().ok_or_else(|| {
            bad(format!(
                "machine {:?} has no chaos runner: it was registered without a typed machine",
                req.machine
            ))
        })?;
        let graph = family.labelled(&LabelCount::from_vec(req.counts.clone()));
        let (lo, hi) = req.delay;
        if lo > hi {
            return Err(bad(format!("empty delay range {lo}..={hi}")));
        }
        if hi > MAX_CHAOS_DELAY {
            return Err(bad(format!(
                "delay bound {hi} exceeds the {MAX_CHAOS_DELAY}-tick cap"
            )));
        }
        for (knob, p) in [("drop", req.drop_p), ("dup", req.dup_p)] {
            if !(0.0..=1.0).contains(&p) {
                return Err(bad(format!("{knob:?} must be a probability in [0, 1]")));
            }
        }
        let plan = FaultPlan::chaotic((lo.max(1), hi.max(1)), req.drop_p, req.dup_p);

        let mut opts = runner.defaults.clone();
        if let Some(rounds) = req.max_rounds {
            if rounds == 0 || rounds > MAX_CHAOS_ROUNDS {
                return Err(bad(format!(
                    "max_rounds must be in 1..={MAX_CHAOS_ROUNDS}, got {rounds}"
                )));
            }
            opts.max_rounds = rounds;
        }
        if let Some(window) = req.window {
            if window == 0 || window > opts.max_rounds {
                return Err(bad(format!(
                    "window must be in 1..=max_rounds ({}), got {window}",
                    opts.max_rounds
                )));
            }
            opts.window = window;
        }

        let cv = (runner.run)(&graph, &plan, req.seed, &opts)?;
        Ok(ChaosReply {
            id: req.id,
            machine: req.machine.clone(),
            expected: cv.expected,
            emergent: cv.outcome.verdict,
            agreed: cv.agrees(),
            fairness_preserved: plan.preserves_fairness(),
            seed: req.seed,
            digest: format!("{:016x}", cv.outcome.digest),
            rounds: cv.outcome.stats.rounds,
            stabilised_at: cv.outcome.stabilised_at,
            starved: cv.outcome.stats.starved,
            dropped: cv.outcome.stats.dropped_random + cv.outcome.stats.dropped_blocked,
            duplicated: cv.outcome.stats.duplicated,
            divergence: cv.divergence.map(|d| d.to_string()),
            micros: 0,
        })
    }
}

/// Renders a [`DecisionCertificate`] to its tagged JSON wire form while
/// the state type is still known.
fn render_certificate<S: State>(cert: &DecisionCertificate<S>) -> CertificateBlob {
    match cert {
        DecisionCertificate::Node(c) => CertificateBlob::encoded(
            "node",
            certificate_to_json(c, &StateTable::from_certificate(c)),
        ),
        DecisionCertificate::Counter(c) => CertificateBlob::encoded(
            "counter",
            certificate_to_json(c, &StateTable::from_counter_certificate(c)),
        ),
        DecisionCertificate::Ring(c) => CertificateBlob::encoded(
            "ring",
            certificate_to_json(c, &StateTable::from_ring_certificate(c)),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::DEFAULT_MAX_NODES;
    use wam_graph::{generators, LabelCount};

    fn chaos_req(machine: &str, counts: Vec<u64>) -> ChaosRequest {
        ChaosRequest {
            id: Some(1),
            machine: machine.to_string(),
            family: "cycle".to_string(),
            counts,
            seed: 7,
            drop_p: 0.1,
            dup_p: 0.05,
            delay: (1, 3),
            max_rounds: None,
            window: None,
        }
    }

    #[test]
    fn catalog_has_the_four_witnesses() {
        let reg = MachineRegistry::paper_catalog();
        assert_eq!(reg.len(), 4);
        for name in ["presence", "ladder", "majority", "parity"] {
            let e = reg.get(name).unwrap_or_else(|| panic!("{name} missing"));
            assert_eq!(e.arity(), 2);
            assert_ne!(e.fingerprint(false), e.fingerprint(true));
        }
        assert!(reg.get("nonesuch").is_none());
    }

    #[test]
    fn presence_decides_and_certifies() {
        let reg = MachineRegistry::paper_catalog();
        let e = reg.get("presence").unwrap();
        let g = generators::labelled_cycle(&LabelCount::from_vec(vec![2, 1]));
        let plain = e.decide(&g, false).unwrap();
        assert_eq!(plain.verdict, Verdict::Accepts);
        assert!(plain.certificate.is_none());
        let certified = e.decide(&g, true).unwrap();
        assert_eq!(certified.verdict, Verdict::Accepts);
        let blob = certified.certificate.expect("certified run carries a blob");
        assert!(!blob.json().is_empty());
    }

    /// The served backend policy: `Auto` takes the counter or ring rows
    /// where they apply and the full space elsewhere.
    #[test]
    fn auto_policy_picks_the_dense_rows() {
        let reg = MachineRegistry::paper_catalog();
        let e = reg.get("majority").unwrap();
        let c = LabelCount::from_vec(vec![2, 2]);
        for (g, backend) in [
            (generators::labelled_line(&c), "explicit"),
            (generators::labelled_star(&c), "counter"),
            (generators::labelled_cycle(&c), "ring"),
        ] {
            assert_eq!(e.decide(&g, false).unwrap().backend, backend, "{g:?}");
        }
        let certified = e.decide(&generators::labelled_line(&c), true).unwrap();
        assert_eq!(certified.backend, "explicit");
        assert_eq!(certified.certificate.expect("certified").kind(), "node");
    }

    #[test]
    fn fingerprints_are_stable_per_name() {
        let a = MachineRegistry::paper_catalog();
        let b = MachineRegistry::paper_catalog();
        assert_eq!(
            a.get("parity").unwrap().fingerprint(true),
            b.get("parity").unwrap().fingerprint(true)
        );
        assert_ne!(
            a.get("parity").unwrap().fingerprint(false),
            a.get("majority").unwrap().fingerprint(false)
        );
    }

    #[test]
    fn presence_chaos_agrees_and_replays_by_seed() {
        let reg = MachineRegistry::paper_catalog();
        let req = chaos_req("presence", vec![3, 1]);
        let a = reg.run_chaos(&req, DEFAULT_MAX_NODES).unwrap();
        assert!(a.agreed, "fairness-preserving chaos must agree");
        assert_eq!(a.expected, Verdict::Accepts);
        assert!(a.fairness_preserved);
        assert!(a.divergence.is_none());
        let b = reg.run_chaos(&req, DEFAULT_MAX_NODES).unwrap();
        assert_eq!(a.digest, b.digest, "same seed, same trace");
    }

    #[test]
    fn hostile_chaos_requests_are_rejected_before_any_run() {
        let reg = MachineRegistry::paper_catalog();
        let run = |r: &ChaosRequest| reg.run_chaos(r, DEFAULT_MAX_NODES);
        assert!(matches!(
            run(&chaos_req("nonesuch", vec![3, 1])),
            Err(ServeError::UnknownMachine { .. })
        ));
        assert!(matches!(
            run(&chaos_req("presence", vec![3, 1, 1])),
            Err(ServeError::BadRequest { .. })
        ));
        // Over the chaos node cap even though the decide path would take it.
        assert!(matches!(
            run(&chaos_req("presence", vec![MAX_CHAOS_NODES, 1])),
            Err(ServeError::BadRequest { .. })
        ));
        let mut r = chaos_req("presence", vec![3, 1]);
        r.drop_p = 1.5;
        assert!(matches!(run(&r), Err(ServeError::BadRequest { .. })));
        let mut r = chaos_req("presence", vec![3, 1]);
        r.delay = (5, 2);
        assert!(matches!(run(&r), Err(ServeError::BadRequest { .. })));
        let mut r = chaos_req("presence", vec![3, 1]);
        r.max_rounds = Some(MAX_CHAOS_ROUNDS + 1);
        assert!(matches!(run(&r), Err(ServeError::BadRequest { .. })));
    }
}
