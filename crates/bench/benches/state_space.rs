//! **E13 (supplementary) — configuration-space growth and engine timing:**
//! the quantitative backdrop of the `NSPACE(n)` bound — reachable
//! configuration counts grow exponentially with the network size, per
//! machine and per simulation layer, which is why exact deciders are
//! confined to small graphs and the paper's characterisations matter.
//!
//! The second half benchmarks the exploration engine itself: the
//! interned/CSR engine against a faithful replica of the original
//! `HashMap`-per-config explorer, on the largest workloads of the growth
//! table; the dense δ-session rows against the generic engine on the same
//! spaces; certificate emission and verification; the counter-abstracted
//! backend (E18) on 10³–10⁴-node cycles, cliques and stars — populations
//! far beyond any explicit engine — with every verdict cross-checked
//! against the explicit engine on a ratio-preserving small instance of the
//! same family; and the out-of-core spill path (E19). Results go to stdout
//! and to `BENCH_explore.json` at the repository root.

use std::time::Instant;
use wam_bench::{time_ms, Table};
use wam_certify::{certificate_to_json, Certificate, Decider, DecisionCertificate, StateTable};
use wam_core::{
    explore_counter_kernel, explore_kernel, explore_ring_kernel, Backend, CounterSystem,
    ExclusiveSystem, Exploration, ExploreError, ExploreOptions, KernelStats, Machine, Output,
    ResolvedBackend, RingSystem, Schedule, State, TransitionSystem, Verdict,
};
use wam_extensions::{
    compile_broadcasts, compile_rendezvous, BroadcastSystem, CounterPopulationSystem,
    GraphPopulationProtocol, MajorityState, PopulationSystem,
};
use wam_graph::{generators, Graph, Label, LabelCount};
use wam_protocols::{cutoff_one_machine, threshold_machine};

fn flood() -> Machine<bool> {
    Machine::new(
        1,
        |l: Label| l.0 == 1,
        |&s, n| s || n.exists(|&t| t),
        |&s| if s { Output::Accept } else { Output::Reject },
    )
}

/// Faithful replica of the pre-interning exploration engine, kept here as
/// the timing baseline: `HashMap<C, usize>` (SipHash) visited set cloning
/// each configuration twice, `Vec<Vec<usize>>` adjacency with
/// `contains`-based duplicate scans, and a `verdict` that rebuilds the
/// predecessor lists once per `Pre*` query.
mod baseline {
    use std::collections::HashMap;
    use std::collections::VecDeque;
    use wam_core::{TransitionSystem, Verdict};

    pub struct BaselineExploration<C> {
        pub configs: Vec<C>,
        succs: Vec<Vec<usize>>,
        accepting: Vec<bool>,
        rejecting: Vec<bool>,
    }

    impl<C: Clone + Eq + std::hash::Hash + std::fmt::Debug> BaselineExploration<C> {
        pub fn explore<T: TransitionSystem<C = C>>(system: &T, limit: usize) -> Option<Self> {
            let start = system.initial_config();
            let mut index: HashMap<C, usize> = HashMap::new();
            let mut configs = vec![start.clone()];
            index.insert(start, 0);
            let mut succs: Vec<Vec<usize>> = Vec::new();
            let mut queue = VecDeque::from([0usize]);
            while let Some(i) = queue.pop_front() {
                let mut out = Vec::new();
                for next in system.successors(&configs[i]) {
                    let id = match index.get(&next) {
                        Some(&id) => id,
                        None => {
                            let id = configs.len();
                            if id >= limit {
                                return None;
                            }
                            configs.push(next.clone());
                            index.insert(next, id);
                            queue.push_back(id);
                            id
                        }
                    };
                    if !out.contains(&id) {
                        out.push(id);
                    }
                }
                succs.push(out);
            }
            let accepting = configs.iter().map(|c| system.is_accepting(c)).collect();
            let rejecting = configs.iter().map(|c| system.is_rejecting(c)).collect();
            Some(BaselineExploration {
                configs,
                succs,
                accepting,
                rejecting,
            })
        }

        fn pre_star(&self, targets: &[bool]) -> Vec<bool> {
            // Rebuilds the predecessor lists on every call, as the original
            // engine did.
            let mut preds: Vec<Vec<usize>> = vec![Vec::new(); self.configs.len()];
            for (i, out) in self.succs.iter().enumerate() {
                for &j in out {
                    preds[j].push(i);
                }
            }
            let mut in_set = targets.to_vec();
            let mut stack: Vec<usize> = (0..targets.len()).filter(|&i| targets[i]).collect();
            while let Some(j) = stack.pop() {
                for &i in &preds[j] {
                    if !in_set[i] {
                        in_set[i] = true;
                        stack.push(i);
                    }
                }
            }
            in_set
        }

        fn stably(&self, good: &[bool]) -> bool {
            let bad: Vec<bool> = good.iter().map(|&b| !b).collect();
            let reach_bad = self.pre_star(&bad);
            reach_bad.iter().any(|&b| !b)
        }

        pub fn verdict(&self) -> Verdict {
            let acc = self.stably(&self.accepting);
            let rej = self.stably(&self.rejecting);
            match (acc, rej) {
                (true, true) => Verdict::Inconsistent,
                (true, false) => Verdict::Accepts,
                (false, true) => Verdict::Rejects,
                (false, false) => Verdict::NoConsensus,
            }
        }
    }
}

/// Per-phase wall times of one full decision: exploration, reverse-CSR transpose, the two
/// stable-set fixpoints, and the `verdict()` call (which re-runs the
/// fixpoints on the by-then-cached reverse CSR — its time is the
/// incremental cost of asking for the verdict after the stable sets).
struct Phases {
    explore_ms: f64,
    reverse_csr_ms: f64,
    fixpoint_ms: f64,
    verdict_ms: f64,
}

struct Timing {
    name: String,
    nodes: u64,
    configs: usize,
    edges: usize,
    verdict: Verdict,
    baseline_ms: f64,
    sequential_ms: f64,
    phases: Phases,
}

fn time_workload<T: TransitionSystem>(
    name: &str,
    nodes: u64,
    sys: &T,
    limit: usize,
    reps: usize,
) -> Timing {
    let (baseline_ms, bv) = time_ms(reps, || {
        let e = baseline::BaselineExploration::explore(sys, limit).expect("baseline within limit");
        (e.verdict(), e.configs.len())
    });
    let (sequential_ms, e) = time_ms(reps, || {
        Exploration::explore(sys, limit).expect("within limit")
    });
    let sv = (
        e.verdict(),
        e.len(),
        (0..e.len()).map(|i| e.successors(i).len()).sum::<usize>(),
    );
    assert_eq!(bv.0, sv.0, "baseline and engine verdicts must agree");
    assert_eq!(bv.1, sv.1, "reachable counts must agree");
    // One instrumented decision, phase by phase: `build_reverse` isolates the transpose, the stable-set pair
    // isolates the fixpoints, and the final `verdict()` shows the cost of
    // re-deriving the verdict once the reverse CSR is cached.
    let t0 = Instant::now();
    let e = Exploration::explore(sys, limit).expect("within limit");
    let explore_ms = t0.elapsed().as_secs_f64() * 1e3;
    let t0 = Instant::now();
    e.build_reverse();
    let reverse_csr_ms = t0.elapsed().as_secs_f64() * 1e3;
    let t0 = Instant::now();
    let stably_any = e
        .stably_accepting()
        .iter()
        .chain(e.stably_rejecting().iter())
        .any(|&b| b);
    let fixpoint_ms = t0.elapsed().as_secs_f64() * 1e3;
    let t0 = Instant::now();
    let verdict = e.verdict();
    let verdict_ms = t0.elapsed().as_secs_f64() * 1e3;
    assert_eq!(verdict, sv.0, "instrumented run changed the verdict");
    assert_eq!(
        stably_any,
        verdict != Verdict::NoConsensus,
        "stable sets and verdict must agree"
    );
    Timing {
        name: name.to_string(),
        nodes,
        configs: sv.1,
        edges: sv.2,
        verdict: sv.0,
        baseline_ms,
        sequential_ms,
        phases: Phases {
            explore_ms,
            reverse_csr_ms,
            fixpoint_ms,
            verdict_ms,
        },
    }
}

struct KernelTiming {
    name: String,
    /// Which dense system the row times: `exclusive` (packed node rows vs
    /// `ExclusiveSystem`), `counter` (counter rows vs `CounterSystem`) or
    /// `ring` (ring rows vs `RingSystem`).
    system: &'static str,
    nodes: u64,
    configs: usize,
    verdict: Verdict,
    generic_explore_ms: f64,
    kernel_explore_ms: f64,
    /// Bytes held by the row arena (inline rows count their struct size;
    /// heap rows add their word storage).
    memory_bytes: u64,
    delta_entries: u64,
    delta_hit_rate: f64,
    states: usize,
    sigs: usize,
    bits: u32,
    restarts: u32,
}

/// Times a dense system against the generic engine on the same space —
/// explore phase only, interleaved with alternating order so drift on a
/// shared machine lands on both columns equally — and asserts the two
/// explorations agree on verdict and reachable count on every repetition.
fn time_dense<G, D>(
    name: &str,
    system: &'static str,
    nodes: usize,
    reps: usize,
    generic: G,
    dense: D,
) -> KernelTiming
where
    G: Fn() -> (Verdict, usize),
    D: Fn() -> (Verdict, usize, KernelStats),
{
    let mut generic_ms = f64::INFINITY;
    let mut kernel_ms = f64::INFINITY;
    let mut gv = None;
    let mut kv = None;
    let mut stats = None;
    let run_generic = |gv: &mut Option<_>, generic_ms: &mut f64| {
        let t0 = Instant::now();
        let r = generic();
        *generic_ms = generic_ms.min(t0.elapsed().as_secs_f64() * 1e3);
        *gv = Some(r);
    };
    let run_kernel = |kv: &mut Option<_>, stats: &mut Option<_>, kernel_ms: &mut f64| {
        let t0 = Instant::now();
        let (v, n, s) = dense();
        *kernel_ms = kernel_ms.min(t0.elapsed().as_secs_f64() * 1e3);
        *kv = Some((v, n));
        *stats = Some(s);
    };
    for rep in 0..reps {
        if rep % 2 == 0 {
            run_generic(&mut gv, &mut generic_ms);
            run_kernel(&mut kv, &mut stats, &mut kernel_ms);
        } else {
            run_kernel(&mut kv, &mut stats, &mut kernel_ms);
            run_generic(&mut gv, &mut generic_ms);
        }
        assert_eq!(gv, kv, "dense and generic engine must agree on {name}");
    }
    let (verdict, configs) = gv.unwrap();
    let stats = stats.unwrap();
    KernelTiming {
        name: name.to_string(),
        system,
        nodes: nodes as u64,
        configs,
        verdict,
        generic_explore_ms: generic_ms,
        kernel_explore_ms: kernel_ms,
        memory_bytes: stats.arena_bytes,
        delta_entries: stats.delta_entries,
        delta_hit_rate: stats.hit_rate(),
        states: stats.states,
        sigs: stats.sigs,
        bits: stats.bits,
        restarts: stats.restarts,
    }
}

/// The dense successor kernel (packed node rows) against the generic
/// engine over `ExclusiveSystem`.
fn time_kernel<S: State>(
    name: &str,
    m: &Machine<S>,
    g: &Graph,
    limit: usize,
    reps: usize,
) -> KernelTiming {
    let sys = ExclusiveSystem::new(m, g);
    let opts = ExploreOptions::with_limit(limit);
    time_dense(
        name,
        "exclusive",
        g.node_count(),
        reps,
        || {
            let e =
                Exploration::explore_with(&sys, sys.initial_config(), opts).expect("within limit");
            (e.verdict(), e.len())
        },
        || {
            let e = explore_kernel(m, g, opts).expect("within limit");
            (e.verdict(), e.len(), e.stats())
        },
    )
}

/// Dense counter rows against the generic engine over `CounterSystem`.
fn time_counter_rows<S: State>(
    name: &str,
    m: &Machine<S>,
    g: &Graph,
    limit: usize,
    reps: usize,
) -> KernelTiming {
    let sys = CounterSystem::new(m, g).expect("twin-compressible graph");
    let opts = ExploreOptions::with_limit(limit);
    time_dense(
        name,
        "counter",
        g.node_count(),
        reps,
        || {
            let e =
                Exploration::explore_with(&sys, sys.initial_config(), opts).expect("within limit");
            (e.verdict(), e.len())
        },
        || {
            let e = explore_counter_kernel(&sys, opts).expect("within limit");
            (e.verdict(), e.len(), e.stats())
        },
    )
}

/// Dense ring rows against the generic engine over `RingSystem`.
fn time_ring_rows<S: State>(
    name: &str,
    m: &Machine<S>,
    g: &Graph,
    limit: usize,
    reps: usize,
) -> KernelTiming {
    let sys = RingSystem::new(m, g).expect("cycle graph");
    let opts = ExploreOptions::with_limit(limit);
    time_dense(
        name,
        "ring",
        g.node_count(),
        reps,
        || {
            let e =
                Exploration::explore_with(&sys, sys.initial_config(), opts).expect("within limit");
            (e.verdict(), e.len())
        },
        || {
            let e = explore_ring_kernel(&sys, opts).expect("within limit");
            (e.verdict(), e.len(), e.stats())
        },
    )
}

struct SpillTiming {
    name: String,
    nodes: u64,
    default_limit: usize,
    raised_limit: usize,
    budget_bytes: usize,
    configs: usize,
    edges: u64,
    spilled_bytes: u64,
    in_memory_ms: f64,
    spilled_ms: f64,
    verdict: Verdict,
}

/// One E19 spill row: a ring-backend workload whose configuration space
/// exceeds the decider's default limit. The row records the refusal at the
/// default limit, then decides the space twice at a raised limit — fully
/// in memory and under a small edge-memory budget that spills compact CSR
/// segments to disk — and asserts both decisions agree. Both timings cover
/// explore + verdict (the spilled verdict streams the forward relation
/// instead of building a reverse CSR).
fn time_spill<S: State>(
    name: &str,
    m: &Machine<S>,
    g: &Graph,
    default_limit: usize,
    raised_limit: usize,
    budget_bytes: usize,
) -> SpillTiming {
    let ring = RingSystem::new(m, g).expect("bench cycles compress to rings");
    let refused = Exploration::explore_with(
        &ring,
        ring.initial_config(),
        ExploreOptions::with_limit(default_limit),
    );
    assert!(
        matches!(refused, Err(ExploreError::TooLarge { .. })),
        "the spill workload must exceed the default limit, or the row is meaningless"
    );
    let t0 = Instant::now();
    let mem = Exploration::explore_with(
        &ring,
        ring.initial_config(),
        ExploreOptions::with_limit(raised_limit),
    )
    .expect("within the raised limit");
    let mem_verdict = mem.verdict();
    let in_memory_ms = t0.elapsed().as_secs_f64() * 1e3;
    assert!(!mem.was_spilled());
    let t0 = Instant::now();
    let spill = Exploration::explore_with(
        &ring,
        ring.initial_config(),
        ExploreOptions::with_limit(raised_limit).memory_budget(budget_bytes),
    )
    .expect("within the raised limit");
    let spill_verdict = spill.verdict();
    let spilled_ms = t0.elapsed().as_secs_f64() * 1e3;
    assert!(
        spill.was_spilled(),
        "the budget must actually force a spill"
    );
    assert_eq!(mem_verdict, spill_verdict, "spill changed the verdict");
    assert_eq!(mem.len(), spill.len());
    assert_eq!(mem.edge_count(), spill.edge_count());
    SpillTiming {
        name: name.to_string(),
        nodes: g.node_count() as u64,
        default_limit,
        raised_limit,
        budget_bytes,
        configs: mem.len(),
        edges: mem.edge_count(),
        spilled_bytes: spill.spilled_bytes(),
        in_memory_ms,
        spilled_ms,
        verdict: mem_verdict,
    }
}

struct CertTiming {
    name: String,
    nodes: u64,
    backend: ResolvedBackend,
    verdict: Verdict,
    kind: &'static str,
    cert_configs: usize,
    json_bytes: usize,
    plain_ms: f64,
    certified_ms: f64,
    verify_ms: f64,
    encode_ms: f64,
}

/// The certificate's kind, configuration count and serialised size, and
/// the best time of encoding it (state table and JSON text).
fn cert_facts<C>(
    c: &Certificate<C>,
    reps: usize,
    json: impl Fn(&Certificate<C>) -> String,
) -> (&'static str, usize, usize, f64) {
    let (encode_ms, text) = time_ms(reps, || json(c));
    (c.kind(), c.config_count(), text.len(), encode_ms)
}

/// Times a plain decider against its certificate-emitting counterpart and
/// the independent verifier on the emitted certificate: the three numbers
/// the "certified verdicts" subsystem trades on — emission overhead on top
/// of the plain decision, certificate size, and the re-validation by
/// direct step semantics. Both deciders run the same
/// schedule and backend, so they resolve to the same representation.
fn time_certified<S: State>(
    name: &str,
    nodes: u64,
    machine: &Machine<S>,
    graph: &wam_graph::Graph,
    reps: usize,
    schedule: Schedule,
    backend: Backend,
) -> CertTiming {
    let decider = || {
        Decider::new(machine, graph)
            .schedule(schedule)
            .backend(backend)
            .limit(10_000_000)
    };
    let (plain_ms, plain) = time_ms(reps, || decider().decide().expect("space within limit"));
    let (certified_ms, out) = time_ms(reps, || {
        decider()
            .certified(true)
            .decide()
            .expect("space within limit")
    });
    assert_eq!(
        plain.verdict, out.verdict,
        "certified decider changed the verdict"
    );
    assert_eq!(
        plain.stats, out.stats,
        "certified decider changed the backend"
    );
    let cert = out.certificate.expect("certified run");
    let (verify_ms, vv) = time_ms(reps, || {
        cert.verify(machine, graph)
            .expect("emitted certificate must verify")
    });
    assert_eq!(vv, out.verdict, "verifier disagreed with the decider");
    let (kind, cert_configs, json_bytes, encode_ms) = match &cert {
        DecisionCertificate::Node(c) => cert_facts(c, reps, |c| {
            certificate_to_json(c, &StateTable::from_certificate(c))
        }),
        DecisionCertificate::Counter(c) => cert_facts(c, reps, |c| {
            certificate_to_json(c, &StateTable::from_counter_certificate(c))
        }),
        DecisionCertificate::Ring(c) => cert_facts(c, reps, |c| {
            certificate_to_json(c, &StateTable::from_ring_certificate(c))
        }),
    };
    CertTiming {
        name: name.to_string(),
        nodes,
        backend: out.stats.backend,
        verdict: out.verdict,
        kind,
        cert_configs,
        json_bytes,
        plain_ms,
        certified_ms,
        verify_ms,
        encode_ms,
    }
}

struct CounterTiming {
    predicate: &'static str,
    family: &'static str,
    nodes: u64,
    backend: String,
    configs: usize,
    explore_ms: f64,
    verdict: Verdict,
    small_nodes: u64,
    small_verdict: Verdict,
}

/// One E18 row for a node-step machine: decide on the large graph through
/// `Backend::Counter` (twin-partition counts on cliques/stars, canonical
/// necklaces on cycles), then cross-validate — the counter verdict on a
/// ratio-preserving *small* instance of the same family must equal the
/// explicit engine's verdict there, and the large-instance verdict must
/// match both (the predicate's truth value is preserved by construction of
/// the label counts).
#[allow(clippy::too_many_arguments)]
fn time_counter_machine<S: State>(
    predicate: &'static str,
    family: &'static str,
    m: &Machine<S>,
    large: &Graph,
    small: &Graph,
    expect: ResolvedBackend,
    limit: usize,
    reps: usize,
) -> CounterTiming {
    let (explore_ms, d) = time_ms(reps, || {
        Decider::new(m, large)
            .backend(Backend::Counter)
            .limit(limit)
            .decide()
            .expect("counter abstraction applies and fits the limit")
    });
    assert_eq!(d.stats.backend, expect, "{predicate} on the large {family}");
    let small_explicit = Decider::new(m, small)
        .backend(Backend::Explicit)
        .limit(limit)
        .decide()
        .expect("small explicit space within limit")
        .verdict;
    let small_counter = Decider::new(m, small)
        .backend(Backend::Counter)
        .limit(limit)
        .decide()
        .expect("counter applies on the small instance too")
        .verdict;
    assert_eq!(
        small_counter, small_explicit,
        "{predicate} on the small {family}: counter vs explicit"
    );
    assert_eq!(
        d.verdict, small_explicit,
        "{predicate}: the large-{family} verdict must match the small-n truth"
    );
    CounterTiming {
        predicate,
        family,
        nodes: large.node_count() as u64,
        backend: d.stats.backend.to_string(),
        configs: d.stats.explored,
        explore_ms,
        verdict: d.verdict,
        small_nodes: small.node_count() as u64,
        small_verdict: small_explicit,
    }
}

/// One E18 row for a rendez-vous population protocol, via the counter
/// abstraction of `wam-extensions` (`CounterPopulationSystem`), with the
/// same small-instance explicit cross-validation.
fn time_counter_population<S: State>(
    predicate: &'static str,
    family: &'static str,
    pp: &GraphPopulationProtocol<S>,
    large: &Graph,
    small: &Graph,
    limit: usize,
    reps: usize,
) -> CounterTiming {
    let (explore_ms, (verdict, configs)) = time_ms(reps, || {
        let sys = CounterPopulationSystem::new(pp, large).expect("twin partition compresses");
        let e = Exploration::explore(&sys, limit).expect("counter space within limit");
        (e.verdict(), e.len())
    });
    let small_explicit = Exploration::explore(&PopulationSystem::new(pp, small), limit)
        .expect("small explicit space within limit")
        .verdict();
    let small_counter = Exploration::explore(
        &CounterPopulationSystem::new(pp, small).expect("small twin partition compresses"),
        limit,
    )
    .expect("small counter space within limit")
    .verdict();
    assert_eq!(
        small_counter, small_explicit,
        "{predicate} on the small {family}: counter vs explicit"
    );
    assert_eq!(
        verdict, small_explicit,
        "{predicate}: the large-{family} verdict must match the small-n truth"
    );
    CounterTiming {
        predicate,
        family,
        nodes: large.node_count() as u64,
        backend: "counter-population".to_string(),
        configs,
        explore_ms,
        verdict,
        small_nodes: small.node_count() as u64,
        small_verdict: small_explicit,
    }
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn write_report(
    timings: &[Timing],
    kernel: &[KernelTiming],
    certificates: &[CertTiming],
    counter: &[CounterTiming],
    spill: &[SpillTiming],
) {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut rows = String::new();
    for (i, t) in timings.iter().enumerate() {
        if i > 0 {
            rows.push_str(",\n");
        }
        rows.push_str(&format!(
            "    {{\n      \"workload\": \"{}\",\n      \"nodes\": {},\n      \"configs\": {},\n      \"edges\": {},\n      \"verdict\": \"{}\",\n      \"baseline_ms\": {:.3},\n      \"sequential_ms\": {:.3},\n      \"speedup_sequential_vs_baseline\": {:.2},\n      \"phases\": {{\n        \"explore_ms\": {:.3},\n        \"reverse_csr_ms\": {:.3},\n        \"fixpoint_ms\": {:.3},\n        \"verdict_ms\": {:.3}\n      }}\n    }}",
            json_escape(&t.name),
            t.nodes,
            t.configs,
            t.edges,
            t.verdict,
            t.baseline_ms,
            t.sequential_ms,
            t.baseline_ms / t.sequential_ms,
            t.phases.explore_ms,
            t.phases.reverse_csr_ms,
            t.phases.fixpoint_ms,
            t.phases.verdict_ms,
        ));
    }
    let mut kernel_rows = String::new();
    for (i, k) in kernel.iter().enumerate() {
        if i > 0 {
            kernel_rows.push_str(",\n");
        }
        kernel_rows.push_str(&format!(
            "      {{\n        \"workload\": \"{}\",\n        \"system\": \"{}\",\n        \"nodes\": {},\n        \"configs\": {},\n        \"verdict\": \"{}\",\n        \"generic_explore_ms\": {:.3},\n        \"kernel_explore_ms\": {:.3},\n        \"speedup\": {:.2},\n        \"memory_bytes\": {},\n        \"delta_entries\": {},\n        \"delta_hit_rate\": {:.4},\n        \"states\": {},\n        \"sigs\": {},\n        \"bits\": {},\n        \"restarts\": {}\n      }}",
            json_escape(&k.name),
            k.system,
            k.nodes,
            k.configs,
            k.verdict,
            k.generic_explore_ms,
            k.kernel_explore_ms,
            k.generic_explore_ms / k.kernel_explore_ms,
            k.memory_bytes,
            k.delta_entries,
            k.delta_hit_rate,
            k.states,
            k.sigs,
            k.bits,
            k.restarts,
        ));
    }
    let mut cert_rows = String::new();
    for (i, c) in certificates.iter().enumerate() {
        if i > 0 {
            cert_rows.push_str(",\n");
        }
        cert_rows.push_str(&format!(
            "      {{\n        \"workload\": \"{}\",\n        \"nodes\": {},\n        \"backend\": \"{}\",\n        \"verdict\": \"{}\",\n        \"kind\": \"{}\",\n        \"cert_configs\": {},\n        \"json_bytes\": {},\n        \"plain_ms\": {:.3},\n        \"certified_ms\": {:.3},\n        \"verify_ms\": {:.3},\n        \"encode_ms\": {:.4},\n        \"emission_overhead\": {:.2}\n      }}",
            json_escape(&c.name),
            c.nodes,
            c.backend,
            c.verdict,
            c.kind,
            c.cert_configs,
            c.json_bytes,
            c.plain_ms,
            c.certified_ms,
            c.verify_ms,
            c.encode_ms,
            c.certified_ms / c.plain_ms,
        ));
    }
    let mut counter_rows = String::new();
    for (i, k) in counter.iter().enumerate() {
        if i > 0 {
            counter_rows.push_str(",\n");
        }
        counter_rows.push_str(&format!(
            "      {{\n        \"workload\": \"{} on the {}\",\n        \"predicate\": \"{}\",\n        \"family\": \"{}\",\n        \"nodes\": {},\n        \"backend\": \"{}\",\n        \"configs\": {},\n        \"explore_ms\": {:.3},\n        \"verdict\": \"{}\",\n        \"small_nodes\": {},\n        \"small_verdict\": \"{}\"\n      }}",
            json_escape(k.predicate),
            json_escape(k.family),
            json_escape(k.predicate),
            json_escape(k.family),
            k.nodes,
            json_escape(&k.backend),
            k.configs,
            k.explore_ms,
            k.verdict,
            k.small_nodes,
            k.small_verdict,
        ));
    }
    let mut spill_rows = String::new();
    for (i, s) in spill.iter().enumerate() {
        if i > 0 {
            spill_rows.push_str(",\n");
        }
        spill_rows.push_str(&format!(
            "      {{\n        \"workload\": \"{}\",\n        \"nodes\": {},\n        \"default_limit\": {},\n        \"refused_at_default_limit\": true,\n        \"raised_limit\": {},\n        \"memory_budget_bytes\": {},\n        \"configs\": {},\n        \"edges\": {},\n        \"spilled_bytes\": {},\n        \"in_memory_ms\": {:.3},\n        \"spilled_ms\": {:.3},\n        \"slowdown\": {:.2},\n        \"verdict\": \"{}\"\n      }}",
            json_escape(&s.name),
            s.nodes,
            s.default_limit,
            s.raised_limit,
            s.budget_bytes,
            s.configs,
            s.edges,
            s.spilled_bytes,
            s.in_memory_ms,
            s.spilled_ms,
            s.spilled_ms / s.in_memory_ms,
            s.verdict,
        ));
    }
    let json = format!(
        "{{\n  \"bench\": \"state_space\",\n  \"baseline\": \"seed HashMap/Vec<Vec> explorer (SipHash, per-query predecessor rebuild)\",\n  \"engine\": \"sequential interned CSR explorer (FxHash open-addressing interner, bitset Pre*, cached reverse CSR)\",\n  \"cores\": {cores},\n  \"timing\": \"best of repetitions, milliseconds, explore only; phases are one instrumented run, and verdict_ms re-runs the fixpoints on the cached reverse CSR\",\n  \"workloads\": [\n{rows}\n  ],\n  \"kernel\": {{\n    \"note\": \"dense rows vs the generic engine on the same space, explore phase only; every dense system shares one δ session per decision that interns reachable states to u16 ids and memoizes δ per local view (raw u64 keys for degree ≤ 3 and ring steps, sorted clipped-count signatures otherwise); system 'exclusive' = bit-packed node rows patched in one field vs ExclusiveSystem, 'counter' = sorted (cell, sid, count) words vs CounterSystem, 'ring' = canonical (sid, length) run words vs RingSystem; bits is the packed node width (16 = sid lanes of counter and ring words); memory_bytes is the row arena, delta_hit_rate counts memoized steps over all node-step lookups\",\n    \"workloads\": [\n{kernel_rows}\n    ]\n  }},\n  \"certificates\": {{\n    \"note\": \"plain decider vs certificate-emitting decider vs independent verifier; emission_overhead = certified_ms / plain_ms; json_bytes is the serialised certificate size and encode_ms the time to encode it (state table and certificate_to_json); backend is the resolved representation, and the explicit, counter and ring rows emit from the dense δ-session rows the plain decision explores\",\n    \"workloads\": [\n{cert_rows}\n    ]\n  }},\n  \"counter\": {{\n    \"note\": \"counter-abstracted backend (Backend::Counter / CounterPopulationSystem) on 10^3-10^4-node graphs; every verdict cross-validated against the explicit engine on a ratio-preserving small instance of the same family (small_nodes/small_verdict); backend 'counter' = twin-partition count vectors, 'ring' = canonical necklaces on cycles, 'counter-population' = rendez-vous count moves\",\n    \"workloads\": [\n{counter_rows}\n    ]\n  }},\n  \"spill\": {{\n    \"note\": \"E19 out-of-core spill path: workloads refused at the default limit, re-decided at a raised limit fully in memory and under a small edge-memory budget (compact CSR segments flushed to a temp file, fixpoints via streaming forward passes); both decisions must agree\",\n    \"workloads\": [\n{spill_rows}\n    ]\n  }}\n}}\n"
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_explore.json");
    std::fs::write(path, &json).expect("write BENCH_explore.json");
    println!("\nwrote {path}");
}

fn main() {
    let mut t = Table::new(["machine", "n", "reachable configurations"]);
    for n in [4u64, 6, 8, 10] {
        let c = LabelCount::from_vec(vec![n - 1, 1]);
        let g = generators::labelled_cycle(&c);
        let m = flood();
        let sys = ExclusiveSystem::new(&m, &g);
        let e = Exploration::explore(&sys, 10_000_000).unwrap();
        t.row([
            "flood (2 states)".into(),
            n.to_string(),
            e.len().to_string(),
        ]);
    }
    for n in [4u64, 5, 6] {
        let a = n / 2 + 1;
        let c = LabelCount::from_vec(vec![a, n - a]);
        let g = generators::labelled_cycle(&c);
        let m = compile_rendezvous(&GraphPopulationProtocol::<MajorityState>::majority());
        let sys = ExclusiveSystem::new(&m, &g);
        match Exploration::explore(&sys, 10_000_000) {
            Ok(e) => t.row([
                "majority via Lemma 4.10 (28 states)".into(),
                n.to_string(),
                e.len().to_string(),
            ]),
            Err(_) => t.row([
                "majority via Lemma 4.10 (28 states)".into(),
                n.to_string(),
                "> 10M".into(),
            ]),
        }
    }
    for n in [3u64, 4, 5] {
        let c = LabelCount::from_vec(vec![n - 1, 1]);
        let g = generators::labelled_line(&c);
        let m = compile_broadcasts(&threshold_machine(2, 0, 2));
        let sys = ExclusiveSystem::new(&m, &g);
        match Exploration::explore(&sys, 10_000_000) {
            Ok(e) => t.row([
                "x₀ ≥ 2 via Lemma 4.7".into(),
                n.to_string(),
                e.len().to_string(),
            ]),
            Err(_) => t.row(["x₀ ≥ 2 via Lemma 4.7".into(), n.to_string(), "> 10M".into()]),
        }
    }
    t.print("Configuration-space growth (exclusive selection, exhaustive)");
    println!(
        "Per-node memory is constant, so the configuration space is exponential in n —\n\
         the resource that NSPACE(n) measures and that the simulation layers multiply."
    );

    // ── Engine timing: seed-baseline vs interned CSR engine ────────────────
    let mut timings = Vec::new();

    {
        let c = LabelCount::from_vec(vec![13, 1]);
        let g = generators::labelled_cycle(&c);
        let m = flood();
        let sys = ExclusiveSystem::new(&m, &g);
        // Sub-millisecond workload: more repetitions so the columns are not
        // dominated by scheduling noise.
        timings.push(time_workload("flood cycle", 14, &sys, 10_000_000, 25));
    }
    {
        let c = LabelCount::from_vec(vec![4, 2]);
        let g = generators::labelled_cycle(&c);
        let m = compile_rendezvous(&GraphPopulationProtocol::<MajorityState>::majority());
        let sys = ExclusiveSystem::new(&m, &g);
        timings.push(time_workload(
            "majority via Lemma 4.10 cycle",
            6,
            &sys,
            10_000_000,
            9,
        ));
    }
    {
        let c = LabelCount::from_vec(vec![4, 1]);
        let g = generators::labelled_line(&c);
        let m = compile_broadcasts(&threshold_machine(2, 0, 2));
        let sys = ExclusiveSystem::new(&m, &g);
        timings.push(time_workload(
            "x₀ ≥ 2 via Lemma 4.7 line",
            5,
            &sys,
            10_000_000,
            9,
        ));
    }
    // Two native (uncompiled) model families: the broadcast and population
    // transition systems explored directly, not through a plain-machine
    // simulation layer.
    // The broadcast graph stays small: every broadcast step fans out into
    // |set|^(n-|set|) receiver assignments, so successor enumeration — not
    // the explorer — dominates beyond a handful of nodes.
    {
        let c = LabelCount::from_vec(vec![4, 1]);
        let g = generators::labelled_cycle(&c);
        let bm = threshold_machine(2, 0, 2);
        let sys = BroadcastSystem::new(&bm, &g);
        timings.push(time_workload(
            "x₀ ≥ 2 native broadcasts cycle",
            5,
            &sys,
            10_000_000,
            9,
        ));
    }
    {
        let c = LabelCount::from_vec(vec![8, 6]);
        let g = generators::labelled_cycle(&c);
        let pp = GraphPopulationProtocol::<MajorityState>::majority();
        let sys = PopulationSystem::new(&pp, &g);
        timings.push(time_workload(
            "majority native rendez-vous cycle",
            14,
            &sys,
            10_000_000,
            9,
        ));
    }

    let mut tt = Table::new(["workload", "configs", "baseline ms", "engine ms", "speedup"]);
    for t in &timings {
        tt.row([
            t.name.clone(),
            t.configs.to_string(),
            format!("{:.1}", t.baseline_ms),
            format!("{:.1}", t.sequential_ms),
            format!("{:.2}x", t.baseline_ms / t.sequential_ms),
        ]);
    }
    tt.print("Exploration engine: seed baseline vs interned CSR engine (explore + verdict)");

    // ── Dense rows: generic engine vs the shared δ session ─────────────────
    // The three plain-machine (exclusive) workloads again, explore phase
    // only: the generic engine enumerates successors
    // by cloning state rows and re-running δ per node, while the kernel
    // interns states to u16 ids, memoizes δ per local view, and patches
    // packed configuration rows in place.
    let mut kernel = Vec::new();

    {
        let c = LabelCount::from_vec(vec![13, 1]);
        let g = generators::labelled_cycle(&c);
        let m = flood();
        kernel.push(time_kernel("flood cycle", &m, &g, 10_000_000, 25));
    }
    {
        let c = LabelCount::from_vec(vec![4, 2]);
        let g = generators::labelled_cycle(&c);
        let m = compile_rendezvous(&GraphPopulationProtocol::<MajorityState>::majority());
        kernel.push(time_kernel(
            "majority via Lemma 4.10 cycle",
            &m,
            &g,
            10_000_000,
            9,
        ));
    }
    {
        let c = LabelCount::from_vec(vec![4, 1]);
        let g = generators::labelled_line(&c);
        let m = compile_broadcasts(&threshold_machine(2, 0, 2));
        kernel.push(time_kernel(
            "x₀ ≥ 2 via Lemma 4.7 line",
            &m,
            &g,
            10_000_000,
            9,
        ));
    }

    // The counter and ring rows: the serve catalog's heaviest counter and
    // ring keys, generic `CounterSystem`/`RingSystem` vs the dense rows
    // `decide` runs for `Resolution::Counter`/`Resolution::Ring`.
    {
        let m = compile_rendezvous(&GraphPopulationProtocol::<MajorityState>::majority());
        let g = generators::labelled_clique(&LabelCount::from_vec(vec![3, 4]));
        kernel.push(time_counter_rows(
            "majority 7-clique [3,4]",
            &m,
            &g,
            10_000_000,
            9,
        ));
    }
    {
        let m = compile_broadcasts(&threshold_machine(2, 0, 2));
        let g = generators::labelled_star(&LabelCount::from_vec(vec![2, 2]));
        kernel.push(time_counter_rows(
            "ladder star [2,2]",
            &m,
            &g,
            10_000_000,
            9,
        ));
        let g = generators::labelled_cycle(&LabelCount::from_vec(vec![2, 2]));
        kernel.push(time_ring_rows("ladder cycle [2,2]", &m, &g, 10_000_000, 9));
    }

    let mut kt = Table::new([
        "workload",
        "system",
        "configs",
        "generic ms",
        "kernel ms",
        "speedup",
        "states",
        "δ entries",
        "hit rate",
        "arena bytes",
    ]);
    for k in &kernel {
        kt.row([
            k.name.clone(),
            k.system.to_string(),
            k.configs.to_string(),
            format!("{:.1}", k.generic_explore_ms),
            format!("{:.1}", k.kernel_explore_ms),
            format!("{:.2}x", k.generic_explore_ms / k.kernel_explore_ms),
            k.states.to_string(),
            k.delta_entries.to_string(),
            format!("{:.4}", k.delta_hit_rate),
            k.memory_bytes.to_string(),
        ]);
    }
    kt.print("Dense rows: generic engine vs the shared δ session (explore only)");

    // ── Certified verdicts: emission overhead, size, verification time ─────
    let mut certificates = Vec::new();

    {
        let g = generators::labelled_cycle(&LabelCount::from_vec(vec![13, 1]));
        let m = flood();
        certificates.push(time_certified(
            "flood cycle (pseudo-stochastic)",
            14,
            &m,
            &g,
            9,
            Schedule::PseudoStochastic,
            Backend::Auto,
        ));
    }
    {
        let g = generators::labelled_star(&LabelCount::from_vec(vec![7, 1]));
        let m = flood();
        certificates.push(time_certified(
            "flood star (pseudo-stochastic)",
            8,
            &m,
            &g,
            9,
            Schedule::PseudoStochastic,
            Backend::Auto,
        ));
    }
    {
        let g = generators::labelled_line(&LabelCount::from_vec(vec![4, 1]));
        let m = compile_broadcasts(&threshold_machine(2, 0, 2));
        certificates.push(time_certified(
            "x₀ ≥ 2 via Lemma 4.7 line (pseudo-stochastic)",
            5,
            &m,
            &g,
            3,
            Schedule::PseudoStochastic,
            Backend::Auto,
        ));
    }
    {
        // Deterministic round-robin on the same flood workload: lasso
        // certificates replay a concrete schedule instead of a stability
        // invariant, so they stay small regardless of the space.
        let g = generators::labelled_cycle(&LabelCount::from_vec(vec![13, 1]));
        let m = flood();
        certificates.push(time_certified(
            "flood cycle (round-robin lasso)",
            14,
            &m,
            &g,
            9,
            Schedule::RoundRobin,
            Backend::Auto,
        ));
        // A lasso certificate is one configuration plus two lengths, so
        // it grows with the node count, not with the cycle.
        let g = generators::labelled_star(&LabelCount::from_vec(vec![2000, 1]));
        certificates.push(time_certified(
            "flood star (round-robin lasso)",
            2001,
            &m,
            &g,
            3,
            Schedule::RoundRobin,
            Backend::Auto,
        ));
    }
    // The dense rows: certified decisions emit from the same δ-session
    // exploration as plain ones. `Backend::Auto` resolves a rigid graph
    // (6 nodes, 7 edges, |Aut| = 1) to packed node rows, a clique to
    // counter rows and a cycle to ring rows.
    for (name, k, g) in [
        (
            "x₀ ≥ 2 via Lemma 4.7, rigid graph (explicit rows)",
            2,
            generators::random_degree_bounded(&LabelCount::from_vec(vec![5, 1]), 3, 2, 4),
        ),
        (
            "x₀ ≥ 3 via Lemma 4.7 clique (counter rows)",
            3,
            generators::labelled_clique(&LabelCount::from_vec(vec![3, 2])),
        ),
        (
            "x₀ ≥ 3 via Lemma 4.7 cycle (ring rows)",
            3,
            generators::labelled_cycle(&LabelCount::from_vec(vec![4, 1])),
        ),
    ] {
        let m = compile_broadcasts(&threshold_machine(2, 0, k));
        certificates.push(time_certified(
            name,
            g.node_count() as u64,
            &m,
            &g,
            3,
            Schedule::PseudoStochastic,
            Backend::Auto,
        ));
    }

    let mut ct = Table::new([
        "workload",
        "kind",
        "cert configs",
        "json bytes",
        "plain ms",
        "certified ms",
        "verify ms",
        "encode ms",
        "overhead",
    ]);
    for c in &certificates {
        ct.row([
            c.name.clone(),
            c.kind.to_string(),
            c.cert_configs.to_string(),
            c.json_bytes.to_string(),
            format!("{:.1}", c.plain_ms),
            format!("{:.1}", c.certified_ms),
            format!("{:.2}", c.verify_ms),
            format!("{:.3}", c.encode_ms),
            format!("{:.2}x", c.certified_ms / c.plain_ms),
        ]);
    }
    ct.print("Certified verdicts: emission overhead and verification cost");

    // ── E18 — counter-abstracted backend at 10³–10⁴ nodes ─────────────────
    // Explicit exploration tops out around 20 nodes; the counter backend
    // (twin-partition counts / canonical necklaces / rendez-vous count
    // moves) decides the same E1-grid predicates on populations two to
    // three orders of magnitude larger. Every row's verdict is
    // cross-validated inside the timing helpers: counter == explicit on a
    // ratio-preserving small instance of the same family, and the
    // large-instance verdict equals that small-n truth.
    let mut counter = Vec::new();

    let flood_m = flood();
    let presence = cutoff_one_machine(2, |p| p[1]);
    let both_present = cutoff_one_machine(2, |p| p[0] && p[1]);
    let ladder = compile_broadcasts(&threshold_machine(2, 0, 2));
    let majority = GraphPopulationProtocol::<MajorityState>::majority();

    let skew_1k = LabelCount::from_vec(vec![999, 1]);
    let skew_10k = LabelCount::from_vec(vec![9999, 1]);
    let skew_small = LabelCount::from_vec(vec![6, 1]);

    counter.push(time_counter_machine(
        "x₁ ≥ 1 (flood)",
        "cycle",
        &flood_m,
        &generators::labelled_cycle(&skew_1k),
        &generators::labelled_cycle(&skew_small),
        ResolvedBackend::Ring,
        10_000_000,
        9,
    ));
    counter.push(time_counter_machine(
        "x₁ ≥ 1 (flood)",
        "cycle",
        &flood_m,
        &generators::labelled_cycle(&skew_10k),
        &generators::labelled_cycle(&skew_small),
        ResolvedBackend::Ring,
        10_000_000,
        3,
    ));
    counter.push(time_counter_machine(
        "x₀ ≥ 1 ∧ x₁ ≥ 1 (presence set)",
        "cycle",
        &both_present,
        &generators::labelled_cycle(&skew_1k),
        &generators::labelled_cycle(&skew_small),
        ResolvedBackend::Ring,
        10_000_000,
        3,
    ));
    counter.push(time_counter_machine(
        "x₁ ≥ 1 (presence set)",
        "clique",
        &presence,
        &generators::labelled_clique(&skew_1k),
        &generators::labelled_clique(&skew_small),
        ResolvedBackend::Counter,
        10_000_000,
        5,
    ));
    counter.push(time_counter_machine(
        "x₁ ≥ 1 (presence set)",
        "star",
        &presence,
        &generators::labelled_star(&skew_1k),
        &generators::labelled_star(&skew_small),
        ResolvedBackend::Counter,
        10_000_000,
        5,
    ));
    counter.push(time_counter_machine(
        "x₁ ≥ 1 (presence set)",
        "clique",
        &presence,
        &generators::labelled_clique(&skew_10k),
        &generators::labelled_clique(&skew_small),
        ResolvedBackend::Counter,
        10_000_000,
        3,
    ));
    counter.push(time_counter_machine(
        "x₁ ≥ 1 (presence set)",
        "star",
        &presence,
        &generators::labelled_star(&skew_10k),
        &generators::labelled_star(&skew_small),
        ResolvedBackend::Counter,
        10_000_000,
        3,
    ));
    {
        // A rejecting row: no label-1 node at all (uniform clique).
        let uniform_1k = LabelCount::from_vec(vec![1000]);
        let uniform_small = LabelCount::from_vec(vec![7]);
        counter.push(time_counter_machine(
            "x₁ ≥ 1 (presence set)",
            "clique",
            &presence,
            &generators::labelled_clique(&uniform_1k),
            &generators::labelled_clique(&uniform_small),
            ResolvedBackend::Counter,
            10_000_000,
            5,
        ));
    }
    counter.push(time_counter_machine(
        "x₀ ≥ 2 (⟨level⟩ ladder)",
        "clique",
        &ladder,
        &generators::labelled_clique(&skew_1k),
        &generators::labelled_clique(&skew_small),
        ResolvedBackend::Counter,
        10_000_000,
        3,
    ));
    counter.push(time_counter_population(
        "x₀ > x₁ (majority)",
        "clique",
        &majority,
        &generators::labelled_clique(&LabelCount::from_vec(vec![980, 20])),
        &generators::labelled_clique(&LabelCount::from_vec(vec![5, 2])),
        10_000_000,
        3,
    ));
    counter.push(time_counter_population(
        "x₀ > x₁ (majority)",
        "star",
        &majority,
        &generators::labelled_star(&LabelCount::from_vec(vec![1, 999])),
        &generators::labelled_star(&LabelCount::from_vec(vec![1, 6])),
        10_000_000,
        3,
    ));
    counter.push(time_counter_population(
        "x₀ > x₁ (majority)",
        "clique",
        &majority,
        &generators::labelled_clique(&LabelCount::from_vec(vec![9980, 20])),
        &generators::labelled_clique(&LabelCount::from_vec(vec![5, 2])),
        10_000_000,
        3,
    ));

    let mut kt = Table::new([
        "predicate",
        "family",
        "nodes",
        "backend",
        "configs",
        "explore ms",
        "verdict",
        "small-n check",
    ]);
    for k in &counter {
        kt.row([
            k.predicate.to_string(),
            k.family.to_string(),
            k.nodes.to_string(),
            k.backend.clone(),
            k.configs.to_string(),
            format!("{:.1}", k.explore_ms),
            k.verdict.to_string(),
            format!("n = {}: {}", k.small_nodes, k.small_verdict),
        ]);
    }
    kt.print(
        "E18 — counter-abstracted backend at 10³–10⁴ nodes (verdicts cross-validated at small n)",
    );

    // ── E19 — memory-budgeted spill path on a formerly-refused space ──────
    // The presence-pair predicate on a 300-node cycle reaches ~1.7M ring
    // configurations — over the decider's default 1M limit. With a raised
    // limit it fits in memory; with a 2 MiB edge budget the compact CSR
    // spills to disk and the fixpoints stream the forward relation, so the
    // decision completes with bounded edge residency either way.
    let mut spill = Vec::new();
    {
        let g = generators::labelled_cycle(&LabelCount::from_vec(vec![150, 150]));
        spill.push(time_spill(
            "x₀ ≥ 1 ∧ x₁ ≥ 1 (presence set) ring cycle",
            &both_present,
            &g,
            1_000_000,
            2_000_000,
            2 << 20,
        ));
    }

    let mut spt = Table::new([
        "workload",
        "configs",
        "edges",
        "budget",
        "spilled bytes",
        "in-memory ms",
        "spilled ms",
        "slowdown",
    ]);
    for s in &spill {
        spt.row([
            s.name.clone(),
            s.configs.to_string(),
            s.edges.to_string(),
            format!("{} KiB", s.budget_bytes / 1024),
            s.spilled_bytes.to_string(),
            format!("{:.0}", s.in_memory_ms),
            format!("{:.0}", s.spilled_ms),
            format!("{:.2}x", s.spilled_ms / s.in_memory_ms),
        ]);
    }
    spt.print("E19 — spill path: refused at the default limit, decided under a memory budget");

    write_report(&timings, &kernel, &certificates, &counter, &spill);
}
