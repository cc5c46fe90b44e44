//! Concurrency stress for the verdict service over its sharded
//! [`VerdictStore`](weak_async_models::analysis::VerdictStore) cache:
//! many client threads send overlapping E1-grid jobs in scrambled orders
//! through one [`VerdictService`], and the outcome must be
//! indistinguishable from a serial run — bit-identical verdicts *and*
//! certificate JSON for every job, with each canonical isomorphism class
//! decided exactly once and replied `miss` exactly once across all
//! threads (the service's in-flight coalescing, not luck).
//!
//! Decisions run on the *canonical representative* of each class, so
//! the emitted certificate is a pure function of the store key: which
//! thread (and which labelled representative) wins the race cannot
//! change a single byte of the cached result.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use weak_async_models::certify::{certificate_to_json, Decider, DecisionCertificate, StateTable};
use weak_async_models::core::{Backend, Schedule, Verdict};
use weak_async_models::graph::{canonical_form, Graph, GraphBuilder, Label};
use weak_async_models::protocols::cutoff_one_machine;
use weak_async_models::serve::{
    build_graph, CacheOutcome, CachedVerdict, CertificateBlob, DecideRequest, MachineRegistry,
    Reply, ServiceConfig, VerdictService,
};

const THREADS: usize = 8;
const PASSES: usize = 3;

/// A graph's canonical-class key, as produced by [`canonical_form`].
type ClassKey = (Vec<u16>, Vec<(u32, u32)>);

/// The E1 small-graph grid: five label counts across four families, as
/// `(family, counts)` request fields.
fn jobs() -> Vec<(&'static str, Vec<u64>)> {
    let mut out = Vec::new();
    for (a, b) in [(3u64, 0u64), (2, 1), (1, 2), (2, 2), (3, 1)] {
        for family in ["cycle", "line", "star", "clique"] {
            out.push((family, vec![a, b]));
        }
    }
    out
}

/// Rebuilds the canonical representative of `g`'s isomorphism class as a
/// concrete graph (the form's labels and edges, in canonical order).
fn canonical_graph(g: &Graph) -> Graph {
    let form = canonical_form(g);
    assert!(form.exact, "grid graphs are small enough for exact forms");
    let mut b = GraphBuilder::new(g.alphabet().clone());
    let ids: Vec<_> = form.labels.iter().map(|&l| b.node(Label(l))).collect();
    for &(u, v) in &form.edges {
        b.add_edge(ids[u as usize], ids[v as usize]);
    }
    b.build().expect("canonical form is a valid graph")
}

/// One certified decision of the presence machine on the canonical
/// representative, rendered to its JSON wire form. Deterministic: equal
/// keys produce byte-equal results.
fn decide_canonical(g: &Graph) -> (Verdict, String) {
    let machine = cutoff_one_machine(2, |p| p[1]);
    let cg = canonical_graph(g);
    let d = Decider::new(&machine, &cg)
        .schedule(Schedule::RoundRobin)
        .backend(Backend::Explicit)
        .certified(true)
        .limit(500_000)
        .decide()
        .expect("presence decides on the grid");
    let cert = d.certificate.expect("certified run emits a certificate");
    let json = match &cert {
        DecisionCertificate::Node(c) => certificate_to_json(c, &StateTable::from_certificate(c)),
        other => panic!("lasso schedules emit node certificates, got {other:?}"),
    };
    (d.verdict, json)
}

/// A tiny multiplicative generator for per-thread job shuffles.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

#[test]
fn concurrent_store_is_bit_identical_to_serial_with_at_most_one_decision_per_class() {
    let grid: Vec<(DecideRequest, Graph)> = jobs()
        .into_iter()
        .map(|(family, counts)| {
            let graph = build_graph(family, &counts).expect("grid job builds");
            let req = DecideRequest {
                id: None,
                machine: "presence".to_string(),
                family: family.to_string(),
                counts,
                certified: true,
                deadline_ms: None,
            };
            (req, graph)
        })
        .collect();

    // Serial reference: decide every distinct canonical class once.
    let mut reference: BTreeMap<ClassKey, (Verdict, String)> = BTreeMap::new();
    for (_, g) in &grid {
        let key = canonical_form(g).key();
        reference.entry(key).or_insert_with(|| decide_canonical(g));
    }
    let distinct = reference.len();
    assert!(
        distinct < grid.len(),
        "the grid must contain isomorphic duplicates to make contention real"
    );
    // Presence accepts exactly when a node is labelled 1.
    for (_, g) in &grid {
        let (verdict, _) = &reference[&canonical_form(g).key()];
        let expected = if g.label_count().get(Label(1)) >= 1 {
            Verdict::Accepts
        } else {
            Verdict::Rejects
        };
        assert_eq!(*verdict, expected, "serial reference verdict is wrong");
    }

    // The service decides through an entry that renders the same JSON.
    let decisions = Arc::new(AtomicUsize::new(0));
    let mut registry = MachineRegistry::new();
    let counter = Arc::clone(&decisions);
    registry.register_with(
        "presence",
        "certified presence on the canonical representative",
        2,
        Box::new(move |g, _certified| {
            counter.fetch_add(1, Ordering::SeqCst);
            let (verdict, json) = decide_canonical(g);
            Ok(CachedVerdict {
                verdict,
                backend: "explicit".to_string(),
                explored: 0,
                certificate: Some(Arc::new(CertificateBlob::new("node", &json))),
            })
        }),
    );
    let service = Arc::new(VerdictService::new(registry, ServiceConfig::default()));

    // Concurrent run: THREADS client threads × PASSES passes over the
    // grid, each in its own scrambled order, all through one service.
    let reference = Arc::new(reference);
    let grid = Arc::new(grid);
    let mut handles = Vec::new();
    for t in 0..THREADS {
        let service = Arc::clone(&service);
        let reference = Arc::clone(&reference);
        let grid = Arc::clone(&grid);
        handles.push(std::thread::spawn(move || {
            let mut rng = Lcg(0xA076_1D64_78BD_642F ^ (t as u64 + 1));
            let mut misses: Vec<ClassKey> = Vec::new();
            for _ in 0..PASSES {
                let mut order: Vec<usize> = (0..grid.len()).collect();
                for i in (1..order.len()).rev() {
                    order.swap(i, (rng.next() as usize) % (i + 1));
                }
                for &j in &order {
                    let (req, g) = &grid[j];
                    let ok = match service.process_blocking(req.clone()) {
                        Reply::Ok(ok) => ok,
                        other => panic!("job {j} was not served: {other:?}"),
                    };
                    let class = canonical_form(g).key();
                    let want = &reference[&class];
                    let blob = ok.result.certificate.expect("certified reply");
                    assert_eq!(ok.result.verdict, want.0, "verdict diverged on job {j}");
                    assert_eq!(blob.json(), want.1, "certificate JSON diverged on job {j}");
                    if ok.cache == CacheOutcome::Miss {
                        misses.push(class);
                    }
                }
            }
            misses
        }));
    }
    let mut misses: BTreeMap<ClassKey, usize> = BTreeMap::new();
    for h in handles {
        for class in h.join().expect("client thread") {
            *misses.entry(class).or_default() += 1;
        }
    }

    // THREADS × PASSES × |grid| requests collapsed to one decision, and
    // one `miss` reply, per canonical class.
    assert_eq!(
        decisions.load(Ordering::SeqCst),
        distinct,
        "each canonical class must be decided exactly once"
    );
    assert_eq!(misses.len(), distinct, "every class must miss once");
    assert!(
        misses.values().all(|&n| n == 1),
        "a class replied miss more than once: {misses:?}"
    );
    let stats = service.stats();
    assert_eq!(stats.received, (THREADS * PASSES * grid.len()) as u64);
    assert_eq!(stats.decided as usize, distinct);
    assert_eq!(
        stats.cache_hits + stats.coalesced + stats.decided,
        stats.received
    );
    assert!(
        stats.cache_hits > 0,
        "repeat passes must be served from the cache"
    );
    assert_eq!(service.store().len(), distinct);
}
