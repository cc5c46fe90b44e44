//! Concurrency stress for the verdict service over its sharded
//! [`VerdictStore`](weak_async_models::analysis::VerdictStore) cache:
//! many client threads send overlapping E1-grid jobs in scrambled orders
//! through one [`VerdictService`], and the outcome must be
//! indistinguishable from a serial run — bit-identical verdicts *and*
//! certificate JSON for every job, with each isomorphism class decided
//! exactly once and replied `miss` exactly once across all threads (the
//! service's in-flight coalescing, not luck).
//!
//! The grid is grouped into classes by brute-force isomorphism, and
//! decisions run on the *representative* of each class, its first job.
//! So the emitted certificate is a pure function of the store key: which
//! thread (and which member of the class) wins the race cannot change a
//! single byte of the cached result.

mod common;

use common::isomorphic;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use weak_async_models::certify::{certificate_to_json, Decider, DecisionCertificate, StateTable};
use weak_async_models::core::{Backend, Schedule, Verdict};
use weak_async_models::graph::{Graph, Label};
use weak_async_models::protocols::cutoff_one_machine;
use weak_async_models::serve::{
    build_graph, CacheOutcome, CachedVerdict, CertificateBlob, DecideRequest, MachineRegistry,
    Reply, ServiceConfig, VerdictService,
};

const THREADS: usize = 8;
const PASSES: usize = 3;

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

/// One certified decision of the presence machine on a class
/// representative, rendered to its JSON wire form. Deterministic: equal
/// representatives produce byte-equal results.
fn decide_representative(g: &Graph) -> (Verdict, String) {
    let machine = cutoff_one_machine(2, |p| p[1]);
    let d = Decider::new(&machine, g)
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

    // Classes by brute-force isomorphism: a job's class is the index of
    // the first isomorphic job, its representative.
    let class_of: Vec<usize> = (0..grid.len())
        .map(|j| {
            (0..=j)
                .find(|&i| isomorphic(&grid[i].1, &grid[j].1))
                .unwrap()
        })
        .collect();
    let representatives: Arc<Vec<Graph>> = Arc::new(
        (0..grid.len())
            .filter(|&j| class_of[j] == j)
            .map(|j| grid[j].1.clone())
            .collect(),
    );

    // Serial reference: decide every class once, on its representative.
    let mut reference: BTreeMap<usize, (Verdict, String)> = BTreeMap::new();
    for &class in &class_of {
        reference
            .entry(class)
            .or_insert_with(|| decide_representative(&grid[class].1));
    }
    let distinct = reference.len();
    assert!(
        distinct < grid.len(),
        "the grid must contain isomorphic duplicates to make contention real"
    );
    // Presence accepts exactly when a node is labelled 1.
    for (j, (_, g)) in grid.iter().enumerate() {
        let (verdict, _) = &reference[&class_of[j]];
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
        "certified presence on the class representative",
        2,
        Box::new(move |g, _certified| {
            counter.fetch_add(1, Ordering::SeqCst);
            let representative = representatives
                .iter()
                .find(|r| isomorphic(r, g))
                .expect("every grid graph has a representative");
            let (verdict, json) = decide_representative(representative);
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
    let class_of = Arc::new(class_of);
    let mut handles = Vec::new();
    for t in 0..THREADS {
        let service = Arc::clone(&service);
        let reference = Arc::clone(&reference);
        let grid = Arc::clone(&grid);
        let class_of = Arc::clone(&class_of);
        handles.push(std::thread::spawn(move || {
            let mut rng = Lcg(0xA076_1D64_78BD_642F ^ (t as u64 + 1));
            let mut misses: Vec<usize> = Vec::new();
            for _ in 0..PASSES {
                let mut order: Vec<usize> = (0..grid.len()).collect();
                for i in (1..order.len()).rev() {
                    order.swap(i, (rng.next() as usize) % (i + 1));
                }
                for &j in &order {
                    let req = &grid[j].0;
                    let ok = match service.process_blocking(req.clone()) {
                        Reply::Ok(ok) => ok,
                        other => panic!("job {j} was not served: {other:?}"),
                    };
                    let class = class_of[j];
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
    let mut misses: BTreeMap<usize, usize> = BTreeMap::new();
    for h in handles {
        for class in h.join().expect("client thread") {
            *misses.entry(class).or_default() += 1;
        }
    }

    // THREADS × PASSES × |grid| requests collapsed to one decision, and
    // one `miss` reply, per isomorphism class.
    assert_eq!(
        decisions.load(Ordering::SeqCst),
        distinct,
        "each isomorphism class must be decided exactly once"
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
