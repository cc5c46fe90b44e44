//! Concurrency stress for the sharded [`VerdictStore`]: many threads
//! hammer one store with overlapping E1-grid jobs in scrambled orders,
//! and the outcome must be indistinguishable from a serial run —
//! bit-identical verdicts *and* certificate JSON for every job, with
//! each canonical isomorphism class decided at most once across all
//! threads (the store's pending-slot coalescing, not luck).
//!
//! Decisions run on the *canonical representative* of each class, so
//! the emitted certificate is a pure function of the store key: which
//! thread (and which labelled representative) wins the race cannot
//! change a single byte of the cached result.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use weak_async_models::analysis::{system_fingerprint, StoreKey, VerdictStore};
use weak_async_models::certify::{certificate_to_json, Decider, DecisionCertificate, StateTable};
use weak_async_models::core::{Backend, Schedule, Verdict};
use weak_async_models::graph::{
    canonical_form, generators, Graph, GraphBuilder, Label, LabelCount,
};
use weak_async_models::protocols::cutoff_one_machine;

const THREADS: usize = 8;
const PASSES: usize = 3;

/// A graph's canonical-class key, as produced by [`canonical_form`].
type ClassKey = (Vec<u16>, Vec<(u32, u32)>);

/// The E1 small-graph grid: five label counts across four families.
fn jobs() -> Vec<Graph> {
    let mut out = Vec::new();
    for (a, b) in [(3u64, 0u64), (2, 1), (1, 2), (2, 2), (3, 1)] {
        let c = LabelCount::from_vec(vec![a, b]);
        out.push(generators::labelled_cycle(&c));
        out.push(generators::labelled_line(&c));
        out.push(generators::labelled_star(&c));
        out.push(generators::labelled_clique(&c));
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
    let fp = system_fingerprint("stress/presence");
    let grid = jobs();

    // Serial reference: decide every distinct canonical class once.
    let mut reference: BTreeMap<ClassKey, (Verdict, String)> = BTreeMap::new();
    for g in &grid {
        let key = canonical_form(g).key();
        reference.entry(key).or_insert_with(|| decide_canonical(g));
    }
    let distinct = reference.len();
    assert!(
        distinct < grid.len(),
        "the grid must contain isomorphic duplicates to make contention real"
    );
    // Presence accepts exactly when a node is labelled 1.
    for g in &grid {
        let (verdict, _) = &reference[&canonical_form(g).key()];
        let expected = if g.label_count().get(Label(1)) >= 1 {
            Verdict::Accepts
        } else {
            Verdict::Rejects
        };
        assert_eq!(*verdict, expected, "serial reference verdict is wrong");
    }

    // Concurrent run: THREADS threads × PASSES passes over the grid, each
    // in its own scrambled order, all through one shared store.
    let store: Arc<VerdictStore<(Verdict, String)>> = Arc::new(VerdictStore::with_shards(16));
    let decisions = Arc::new(AtomicUsize::new(0));
    let reference = Arc::new(reference);

    let mut handles = Vec::new();
    for t in 0..THREADS {
        let store = Arc::clone(&store);
        let decisions = Arc::clone(&decisions);
        let reference = Arc::clone(&reference);
        let grid = grid.clone();
        handles.push(std::thread::spawn(move || {
            let mut rng = Lcg(0xA076_1D64_78BD_642F ^ (t as u64 + 1));
            for _ in 0..PASSES {
                let mut order: Vec<usize> = (0..grid.len()).collect();
                for i in (1..order.len()).rev() {
                    order.swap(i, (rng.next() as usize) % (i + 1));
                }
                for &j in &order {
                    let g = &grid[j];
                    let key = StoreKey::new(fp, g);
                    let got = store.get_or_insert_with(&key, || {
                        decisions.fetch_add(1, Ordering::SeqCst);
                        decide_canonical(g)
                    });
                    let want = &reference[&canonical_form(g).key()];
                    assert_eq!(got.0, want.0, "verdict diverged from serial on job {j}");
                    assert_eq!(
                        got.1, want.1,
                        "certificate JSON diverged from serial on job {j}"
                    );
                }
            }
        }));
    }
    for h in handles {
        h.join().expect("stress thread");
    }

    // At-most-once: THREADS × PASSES × |grid| lookups collapsed to one
    // decision per canonical class.
    assert_eq!(
        decisions.load(Ordering::SeqCst),
        distinct,
        "each canonical class must be decided exactly once"
    );
    assert_eq!(store.len(), distinct);
    assert_eq!(store.misses() as usize, distinct);
    let lookups = (THREADS * PASSES * grid.len()) as u64;
    assert_eq!(store.hits() + store.coalesced() + store.misses(), lookups);
    assert!(
        store.hits() > 0,
        "repeat passes must be served from the cache"
    );
}
