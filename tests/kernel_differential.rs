//! Differential tests for the dense successor kernel: on random machines
//! and random graphs, the kernel exploration (interned `u16` states,
//! memoized δ-tables, packed configuration rows) must be observationally
//! *identical* to the generic engine over `ExclusiveSystem` — same dense
//! id order (after unpacking), same CSR edges, same verdicts, same
//! explored counts — `decide` under `Backend::Auto` and
//! `Backend::Explicit` must return the generic engine's verdict, and the
//! `successors_into` buffer API of every model family must emit exactly
//! what its `successors` returns, in order.
//!
//! Certified explicit decisions emit their certificate from the kernel
//! rows: it must equal the generic emission over `ExclusiveSystem`
//! (relabelled to `Node` steps) and serialise to the same bytes on every
//! run.

use proptest::prelude::*;
use std::sync::Arc;
use weak_async_models::certify::{
    certificate_to_json, certify_exploration, relabel_exclusive_path, Decider, DecisionCertificate,
    StateTable,
};
use weak_async_models::core::{
    decide, explore_counter_kernel, explore_kernel, explore_ring_kernel, Backend, CounterSystem,
    ExclusiveSystem, Exploration, ExploreOptions, KernelStats, LiberalSystem, Machine, Output,
    ResolvedBackend, RingSystem, Schedule, SuccBuf, TransitionSystem,
};
use weak_async_models::extensions::{
    compile_broadcasts, compile_rendezvous, threshold_protocol, AbsenceMachine, AbsenceSystem,
    BroadcastMachine, BroadcastSystem, GraphPopulationProtocol, MajorityState, PopulationSystem,
    ResponseFn, StrongBroadcastSystem,
};
use weak_async_models::graph::{generators, Graph, Label, LabelCount};
use weak_async_models::protocols::threshold_machine;

const STATES: u8 = 3;

/// A table-driven machine over states `0..STATES` with counting bound 1:
/// δ reads only the presence bitmask of neighbouring states, so every
/// table is a well-formed machine and sampling tables samples machines.
fn table_machine(init: [u8; 2], table: Vec<u8>, outs: [u8; STATES as usize]) -> Machine<u8> {
    assert_eq!(table.len(), (STATES as usize) << STATES);
    Machine::new(
        1,
        move |l: Label| init[l.0 as usize % 2] % STATES,
        move |&s: &u8, n| {
            let mask: usize = (0..STATES)
                .filter(|q| n.exists(|&t| t == *q))
                .map(|q| 1usize << q)
                .sum();
            table[((s as usize) << STATES) | mask] % STATES
        },
        move |&s| match outs[s as usize % STATES as usize] % 3 {
            0 => Output::Reject,
            1 => Output::Accept,
            _ => Output::Neutral,
        },
    )
}

/// A counting variant (β = 2): δ reads the base-3 digit vector of clipped
/// neighbour counts, exercising the kernel's signature keys beyond
/// presence bits.
fn counting_machine(init: [u8; 2], table: Vec<u8>, outs: [u8; STATES as usize]) -> Machine<u8> {
    assert_eq!(table.len(), (STATES as usize) * 27);
    Machine::new(
        2,
        move |l: Label| init[l.0 as usize % 2] % STATES,
        move |&s: &u8, n| {
            let idx: usize = (0..STATES)
                .map(|q| (n.count(&q) as usize) * 3usize.pow(u32::from(q)))
                .sum();
            table[(s as usize) * 27 + idx] % STATES
        },
        move |&s| match outs[s as usize % STATES as usize] % 3 {
            0 => Output::Reject,
            1 => Output::Accept,
            _ => Output::Neutral,
        },
    )
}

fn random_graph(shape: u8, a: u64, b: u64, seed: u64) -> Graph {
    let c = LabelCount::from_vec(vec![a, b]);
    match shape % 4 {
        0 => generators::labelled_cycle(&c),
        1 => generators::labelled_line(&c),
        // Stars drive the hub past the kernel's raw-memo degree bound,
        // covering the canonical signature path.
        2 => generators::labelled_star(&c),
        _ => generators::random_degree_bounded(&c, 3, 2, seed),
    }
}

/// Full observational-equality check: kernel exploration vs the generic
/// engine on `ExclusiveSystem`, plus `decide`'s explicit backend (which
/// routes through the kernel) vs the generic engine's counts.
fn assert_kernel_matches_naive(m: &Machine<u8>, g: &Graph) {
    let sys = ExclusiveSystem::new(m, g);
    let naive = Exploration::explore(&sys, 200_000).expect("naive exploration");
    let kernel = explore_kernel(m, g, ExploreOptions::with_limit(200_000)).expect("kernel");

    assert_eq!(kernel.len(), naive.len(), "explored counts differ");
    // Identical interned id order: unpacked kernel config i == naive config i.
    assert_eq!(kernel.configs_unpacked(), naive.configs());
    for i in 0..naive.len() {
        assert_eq!(
            &*kernel.exploration().successors(i),
            &*naive.successors(i),
            "successor row {i} differs"
        );
        assert_eq!(kernel.exploration().is_accepting(i), naive.is_accepting(i));
        assert_eq!(kernel.exploration().is_rejecting(i), naive.is_rejecting(i));
    }
    assert_eq!(kernel.verdict(), naive.verdict());

    // The decide() explicit backend rides the kernel: same verdict, same
    // DecisionStats.explored as the generic engine's interned count.
    let (verdict, stats) = decide(
        m,
        g,
        Schedule::PseudoStochastic,
        Backend::Explicit,
        ExploreOptions::with_limit(200_000),
    )
    .expect("decide explicit");
    assert_eq!(verdict, naive.verdict());
    assert_eq!(stats.explored, naive.len());

    // Auto resolves to counter rows on twin graphs, ring rows on cycles
    // and node rows otherwise: whichever it picks, the verdict is the
    // generic engine's.
    let (verdict, _) = decide(
        m,
        g,
        Schedule::PseudoStochastic,
        Backend::Auto,
        ExploreOptions::with_limit(200_000),
    )
    .expect("decide auto");
    assert_eq!(verdict, naive.verdict());

    assert_certified_is_generic(m, g, Backend::Explicit);
}

/// The certified decision under `backend` (one that resolves to the full
/// space) emits from the kernel rows, whose id order coincides with the
/// generic engine's: the certificate is the generic emission, not merely
/// an equivalent one, and serialises to the same bytes on every run.
fn assert_certified_is_generic(m: &Machine<u8>, g: &Graph, backend: Backend) {
    let sys = ExclusiveSystem::new(m, g);
    let naive = Exploration::explore(&sys, 200_000).expect("naive exploration");
    let certified = || {
        let d = Decider::new(m, g)
            .backend(backend)
            .certified(true)
            .limit(200_000)
            .decide()
            .expect("certified decision");
        assert_eq!(d.verdict, naive.verdict());
        assert_eq!(d.stats.explored, naive.len());
        match d.certificate {
            Some(DecisionCertificate::Node(cert)) => cert,
            other => panic!("expected a node certificate, got {other:?}"),
        }
    };
    let mut generic = certify_exploration(&sys, &naive).certificate;
    relabel_exclusive_path(&mut generic);
    let cert = certified();
    assert_eq!(cert, generic);
    let json = |c| certificate_to_json(c, &StateTable::from_certificate(c));
    assert_eq!(json(&cert), json(&certified()), "certificate JSON differs");
}

/// Asserts `successors_into` emits exactly `successors`, in order, for
/// every configuration reachable in `sys` (the buffer API is part of the
/// observable contract — ids are assigned in arrival order).
fn assert_buffer_api_matches<T: TransitionSystem>(sys: &T, limit: usize) {
    let e = Exploration::explore(sys, limit).expect("exploration");
    let mut buf: SuccBuf<T::C> = SuccBuf::new();
    for c in e.configs() {
        buf.clear();
        sys.successors_into(c, &mut buf);
        assert_eq!(buf.as_slice(), &sys.successors(c)[..]);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Kernel ≡ naive on random non-counting machines × random graphs.
    #[test]
    fn kernel_matches_naive_noncounting(
        init in (0u8..STATES, 0u8..STATES),
        table in prop::collection::vec(0u8..STATES, (STATES as usize) << STATES..((STATES as usize) << STATES) + 1),
        outs in (0u8..3, 0u8..3, 0u8..3),
        shape in 0u8..4,
        a in 1u64..5,
        b in 1u64..5,
        seed in 0u64..1000,
    ) {
        prop_assume!(a + b >= 3);
        let m = table_machine([init.0, init.1], table, [outs.0, outs.1, outs.2]);
        let g = random_graph(shape, a, b, seed);
        assert_kernel_matches_naive(&m, &g);
    }

    /// Kernel ≡ naive on random counting machines (β = 2), whose signature
    /// keys carry genuine clipped counts rather than presence bits.
    #[test]
    fn kernel_matches_naive_counting(
        init in (0u8..STATES, 0u8..STATES),
        table in prop::collection::vec(0u8..STATES, (STATES as usize) * 27..(STATES as usize) * 27 + 1),
        outs in (0u8..3, 0u8..3, 0u8..3),
        shape in 0u8..4,
        a in 1u64..4,
        b in 1u64..4,
        seed in 0u64..1000,
    ) {
        prop_assume!(a + b >= 3);
        let m = counting_machine([init.0, init.1], table, [outs.0, outs.1, outs.2]);
        let g = random_graph(shape, a, b, seed);
        assert_kernel_matches_naive(&m, &g);
    }

    /// The exclusive and liberal families' buffer API matches their
    /// Vec-returning enumeration on random machines × random graphs.
    #[test]
    fn buffer_api_matches_core_families(
        init in (0u8..STATES, 0u8..STATES),
        table in prop::collection::vec(0u8..STATES, (STATES as usize) << STATES..((STATES as usize) << STATES) + 1),
        outs in (0u8..3, 0u8..3, 0u8..3),
        shape in 0u8..4,
        a in 1u64..4,
        b in 1u64..4,
        seed in 0u64..1000,
    ) {
        prop_assume!(a + b >= 3);
        let m = table_machine([init.0, init.1], table, [outs.0, outs.1, outs.2]);
        let g = random_graph(shape, a, b, seed);
        assert_buffer_api_matches(&ExclusiveSystem::new(&m, &g), 50_000);
        assert_buffer_api_matches(&LiberalSystem::new(&m, &g), 50_000);
    }
}

/// The Lemma C.5 threshold broadcast machine `x₀ ≥ k` (same construction
/// as the unit tests in `wam-extensions`).
fn broadcast_threshold(k: u32) -> BroadcastMachine<u32> {
    let machine = Machine::new(
        1,
        move |l: Label| if l.0 == 0 { 1 } else { 0 },
        |&s: &u32, _| s,
        move |&s| {
            if s == k {
                Output::Accept
            } else {
                Output::Reject
            }
        },
    );
    BroadcastMachine::new(
        machine,
        move |&s| s >= 1,
        move |&s| {
            if s == k {
                (k, Arc::new(move |_: &u32| k) as ResponseFn<u32>)
            } else {
                (
                    s,
                    Arc::new(move |&r: &u32| if r == s && r < k { r + 1 } else { r })
                        as ResponseFn<u32>,
                )
            }
        },
    )
}

/// A one-shot absence detector: `A`-agents initiate once and accept iff no
/// `B` appears in their observed support.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
enum D {
    A,
    B,
    Acc,
    Rej,
}

fn absence_detector() -> AbsenceMachine<D> {
    let machine = Machine::new(
        1,
        |l: Label| if l.0 == 0 { D::A } else { D::B },
        |&s, _| s,
        |&s| match s {
            D::A | D::Acc => Output::Accept,
            D::B | D::Rej => Output::Reject,
        },
    );
    AbsenceMachine::new(
        machine,
        |&s| s == D::A,
        |_, supp| if supp.contains(&D::B) { D::Rej } else { D::Acc },
    )
}

fn small_graphs() -> Vec<Graph> {
    [
        LabelCount::from_vec(vec![3, 1]),
        LabelCount::from_vec(vec![2, 2]),
        LabelCount::from_vec(vec![1, 3]),
    ]
    .iter()
    .flat_map(|c| {
        [
            generators::labelled_cycle(c),
            generators::labelled_line(c),
            generators::labelled_star(c),
        ]
    })
    .collect()
}

/// All four extension families' buffer API matches their Vec-returning
/// enumeration on every reachable configuration of a grid of small
/// instances.
#[test]
fn buffer_api_matches_extension_families() {
    let bm = broadcast_threshold(2);
    let am = absence_detector();
    let pp = GraphPopulationProtocol::<MajorityState>::majority();
    let sb = threshold_protocol(2);
    for g in small_graphs() {
        assert_buffer_api_matches(&BroadcastSystem::new(&bm, &g), 100_000);
        assert_buffer_api_matches(&AbsenceSystem::new(&am, &g), 100_000);
        assert_buffer_api_matches(&PopulationSystem::new(&pp, &g), 100_000);
        assert_buffer_api_matches(&StrongBroadcastSystem::new(&sb, &g), 100_000);
    }
}

/// `Backend::Auto` on twin-free graphs that are not cycles resolves to the
/// full space and rides the kernel rows, certificate included.
#[test]
fn auto_backend_on_twin_free_graphs_matches_naive() {
    let table = (0..(STATES as usize) << STATES).map(|i| (i * 5 % 7) as u8);
    let m = table_machine([1, 0], table.collect(), [1, 0, 2]);
    let line = generators::labelled_line(&LabelCount::from_vec(vec![3, 2]));
    // Rigid (|Aut| = 1): no twins, not a cycle.
    let rigid = generators::random_degree_bounded(&LabelCount::from_vec(vec![5, 1]), 3, 2, 4);
    for g in [&rigid, &line] {
        let naive = Exploration::explore(&ExclusiveSystem::new(&m, g), 200_000).unwrap();
        let opts = ExploreOptions::with_limit(200_000);
        let (v, stats) = decide(&m, g, Schedule::PseudoStochastic, Backend::Auto, opts).unwrap();
        assert_eq!(stats.backend, ResolvedBackend::Explicit, "{g:?}");
        assert_eq!(v, naive.verdict());
        assert_eq!(stats.explored, naive.len());
    }
    assert_certified_is_generic(&m, &line, Backend::Auto);
}

/// The δ columns of a finished session: `(states, sigs, delta_entries,
/// delta_hits, delta_misses)`.
fn delta_counters(s: KernelStats) -> (usize, usize, u64, u64, u64) {
    (
        s.states,
        s.sigs,
        s.delta_entries,
        s.delta_hits,
        s.delta_misses,
    )
}

/// The δ counters of the six `kernel` rows of BENCH_explore.json are
/// pinned exactly: a rewrite of the memo tables or of row construction
/// must intern the same states and signatures and make the same lookups,
/// hit for hit.
#[test]
fn kernel_stats_are_pinned() {
    let opts = ExploreOptions::with_limit(10_000_000);
    let flood = Machine::new(
        1,
        |l: Label| l.0 == 1,
        |&s: &bool, n| s || n.exists(|&t| t),
        |&s| if s { Output::Accept } else { Output::Reject },
    );
    let majority = compile_rendezvous(&GraphPopulationProtocol::<MajorityState>::majority());
    let threshold = compile_broadcasts(&threshold_machine(2, 0, 2));
    let counts = |v: Vec<u64>| LabelCount::from_vec(v);
    let got = [
        explore_kernel(
            &flood,
            &generators::labelled_cycle(&counts(vec![13, 1])),
            opts,
        )
        .unwrap()
        .stats(),
        explore_kernel(
            &majority,
            &generators::labelled_cycle(&counts(vec![4, 2])),
            opts,
        )
        .unwrap()
        .stats(),
        explore_kernel(
            &threshold,
            &generators::labelled_line(&counts(vec![4, 1])),
            opts,
        )
        .unwrap()
        .stats(),
        {
            let g = generators::labelled_clique(&counts(vec![3, 4]));
            let sys = CounterSystem::new(&majority, &g).unwrap();
            explore_counter_kernel(&sys, opts).unwrap().stats()
        },
        {
            let g = generators::labelled_star(&counts(vec![2, 2]));
            let sys = CounterSystem::new(&threshold, &g).unwrap();
            explore_counter_kernel(&sys, opts).unwrap().stats()
        },
        {
            let g = generators::labelled_cycle(&counts(vec![2, 2]));
            let sys = RingSystem::new(&threshold, &g).unwrap();
            explore_ring_kernel(&sys, opts).unwrap().stats()
        },
    ]
    .map(delta_counters);
    let want = [
        // flood cycle [13,1], node rows
        (2, 0, 8, 1_280, 8),
        // majority via Lemma 4.10 cycle [4,2], node rows
        (22, 0, 1_929, 740_385, 1_929),
        // x₀ ≥ 2 via Lemma 4.7 line [4,1], node rows
        (93, 0, 13_903, 652_607, 13_903),
        // majority 7-clique [3,4], counter rows
        (22, 976, 2_019, 30_735, 2_019),
        // ladder star [2,2], counter rows
        (196, 3_581, 9_741, 23_523, 9_741),
        // ladder cycle [2,2], ring rows
        (196, 0, 8_723, 5_809, 8_723),
    ];
    assert_eq!(got, want);
}
