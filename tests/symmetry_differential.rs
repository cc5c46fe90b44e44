//! Differential tests for orbit-quotient exploration: on random machines /
//! parameterised protocols and random graphs, exploring the quotient of
//! the configuration space under `Aut(G)` must yield the same [`Verdict`]
//! as exploring the full space, across **all six model families**
//! (exclusive, liberal, weak broadcast, weak absence detection,
//! rendez-vous / population, strong broadcast). This is the empirical half
//! of the soundness argument in `wam-core::symmetry` — the debug
//! equivariance check is re-run explicitly here on every sampled system.
//!
//! A separate regression test pins the quotient against an independent
//! implementation of the same idea: `wam-analysis::stars` collapses star
//! configurations by leaf permutation symbolically (centre state + leaf
//! multiset), and the orbit quotient of the node-explicit star must
//! reproduce its configuration count *exactly*.

use proptest::prelude::*;
use weak_async_models::analysis::StarSystem;
use weak_async_models::core::{
    Backend, ExclusiveSystem, Exploration, ExploreOptions, LiberalSystem, Machine, NodeSymmetric,
    Output, PermuteNodes, QuotientSystem, Schedule, TransitionSystem,
};
use weak_async_models::extensions::{
    threshold_protocol, AbsenceMachine, AbsenceSystem, BroadcastSystem, GraphPopulationProtocol,
    MajorityState, PopulationSystem, StrongBroadcastSystem,
};
use weak_async_models::graph::{automorphism_group, generators, Graph, Label, LabelCount};
use weak_async_models::protocols::threshold_machine;

const STATES: u8 = 3;

/// A table-driven machine over states `0..STATES` with counting bound 1
/// (as in `explore_differential.rs`): every table is a well-formed
/// machine, so sampling tables samples machines.
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

fn random_graph(shape: u8, a: u64, b: u64, seed: u64) -> Graph {
    let c = LabelCount::from_vec(vec![a, b]);
    match shape % 3 {
        0 => generators::labelled_cycle(&c),
        1 => generators::labelled_line(&c),
        _ => generators::random_degree_bounded(&c, 3, 2, seed),
    }
}

/// A minimal absence-detection machine: initiators are the label-0 agents,
/// the detection step inspects the observed support for a label-1 agent.
/// Even states accept, odd states reject.
fn absence_detector() -> AbsenceMachine<u8> {
    let machine = Machine::new(
        1,
        |l: Label| if l.0 == 0 { 0u8 } else { 1 },
        |&s, _| s,
        |&s| {
            if s % 2 == 0 {
                Output::Accept
            } else {
                Output::Reject
            }
        },
    );
    AbsenceMachine::new(
        machine,
        |&s| s == 0,
        |_, supp| if supp.contains(&1) { 3 } else { 2 },
    )
}

/// Explores `sys` fully and through the orbit quotient, asserts the
/// equivariance contract and verdict equality, and returns
/// `(full, quotient)` configuration counts.
fn assert_quotient_agrees<T>(sys: &T, limit: usize) -> (usize, usize)
where
    T: NodeSymmetric,
    T::C: PermuteNodes,
{
    let full = Exploration::explore_from(sys, sys.initial_config(), limit).expect("full space");
    let group = automorphism_group(sys.symmetry_graph(), 10_000);
    assert!(group.is_complete(), "test graphs are small");
    let quotient = QuotientSystem::new(sys, group);
    assert!(
        quotient.check_equivariance(&sys.initial_config()),
        "successors must commute with Aut(G)"
    );
    let reduced =
        Exploration::explore_from(&quotient, quotient.initial_config(), limit).expect("quotient");
    assert!(
        reduced.len() <= full.len(),
        "the quotient can never be larger: {} > {}",
        reduced.len(),
        full.len()
    );
    assert_eq!(
        reduced.verdict(),
        full.verdict(),
        "orbit reduction changed the verdict"
    );
    (full.len(), reduced.len())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 20, ..ProptestConfig::default() })]

    /// Exclusive and liberal selection: random table machines on random
    /// graphs. Also cross-checks the backend resolution of
    /// [`weak_async_models::core::decide`]: `Auto` and `Explicit` must
    /// return the same verdict.
    #[test]
    fn quotient_preserves_verdicts_exclusive_and_liberal(
        init in (0u8..STATES, 0u8..STATES),
        table in prop::collection::vec(0u8..STATES, (STATES as usize) << STATES..((STATES as usize) << STATES) + 1),
        outs in (0u8..3, 0u8..3, 0u8..3),
        shape in 0u8..3,
        a in 1u64..4,
        b in 1u64..4,
        seed in 0u64..1000,
    ) {
        prop_assume!(a + b >= 3);
        let m = table_machine([init.0, init.1], table, [outs.0, outs.1, outs.2]);
        let g = random_graph(shape, a, b, seed);

        let ex = ExclusiveSystem::new(&m, &g);
        let (full, reduced) = assert_quotient_agrees(&ex, 500_000);
        let expected = Exploration::explore(&ex, 500_000).unwrap().verdict();
        for backend in [Backend::Auto, Backend::Explicit] {
            let (v, _) = weak_async_models::core::decide(
                &m,
                &g,
                Schedule::PseudoStochastic,
                backend,
                ExploreOptions::with_limit(500_000),
            )
            .unwrap();
            prop_assert_eq!(v, expected);
        }
        prop_assert!(reduced <= full);

        let li = LiberalSystem::new(&m, &g);
        assert_quotient_agrees(&li, 500_000);
    }

    /// The four extended families: weak broadcasts, weak absence
    /// detection, rendez-vous population protocols and strong broadcasts,
    /// over parameterised protocols on random graphs.
    #[test]
    fn quotient_preserves_verdicts_extended_families(
        k in 1u8..3,
        shape in 0u8..3,
        a in 1u64..4,
        b in 1u64..3,
        seed in 0u64..1000,
    ) {
        prop_assume!(a + b >= 3);
        let g = random_graph(shape, a, b, seed);

        let bm = threshold_machine(2, 0, k);
        assert_quotient_agrees(&BroadcastSystem::new(&bm, &g), 500_000);

        let am = absence_detector();
        assert_quotient_agrees(&AbsenceSystem::new(&am, &g), 500_000);

        let pp = GraphPopulationProtocol::<MajorityState>::majority();
        assert_quotient_agrees(&PopulationSystem::new(&pp, &g), 500_000);

        let sb = threshold_protocol(u32::from(k));
        assert_quotient_agrees(&StrongBroadcastSystem::new(&sb, &g), 500_000);
    }
}

/// The orbit quotient of a node-explicit star must reproduce the
/// symbolic star algebra of `wam-analysis::stars` (centre state + leaf
/// multiset) *exactly*: same configuration count, same verdict.
#[test]
fn star_quotient_reproduces_stars_counts() {
    // "Some node carries label x1", by flag flooding.
    let m = Machine::new(
        1,
        |l: Label| l.0 == 1,
        |&s: &bool, n| s || n.exists(|&t| t),
        |&s| if s { Output::Accept } else { Output::Reject },
    );
    for (plain_leaves, flagged) in [(4u64, 1u64), (5, 1), (3, 2)] {
        // Node 0 is the centre and takes the first label (label 0).
        let g = generators::labelled_star(&LabelCount::from_vec(vec![plain_leaves + 1, flagged]));
        let sys = ExclusiveSystem::new(&m, &g);
        let leaves = plain_leaves + flagged;
        let group = automorphism_group(&g, 10_000);
        assert_eq!(
            group.order() as u64,
            (1..=leaves).product::<u64>(),
            "Aut of a star is the symmetric group on its leaves"
        );
        let q = QuotientSystem::new(&sys, group);
        let reduced = Exploration::explore_from(&q, q.initial_config(), 100_000).unwrap();

        let star_sys = StarSystem::new(
            &m,
            Label(0),
            vec![(Label(0), plain_leaves), (Label(1), flagged)],
        );
        let symbolic = Exploration::explore(&star_sys, 100_000).unwrap();

        assert_eq!(
            reduced.len(),
            symbolic.len(),
            "orbit quotient and star algebra must agree on ({plain_leaves}, {flagged})"
        );
        assert_eq!(reduced.verdict(), symbolic.verdict());

        let full = Exploration::explore(&sys, 100_000).unwrap();
        assert!(reduced.len() < full.len(), "reduction must actually bite");
    }
}
