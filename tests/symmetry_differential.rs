//! Differential test for the symmetry quotients that remain in the
//! engine: the twin-class counter abstraction (`CounterSystem`, the
//! quotient under permutations of twin nodes) and the ring necklaces
//! (`RingSystem`, the quotient of a cycle under its dihedral group). On
//! random machines and random graphs, each quotient that applies must
//! reach no more configurations than the node-explicit space and yield
//! the same [`Verdict`](weak_async_models::core::Verdict); `decide` under
//! `Backend::Auto` (which picks these quotients) and `Backend::Explicit`
//! must agree with the generic exploration.
//!
//! Every such quotient rests on the semantics being invariant under
//! renaming nodes, so the test also explores exclusive and liberal
//! selection on a node-renamed copy of each graph and requires the same
//! verdict and the same configuration count.

use proptest::prelude::*;
use weak_async_models::core::{
    decide, Backend, Config, CounterSystem, ExclusiveSystem, Exploration, ExploreOptions,
    LiberalSystem, Machine, Output, RingSystem, Schedule, TransitionSystem,
};
use weak_async_models::graph::{generators, Graph, GraphBuilder, Label, LabelCount};

const STATES: u8 = 3;
const LIMIT: usize = 500_000;

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

/// `g` with its node ids reversed: node `v` becomes `n - 1 - v`. An
/// isomorphic copy, so every verdict and reachable-set size must match.
fn reversed(g: &Graph) -> Graph {
    let n = g.node_count();
    let mut b = GraphBuilder::new(g.alphabet().clone());
    for v in (0..n).rev() {
        b.node(g.label(v));
    }
    for &(u, v) in g.edges() {
        b.add_edge(n - 1 - u, n - 1 - v);
    }
    b.build().expect("a renamed connected graph is connected")
}

/// Explores `quotient` and checks it against the node-explicit
/// `full` exploration: never larger, same verdict.
fn assert_quotient_agrees<T: TransitionSystem>(quotient: &T, full: &Exploration<Config<u8>>) {
    let reduced = Exploration::explore(quotient, LIMIT).expect("quotient");
    assert!(
        reduced.len() <= full.len(),
        "the quotient can never be larger: {} > {}",
        reduced.len(),
        full.len()
    );
    assert_eq!(
        reduced.verdict(),
        full.verdict(),
        "symmetry reduction changed the verdict"
    );
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 20, ..ProptestConfig::default() })]

    /// Exclusive and liberal selection: random table machines on random
    /// graphs. Also cross-checks the backend resolution of
    /// [`weak_async_models::core::decide`]: `Auto` and `Explicit` must
    /// return the generic engine's verdict.
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
        let h = reversed(&g);

        let ex = ExclusiveSystem::new(&m, &g);
        let full = Exploration::explore(&ex, LIMIT).expect("full space");
        if let Ok(counter) = CounterSystem::new(&m, &g) {
            assert_quotient_agrees(&counter, &full);
        }
        if let Ok(ring) = RingSystem::new(&m, &g) {
            assert_quotient_agrees(&ring, &full);
        }
        for backend in [Backend::Auto, Backend::Explicit] {
            let (v, _) = decide(
                &m,
                &g,
                Schedule::PseudoStochastic,
                backend,
                ExploreOptions::with_limit(LIMIT),
            )
            .unwrap();
            prop_assert_eq!(v, full.verdict());
        }

        let renamed = Exploration::explore(&ExclusiveSystem::new(&m, &h), LIMIT).unwrap();
        prop_assert_eq!(renamed.len(), full.len());
        prop_assert_eq!(renamed.verdict(), full.verdict());

        let li = Exploration::explore(&LiberalSystem::new(&m, &g), LIMIT).unwrap();
        let li_renamed = Exploration::explore(&LiberalSystem::new(&m, &h), LIMIT).unwrap();
        prop_assert_eq!(li_renamed.len(), li.len());
        prop_assert_eq!(li_renamed.verdict(), li.verdict());
    }
}
