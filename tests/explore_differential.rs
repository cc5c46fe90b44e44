//! Differential tests for the exploration engine: on random machines and
//! random graphs, `index_of` inverts the id order, `Pre*` matches a naive
//! forward-sweep fixpoint, and the budgeted (compact, possibly spilled)
//! edge storage gives *exactly* the exploration the plain CSR does — same dense ids, same
//! edges, same fixpoints, same verdicts. Ids are assigned in
//! first-occurrence order, so these are equality checks, not just
//! agreement checks.

use proptest::prelude::*;
use weak_async_models::core::{
    ExclusiveSystem, Exploration, ExploreOptions, Machine, Output, TransitionSystem, Verdict,
};
use weak_async_models::graph::{generators, Graph, Label, LabelCount};

const STATES: u8 = 3;

/// A table-driven machine over states `0..STATES` with counting bound 1:
/// the transition reads only the *presence bitmask* of neighbouring states,
/// so `table[s * 2^STATES + mask]` fully determines δ. `init` maps the two
/// labels to start states and `outs` maps states to outputs — every such
/// table is a well-formed machine, so sampling tables samples machines.
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

/// `Pre*(targets)` by the definition: sweep until no configuration with a
/// successor in the set is left outside it.
fn naive_pre_star<C: Clone + Eq + std::hash::Hash + std::fmt::Debug>(
    e: &Exploration<C>,
    targets: &[bool],
) -> Vec<bool> {
    let mut in_set = targets.to_vec();
    let mut changed = true;
    while changed {
        changed = false;
        for i in 0..e.len() {
            if !in_set[i] && e.successors(i).iter().any(|&j| in_set[j as usize]) {
                in_set[i] = true;
                changed = true;
            }
        }
    }
    in_set
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// `index_of` inverts `configs()`, and `Pre*` — from the accepting set
    /// and from a pseudo-random target set — equals the naive fixpoint.
    #[test]
    fn index_and_pre_star_agree(
        init in (0u8..STATES, 0u8..STATES),
        table in prop::collection::vec(0u8..STATES, (STATES as usize) << STATES..((STATES as usize) << STATES) + 1),
        a in 1u64..4,
        b in 1u64..4,
        target_seed in 0u64..1_000_000,
    ) {
        prop_assume!(a + b >= 3);
        let m = table_machine([init.0, init.1], table, [1, 0, 2]);
        let g = generators::labelled_cycle(&LabelCount::from_vec(vec![a, b]));
        let sys = ExclusiveSystem::new(&m, &g);
        let e = Exploration::explore(&sys, 200_000).expect("exploration");
        for (i, c) in e.configs().iter().enumerate() {
            prop_assert_eq!(e.index_of(c), Some(i));
        }
        let accepting: Vec<bool> = (0..e.len()).map(|i| e.is_accepting(i)).collect();
        prop_assert_eq!(e.pre_star(&accepting), naive_pre_star(&e, &accepting));
        let random: Vec<bool> = (0..e.len())
            .map(|i| (target_seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(i as u64)
                      .wrapping_mul(0xbf58_476d_1ce4_e5b9) >> 32) & 1 == 1)
            .collect();
        prop_assert_eq!(e.pre_star(&random), naive_pre_star(&e, &random));
    }

    /// The budgeted (compact, resident or spilled) edge representation is
    /// observationally identical to the plain CSR: same rows, same
    /// fixpoints (the spilled store runs the streaming `Pre*`), same
    /// verdict.
    #[test]
    fn encodings_agree_on_random_systems(
        init in (0u8..STATES, 0u8..STATES),
        table in prop::collection::vec(0u8..STATES, (STATES as usize) << STATES..((STATES as usize) << STATES) + 1),
        outs in (0u8..3, 0u8..3, 0u8..3),
        shape in 0u8..3,
        a in 1u64..5,
        b in 1u64..5,
        seed in 0u64..1000,
    ) {
        prop_assume!(a + b >= 3);
        let m = table_machine([init.0, init.1], table, [outs.0, outs.1, outs.2]);
        let g = random_graph(shape, a, b, seed);
        let sys = ExclusiveSystem::new(&m, &g);
        let base = ExploreOptions::with_limit(200_000);
        let plain = Exploration::explore_with(&sys, sys.initial_config(), base).unwrap();
        // A 64-byte budget encodes compactly from the start and spills as
        // soon as the stream outgrows the minimum flush chunk; tiny
        // explorations legitimately stay resident (so both compact stores
        // are covered), and spilling itself is asserted in the
        // deterministic test below.
        let spilled = Exploration::explore_with(
            &sys,
            sys.initial_config(),
            base.memory_budget(64),
        )
        .unwrap();
        prop_assert_eq!(plain.configs(), spilled.configs());
        for i in 0..plain.len() {
            prop_assert_eq!(plain.successors(i), spilled.successors(i));
        }
        let targets: Vec<bool> = (0..plain.len()).map(|i| plain.is_accepting(i)).collect();
        prop_assert_eq!(plain.pre_star(&targets), spilled.pre_star(&targets));
        prop_assert_eq!(plain.stably_accepting(), spilled.stably_accepting());
        prop_assert_eq!(plain.stably_rejecting(), spilled.stably_rejecting());
        prop_assert_eq!(plain.verdict(), spilled.verdict());
    }
}

/// A workload big enough that a small memory budget genuinely flushes edge
/// segments to disk: the spill path must report itself and still agree
/// with the in-memory exploration on everything observable.
#[test]
fn spilled_exploration_matches_in_memory() {
    // Each move toggles the mover, so all 2^10 flag vectors are reachable
    // — over ten thousand edges, comfortably past the minimum flush chunk.
    let m = Machine::new(
        1,
        |_: Label| false,
        |&s: &bool, _| !s,
        |&s| if s { Output::Accept } else { Output::Reject },
    );
    let g = generators::labelled_cycle(&LabelCount::from_vec(vec![8, 2]));
    let sys = ExclusiveSystem::new(&m, &g);
    let base = ExploreOptions::with_limit(1_000_000);
    let mem = Exploration::explore_with(&sys, sys.initial_config(), base).unwrap();
    let spill =
        Exploration::explore_with(&sys, sys.initial_config(), base.memory_budget(1024)).unwrap();
    assert!(!mem.was_spilled());
    assert!(spill.was_spilled(), "budget must force a spill");
    assert!(spill.spilled_bytes() > 0);
    assert_eq!(mem.configs(), spill.configs());
    assert_eq!(mem.edge_count(), spill.edge_count());
    for i in 0..mem.len() {
        assert_eq!(mem.successors(i), spill.successors(i));
    }
    assert_eq!(mem.stably_accepting(), spill.stably_accepting());
    assert_eq!(mem.stably_rejecting(), spill.stably_rejecting());
    assert_eq!(mem.verdict(), spill.verdict());
    assert_eq!(mem.verdict(), Verdict::NoConsensus);
    assert_eq!(mem.len(), 1 << 10);
}

/// Smoke check outside proptest: on a machine with a known verdict the
/// engine returns it (guards against a bug that every encoding shares).
#[test]
fn engine_gets_known_verdict_right() {
    let m = Machine::new(
        1,
        |l: Label| l.0 == 1,
        |&s: &bool, n| s || n.exists(|&t| t),
        |&s| if s { Output::Accept } else { Output::Reject },
    );
    let g = generators::labelled_cycle(&LabelCount::from_vec(vec![6, 2]));
    let sys = ExclusiveSystem::new(&m, &g);
    let e = Exploration::explore(&sys, 1_000_000).unwrap();
    assert_eq!(e.verdict(), Verdict::Accepts);
}
