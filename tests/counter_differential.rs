//! Differential tests for the counter-abstracted exploration backend: on
//! random table machines and twin-compressible graph families (cliques,
//! stars, complete bipartite graphs), exploring dense count vectors over
//! the twin partition must yield the same [`Verdict`] as exploring the
//! explicit node space — and on cycles the necklace (`RingSystem`)
//! abstraction must do the same. This is the empirical half of the
//! soundness argument in `wam-core::counter`.
//!
//! The dense rows behind `decide` (`explore_counter_kernel`,
//! `explore_ring_kernel`: interned state ids, memoized δ) must reproduce
//! the generic `CounterSystem`/`RingSystem` explorations exactly: the same
//! verdict, the same explored count, and the same reachable set once each
//! row is unpacked to a `CounterConfig`/`RingConfig`. Certificates emitted
//! from those rows must verify and agree with the generic emission on
//! verdict and certificate kind (member order may differ: dense ids arrive
//! in another order), and two runs must serialise to the same bytes. A
//! machine with more than 65 534 reachable states overflows their `u16`
//! ids; plain and certified decisions must then fall back to the generic
//! system instead of failing.
//!
//! A separate regression pins the counter abstraction against an
//! independent implementation of the same idea: on uniform-label stars the
//! reachable counter space must reproduce the configuration count of
//! `wam-analysis::stars` (centre state + leaf multiset) *exactly*, not
//! just verdict-wise.

use proptest::prelude::*;
use std::collections::HashSet;
use weak_async_models::analysis::StarSystem;
use weak_async_models::certify::{
    certificate_to_json, certify_exploration, verify_system, Certificate, Decider,
    DecisionCertificate, StateTable,
};
use weak_async_models::core::{
    explore_counter_kernel, explore_ring_kernel, Backend, CounterSystem, ExclusiveSystem,
    Exploration, ExploreError, ExploreOptions, KernelExploration, KernelRow, Machine, Output,
    ResolvedBackend, RingSystem, Schedule, TransitionSystem,
};
use weak_async_models::graph::{generators, trees, Graph, Label, LabelCount};

const STATES: u8 = 3;
const LIMIT: usize = 500_000;

/// A table-driven machine over states `0..STATES` with counting bound 1
/// (as in `kernel_differential.rs`): every table is a well-formed
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

/// A counting variant (β = 2): δ reads the base-3 digit vector of clipped
/// neighbour counts, so the dense rows' signatures must carry counts, not
/// just presence.
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

/// Certificates emitted from the dense rows against the generic system's
/// own emission: the row certificate verifies, and verdict and kind agree;
/// `rerun`, a second dense exploration, serialises to the same bytes.
fn rows_certify_like_generic<T, R>(
    system: &T,
    generic: &Exploration<T::C>,
    dense: &KernelExploration<u8, R>,
    rerun: &KernelExploration<u8, R>,
    json: impl Fn(&Certificate<T::C>) -> String,
) where
    T: TransitionSystem,
    R: KernelRow<u8, Config = T::C>,
{
    let want = certify_exploration(system, generic);
    let got = certify_exploration(system, dense);
    prop_assert_eq!(got.verdict, want.verdict, "row certificate verdict");
    prop_assert_eq!(got.certificate.kind(), want.certificate.kind());
    prop_assert_eq!(verify_system(system, &got.certificate), Ok(got.verdict));
    let again = certify_exploration(system, rerun).certificate;
    prop_assert_eq!(json(&got.certificate), json(&again), "row certificate JSON");
}

/// The dense counter rows against the generic counter system: verdict,
/// explored count, the unpacked reachable set and the emitted certificate.
fn dense_counter_matches(counter: &CounterSystem<'_, u8>) {
    let opts = ExploreOptions::with_limit(LIMIT);
    let generic = Exploration::explore_with(counter, counter.initial_config(), opts).unwrap();
    let dense = explore_counter_kernel(counter, opts).unwrap();
    prop_assert_eq!(dense.verdict(), generic.verdict(), "dense counter verdict");
    prop_assert_eq!(dense.len(), generic.len(), "dense counter explored count");
    let reached: HashSet<_> = dense.configs_unpacked().into_iter().collect();
    let expected: HashSet<_> = generic.configs().iter().cloned().collect();
    prop_assert_eq!(reached, expected, "dense counter reachable set");
    let rerun = explore_counter_kernel(counter, opts).unwrap();
    rows_certify_like_generic(counter, &generic, &dense, &rerun, |c| {
        certificate_to_json(c, &StateTable::from_counter_certificate(c))
    });
}

/// The dense ring rows against the generic ring system, likewise.
fn dense_ring_matches(ring: &RingSystem<'_, u8>) {
    let opts = ExploreOptions::with_limit(LIMIT);
    let generic = Exploration::explore_with(ring, ring.initial_config(), opts).unwrap();
    let dense = explore_ring_kernel(ring, opts).unwrap();
    prop_assert_eq!(dense.verdict(), generic.verdict(), "dense ring verdict");
    prop_assert_eq!(dense.len(), generic.len(), "dense ring explored count");
    let reached: HashSet<_> = dense.configs_unpacked().into_iter().collect();
    let expected: HashSet<_> = generic.configs().iter().cloned().collect();
    prop_assert_eq!(reached, expected, "dense ring reachable set");
    let rerun = explore_ring_kernel(ring, opts).unwrap();
    rows_certify_like_generic(ring, &generic, &dense, &rerun, |c| {
        certificate_to_json(c, &StateTable::from_ring_certificate(c))
    });
}

/// Checks every dense representation that applies to `g` against its
/// generic system: counter rows on twin-compressible graphs, ring rows on
/// cycles.
fn dense_matches_generic(m: &Machine<u8>, g: &Graph) {
    if let Ok(counter) = CounterSystem::new(m, g) {
        dense_counter_matches(&counter);
    }
    if let Ok(ring) = RingSystem::new(m, g) {
        dense_ring_matches(&ring);
    }
}

fn explicit_verdict(m: &Machine<u8>, g: &Graph) -> weak_async_models::core::Verdict {
    let sys = ExclusiveSystem::new(m, g);
    Exploration::explore(&sys, LIMIT).unwrap().verdict()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Cliques, stars and complete bipartite graphs all have non-trivial
    /// twin partitions, so the counter abstraction applies — and must be
    /// verdict-exact against full node-space exploration. The engine
    /// dispatcher must also route `Backend::Counter` to the counter
    /// representation on these graphs.
    #[test]
    fn counter_matches_explicit_on_twin_graphs(
        init in (0u8..STATES, 0u8..STATES),
        table in prop::collection::vec(0u8..STATES, (STATES as usize) << STATES..((STATES as usize) << STATES) + 1),
        outs in (0u8..3, 0u8..3, 0u8..3),
        a in 1u64..4,
        b in 1u64..4,
    ) {
        prop_assume!(a + b >= 3);
        let m = table_machine([init.0, init.1], table, [outs.0, outs.1, outs.2]);
        let c = LabelCount::from_vec(vec![a, b]);
        for g in [
            generators::labelled_clique(&c),
            generators::labelled_star(&c),
            trees::labelled_complete_bipartite(&c, a as usize),
        ] {
            let expected = explicit_verdict(&m, &g);
            match CounterSystem::new(&m, &g) {
                Ok(counter) => {
                    let v = Exploration::explore(&counter, LIMIT).unwrap().verdict();
                    prop_assert_eq!(v, expected, "counter vs explicit on {:?}", g);
                    dense_counter_matches(&counter);
                    let (dv, stats) = weak_async_models::core::decide(
                        &m,
                        &g,
                        Schedule::PseudoStochastic,
                        Backend::Counter,
                        ExploreOptions::with_limit(LIMIT),
                    )
                    .unwrap();
                    prop_assert_eq!(dv, expected);
                    prop_assert_eq!(stats.backend, ResolvedBackend::Counter);
                }
                Err(_) => {
                    // Degenerate labellings (e.g. a 3-node star with mixed
                    // leaf labels) have all-singleton twin partitions: the
                    // abstraction is rejected, and the dispatcher must
                    // refuse `Backend::Counter` rather than guess.
                    let r = weak_async_models::core::decide(
                        &m,
                        &g,
                        Schedule::PseudoStochastic,
                        Backend::Counter,
                        ExploreOptions::with_limit(LIMIT),
                    );
                    prop_assert!(
                        matches!(r, Err(ExploreError::Unsupported { .. })),
                        "expected Unsupported, got {:?}",
                        r
                    );
                }
            }
        }
    }

    /// On cycles the necklace abstraction (rotation + reflection canonical
    /// run-length encodings) is exact for *any* labelling, including
    /// twin-free ones where the counter abstraction does not apply —
    /// `Backend::Counter` falls through to the ring representation there.
    #[test]
    fn ring_matches_explicit_on_cycles(
        init in (0u8..STATES, 0u8..STATES),
        table in prop::collection::vec(0u8..STATES, (STATES as usize) << STATES..((STATES as usize) << STATES) + 1),
        outs in (0u8..3, 0u8..3, 0u8..3),
        a in 1u64..5,
        b in 1u64..5,
    ) {
        prop_assume!(a + b >= 3);
        let m = table_machine([init.0, init.1], table, [outs.0, outs.1, outs.2]);
        let g = generators::labelled_cycle(&LabelCount::from_vec(vec![a, b]));
        let expected = explicit_verdict(&m, &g);
        let ring = RingSystem::new(&m, &g).expect("a labelled cycle is a cycle");
        let v = Exploration::explore(&ring, LIMIT).unwrap().verdict();
        prop_assert_eq!(v, expected, "ring vs explicit on C_{}", a + b);
        dense_ring_matches(&ring);
        let (dv, stats) = weak_async_models::core::decide(
            &m,
            &g,
            Schedule::PseudoStochastic,
            Backend::Counter,
            ExploreOptions::with_limit(LIMIT),
        )
        .unwrap();
        prop_assert_eq!(dv, expected);
        prop_assert!(
            matches!(stats.backend, ResolvedBackend::Counter | ResolvedBackend::Ring),
            "Backend::Counter on a cycle must resolve to an abstraction, got {:?}",
            stats.backend
        );
    }

    /// The dense rows on the four families under a counting machine
    /// (β = 2): clique, star and K_{a,b} through counter rows, cycles
    /// through ring rows (and counter rows where C_3/C_4 have twins).
    #[test]
    fn dense_rows_match_generic_systems_under_counting(
        init in (0u8..STATES, 0u8..STATES),
        table in prop::collection::vec(0u8..STATES, (STATES as usize) * 27..(STATES as usize) * 27 + 1),
        outs in (0u8..3, 0u8..3, 0u8..3),
        a in 1u64..4,
        b in 1u64..4,
    ) {
        prop_assume!(a + b >= 3);
        let m = counting_machine([init.0, init.1], table, [outs.0, outs.1, outs.2]);
        let c = LabelCount::from_vec(vec![a, b]);
        for g in [
            generators::labelled_clique(&c),
            generators::labelled_star(&c),
            trees::labelled_complete_bipartite(&c, a as usize),
            generators::labelled_cycle(&c),
        ] {
            dense_matches_generic(&m, &g);
        }
    }

    /// Independent-implementation cross-check: on a uniform-label star the
    /// twin partition is {centre} ∪ {leaves}, so counter configurations
    /// (cell, state, count) and `wam-analysis` star configurations
    /// (centre state + leaf multiset) are in bijection. The two
    /// explorations must agree on the *exact* number of reachable
    /// configurations, not just the verdict.
    #[test]
    fn counter_counts_equal_star_reduction_on_uniform_stars(
        init in (0u8..STATES, 0u8..STATES),
        table in prop::collection::vec(0u8..STATES, (STATES as usize) << STATES..((STATES as usize) << STATES) + 1),
        outs in (0u8..3, 0u8..3, 0u8..3),
        n in 4u64..9,
    ) {
        let m = table_machine([init.0, init.1], table, [outs.0, outs.1, outs.2]);
        let g = generators::labelled_star(&LabelCount::from_vec(vec![n]));
        let counter = CounterSystem::new(&m, &g).expect("uniform star leaves are twins");
        let ce = Exploration::explore(&counter, LIMIT).unwrap();

        let star = StarSystem::new(&m, Label(0), vec![(Label(0), n - 1)]);
        let se = Exploration::explore(&star, LIMIT).unwrap();

        prop_assert_eq!(
            ce.len(),
            se.len(),
            "counter explored {} configurations, star reduction {}",
            ce.len(),
            se.len()
        );
        prop_assert_eq!(ce.verdict(), se.verdict());
        prop_assert_eq!(ce.verdict(), explicit_verdict(&m, &g));
    }
}

/// A machine with a deliberately huge state space: label-1 nodes walk
/// `1..=cap` one step at a time while label-0 nodes stay at 0, so the
/// reachable states number `cap + 1`.
fn ladder(cap: u32) -> Machine<u32> {
    Machine::new(
        2,
        |l: Label| u32::from(l.0),
        move |&s, _| if s == 0 { 0 } else { (s + 1).min(cap) },
        move |&s| {
            if s >= cap {
                Output::Accept
            } else {
                Output::Neutral
            }
        },
    )
}

/// More than 65 534 reachable states overflow the dense rows' `u16` state
/// ids: the dense exploration refuses, and `decide` falls back to the
/// generic counter system with the same verdict and explored count.
#[test]
fn counter_backend_falls_back_past_the_u16_state_space() {
    let m = ladder(66_000);
    // Centre and two leaves at label 0 (the leaves are twins), one
    // label-1 leaf climbing the ladder.
    let g = generators::labelled_star(&LabelCount::from_vec(vec![3, 1]));
    let counter = CounterSystem::new(&m, &g).expect("the label-0 leaves are twins");
    let opts = ExploreOptions::with_limit(1_000_000);
    let err = explore_counter_kernel(&counter, opts).unwrap_err();
    assert!(matches!(err, ExploreError::Unsupported { .. }), "{err:?}");
    let generic = Exploration::explore_with(&counter, counter.initial_config(), opts).unwrap();
    let (verdict, stats) =
        weak_async_models::core::decide(&m, &g, Schedule::PseudoStochastic, Backend::Counter, opts)
            .expect("decide falls back to the generic counter system");
    assert_eq!(stats.backend, ResolvedBackend::Counter);
    assert_eq!(verdict, generic.verdict());
    assert_eq!(stats.explored, generic.len());
}

/// The certified twin of the fallback above: `Decider::certified(true)`
/// with `Backend::Counter` also falls back to the generic counter system
/// and returns a counter certificate that verifies, with the generic
/// explored count.
#[test]
fn certified_counter_backend_falls_back_past_the_u16_state_space() {
    let m = ladder(66_000);
    let g = generators::labelled_star(&LabelCount::from_vec(vec![3, 1]));
    let counter = CounterSystem::new(&m, &g).expect("the label-0 leaves are twins");
    let generic = Exploration::explore(&counter, 1_000_000).unwrap();
    let d = Decider::new(&m, &g)
        .backend(Backend::Counter)
        .certified(true)
        .limit(1_000_000)
        .decide()
        .expect("the certified decision falls back to the generic counter system");
    assert_eq!(d.stats.backend, ResolvedBackend::Counter);
    assert_eq!(d.verdict, generic.verdict());
    assert_eq!(d.stats.explored, generic.len());
    let cert = d.certificate.expect("certified run");
    assert!(matches!(cert, DecisionCertificate::Counter(_)), "{cert:?}");
    assert_eq!(cert.verify(&m, &g).unwrap(), d.verdict);
}
