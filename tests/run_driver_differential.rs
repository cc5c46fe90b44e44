//! Golden digests for the unified run-time layer: the generic
//! `run_until_stable` driver must reproduce, run for run, what the four
//! family-specific runner loops it replaced produced. Each family has one
//! FNV-1a digest over (shape, seed, verdict, step count, stabilisation
//! point, `{:?}` of the final configuration) on 12 graphs × 6 seeds. The
//! digests were captured while verbatim copies of those loops still sat
//! next to the driver and agreed with it exactly; any drift in the
//! driver's RNG stream or clock handling changes a digest.
//!
//! A second layer of checks compares the statistical verdicts with the exact
//! deciders on the same systems: whenever the sampled run decides, it must
//! decide the same way as exhaustive exploration.

use std::sync::Arc;
use weak_async_models::core::{
    run_until_stable, Exploration, Machine, Output, RunReport, StabilityOptions, Verdict,
};
use weak_async_models::extensions::{
    AbsenceMachine, AbsenceSystem, BroadcastMachine, BroadcastSystem, GraphPopulationProtocol,
    MajorityState, PopulationSystem, ResponseFn, StrongBroadcastSystem,
};
use weak_async_models::graph::{generators, Graph, Label, LabelCount};

/// The Lemma C.5 threshold broadcast machine `x₀ ≥ k` (same construction as
/// the unit tests in `wam-extensions`).
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

fn graphs() -> Vec<(&'static str, Graph)> {
    let counts = [
        LabelCount::from_vec(vec![3, 0]),
        LabelCount::from_vec(vec![2, 1]),
        LabelCount::from_vec(vec![1, 3]),
        LabelCount::from_vec(vec![3, 2]),
    ];
    let mut out = Vec::new();
    for c in &counts {
        out.push(("cycle", generators::labelled_cycle(c)));
        out.push(("line", generators::labelled_line(c)));
        out.push(("star", generators::labelled_star(c)));
    }
    out
}

/// FNV-1a over one line per run, in `graphs()` order, seeds 0..6.
fn run_digest<C: std::fmt::Debug>(mut run: impl FnMut(&Graph, u64) -> RunReport<C>) -> u64 {
    let mut hash: u64 = 0xCBF2_9CE4_8422_2325;
    for (shape, g) in graphs() {
        for seed in 0..6 {
            let r = run(&g, seed);
            let line = format!(
                "{shape} {seed} {:?} {} {:?} {:?}\n",
                r.verdict, r.steps, r.stabilised_at, r.final_config
            );
            hash = line.bytes().fold(hash, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
            });
        }
    }
    hash
}

fn assert_golden(family: &str, digest: u64, golden: u64) {
    assert_eq!(
        digest, golden,
        "{family} runs drifted from the reference loop: digest {digest:#018x}"
    );
}

#[test]
fn broadcast_driver_matches_reference_loop() {
    let bm = broadcast_threshold(2);
    let opts = StabilityOptions::new(60_000, 600);
    let digest = run_digest(|g, seed| {
        run_until_stable(
            &BroadcastSystem::new(&bm, g).with_broadcast_prob(0.3),
            seed,
            opts,
        )
    });
    assert_golden("broadcast", digest, 0xcd41_034b_cb30_53f1);
}

#[test]
fn absence_driver_matches_reference_loop() {
    let am = absence_detector();
    let opts = StabilityOptions::new(60_000, 600);
    let digest = run_digest(|g, seed| run_until_stable(&AbsenceSystem::new(&am, g), seed, opts));
    assert_golden("absence", digest, 0x0b3f_9c3d_87a2_4c65);
}

#[test]
fn population_driver_matches_reference_loop() {
    let pp = GraphPopulationProtocol::<MajorityState>::majority();
    let opts = StabilityOptions::new(120_000, 600);
    let digest = run_digest(|g, seed| run_until_stable(&PopulationSystem::new(&pp, g), seed, opts));
    assert_golden("population", digest, 0xc3f5_d026_1c94_585b);
}

#[test]
fn strong_broadcast_driver_matches_reference_loop() {
    let sb = weak_async_models::extensions::threshold_protocol(2);
    let opts = StabilityOptions::new(60_000, 600);
    let digest =
        run_digest(|g, seed| run_until_stable(&StrongBroadcastSystem::new(&sb, g), seed, opts));
    assert_golden("strong-broadcast", digest, 0xdefe_0700_0ad0_a621);
}

/// Whenever a sampled run decides, it must agree with the exact decider on
/// the same transition system.
#[test]
fn sampled_verdicts_agree_with_exact_deciders() {
    let opts = StabilityOptions::new(120_000, 1_000);
    let bm = broadcast_threshold(2);
    let am = absence_detector();
    let pp = GraphPopulationProtocol::<MajorityState>::majority();
    for (shape, g) in graphs() {
        let checks: Vec<(&str, Verdict, Verdict)> = vec![
            (
                "broadcast",
                Exploration::explore(&BroadcastSystem::new(&bm, &g), 2_000_000)
                    .map(|e| e.verdict())
                    .unwrap(),
                run_until_stable(&BroadcastSystem::new(&bm, &g), 11, opts).verdict,
            ),
            (
                "absence",
                Exploration::explore(&AbsenceSystem::new(&am, &g), 2_000_000)
                    .map(|e| e.verdict())
                    .unwrap(),
                run_until_stable(&AbsenceSystem::new(&am, &g), 11, opts).verdict,
            ),
            (
                "population",
                Exploration::explore(&PopulationSystem::new(&pp, &g), 2_000_000)
                    .map(|e| e.verdict())
                    .unwrap(),
                run_until_stable(&PopulationSystem::new(&pp, &g), 11, opts).verdict,
            ),
        ];
        for (family, exact, sampled) in checks {
            if let Some(decided) = sampled.decided() {
                assert_eq!(
                    exact.decided(),
                    Some(decided),
                    "{family} on {shape}: sampled verdict {sampled:?} contradicts exact {exact:?}",
                );
            }
        }
    }
}
