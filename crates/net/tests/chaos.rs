//! End-to-end chaos runs: seed reproducibility, cross-validation of the
//! Figure-1 catalog against the exact deciders under fairness-preserving
//! fault models, structured divergence under unfair ones, and the
//! simulator/network differential over the exported link-starvation
//! schedule.

use wam_core::{ExploreOptions, Machine, Output, StabilityOptions, Verdict};
use wam_extensions::{
    compile_broadcasts, compile_rendezvous, GraphPopulationProtocol, MajorityState,
};
use wam_graph::{generators, Graph, Label, LabelCount};
use wam_net::{cross_validate, run_chaos, ChaosOptions, ChaosStats, FaultPlan};
use wam_protocols::{cutoff_one_machine, modulo_protocol, threshold_machine};
use wam_sim::{LinkStarvation, LinkStarvedScheduler};

/// The chaos baseline used throughout: jittery (reordering) delays, 15%
/// loss, 10% duplication — fairness-preserving.
fn lossy() -> FaultPlan {
    FaultPlan::chaotic((1, 4), 0.15, 0.10)
}

fn flood() -> Machine<bool> {
    Machine::new(
        1,
        |l: Label| l.0 == 1,
        |&s: &bool, n| s || n.exists(|&t| t),
        |&s| if s { Output::Accept } else { Output::Reject },
    )
}

#[test]
fn same_seed_same_digest() {
    let g = generators::labelled_cycle(&LabelCount::from_vec(vec![3, 1]));
    let m = flood();
    let opts = ChaosOptions::budget(4_000, 100);
    let digests: Vec<u64> = (0..3)
        .map(|_| {
            let out = run_chaos(&m, &g, &lossy(), 42, &opts);
            assert_eq!(out.verdict, Verdict::Accepts);
            out.digest
        })
        .collect();
    assert!(
        digests.windows(2).all(|w| w[0] == w[1]),
        "same seed must replay bit-identically: {digests:?}"
    );

    let other = run_chaos(&m, &g, &lossy(), 43, &opts);
    assert_ne!(
        other.digest, digests[0],
        "different seeds should take different trajectories"
    );
}

/// Pinned traces: digest, verdict, stabilisation round and every counter
/// of three cheap runs that together exercise each event kind — drops,
/// duplicates and retries (lossy flood), `Crash`/`Restart`, and blocked
/// links with starvation (permanent partition). Any change to the event
/// heap, the RNG draw order, digest folding or the wire lines moves them.
#[test]
fn golden_traces_are_stable() {
    let g = generators::labelled_cycle(&LabelCount::from_vec(vec![3, 1]));
    let witness = g.nodes().find(|&v| g.label(v).0 == 1).unwrap();
    let cases = [
        (
            lossy(),
            42,
            ChaosOptions::budget(4_000, 100),
            0x923f_b6f6_1045_7732,
            Verdict::Accepts,
            Some(107),
            ChaosStats {
                rounds: 107,
                completed: 106,
                starved: 1,
                delivered: 1013,
                dropped_random: 108,
                dropped_blocked: 0,
                duplicated: 58,
                crashes: 0,
                distinct_states: 2,
            },
        ),
        (
            FaultPlan::reliable().with_crash(witness, 40, Some(400)),
            11,
            ChaosOptions::budget(6_000, 150),
            0x848d_51b0_9e5f_cde3,
            Verdict::Accepts,
            Some(160),
            ChaosStats {
                rounds: 160,
                completed: 160,
                starved: 0,
                delivered: 1006,
                dropped_random: 0,
                dropped_blocked: 0,
                duplicated: 0,
                crashes: 1,
                distinct_states: 2,
            },
        ),
        (
            FaultPlan::reliable().with_partition(vec![witness], 0, None),
            5,
            ChaosOptions::budget(1_500, 150),
            0x7b38_55f1_6d0b_2fb8,
            Verdict::NoConsensus,
            None,
            ChaosStats {
                rounds: 1500,
                completed: 349,
                starved: 1151,
                delivered: 26347,
                dropped_random: 0,
                dropped_blocked: 13779,
                duplicated: 0,
                crashes: 0,
                distinct_states: 2,
            },
        ),
    ];
    for (plan, seed, opts, digest, verdict, stabilised_at, stats) in cases {
        let out = run_chaos(&flood(), &g, &plan, seed, &opts);
        let what = plan.summary();
        assert_eq!(out.digest, digest, "{what}: digest {:016x}", out.digest);
        assert_eq!(out.verdict, verdict, "{what}");
        assert_eq!(out.stabilised_at, stabilised_at, "{what}");
        assert_eq!(out.stats, stats, "{what}");
    }
}

#[test]
fn chaos_exercises_every_fault_knob() {
    let g = generators::labelled_cycle(&LabelCount::from_vec(vec![3, 1]));
    let out = run_chaos(
        &flood(),
        &g,
        &FaultPlan::chaotic((1, 6), 0.3, 0.3),
        9,
        &ChaosOptions::budget(4_000, 100),
    );
    assert_eq!(out.verdict, Verdict::Accepts);
    assert!(out.stats.dropped_random > 0, "{:?}", out.stats);
    assert!(out.stats.duplicated > 0, "{:?}", out.stats);
    assert!(out.stats.completed > 0, "{:?}", out.stats);
}

/// Cross-validation of the four Figure-1 catalog machines (the same
/// constructions `wam-serve` registers) under the fairness-preserving
/// chaos baseline: the emergent verdict must match `wam_core::decide`.
mod catalog_agreement {
    use super::*;

    fn agree<S: wam_core::State>(
        machine: &Machine<S>,
        graph: &Graph,
        expected: Verdict,
        opts: &ChaosOptions,
        limit: usize,
    ) {
        let cv = cross_validate(
            machine,
            graph,
            &lossy(),
            2026,
            opts,
            ExploreOptions::with_limit(limit),
        )
        .expect("exact decision fits the limit");
        assert_eq!(cv.expected, expected, "exact verdict moved under us");
        assert!(
            cv.agrees(),
            "fairness-preserving chaos must agree: {}",
            cv.divergence.unwrap()
        );
    }

    #[test]
    fn presence_on_cycle() {
        let m = cutoff_one_machine(2, |p| p[1]);
        let g = generators::labelled_cycle(&LabelCount::from_vec(vec![3, 1]));
        agree(
            &m,
            &g,
            Verdict::Accepts,
            &ChaosOptions::budget(6_000, 150),
            500_000,
        );
        let g0 = generators::labelled_cycle(&LabelCount::from_vec(vec![4, 0]));
        agree(
            &m,
            &g0,
            Verdict::Rejects,
            &ChaosOptions::budget(6_000, 150),
            500_000,
        );
    }

    #[test]
    fn ladder_on_cycle() {
        let m = compile_broadcasts(&threshold_machine(2, 0, 2));
        let g = generators::labelled_cycle(&LabelCount::from_vec(vec![2, 2]));
        // Compiled simulation machines never quiesce state-wise: their
        // outputs settle early and the long-consensus clock (10× window)
        // declares stabilisation while handshake states keep churning.
        agree(
            &m,
            &g,
            Verdict::Accepts,
            &ChaosOptions::budget(60_000, 600),
            3_000_000,
        );
    }

    #[test]
    fn majority_on_cycle() {
        let m = compile_rendezvous(&GraphPopulationProtocol::<MajorityState>::majority());
        let g = generators::labelled_cycle(&LabelCount::from_vec(vec![3, 2]));
        agree(
            &m,
            &g,
            Verdict::Accepts,
            &ChaosOptions::budget(60_000, 600),
            5_000_000,
        );
    }

    #[test]
    fn parity_on_cycle() {
        let m = compile_rendezvous(&modulo_protocol(vec![1, 0], 2, 1));
        let g = generators::labelled_cycle(&LabelCount::from_vec(vec![3, 2]));
        agree(
            &m,
            &g,
            Verdict::Accepts,
            &ChaosOptions::budget(60_000, 600),
            5_000_000,
        );
    }
}

#[test]
fn permanent_partition_produces_structured_divergence() {
    let g = generators::labelled_cycle(&LabelCount::from_vec(vec![3, 1]));
    let witness = g
        .nodes()
        .find(|&v| g.label(v).0 == 1)
        .expect("one node carries label 1");
    // Cut the witness off before its flag can escape: unfair on purpose.
    let plan = FaultPlan::reliable().with_partition(vec![witness], 0, None);
    assert!(!plan.preserves_fairness());

    let cv = cross_validate(
        &flood(),
        &g,
        &plan,
        5,
        &ChaosOptions::budget(1_500, 150),
        ExploreOptions::with_limit(100_000),
    )
    .unwrap();
    assert_eq!(cv.expected, Verdict::Accepts, "fault-free semantics accept");
    assert_eq!(
        cv.outcome.verdict,
        Verdict::NoConsensus,
        "the cut freezes the flag"
    );
    let report = cv.divergence.expect("divergence must be reported");
    assert!(!report.fairness_preserved);
    assert!(report.stats.starved > 0, "the isolated region starves");
    assert!(report.to_string().contains("partition"), "{report}");
}

#[test]
fn healed_partition_preserves_agreement() {
    let g = generators::labelled_cycle(&LabelCount::from_vec(vec![3, 1]));
    let witness = g.nodes().find(|&v| g.label(v).0 == 1).unwrap();
    // The same cut, but transient: fairness holds in the limit.
    let plan = FaultPlan::reliable().with_partition(vec![witness], 0, Some(3_000));
    assert!(plan.preserves_fairness());

    let cv = cross_validate(
        &flood(),
        &g,
        &plan,
        5,
        &ChaosOptions::budget(8_000, 150),
        ExploreOptions::with_limit(100_000),
    )
    .unwrap();
    assert!(cv.agrees(), "{}", cv.divergence.unwrap());
    assert_eq!(cv.outcome.verdict, Verdict::Accepts);
}

#[test]
fn crash_restart_is_reported_not_hidden() {
    let g = generators::labelled_cycle(&LabelCount::from_vec(vec![3, 1]));
    let witness = g.nodes().find(|&v| g.label(v).0 == 1).unwrap();
    let plan = FaultPlan::reliable().with_crash(witness, 40, Some(400));
    assert!(!plan.preserves_fairness(), "restarts reset δ₀: unfair");
    let out = run_chaos(&flood(), &g, &plan, 11, &ChaosOptions::budget(6_000, 150));
    assert_eq!(out.stats.crashes, 1);
    // The flag survives the crash iff it escaped before tick 40; either
    // verdict is legitimate — what matters is the run concludes and the
    // crash shows up in the stats rather than vanishing.
    assert!(matches!(
        out.verdict,
        Verdict::Accepts | Verdict::NoConsensus
    ));
}

/// Satellite: the simulator's exported link-starvation schedule and its
/// network realisation are the *same scenario* — on every outcome class
/// (permanent ⇒ both diverge from the exact verdict identically; healed ⇒
/// both agree with it).
mod link_starvation_differential {
    use super::*;

    fn sim_verdict(ls: &LinkStarvation, g: &Graph) -> Verdict {
        let mut sched = LinkStarvedScheduler::new(ls.clone());
        wam_core::run_machine_until_stable(
            &flood(),
            g,
            &mut sched,
            StabilityOptions::new(20_000, 200),
        )
        .verdict
    }

    fn net_verdict(ls: &LinkStarvation, g: &Graph) -> Verdict {
        let plan = FaultPlan::from(ls);
        run_chaos(&flood(), g, &plan, 77, &ChaosOptions::budget(2_500, 200)).verdict
    }

    fn exact(g: &Graph) -> Verdict {
        wam_core::decide(
            &flood(),
            g,
            wam_core::Schedule::PseudoStochastic,
            wam_core::Backend::Auto,
            ExploreOptions::with_limit(100_000),
        )
        .unwrap()
        .0
    }

    #[test]
    fn permanent_starvation_diverges_identically_in_both_worlds() {
        let g = generators::labelled_cycle(&LabelCount::from_vec(vec![3, 1]));
        let witness = g.nodes().find(|&v| g.label(v).0 == 1).unwrap();
        let ls = LinkStarvation::isolate(witness, &g);
        let (sim, net) = (sim_verdict(&ls, &g), net_verdict(&ls, &g));
        assert_eq!(sim, net, "the two worlds must render the scenario alike");
        assert_eq!(sim, Verdict::NoConsensus);
        assert_ne!(sim, exact(&g), "both diverge from fault-free semantics");
    }

    #[test]
    fn healed_starvation_agrees_identically_in_both_worlds() {
        let g = generators::labelled_cycle(&LabelCount::from_vec(vec![3, 1]));
        let witness = g.nodes().find(|&v| g.label(v).0 == 1).unwrap();
        let ls = LinkStarvation::isolate_until(witness, &g, 120);
        let (sim, net) = (sim_verdict(&ls, &g), net_verdict(&ls, &g));
        assert_eq!(sim, net);
        assert_eq!(sim, exact(&g), "transient starvation keeps fairness");
    }
}
