//! **E22 — the message-passing chaos harness against the exact
//! deciders:** every Figure-1 catalog machine runs as real communicating
//! nodes over a faulty simulated network (drops, duplication, reordering
//! jitter), and the verdict that *emerges* from the chaos is
//! cross-validated against [`wam_core::decide`] on the fault-free
//! semantics. Under fairness-preserving fault plans the two must agree —
//! asserted before any row is written. One unfair plan (a permanent
//! partition isolating the witness) is run on purpose: its divergence is
//! the demonstration that the paper's fairness premise is load-bearing,
//! and it is recorded as data in the `divergence` section.
//!
//! Every run is replayed once from the same seed and the trace digests
//! are asserted identical, so each row doubles as a determinism check.
//! `elapsed_ms` times that replay alone — the chaos run, not the exact
//! decision — so `activations_per_sec` is the router's throughput.
//!
//! Results go to stdout and to `BENCH_net.json` at the repository root,
//! pinned by `tests/bench_schema.rs`.

use std::fmt::Write as _;
use std::time::Instant;
use wam_core::{ExploreOptions, Machine, Output, State, Verdict};
use wam_extensions::{
    compile_broadcasts, compile_rendezvous, GraphPopulationProtocol, MajorityState,
};
use wam_graph::{generators, Graph, Label, LabelCount};
use wam_net::{cross_validate, run_chaos, ChaosOptions, FaultPlan};
use wam_protocols::{cutoff_one_machine, modulo_protocol, threshold_machine};

const SEED: u64 = 2026;

/// The chaos baseline every agreement row runs under: 1–4 tick jitter
/// (reordering), 15% loss, 10% duplication — fairness-preserving.
fn lossy() -> FaultPlan {
    FaultPlan::chaotic((1, 4), 0.15, 0.10)
}

struct Row {
    workload: String,
    machine: &'static str,
    family: &'static str,
    nodes: usize,
    expected: Verdict,
    emergent: Verdict,
    fairness_preserved: bool,
    plan: String,
    digest: String,
    rounds: u64,
    stabilised_at: Option<u64>,
    delivered: u64,
    dropped: u64,
    duplicated: u64,
    starved: u64,
    elapsed_ms: f64,
}

impl Row {
    fn agreed(&self) -> bool {
        self.expected == self.emergent
    }

    fn render(&self) -> String {
        format!(
            "    {{\"workload\": \"{}\", \"machine\": \"{}\", \"family\": \"{}\", \
             \"nodes\": {}, \"seed\": {SEED}, \"plan\": \"{}\", \
             \"fairness_preserved\": {}, \"expected\": \"{}\", \"emergent\": \"{}\", \
             \"agreed\": {}, \"replayed\": true, \"digest\": \"{}\", \"rounds\": {}, \
             \"stabilised_at\": {}, \"delivered\": {}, \"dropped\": {}, \
             \"duplicated\": {}, \"starved\": {}, \"elapsed_ms\": {:.3}, \
             \"activations_per_sec\": {:.0}}}",
            self.workload,
            self.machine,
            self.family,
            self.nodes,
            self.plan,
            self.fairness_preserved,
            self.expected,
            self.emergent,
            self.agreed(),
            self.digest,
            self.rounds,
            self.stabilised_at
                .map_or("null".to_string(), |r| r.to_string()),
            self.delivered,
            self.dropped,
            self.duplicated,
            self.starved,
            self.elapsed_ms,
            self.rounds as f64 / (self.elapsed_ms / 1e3),
        )
    }
}

/// One cross-validated, replay-checked run.
#[allow(clippy::too_many_arguments)]
fn run<S: State>(
    workload: &str,
    machine_name: &'static str,
    machine: &Machine<S>,
    graph: &Graph,
    plan: &FaultPlan,
    opts: &ChaosOptions,
    limit: usize,
) -> Row {
    let cv = cross_validate(
        machine,
        graph,
        plan,
        SEED,
        opts,
        ExploreOptions::with_limit(limit),
    )
    .expect("the exact decision fits the limit");
    let t = Instant::now();
    let replay = run_chaos(machine, graph, plan, SEED, opts);
    let elapsed_ms = t.elapsed().as_secs_f64() * 1e3;
    assert_eq!(
        replay.digest, cv.outcome.digest,
        "{workload}: same seed must replay bit-identically"
    );
    let s = cv.outcome.stats;
    let row = Row {
        workload: workload.to_string(),
        machine: machine_name,
        family: "cycle",
        nodes: graph.node_count(),
        expected: cv.expected,
        emergent: cv.outcome.verdict,
        fairness_preserved: plan.preserves_fairness(),
        plan: plan.summary(),
        digest: format!("{:016x}", cv.outcome.digest),
        rounds: s.rounds,
        stabilised_at: cv.outcome.stabilised_at,
        delivered: s.delivered,
        dropped: s.dropped_random + s.dropped_blocked,
        duplicated: s.duplicated,
        starved: s.starved,
        elapsed_ms,
    };
    println!(
        "  {workload:<42} exact {:>9} emergent {:>12} {:>7} rounds {:>9.1} ms",
        row.expected.to_string(),
        row.emergent.to_string(),
        row.rounds,
        row.elapsed_ms,
    );
    row
}

fn flood() -> Machine<bool> {
    Machine::new(
        1,
        |l: Label| l.0 == 1,
        |&s: &bool, n| s || n.exists(|&t| t),
        |&s| if s { Output::Accept } else { Output::Reject },
    )
}

fn main() {
    println!("== E22: chaos harness vs exact deciders (seed {SEED}) ==\n");
    println!(
        "agreement under the fairness-preserving baseline ({}):",
        lossy().summary()
    );

    // The Figure-1 catalog under fair chaos: emergent must equal exact.
    let presence = cutoff_one_machine(2, |p| p[1]);
    let ladder = compile_broadcasts(&threshold_machine(2, 0, 2));
    let majority = compile_rendezvous(&GraphPopulationProtocol::<MajorityState>::majority());
    let parity = compile_rendezvous(&modulo_protocol(vec![1, 0], 2, 1));

    let g31 = generators::labelled_cycle(&LabelCount::from_vec(vec![3, 1]));
    let g40 = generators::labelled_cycle(&LabelCount::from_vec(vec![4, 0]));
    let g22 = generators::labelled_cycle(&LabelCount::from_vec(vec![2, 2]));
    let g42 = generators::labelled_cycle(&LabelCount::from_vec(vec![4, 2]));
    let g32 = generators::labelled_cycle(&LabelCount::from_vec(vec![3, 2]));

    let agreement = [
        run(
            "presence on cycle [3,1]",
            "presence",
            &presence,
            &g31,
            &lossy(),
            &ChaosOptions::budget(6_000, 150),
            500_000,
        ),
        run(
            "presence on cycle [4,0]",
            "presence",
            &presence,
            &g40,
            &lossy(),
            &ChaosOptions::budget(6_000, 150),
            500_000,
        ),
        run(
            "ladder on cycle [2,2]",
            "ladder",
            &ladder,
            &g22,
            &lossy(),
            &ChaosOptions::budget(60_000, 600),
            3_000_000,
        ),
        run(
            "majority on 6-ring [4,2]",
            "majority",
            &majority,
            &g42,
            &lossy(),
            &ChaosOptions::budget(80_000, 600),
            20_000_000,
        ),
        run(
            "parity on cycle [3,2]",
            "parity",
            &parity,
            &g32,
            &lossy(),
            &ChaosOptions::budget(60_000, 600),
            5_000_000,
        ),
    ];

    // Acceptance pins: under fair plans every machine's emergent verdict
    // must agree, and both non-trivial verdicts must appear.
    for row in &agreement {
        assert!(
            row.fairness_preserved,
            "{}: plan misclassified",
            row.workload
        );
        assert!(
            row.agreed(),
            "{}: emergent {} diverged from exact {} under a fair plan",
            row.workload,
            row.emergent,
            row.expected
        );
        assert!(
            row.stabilised_at.is_some(),
            "{}: budget exhausted",
            row.workload
        );
    }
    assert!(agreement.iter().any(|r| r.expected == Verdict::Accepts));
    assert!(agreement.iter().any(|r| r.expected == Verdict::Rejects));

    // The unfair plan, run on purpose: a permanent partition freezes the
    // witness's flag and the network never reaches the accepting
    // consensus the fault-free semantics promise.
    println!("\ndivergence under a permanent partition (unfair on purpose):");
    let m = flood();
    let witness = g31
        .nodes()
        .find(|&v| g31.label(v).0 == 1)
        .expect("one node carries label 1");
    let cut = FaultPlan::reliable().with_partition(vec![witness], 0, None);
    let divergence = run(
        "flood, witness partitioned forever",
        "flood",
        &m,
        &g31,
        &cut,
        &ChaosOptions::budget(1_500, 150),
        100_000,
    );
    assert!(!divergence.fairness_preserved);
    assert!(
        !divergence.agreed(),
        "a permanent partition must produce the documented divergence"
    );
    assert_eq!(divergence.expected, Verdict::Accepts);
    assert_eq!(divergence.emergent, Verdict::NoConsensus);
    assert!(divergence.starved > 0, "the isolated region must starve");

    let mut json = String::new();
    json.push_str("{\n  \"bench\": \"net_chaos\",\n");
    json.push_str(
        "  \"note\": \"Figure-1 catalog machines run as real communicating nodes over a \
         simulated faulty network; emergent verdicts are cross-validated against the exact \
         deciders (agreement asserted under fairness-preserving plans before each row is \
         written) and every run is replayed from its seed with the trace digest asserted \
         identical\",\n",
    );
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let _ = writeln!(json, "  \"cores\": {cores},");
    let _ = writeln!(json, "  \"seed\": {SEED},");
    json.push_str("  \"agreement\": [\n");
    for (i, row) in agreement.iter().enumerate() {
        json.push_str(&row.render());
        json.push_str(if i + 1 < agreement.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n  \"divergence\": [\n");
    json.push_str(&divergence.render());
    json.push_str("\n  ]\n}\n");

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_net.json");
    std::fs::write(path, &json).expect("write BENCH_net.json");
    println!("\nwrote {path}");
}
