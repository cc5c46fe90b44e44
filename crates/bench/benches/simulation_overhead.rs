//! **E7 — simulation fidelity and overhead:** every simulation compiler
//! (Lemmas 4.7, 4.9, 4.10) preserves verdicts; the price is a larger
//! configuration space and longer runs. This bench measures exact
//! decision time for semantic vs compiled models on a fixed input.

use wam_bench::{time_ms, Table};
use wam_certify::Decider;
use wam_core::{Exploration, Machine, State, TransitionSystem, Verdict};
use wam_extensions::{
    compile_broadcasts, compile_rendezvous, BroadcastSystem, GraphPopulationProtocol,
    MajorityState, PopulationSystem,
};
use wam_graph::{generators, Graph, LabelCount};
use wam_protocols::threshold_machine;

/// Best of ten runs, as the sample size of the earlier harness.
const REPS: usize = 10;

/// Times the semantic exploration against the exact decision on the
/// compiled machine, after checking that both give one verdict.
fn row<T: TransitionSystem, S: State>(
    table: &mut Table,
    lemma: &str,
    semantic: &T,
    compiled: &Machine<S>,
    g: &Graph,
) {
    let (semantic_ms, sv) = time_ms(REPS, || {
        Exploration::explore(semantic, 1_000_000)
            .map(|e| e.verdict())
            .unwrap()
    });
    let (compiled_ms, cv): (f64, Verdict) = time_ms(REPS, || {
        Decider::new(compiled, g)
            .limit(3_000_000)
            .decide()
            .map(|d| d.verdict)
            .unwrap()
    });
    // Fidelity gate: the compiler must preserve the verdict.
    assert_eq!(sv, cv, "{lemma}: compiled verdict differs");
    table.row([
        lemma.to_string(),
        sv.to_string(),
        format!("{semantic_ms:.3}"),
        format!("{compiled_ms:.3}"),
        format!("{:.1}x", compiled_ms / semantic_ms),
    ]);
}

fn main() {
    let mut t = Table::new([
        "lemma",
        "verdict (semantic = compiled)",
        "semantic ms",
        "compiled ms",
        "overhead",
    ]);
    let c = LabelCount::from_vec(vec![2, 1]);

    let cycle = generators::labelled_cycle(&c);
    let bm = threshold_machine(2, 0, 2);
    let semantic = BroadcastSystem::new(&bm, &cycle);
    row(
        &mut t,
        "4.7 broadcasts (cycle [2,1])",
        &semantic,
        &compile_broadcasts(&bm),
        &cycle,
    );

    let line = generators::labelled_line(&c);
    let pp = GraphPopulationProtocol::<MajorityState>::majority();
    let semantic = PopulationSystem::new(&pp, &line);
    row(
        &mut t,
        "4.10 rendez-vous (line [2,1])",
        &semantic,
        &compile_rendezvous(&pp),
        &line,
    );

    t.print(&format!(
        "E7: exact decision, semantic vs compiled (best of {REPS})"
    ));
}
