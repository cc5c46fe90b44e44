//! **E11 — Propositions C.4 / C.6:** the Cutoff(1) and Cutoff protocol
//! families decide exactly what the classification says, verified exactly
//! across a grid of inputs and graph shapes.

use wam_analysis::{classify, Predicate, PropertyClass};
use wam_bench::{small_graph_suite, Table};
use wam_certify::Decider;
use wam_core::{Exploration, Schedule};
use wam_extensions::BroadcastSystem;
use wam_protocols::{cutoff_machine, cutoff_one_machine};

fn main() {
    cutoff_one_family();
    cutoff_family();
}

/// A predicate on presence vectors, boxed for the test-family tables.
type PresencePred = Box<dyn Fn(&[bool]) -> bool + Send + Sync>;

/// A predicate on count vectors, boxed for the test-family tables.
type CountPred = Box<dyn Fn(&[u8]) -> bool + Send + Sync>;

/// Proposition C.4: every Cutoff(1) predicate has a dAf machine — checked
/// for a family of boolean combinations, under round-robin (adversarial).
fn cutoff_one_family() {
    let family: Vec<(&str, Predicate, PresencePred)> = vec![
        (
            "x₀ ≥ 1",
            Predicate::threshold(2, 0, 1),
            Box::new(|p: &[bool]| p[0]),
        ),
        (
            "x₀ ≥ 1 ∧ x₁ ≥ 1",
            Predicate::threshold(2, 0, 1) & Predicate::threshold(2, 1, 1),
            Box::new(|p: &[bool]| p[0] && p[1]),
        ),
        (
            "x₀ ≥ 1 XOR x₁ ≥ 1",
            (Predicate::threshold(2, 0, 1) & !Predicate::threshold(2, 1, 1))
                | (!Predicate::threshold(2, 0, 1) & Predicate::threshold(2, 1, 1)),
            Box::new(|p: &[bool]| p[0] ^ p[1]),
        ),
        (
            "¬(x₁ ≥ 1)",
            !Predicate::threshold(2, 1, 1),
            Box::new(|p: &[bool]| !p[1]),
        ),
    ];
    let mut t = Table::new(["predicate", "class", "inputs", "correct (round-robin)"]);
    for (name, pred, f) in family {
        assert_eq!(classify(&pred, 8), PropertyClass::CutoffOne);
        let m = cutoff_one_machine(2, f);
        let mut total = 0;
        let mut ok = 0;
        for c in wam_bench::two_label_counts(5) {
            for family in small_graph_suite() {
                total += 1;
                let v = Decider::new(&m, &family.labelled(&c))
                    .schedule(Schedule::RoundRobin)
                    .limit(500_000)
                    .decide()
                    .map(|d| d.verdict)
                    .unwrap();
                if v.decided() == Some(pred.eval(&c)) {
                    ok += 1;
                }
            }
        }
        t.row([
            name.into(),
            "Cutoff(1)".into(),
            total.to_string(),
            format!("{ok}/{total}"),
        ]);
        assert_eq!(ok, total, "{name}");
    }
    t.print("Proposition C.4: Cutoff(1) protocols under adversarial scheduling");
}

/// Proposition C.6: Cutoff predicates via the generalised ⟨level⟩ ladder,
/// exact under pseudo-stochastic fairness.
fn cutoff_family() {
    let family: Vec<(&str, Predicate, u8, CountPred)> = vec![
        (
            "x₀ ≥ 2",
            Predicate::threshold(2, 0, 2),
            2,
            Box::new(|e: &[u8]| e[0] >= 2),
        ),
        (
            "x₀ = 2 (exactly)",
            Predicate::threshold(2, 0, 2) & !Predicate::threshold(2, 0, 3),
            3,
            Box::new(|e: &[u8]| e[0] == 2),
        ),
        (
            "x₀ ≥ 2 ∧ x₁ ≤ 1",
            Predicate::threshold(2, 0, 2) & !Predicate::threshold(2, 1, 2),
            2,
            Box::new(|e: &[u8]| e[0] >= 2 && e[1] <= 1),
        ),
    ];
    let mut t = Table::new(["predicate", "cutoff K", "inputs", "correct (exact)"]);
    for (name, pred, k, f) in family {
        let bm = cutoff_machine(2, k, f);
        let mut total = 0;
        let mut ok = 0;
        for c in wam_bench::two_label_counts(4) {
            let g = wam_graph::generators::labelled_cycle(&c);
            total += 1;
            let v = Exploration::explore(&BroadcastSystem::new(&bm, &g), 2_000_000)
                .map(|e| e.verdict())
                .unwrap();
            if v.decided() == Some(pred.eval(&c)) {
                ok += 1;
            }
        }
        t.row([
            name.into(),
            k.to_string(),
            total.to_string(),
            format!("{ok}/{total}"),
        ]);
        assert_eq!(ok, total, "{name}");
    }
    t.print("Proposition C.6: Cutoff protocols (generalised ⟨level⟩ ladder), exact verdicts");
}
