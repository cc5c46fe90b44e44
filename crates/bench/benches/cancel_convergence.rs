//! **E10 — Lemma 6.1:** convergence of the `⟨cancel⟩` local cancellation
//! dynamics: synchronous steps until the configuration is all small or
//! all negative, and wall-clock scaling with network size.

use wam_bench::{time_ms, Table};
use wam_core::{Config, Selection};
use wam_graph::{generators, Graph, LabelCount};
use wam_protocols::{cancel_machine, homogeneous::big_e};

/// Best of ten runs, as the sample size of the earlier harness.
const REPS: usize = 10;

/// Synchronous steps until ⟨cancel⟩ reaches a Lemma 6.1 limit shape.
fn steps_to_converge(g: &Graph, k: usize, max_steps: usize) -> Option<usize> {
    let coeffs = vec![4, -4];
    let e = big_e(&coeffs, k);
    let m = cancel_machine(coeffs, k);
    let all = Selection::all(g);
    let mut c = Config::initial(&m, g);
    for t in 0..max_steps {
        let small = c.states().iter().all(|x| x.abs() <= k as i32);
        let negative = c.states().iter().all(|x| (-e..=-1).contains(x));
        if small || negative {
            return Some(t);
        }
        c = c.successor(&m, g, &all);
    }
    None
}

fn main() {
    let mut t = Table::new(["n", "degree bound", "steps to converge", "µs per run"]);
    for &n in &[12u64, 24, 48, 96] {
        let a = n / 3;
        let b = n - a; // sum = 4a − 4b < 0
        let c = LabelCount::from_vec(vec![a, b]);
        let k = 3;
        let g = generators::random_degree_bounded(&c, k, n as usize / 4, 3);
        let (ms, steps) = time_ms(REPS, || steps_to_converge(&g, k, 100_000));
        let steps = steps.expect("cancel must converge");
        t.row([
            n.to_string(),
            k.to_string(),
            steps.to_string(),
            format!("{:.1}", ms * 1e3),
        ]);
    }
    t.print(&format!(
        "E10 — Lemma 6.1: ⟨cancel⟩ convergence (sum < 0 inputs, best of {REPS})"
    ));
}
