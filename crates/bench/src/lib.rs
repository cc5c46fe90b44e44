//! Shared infrastructure for the experiment suite.
//!
//! Each bench target (see `benches/`) regenerates one table or figure of
//! the paper; this library provides the table formatting and the common
//! graph/input suites so the targets stay declarative. Run everything with
//! `cargo bench`.

use std::time::Instant;
use wam_graph::generators::Family;
use wam_graph::LabelCount;

/// Best-of-`reps` wall time of `f`, in milliseconds, with the last run's
/// result: the one timer the timing benches share.
pub fn time_ms<R>(reps: usize, mut f: impl FnMut() -> R) -> (f64, R) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        let r = f();
        best = best.min(t0.elapsed().as_secs_f64() * 1e3);
        out = Some(r);
    }
    (best, out.expect("at least one repetition"))
}

/// A plain-text table printer matching the style used in EXPERIMENTS.md.
#[derive(Debug, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Starts a table with the given column headers.
    pub fn new<I: IntoIterator<Item = &'static str>>(header: I) -> Self {
        Table {
            header: header.into_iter().map(String::from).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header length).
    pub fn row<I: IntoIterator<Item = String>>(&mut self, cells: I) {
        let row: Vec<String> = cells.into_iter().collect();
        assert_eq!(row.len(), self.header.len(), "row width mismatch");
        self.rows.push(row);
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.chars().count());
            }
        }
        let line = |cells: &[String]| {
            let mut s = String::from("|");
            for (i, c) in cells.iter().enumerate() {
                let pad = widths[i] - c.chars().count();
                s.push(' ');
                s.push_str(c);
                s.push_str(&" ".repeat(pad + 1));
                s.push('|');
            }
            s
        };
        let mut out = line(&self.header);
        out.push('\n');
        out.push('|');
        for w in &widths {
            out.push_str(&"-".repeat(w + 2));
            out.push('|');
        }
        out.push('\n');
        for row in &self.rows {
            out.push_str(&line(row));
            out.push('\n');
        }
        out
    }

    /// Prints the table with a title banner.
    pub fn print(&self, title: &str) {
        println!("\n=== {title} ===\n{}", self.render());
    }
}

/// The small-graph suite used by the exact-verdict experiments: each
/// family builds one graph per label count ([`Family::labelled`]).
pub fn small_graph_suite() -> [Family; 4] {
    [Family::Cycle, Family::Line, Family::Star, Family::Clique]
}

/// Two-label counts with totals in `[3, max_total]`.
pub fn two_label_counts(max_total: u64) -> Vec<LabelCount> {
    let mut out = Vec::new();
    for a in 0..=max_total {
        for b in 0..=max_total {
            if (3..=max_total).contains(&(a + b)) {
                out.push(LabelCount::from_vec(vec![a, b]));
            }
        }
    }
    out
}

/// Formats a verdict-vs-expectation cell.
pub fn verdict_cell(got: wam_core::Verdict, expected: Option<bool>) -> String {
    let mark = match (got.decided(), expected) {
        (Some(g), Some(e)) if g == e => "✓",
        (Some(_), Some(_)) => "✗ WRONG",
        (None, _) => "—",
        (Some(_), None) => "·",
    };
    format!("{got} {mark}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(["a", "long header"]);
        t.row(["x".into(), "y".into()]);
        let r = t.render();
        assert!(r.contains("| a | long header |"));
        assert!(r.contains("| x | y           |"));
    }

    #[test]
    fn suites_are_nonempty() {
        assert_eq!(small_graph_suite().len(), 4);
        assert!(!two_label_counts(5).is_empty());
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn row_width_checked() {
        let mut t = Table::new(["a"]);
        t.row(["x".into(), "y".into()]);
    }
}
