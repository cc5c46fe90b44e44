//! `lasso_verdict` finds its lasso by Brent's cycle finding and stores no
//! run. This suite checks it against the walk it replaced: store every
//! (configuration, step mod period) pair until one repeats. Both must give
//! the same stem, cycle length, entry configuration and verdict, and the
//! same `NoLasso`, also at limits one step either side of stem plus cycle.

use std::collections::HashMap;
use weak_async_models::core::{
    lasso_verdict, Config, ExploreError, Machine, Output, Schedule, Selection, State, Verdict,
};
use weak_async_models::graph::{generators, Graph, LabelCount};
use weak_async_models::protocols::cutoff_one_machine;

/// The stored walk: (verdict, stem, cycle configurations), or `NoLasso`
/// once `limit` steps pass without a repeated pair.
fn stored_walk<S: State>(
    m: &Machine<S>,
    g: &Graph,
    schedule: Schedule,
    limit: usize,
) -> Result<(Verdict, usize, Vec<Config<S>>), ExploreError> {
    let n = g.node_count();
    let (all, period) = match schedule {
        Schedule::RoundRobin => (None, n),
        _ => (Some(Selection::all(g)), 1),
    };
    let mut seen = HashMap::new();
    let mut trace = Vec::new();
    let mut c = Config::initial(m, g);
    for t in 0..limit {
        if let Some(&start) = seen.get(&(c.clone(), t % period)) {
            let cycle: Vec<Config<S>> = trace.split_off(start);
            let verdict = if cycle.iter().all(|c| c.is_accepting(m)) {
                Verdict::Accepts
            } else if cycle.iter().all(|c| c.is_rejecting(m)) {
                Verdict::Rejects
            } else {
                Verdict::NoConsensus
            };
            return Ok((verdict, start, cycle));
        }
        seen.insert((c.clone(), t % period), t);
        trace.push(c.clone());
        let sel = all.clone().unwrap_or_else(|| Selection::exclusive(t % n));
        c = c.successor(m, g, &sel);
    }
    Err(ExploreError::NoLasso { limit })
}

/// Compares both walks at `limit`; returns stem plus cycle on a lasso.
fn agree<S: State>(m: &Machine<S>, g: &Graph, schedule: Schedule, limit: usize) -> Option<usize> {
    let want = stored_walk(m, g, schedule, limit);
    let got = lasso_verdict(m, g, schedule, limit);
    match (want, got) {
        (Ok((verdict, stem, cycle)), Ok(l)) => {
            assert_eq!(
                (l.verdict, l.stem_len, l.cycle_len),
                (verdict, stem, cycle.len()),
                "{schedule:?} at limit {limit}"
            );
            assert_eq!(l.entry, cycle[0], "{schedule:?} at limit {limit}");
            Some(l.steps())
        }
        (Err(want), Err(got)) => {
            assert_eq!(want, got);
            None
        }
        (want, got) => panic!(
            "{schedule:?} at limit {limit}: stored walk {:?}, Brent {:?}",
            want.map(|(v, s, c)| (v, s, c.len())),
            got.map(|l| (l.verdict, l.stem_len, l.cycle_len))
        ),
    }
}

fn graphs(n: u64) -> Vec<Graph> {
    let mut out = Vec::new();
    for counts in [vec![n - 1, 1], vec![n - 2, 2], vec![n, 0]] {
        let c = LabelCount::from_vec(counts);
        out.push(generators::labelled_cycle(&c));
        out.push(generators::labelled_line(&c));
        out.push(generators::labelled_star(&c));
        out.push(generators::labelled_clique(&c));
        out.push(generators::random_degree_bounded(&c, 3, n as usize / 2, n));
    }
    out
}

fn check_machine<S: State>(m: &Machine<S>) {
    for n in 3..12 {
        for g in graphs(n) {
            for schedule in [Schedule::RoundRobin, Schedule::Synchronous] {
                let mut total = None;
                for limit in [0, 1, 2, 5, 40, 100_000] {
                    total = agree(m, &g, schedule, limit).or(total);
                }
                let total = total.expect("every machine here closes a lasso");
                for limit in [total - 1, total, total + 1] {
                    agree(m, &g, schedule, limit);
                }
            }
        }
    }
}

#[test]
fn brent_matches_the_stored_walk_on_flooding() {
    check_machine(&cutoff_one_machine(2, |p| p[1]));
}

#[test]
fn brent_matches_the_stored_walk_on_clocks() {
    // Flooding with a mod-3 clock per node: cycles three rounds long.
    check_machine(&Machine::new(
        1,
        |l| (l.0 == 1, 0u8),
        |&(f, p), nb| (f || nb.exists(|t| t.0), (p + 1) % 3),
        |&(f, _)| if f { Output::Accept } else { Output::Reject },
    ));
    // Max-propagation of a mod-7 counter: long stems, mixed outputs.
    check_machine(&Machine::new(
        1,
        |l| if l.0 == 1 { 3u8 } else { 0 },
        |&s, nb| (nb.states().map(|(t, _)| *t).fold(s, u8::max) + 1) % 7,
        |&s| {
            if s < 4 {
                Output::Accept
            } else {
                Output::Reject
            }
        },
    ));
}

#[test]
fn a_run_without_a_lasso_is_refused_at_its_limit() {
    let m = Machine::new(1, |_| 0u64, |&s, _| s + 1, |_| Output::Neutral);
    let g = generators::cycle(3);
    for schedule in [Schedule::RoundRobin, Schedule::Synchronous] {
        for limit in [0, 1, 50, 1000] {
            assert_eq!(agree(&m, &g, schedule, limit), None);
        }
    }
}
