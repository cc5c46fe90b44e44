//! Parallel seed sweeps over statistical runs of any [`ScheduledSystem`].

use std::sync::atomic::{AtomicUsize, Ordering};
use wam_core::{
    run_until_stable, ExclusiveSystem, Machine, ScheduledSystem, StabilityOptions, State, Verdict,
};
use wam_graph::Graph;

/// Configuration of a batch run.
#[derive(Debug, Clone, Copy)]
pub struct BatchConfig {
    /// Number of independent seeded runs.
    pub runs: usize,
    /// Base seed; run `i` uses `base_seed + i`.
    pub base_seed: u64,
    /// Stability options for each run.
    pub stability: StabilityOptions,
    /// Worker threads (0 = the machine's available parallelism), capped at
    /// `runs`.
    pub threads: usize,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig {
            runs: 16,
            base_seed: 0,
            stability: StabilityOptions::default(),
            threads: 0,
        }
    }
}

/// Aggregate results of a batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchSummary {
    /// Runs that stabilised accepting.
    pub accepts: usize,
    /// Runs that stabilised rejecting.
    pub rejects: usize,
    /// Runs that exhausted their budget.
    pub no_consensus: usize,
    /// Steps to stabilisation per deciding run (sorted).
    pub steps: Vec<usize>,
}

impl BatchSummary {
    /// The unanimous verdict, if every run agreed and decided.
    pub fn unanimous(&self) -> Option<Verdict> {
        match (self.accepts, self.rejects, self.no_consensus) {
            (a, 0, 0) if a > 0 => Some(Verdict::Accepts),
            (0, r, 0) if r > 0 => Some(Verdict::Rejects),
            _ => None,
        }
    }

    /// Median steps-to-stabilisation over deciding runs.
    pub fn median_steps(&self) -> Option<usize> {
        if self.steps.is_empty() {
            None
        } else {
            Some(self.steps[self.steps.len() / 2])
        }
    }
}

/// Runs any [`ScheduledSystem`] under independent seeded sampled schedules in
/// parallel and aggregates the outcomes. Each run `i` derives its own seed
/// (`base_seed + i`), so the summary is independent of scheduling order and
/// thread count. With one worker thread the sweep runs inline on the caller's
/// thread.
pub fn run_batch<Y>(system: &Y, config: BatchConfig) -> BatchSummary
where
    Y: ScheduledSystem + Sync + ?Sized,
{
    let threads = if config.threads == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        config.threads
    }
    .min(config.runs.max(1));
    let one = |i: usize| {
        let report = run_until_stable(system, config.base_seed + i as u64, config.stability);
        (report.verdict, report.steps)
    };
    let results: Vec<(Verdict, usize)> = if threads <= 1 {
        (0..config.runs).map(one).collect()
    } else {
        // Workers claim run indices from a shared counter and tag each
        // result with its index, so the collected order (and with it the
        // summary) does not depend on which worker ran what.
        let next = AtomicUsize::new(0);
        let mut tagged: Vec<(usize, (Verdict, usize))> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..threads)
                .map(|_| {
                    scope.spawn(|| {
                        let mut done = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= config.runs {
                                return done;
                            }
                            done.push((i, one(i)));
                        }
                    })
                })
                .collect();
            workers
                .into_iter()
                .flat_map(|w| w.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                .collect()
        });
        tagged.sort_unstable_by_key(|&(i, _)| i);
        tagged.into_iter().map(|(_, r)| r).collect()
    };
    let mut accepts = 0;
    let mut rejects = 0;
    let mut no_consensus = 0;
    let mut steps = Vec::new();
    for (verdict, s) in results {
        match verdict {
            Verdict::Accepts => {
                accepts += 1;
                steps.push(s);
            }
            Verdict::Rejects => {
                rejects += 1;
                steps.push(s);
            }
            _ => no_consensus += 1,
        }
    }
    steps.sort_unstable();
    BatchSummary {
        accepts,
        rejects,
        no_consensus,
        steps,
    }
}

/// Convenience wrapper: batch-runs a plain machine on a graph under random
/// exclusive schedules (the [`ExclusiveSystem`] view of the machine).
pub fn run_machine_batch<S: State>(
    machine: &Machine<S>,
    graph: &Graph,
    config: BatchConfig,
) -> BatchSummary {
    run_batch(&ExclusiveSystem::new(machine, graph), config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wam_core::{Machine, Output};
    use wam_extensions::{GraphPopulationProtocol, MajorityState, PopulationSystem};
    use wam_graph::{generators, LabelCount};

    fn flood() -> Machine<bool> {
        Machine::new(
            1,
            |l| l.0 == 1,
            |&s, n| s || n.exists(|&t| t),
            |&s| if s { Output::Accept } else { Output::Reject },
        )
    }

    #[test]
    fn batch_is_unanimous_for_flood() {
        let g = generators::labelled_cycle(&LabelCount::from_vec(vec![7, 1]));
        let summary = run_machine_batch(
            &flood(),
            &g,
            BatchConfig {
                runs: 8,
                base_seed: 3,
                stability: StabilityOptions::new(100_000, 500),
                threads: 0,
            },
        );
        assert_eq!(summary.unanimous(), Some(Verdict::Accepts));
        assert_eq!(summary.steps.len(), 8);
        assert!(summary.median_steps().is_some());
    }

    #[test]
    fn summary_is_independent_of_thread_count() {
        let g = generators::labelled_cycle(&LabelCount::from_vec(vec![7, 1]));
        let m = flood();
        let base = BatchConfig {
            runs: 6,
            base_seed: 21,
            stability: StabilityOptions::new(100_000, 500),
            threads: 1,
        };
        let sequential = run_machine_batch(&m, &g, base);
        for threads in [2, 3, 0] {
            let parallel = run_machine_batch(&m, &g, BatchConfig { threads, ..base });
            assert_eq!(sequential, parallel, "threads={threads}");
        }
    }

    #[test]
    fn batch_runs_population_protocols() {
        let pp = GraphPopulationProtocol::<MajorityState>::majority();
        let c = LabelCount::from_vec(vec![4, 2]);
        let g = generators::labelled_cycle(&c);
        let sys = PopulationSystem::new(&pp, &g);
        let summary = run_batch(
            &sys,
            BatchConfig {
                runs: 6,
                base_seed: 1,
                stability: StabilityOptions::new(200_000, 2_000),
                threads: 2,
            },
        );
        assert_eq!(summary.unanimous(), Some(Verdict::Accepts));
    }

    #[test]
    fn exhausted_runs_are_counted() {
        let m = Machine::new(1, |_| 0u64, |&s, _| s + 1, |_| Output::Neutral);
        let g = generators::cycle(3);
        let summary = run_machine_batch(
            &m,
            &g,
            BatchConfig {
                runs: 3,
                base_seed: 0,
                stability: StabilityOptions::new(200, 50),
                threads: 2,
            },
        );
        assert_eq!(summary.no_consensus, 3);
        assert_eq!(summary.unanimous(), None);
    }
}
