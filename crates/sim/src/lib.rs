//! Experiment harness: adversarial schedulers, parallel batch runs,
//! convergence statistics and recorded traces.
//!
//! Everything here is built on the run-time layer of `wam-core`
//! ([`ScheduledSystem`](wam_core::ScheduledSystem)), so it serves every
//! model family — plain machines, weak broadcasts, absence detection,
//! population protocols and strong broadcasts — through one API: stress
//! [`Scheduler`](wam_core::Scheduler)s (starvation, sweeps, unfairness for
//! failure injection), a model-generic [`Adversary`] trait with
//! [`run_adversarial_until_stable`], a multi-threaded [`run_batch`] for
//! seed sweeps with per-run seed derivation on scoped worker threads, and
//! [`Trace`] recording for run inspection.

mod adversary;
mod batch;
mod trace;

pub use adversary::{
    critical_change_score, run_adversarial_until_stable, Adversary, LinkStarvation,
    LinkStarvedScheduler, ProcrastinatingAdversary, RotatingAdversary, SeededAdversary,
    SkewedScheduler, SmartStarvationAdversary, StarvationScheduler, SweepScheduler,
    UnfairScheduler,
};
pub use batch::{run_batch, run_machine_batch, BatchConfig, BatchSummary};
pub use trace::{record_machine_trace, record_trace, Trace, TraceStep};
