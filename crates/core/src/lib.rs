//! The formal model of distributed automata (Esparza & Reiter, CONCUR 2020)
//! as used in *Decision Power of Weak Asynchronous Models of Distributed
//! Computing* (PODC 2021).
//!
//! A [`Machine`] is a distributed machine `M = (Q, δ₀, δ, Y, N)` with
//! counting bound β: every node starts in `δ₀(λ(v))` and updates its state
//! from the β-clipped view of its neighbours' states (a [`Neighbourhood`]).
//! A scheduler repeatedly selects a set of nodes to move; the acceptance
//! condition is stable consensus (or halting, a special case).
//!
//! The crate provides:
//!
//! * state/machine/configuration types generic over a structural state type
//!   `S` (so simulation compilers and product constructions compose without
//!   enumerating state spaces),
//! * the scheduler taxonomy of the paper (selection regime × fairness),
//!   with concrete seeded drivers,
//! * the eight [`ModelClass`]es `xyz ∈ {d,D}×{a,A}×{f,F}` and the
//!   decision-power classification of Figure 1,
//! * **exact decision procedures** on small graphs: reachability over the
//!   configuration graph for pseudo-stochastic fairness, and lasso detection
//!   along deterministic fair schedules for adversarial fairness,
//! * a statistical runner for larger graphs.
//!
//! # Example
//!
//! ```
//! use wam_core::{decide, Backend, ExploreOptions, Machine, Output, Schedule};
//! use wam_graph::{generators, LabelCount};
//!
//! // "Some node carries label 1": flood a flag through the graph.
//! let m = Machine::new(
//!     1,
//!     |l: wam_graph::Label| l.0 == 1,                // δ₀: flag iff label is x1
//!     |&s: &bool, n| s || n.exists(|&t| t),          // δ: pick the flag up
//!     |&s| if s { Output::Accept } else { Output::Reject },
//! );
//! let g = generators::labelled_cycle(&LabelCount::from_vec(vec![3, 1]));
//! let (verdict, stats) = decide(
//!     &m,
//!     &g,
//!     Schedule::PseudoStochastic,
//!     Backend::Auto,
//!     ExploreOptions::with_limit(100_000),
//! )
//! .unwrap();
//! assert!(verdict.is_accepting());
//! assert!(stats.explored > 0);
//! ```

mod bitset;
mod class;
mod config;
pub mod counter;
mod decider;
mod delta;
mod dense;
mod edges;
mod explore;
mod halting;
mod intern;
mod kernel;
mod machine;
mod neighbourhood;
mod product;
mod run;
mod scheduler;
mod system;

pub use class::{Acceptance, Detection, Fairness, ModelClass, PropertyClassBound};
pub use config::{Config, PackedConfig};
pub use counter::{CounterConfig, CounterError, CounterSystem, RingConfig, RingSystem};
pub use decider::{
    decide, dense_or, resolve_backend, Backend, DecisionStats, Resolution, ResolvedBackend,
    Schedule,
};
pub use dense::{explore_counter_kernel, explore_ring_kernel, CounterRow, RingRow};
pub use explore::{
    lasso_verdict, ExclusiveSystem, Exploration, ExploreError, ExploreOptions, Lasso,
    LiberalSystem, SuccBuf, SuccRow, TransitionSystem, Verdict,
};
pub use halting::{halting_violations, make_halting};
pub use intern::Interner;
pub use kernel::{explore_kernel, KernelExploration, KernelRow, KernelStats};
pub use machine::{Machine, Output, State};
pub use neighbourhood::Neighbourhood;
pub use product::{negate, product, Combine};
pub use run::{
    drive_until_stable, run_machine_until_stable, run_schedule, run_until_stable, RunReport,
    StabilityClock, StabilityOptions,
};
pub use scheduler::{
    RandomScheduler, RoundRobinScheduler, Scheduler, Selection, SelectionRegime,
    SynchronousScheduler,
};
pub use system::{ScheduledSystem, StepOutcome};
