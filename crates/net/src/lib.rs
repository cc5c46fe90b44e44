//! `wam-net`: a message-passing chaos harness that runs the paper's
//! automata as real communicating nodes.
//!
//! Every decider in the workspace drives a *scheduler* — the fairness
//! premises of Czerner et al. (PODC 2021) are axioms of the simulation.
//! This crate removes the axiom: each node of a model instance becomes a
//! protocol core ([`NodeProto`]) that exchanges real line-JSON wire
//! messages ([`wire`]) through a simulated network whose misbehaviour is a
//! declarative [`FaultPlan`] ([`fault`]) — delay jitter (and therefore
//! reordering), Bernoulli drops and duplication, partitions that may or
//! may not heal, starved links, node crash/restart with state loss. One
//! sequential router delivers every line, parses every line a node emits
//! and routes it through the plan. All randomness flows from one seed, so
//! every run replays bit-identically and reports a trace digest as its
//! fingerprint.
//!
//! The activation protocol ([`node`]) turns each completed activation into
//! one atomic step of the paper's exclusive model: an activated node reads
//! all neighbours with freshly correlated probe/reply pairs and only then
//! applies `δ`. Chaos can therefore shape *which* schedule emerges, but
//! never forge a transition — the bridge that makes cross-validation
//! meaningful. [`run_chaos`] executes a machine under a plan and detects
//! emergent stabilisation from the outside (consensus outputs, quiescent
//! window); [`cross_validate`] compares the emergent verdict with
//! [`wam_core::decide`], packaging disagreement as a structured
//! [`DivergenceReport`]: agreement is required when
//! [`FaultPlan::preserves_fairness`] holds, and divergence under unfair
//! plans is the experiment's finding, not an error.
//!
//! ```
//! use wam_core::{Machine, Output, Verdict};
//! use wam_graph::{generators, LabelCount};
//! use wam_net::{cross_validate, ChaosOptions, FaultPlan};
//!
//! // "Some node carries label 1", flooded over a lossy, duplicating net.
//! let m = Machine::new(
//!     1,
//!     |l: wam_graph::Label| l.0 == 1,
//!     |&s: &bool, n| s || n.exists(|&t| t),
//!     |&s| if s { Output::Accept } else { Output::Reject },
//! );
//! let g = generators::labelled_cycle(&LabelCount::from_vec(vec![3, 1]));
//! let plan = FaultPlan::chaotic((1, 4), 0.2, 0.1);
//! let cv = cross_validate(
//!     &m,
//!     &g,
//!     &plan,
//!     7,
//!     &ChaosOptions::budget(5_000, 100),
//!     wam_core::ExploreOptions::with_limit(100_000),
//! )
//! .unwrap();
//! assert!(cv.agrees(), "{:?}", cv.divergence);
//! assert_eq!(cv.outcome.verdict, Verdict::Accepts);
//! ```

pub mod fault;
pub mod node;
pub mod wire;

mod runner;

pub use fault::{CrashEvent, FaultPlan, Link, LinkStarve, Partition, Window};
pub use node::{NodeProto, StateIntern};
pub use runner::{
    cross_validate, run_chaos, ChaosOptions, ChaosOutcome, ChaosStats, CrossValidation,
    DivergenceReport,
};
pub use wire::{
    node_addr, parse_line, parse_node_addr, render_line, Body, Envelope, NetError, Payload,
    WireOutput, HUB,
};
