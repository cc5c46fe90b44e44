//! Labelling predicates, property-class checkers and star-configuration
//! analysis — the "Presburger-lite" layer the experiments evaluate against.
//!
//! * [`predicate`] — an exact, self-contained representation of labelling
//!   properties as boolean combinations of linear thresholds and modular
//!   constraints, with an evaluator over [`LabelCount`](wam_graph::LabelCount).
//! * [`classes`] — checkers for the property classes of Figure 1: Trivial,
//!   Cutoff(1), Cutoff (with cutoff search), invariance under scalar
//!   multiplication (ISM), and homogeneous thresholds, all verified
//!   exhaustively over a finite box.
//! * [`stars`] — the star-graph configuration algebra of Lemma 3.5:
//!   exact exploration of machines on stars up to leaf-permutation symmetry,
//!   stably-rejecting sets, and empirical cutoff extraction.
//! * [`crossval`] — drive a decision procedure across label counts and graph
//!   families and diff the verdicts against a reference predicate.
//! * [`store`] — the sharded concurrent [`VerdictStore`]: a `&self`
//!   cache of finished decisions keyed by (system fingerprint, canonical
//!   graph), with optional LRU eviction — the cache the verdict service
//!   and the Figure-1 sweeps share.

pub mod classes;
pub mod counter;
pub mod crossval;
pub mod decidability;
pub mod predicate;
pub mod stars;
pub mod store;

pub use classes::{classify, find_cutoff, is_cutoff, is_ism, is_trivial, PropertyClass};
pub use counter::{node_count_is_prime, CounterProgram, Instr};
pub use crossval::{
    cross_validate, cross_validate_memo, system_fingerprint, CertifiedDecision, Mismatch,
};
pub use decidability::{decidable_by, is_homogeneous_threshold, Decidability};
pub use predicate::Predicate;
pub use stars::{minimal_elements, StarConfig, StarSystem};
pub use store::{StoreKey, VerdictStore};
