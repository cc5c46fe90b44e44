//! Labelled-graph substrate for the weak-asynchronous-models reproduction.
//!
//! This crate provides everything the paper assumes about its inputs:
//!
//! * [`Alphabet`] / [`Label`] — the finite label set Λ,
//! * [`LabelCount`] — the multiset `L_G : Λ → ℕ` with the paper's cutoff
//!   operator `⌈·⌉_K` and scalar multiplication,
//! * [`Graph`] — finite, simple, connected, undirected labelled graphs with at
//!   least three nodes (the paper's standing convention),
//! * generator functions for every graph family the proofs use
//!   ([`generators`]),
//! * covering maps and λ-fold covering constructions ([`CoveringMap`],
//!   Lemma 3.2 / Corollary 3.3),
//! * the Figure 3 "surgery" used to refute halting discrimination
//!   ([`surgery`], Lemma 3.1).
//!
//! # Example
//!
//! ```
//! use wam_graph::{Alphabet, LabelCount, generators};
//!
//! let ab = Alphabet::new(["a", "b"]);
//! let count = LabelCount::from_pairs(&ab, [("a", 3), ("b", 2)]);
//! let g = generators::labelled_cycle(&count);
//! assert_eq!(g.node_count(), 5);
//! assert_eq!(g.label_count(), count);
//! assert!(g.max_degree() <= 2);
//! ```

mod alphabet;
mod count;
mod covering;
mod error;
pub mod generators;
mod graph;
pub mod partition;
pub mod surgery;
pub mod trees;

pub use alphabet::{Alphabet, Label};
pub use count::LabelCount;
pub use covering::{is_covering, lambda_fold_cycle_cover, CoveringError, CoveringMap};
pub use error::GraphError;
pub use graph::{Graph, GraphBuilder, NodeId};
pub use partition::{TwinCell, TwinPartition};
