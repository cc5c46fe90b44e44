//! Every concrete protocol the paper constructs, organised by the class
//! whose power it witnesses.
//!
//! * [`cutoff_one`] — the dAf presence-set machine deciding any Cutoff(1)
//!   property on arbitrary graphs (Proposition C.4).
//! * [`cutoff`] — dAF broadcast machines for thresholds `x ≥ k`
//!   (Lemma C.5) and for arbitrary Cutoff properties (Proposition C.6).
//! * [`semilinear`] — graph population protocols for majority and modulo
//!   predicates; via Lemma 4.10 these become DAF-automata.
//! * [`pp_to_strong`] — a generic conversion from (clique) population
//!   protocols to strong broadcast protocols, which Lemma 5.1 then turns
//!   into DAF-automata: the constructive route to NL-power witnesses.
//! * [`homogeneous`] — the §6.1 stack: a bounded-degree DAf-automaton for
//!   every homogeneous threshold predicate `a·x ≥ 0`, in particular
//!   **majority under adversarial scheduling** — the paper's headline
//!   algorithm (local cancellation, leader convergence detection via weak
//!   absence detection, doubling broadcasts, and error-driven resets).

pub mod cutoff;
pub mod cutoff_one;
pub mod homogeneous;
pub mod pp_to_strong;
pub mod semilinear;

pub use cutoff::{
    cutoff_machine, exact_count_machine, interval_machine, threshold_machine, CutoffState, Est,
};
pub use cutoff_one::{cutoff_one_machine, exists_label};
pub use homogeneous::{cancel_machine, majority_stack, threshold_stack, HomogeneousStack};
pub use pp_to_strong::{strong_broadcast_from_population, Converted};
pub use semilinear::{modulo_protocol, ModState};
