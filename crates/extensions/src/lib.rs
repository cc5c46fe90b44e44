//! Extended communication mechanisms and their simulation compilers.
//!
//! The paper extends distributed automata with three mechanisms and proves
//! each can be *simulated* by ordinary automata with only neighbourhood
//! transitions:
//!
//! * **Weak broadcasts** (Definition 4.5): an initiator signals all agents,
//!   with scheduler-chosen signal attribution when several initiators fire
//!   simultaneously. Simulated via a three-phase protocol
//!   ([`compile_broadcasts`], Lemma 4.7).
//! * **Weak absence detection** (Definition 4.8): synchronous agents learn
//!   the support of a covering subset of the configuration. Simulated via a
//!   distance-labelled three-phase protocol on bounded-degree graphs
//!   ([`compile_absence`], Lemma 4.9).
//! * **Rendez-vous transitions** (graph population protocols,
//!   Definition B.19): two adjacent agents interact atomically. Simulated by
//!   a DAF-automaton with the search/answer/confirm gadget of Figure 4
//!   ([`compile_rendezvous`], Lemma 4.10).
//!
//! On top of these, [`StrongBroadcastProtocol`] models the broadcast
//! consensus protocols of Blondin–Esparza–Jaax, and
//! [`compile_strong_broadcast`] implements the paper's Lemma 5.1 token /
//! step / reset layering, which turns any strong broadcast protocol into a
//! DAF-automaton with weak broadcasts (flatten with [`compile_broadcasts`]).
//!
//! Every extended model implements
//! [`TransitionSystem`](wam_core::TransitionSystem), so the exact deciders of
//! `wam-core` apply to the *semantic* (atomic) models, and every compiler's
//! output is a plain [`Machine`](wam_core::Machine) the same deciders apply
//! to — tests cross-validate the two. Every semantic model also implements
//! [`ScheduledSystem`](wam_core::ScheduledSystem), so the one generic
//! statistical driver [`run_until_stable`](wam_core::run_until_stable) (and
//! the batch / trace / adversary machinery of `wam-sim`) serves all of them.

mod absence;
mod absence_sim;
mod broadcast;
mod broadcast_sim;
mod phases;
mod population;
mod population_counter;
mod rendezvous_sim;
mod strong_broadcast;
mod strong_broadcast_sim;
pub mod util;

pub use absence::{AbsenceMachine, AbsenceSystem};
pub use absence_sim::{compile_absence, AbsencePhased, Dist};
pub use broadcast::{BroadcastMachine, BroadcastSystem, ResponseFn};
pub use broadcast_sim::{compile_broadcasts, Phased};
pub use phases::{check_phase_discipline, project_phase0, PhaseCounter, PhaseOf, PhaseReport};
pub use population::{GraphPopulationProtocol, MajorityState, PopulationSystem};
pub use population_counter::CounterPopulationSystem;
pub use rendezvous_sim::{compile_rendezvous, Rv};
pub use strong_broadcast::{threshold_protocol, StrongBroadcastProtocol, StrongBroadcastSystem};
pub use strong_broadcast_sim::{
    compile_strong_broadcast, opinion_of, token_of, token_protocol, ResetState, StepState, Token,
};
