//! Umbrella crate for the `weak-async-models` workspace: an executable
//! reproduction of *Decision Power of Weak Asynchronous Models of Distributed
//! Computing* (Czerner, Guttenberg, Helfrich, Esparza — PODC 2021).
//!
//! The workspace is organised as one crate per subsystem; this crate simply
//! re-exports them so that examples and downstream users can depend on a
//! single package:
//!
//! * [`graph`] — labelled graphs, generators, coverings, the Figure 3 surgery.
//! * [`core`] — distributed machines, schedulers, runs, model classes, and
//!   exact decision procedures on configuration spaces.
//! * [`extensions`] — weak broadcasts, weak absence detection, rendez-vous
//!   transitions, and the simulation compilers of Lemmas 4.7 / 4.9 / 4.10 /
//!   5.1.
//! * [`protocols`] — every concrete protocol the paper constructs, from
//!   Cutoff(1) flooding to the §6.1 bounded-degree majority stack.
//! * [`analysis`] — labelling predicates, property-class checkers
//!   (Trivial / Cutoff / ISM / NL witnesses), and star-configuration `Pre*`.
//! * [`sim`] — the experiment harness: adversaries, batch runners, statistics.
//! * [`net`] — the message-passing chaos harness: machines as communicating
//!   nodes exchanging real wire lines through one sequential router over a
//!   seeded faulty virtual network, emergent verdicts cross-validated
//!   against the exact deciders.
//! * [`serve`] — the async certified-verdict service: the Figure-1 catalog
//!   behind a sharded verdict cache, spoken over framed line-JSON.

pub use wam_analysis as analysis;
pub use wam_certify as certify;
pub use wam_core as core;
pub use wam_extensions as extensions;
pub use wam_graph as graph;
pub use wam_net as net;
pub use wam_protocols as protocols;
pub use wam_serve as serve;
pub use wam_sim as sim;
