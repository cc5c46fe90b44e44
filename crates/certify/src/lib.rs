//! Verdict certificates and an independent proof-checking subsystem.
//!
//! Every classification claim of the reproduction (the Figure 1 / E1 grid
//! verdicts) is produced by a three-layer engine: interned BFS over dense
//! rows, counter and ring reductions, decision memoisation. Those layers
//! validate each other differentially, but no artefact lets anyone check a verdict
//! without re-trusting the engine. Since the general verification problem
//! for these models is undecidable, *per-instance* machine-checkable
//! witnesses are the right correctness artefact — and the paper's own
//! Prop. D.2 characterisation (accept ⇔ a stably-accepting configuration
//! is reachable) makes them small:
//!
//! * [`certificate`] — the data model: reachability paths, stability
//!   invariants, no-consensus escape tables and deterministic lassos.
//! * [`verify`] — the deliberately small checker that re-validates every
//!   claim by direct re-execution of the step semantics. It never touches
//!   the engine (enforced by an import-grepping test), so engine bugs
//!   cannot survive verification.
//! * [`decider`] — the ergonomic entry point: [`Decider`] builds a
//!   decision over any schedule and backend and (optionally) returns the
//!   witness as a [`DecisionCertificate`].
//! * [`emit`] — the engine-facing emitter behind it
//!   ([`certify_exploration`]).
//! * [`json`] — serde-free JSON export/import with a pluggable
//!   configuration codec ([`StateTable`]).
//!
//! ```
//! use wam_certify::Decider;
//! use wam_core::{Machine, Output};
//! use wam_graph::{generators, LabelCount};
//!
//! let m = Machine::new(
//!     1,
//!     |l: wam_graph::Label| l.0 == 1,
//!     |&s: &bool, n| s || n.exists(|&t| t),
//!     |&s| if s { Output::Accept } else { Output::Reject },
//! );
//! let g = generators::labelled_cycle(&LabelCount::from_vec(vec![3, 1]));
//! let out = Decider::new(&m, &g).certified(true).limit(100_000).decide().unwrap();
//! let cert = out.certificate.as_ref().unwrap();
//! let rechecked = cert.verify(&m, &g).unwrap();
//! assert_eq!(rechecked, out.verdict);
//! ```

pub mod certificate;
pub mod decider;
pub mod emit;
pub mod json;
pub mod verify;

pub use certificate::{
    Certificate, Escape, LassoCertificate, LassoSchedule, NoConsensusCertificate, PathStep,
    Polarity, ReachPath, StabilityInvariant, StableCertificate, StepSelection,
};
pub use decider::{Decider, Decision, DecisionCertificate};
pub use emit::{certify_exploration, relabel_exclusive_path, CertifiedVerdict, Explored};
pub use json::{
    certificate_from_json, certificate_to_json, write_json_string, ConfigCodec, Json, StateTable,
};
pub use verify::{verify_machine, verify_system, CertError};
