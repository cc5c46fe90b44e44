//! `wam-serve` — a certified-verdict service in front of the sharded
//! [`VerdictStore`](wam_analysis::VerdictStore) cache.
//!
//! The crate turns the workspace's exact deciders into a long-running
//! service: clients submit `(machine, graph)` jobs as line-JSON and get
//! verdicts — optionally with independently verified certificates — from
//! a shared cache keyed by `(system fingerprint, isomorphism class)`.
//!
//! * [`registry`] — named machines (the Figure-1 paper catalog by
//!   default) erased behind decide closures that render and re-verify
//!   certificates before anything reaches the cache. Typed entries also
//!   serve the optional `--net` backend: the `chaos` op runs the same
//!   machine as real communicating nodes over a simulated faulty network
//!   (`wam-net`) and cross-validates the emergent verdict against the
//!   exact decider.
//! * [`service`] — the core: cache → coalescing → admission gates, run
//!   where a request arrives, in front of a pool of decision workers,
//!   with deadlines that degrade certified requests to cached plain
//!   verdicts before rejecting. Its in-flight map, not the store, makes
//!   each key decide at most once; the requests waiting on a decision
//!   are entries in that map, not blocked threads.
//! * [`proto`] — the framed line-JSON request/reply protocol, built on
//!   the serde-free [`Json`](wam_certify::Json) codec.
//! * [`transport`] — the stdin/stdout line loop the `wam-serve` binary
//!   runs.
//! * [`error`] — [`ServeError`], one uniform error with engine errors
//!   reachable through `source()`.
//!
//! Everything runs on `std` threads — the transport's read loop, the
//! workers, and one timer thread once a request carries a deadline; the
//! crate has no dependencies outside the workspace.

pub mod error;
pub mod proto;
pub mod registry;
pub mod service;
pub mod transport;

pub use error::ServeError;
pub use proto::{
    build_graph, parse_request, CacheOutcome, ChaosReply, ChaosRequest, DecideRequest, OkReply,
    Reply, Request, DEFAULT_MAX_NODES, MAX_CLIQUE_NODES,
};
pub use registry::{
    CachedVerdict, CertificateBlob, MachineEntry, MachineRegistry, MAX_CHAOS_NODES,
    MAX_CHAOS_ROUNDS,
};
pub use service::{ServiceConfig, ServiceHandle, ServiceStats, VerdictService};
pub use transport::serve;
