//! The wire protocol: framed line-JSON requests and replies.
//!
//! One request per line, one reply per line, reusing the serde-free
//! [`Json`] codec from `wam-certify`. Replies carry the request `id`
//! back, so clients may pipeline: the service replies in completion
//! order, not submission order.
//!
//! Request shapes:
//!
//! ```json
//! {"id":1,"machine":"majority","family":"cycle","counts":[2,1],
//!  "certified":true,"deadline_ms":250}
//! {"id":2,"op":"stats"}
//! {"id":3,"op":"catalog"}
//! ```
//!
//! Reply statuses: `ok`, `overloaded`, `deadline`, `error`, `stats`,
//! `catalog`.

use crate::error::ServeError;
use crate::registry::{CachedVerdict, MachineRegistry};
use crate::service::ServiceStats;
use std::fmt::Write as _;
use wam_certify::{write_json_string, Json};
use wam_core::Verdict;
use wam_graph::generators::Family;
use wam_graph::{Graph, LabelCount};

/// A parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Decide a machine on a graph.
    Decide(DecideRequest),
    /// Snapshot the service counters.
    Stats {
        /// Echoed request id.
        id: Option<u64>,
    },
    /// List the registered machines.
    Catalog {
        /// Echoed request id.
        id: Option<u64>,
    },
    /// Run a machine as real communicating nodes over a faulty simulated
    /// network and cross-validate the emergent verdict (the `--net`
    /// backend; rejected unless the service enables it).
    Chaos(ChaosRequest),
}

/// One decision job.
#[derive(Debug, Clone, PartialEq)]
pub struct DecideRequest {
    /// Client-chosen id echoed in the reply.
    pub id: Option<u64>,
    /// Registry name of the machine.
    pub machine: String,
    /// Graph family: `cycle`, `line`, `star`, or `clique`.
    pub family: String,
    /// Nodes per label; length must match the machine's arity, total ≥ 3.
    pub counts: Vec<u64>,
    /// Ask for a verified certificate alongside the verdict.
    pub certified: bool,
    /// Per-request deadline. `None` falls back to the service default.
    pub deadline_ms: Option<u64>,
}

/// One chaos job for the `--net` backend.
///
/// ```json
/// {"id":4,"op":"chaos","machine":"presence","family":"cycle",
///  "counts":[3,1],"seed":7,"drop":0.15,"dup":0.1,"delay_max":4}
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosRequest {
    /// Client-chosen id echoed in the reply.
    pub id: Option<u64>,
    /// Registry name of the machine.
    pub machine: String,
    /// Graph family: `cycle`, `line`, `star`, or `clique`.
    pub family: String,
    /// Nodes per label; length must match the machine's arity, total ≥ 3.
    pub counts: Vec<u64>,
    /// RNG seed — a `(request, seed)` pair replays bit-identically.
    pub seed: u64,
    /// Bernoulli drop probability for data messages (`drop` on the wire).
    pub drop_p: f64,
    /// Bernoulli duplication probability (`dup` on the wire).
    pub dup_p: f64,
    /// Inclusive per-message delay range in virtual ticks
    /// (`delay_min`/`delay_max` on the wire; a wide range reorders).
    pub delay: (u64, u64),
    /// Activation budget override; `None` uses the machine's default.
    pub max_rounds: Option<u64>,
    /// Stability-window override; `None` uses the machine's default.
    pub window: Option<u64>,
}

fn bad(reason: impl Into<String>) -> ServeError {
    ServeError::BadRequest {
        reason: reason.into(),
    }
}

/// The largest integer every JSON number in a request represents exactly
/// (2⁵³ − 1). Larger values would round on the way in — a client matching
/// replies by `id` would get someone else's — so they are refused.
pub const MAX_EXACT_INT: u64 = (1 << 53) - 1;

/// `n` as an integer in `0..=MAX_EXACT_INT`, if it is one.
fn exact_u64(n: f64) -> Option<u64> {
    (n >= 0.0 && n <= MAX_EXACT_INT as f64 && n.fract() == 0.0).then_some(n as u64)
}

fn get_u64(v: &Json, key: &str) -> Result<Option<u64>, ServeError> {
    match v.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(Json::Num(n)) => exact_u64(*n).map(Some).ok_or_else(|| {
            bad(format!(
                "field {key:?} must be an integer in 0..={MAX_EXACT_INT}"
            ))
        }),
        Some(_) => Err(bad(format!("field {key:?} must be a nonnegative integer"))),
    }
}

fn get_str(v: &Json, key: &str) -> Result<Option<String>, ServeError> {
    match v.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(Json::Str(s)) => Ok(Some(s.clone())),
        Some(_) => Err(bad(format!("field {key:?} must be a string"))),
    }
}

fn get_bool(v: &Json, key: &str) -> Result<Option<bool>, ServeError> {
    match v.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(Json::Bool(b)) => Ok(Some(*b)),
        Some(_) => Err(bad(format!("field {key:?} must be a boolean"))),
    }
}

fn get_f64(v: &Json, key: &str) -> Result<Option<f64>, ServeError> {
    match v.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(Json::Num(n)) if n.is_finite() => Ok(Some(*n)),
        Some(_) => Err(bad(format!("field {key:?} must be a finite number"))),
    }
}

fn get_counts(v: &Json) -> Result<Vec<u64>, ServeError> {
    match v.get("counts") {
        Some(Json::Arr(items)) => items
            .iter()
            .map(|item| match item {
                Json::Num(n) => exact_u64(*n).ok_or_else(|| {
                    bad(format!(
                        "\"counts\" entries must be integers in 0..={MAX_EXACT_INT}"
                    ))
                }),
                _ => Err(bad("\"counts\" entries must be nonnegative integers")),
            })
            .collect::<Result<Vec<u64>, ServeError>>(),
        _ => Err(bad("missing or non-array field \"counts\"")),
    }
}

/// Parses one request line.
pub fn parse_request(line: &str) -> Result<Request, ServeError> {
    let v = Json::parse(line).map_err(|e| bad(format!("malformed JSON: {e}")))?;
    if !matches!(v, Json::Obj(_)) {
        return Err(bad("request must be a JSON object"));
    }
    let id = get_u64(&v, "id")?;
    let op = get_str(&v, "op")?.unwrap_or_else(|| "decide".to_string());
    match op.as_str() {
        "stats" => Ok(Request::Stats { id }),
        "catalog" => Ok(Request::Catalog { id }),
        "decide" => {
            let machine =
                get_str(&v, "machine")?.ok_or_else(|| bad("missing field \"machine\""))?;
            let family = get_str(&v, "family")?.ok_or_else(|| bad("missing field \"family\""))?;
            Ok(Request::Decide(DecideRequest {
                id,
                machine,
                family,
                counts: get_counts(&v)?,
                certified: get_bool(&v, "certified")?.unwrap_or(false),
                deadline_ms: get_u64(&v, "deadline_ms")?,
            }))
        }
        "chaos" => {
            let machine =
                get_str(&v, "machine")?.ok_or_else(|| bad("missing field \"machine\""))?;
            let family = get_str(&v, "family")?.ok_or_else(|| bad("missing field \"family\""))?;
            let delay_min = get_u64(&v, "delay_min")?.unwrap_or(1);
            let delay_max = get_u64(&v, "delay_max")?.unwrap_or(delay_min);
            Ok(Request::Chaos(ChaosRequest {
                id,
                machine,
                family,
                counts: get_counts(&v)?,
                seed: get_u64(&v, "seed")?.unwrap_or(0),
                drop_p: get_f64(&v, "drop")?.unwrap_or(0.0),
                dup_p: get_f64(&v, "dup")?.unwrap_or(0.0),
                delay: (delay_min, delay_max),
                max_rounds: get_u64(&v, "max_rounds")?,
                window: get_u64(&v, "window")?,
            }))
        }
        other => Err(bad(format!("unknown op {other:?}"))),
    }
}

/// The `id` of a line [`parse_request`] refused, when the line is a JSON
/// object with a valid `id`: the bad-request reply then still echoes it.
pub(crate) fn refused_id(line: &str) -> Option<u64> {
    get_u64(&Json::parse(line).ok()?, "id").ok().flatten()
}

/// Default cap on the total node count [`build_graph`] accepts. A request
/// is untrusted input; without a bound one line can demand a graph whose
/// allocation aborts the whole service.
pub const DEFAULT_MAX_NODES: u64 = 1 << 20;

/// Tighter cap for `clique` requests, whose edge set grows as *n²*:
/// 2048 nodes is ~2.1 M edges, the largest allocation one request may
/// force regardless of the configured node bound.
pub const MAX_CLIQUE_NODES: u64 = 2048;

/// Builds the requested graph, enforcing the ≥ 3-node model convention
/// and the [`DEFAULT_MAX_NODES`] size cap.
pub fn build_graph(family: &str, counts: &[u64]) -> Result<Graph, ServeError> {
    let family = family_of(family, counts, DEFAULT_MAX_NODES)?;
    Ok(family.labelled(&LabelCount::from_vec(counts.to_vec())))
}

/// The family a request names, once its counts pass the ≥ 3-node
/// convention, the caller's `max_nodes` bound and, for cliques,
/// [`MAX_CLIQUE_NODES`]; checked from the counts alone, with no graph.
pub(crate) fn family_of(
    family: &str,
    counts: &[u64],
    max_nodes: u64,
) -> Result<Family, ServeError> {
    // Checked sum: `counts` comes off the wire, and a wrapping sum in a
    // release build would slip a gigantic request past both bounds.
    let total = counts
        .iter()
        .try_fold(0u64, |acc, &c| acc.checked_add(c))
        .ok_or_else(|| bad("total node count overflows"))?;
    if total < 3 {
        return Err(bad("the model convention requires at least 3 nodes"));
    }
    if total > max_nodes {
        return Err(bad(format!(
            "total node count {total} exceeds the service bound {max_nodes}"
        )));
    }
    if family == "clique" && total > MAX_CLIQUE_NODES {
        return Err(bad(format!(
            "clique on {total} nodes exceeds the {MAX_CLIQUE_NODES}-node edge bound"
        )));
    }
    Family::from_name(family).ok_or_else(|| ServeError::UnknownFamily {
        name: family.to_string(),
    })
}

/// How the cache answered a successful request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Served from a ready store entry.
    Hit,
    /// This request ran the decision.
    Miss,
    /// Joined a decision another request already had in flight.
    Coalesced,
}

impl CacheOutcome {
    /// The wire rendering.
    pub fn as_str(self) -> &'static str {
        match self {
            CacheOutcome::Hit => "hit",
            CacheOutcome::Miss => "miss",
            CacheOutcome::Coalesced => "coalesced",
        }
    }
}

/// A successful decision reply.
#[derive(Debug, Clone)]
pub struct OkReply {
    /// Echoed request id.
    pub id: Option<u64>,
    /// Machine name.
    pub machine: String,
    /// The verdict and (optionally) its certificate.
    pub result: CachedVerdict,
    /// How the cache answered.
    pub cache: CacheOutcome,
    /// Whether a certified request was degraded to a plain verdict to
    /// meet its deadline.
    pub degraded: bool,
    /// Wall-clock service time for this request, µs.
    pub micros: u64,
}

/// A successful chaos-run reply (the `--net` backend).
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosReply {
    /// Echoed request id.
    pub id: Option<u64>,
    /// Machine name.
    pub machine: String,
    /// What the exact decider says under fault-free semantics.
    pub expected: Verdict,
    /// What emerged over the faulty network.
    pub emergent: Verdict,
    /// Whether the two verdicts agree.
    pub agreed: bool,
    /// Whether the requested fault model preserves the paper's fairness
    /// premises (disagreement with `true` here is a bug; with `false` it
    /// is the expected demonstration).
    pub fairness_preserved: bool,
    /// The seed that replays the run.
    pub seed: u64,
    /// FNV-1a trace digest, 16 hex digits — the replay fingerprint.
    pub digest: String,
    /// Concluded activations.
    pub rounds: u64,
    /// Activation count at which stabilisation was declared, if it was.
    pub stabilised_at: Option<u64>,
    /// Activations written off as starved.
    pub starved: u64,
    /// Data messages dropped (random + blocked).
    pub dropped: u64,
    /// Data messages duplicated in flight.
    pub duplicated: u64,
    /// Structured divergence report, present iff the verdicts disagree.
    pub divergence: Option<String>,
    /// Wall-clock service time for this request, µs.
    pub micros: u64,
}

/// One reply line.
#[derive(Debug, Clone)]
pub enum Reply {
    /// The decision succeeded.
    Ok(OkReply),
    /// The request was rejected or failed.
    Error {
        /// Echoed request id.
        id: Option<u64>,
        /// What went wrong.
        error: ServeError,
    },
    /// Counter snapshot.
    Stats {
        /// Echoed request id.
        id: Option<u64>,
        /// The snapshot.
        stats: ServiceStats,
    },
    /// Registry listing.
    Catalog {
        /// Echoed request id.
        id: Option<u64>,
        /// `(name, summary, arity)` per machine.
        machines: Vec<(String, String, usize)>,
    },
    /// A completed chaos run.
    Chaos(ChaosReply),
}

impl Reply {
    /// The reply id (for routing in tests and clients).
    pub fn id(&self) -> Option<u64> {
        match self {
            Reply::Ok(ok) => ok.id,
            Reply::Error { id, .. } => *id,
            Reply::Stats { id, .. } => *id,
            Reply::Catalog { id, .. } => *id,
            Reply::Chaos(c) => c.id,
        }
    }

    /// Renders the reply as one compact JSON line (no trailing newline).
    pub fn render(&self) -> String {
        let id_json = |id: Option<u64>| id.map_or(Json::Null, |n| Json::Num(n as f64));
        let tree = match self {
            Reply::Ok(ok) => return ok.render(),
            Reply::Error { id, error } => Json::Obj(vec![
                ("id".to_string(), id_json(*id)),
                ("status".to_string(), Json::Str(error.status().to_string())),
                ("kind".to_string(), Json::Str(error.kind().to_string())),
                ("error".to_string(), Json::Str(error.to_string())),
            ]),
            Reply::Stats { id, stats } => Json::Obj(vec![
                ("id".to_string(), id_json(*id)),
                ("status".to_string(), Json::Str("stats".to_string())),
                ("received".to_string(), Json::Num(stats.received as f64)),
                ("completed".to_string(), Json::Num(stats.completed as f64)),
                ("cache_hits".to_string(), Json::Num(stats.cache_hits as f64)),
                ("coalesced".to_string(), Json::Num(stats.coalesced as f64)),
                ("decided".to_string(), Json::Num(stats.decided as f64)),
                (
                    "decide_errors".to_string(),
                    Json::Num(stats.decide_errors as f64),
                ),
                (
                    "rejected_overload".to_string(),
                    Json::Num(stats.rejected_overload as f64),
                ),
                (
                    "rejected_deadline".to_string(),
                    Json::Num(stats.rejected_deadline as f64),
                ),
                ("degraded".to_string(), Json::Num(stats.degraded as f64)),
                ("chaos_runs".to_string(), Json::Num(stats.chaos_runs as f64)),
            ]),
            Reply::Chaos(c) => {
                let mut obj = vec![
                    ("id".to_string(), id_json(c.id)),
                    ("status".to_string(), Json::Str("chaos".to_string())),
                    ("machine".to_string(), Json::Str(c.machine.clone())),
                    ("expected".to_string(), Json::Str(c.expected.to_string())),
                    ("emergent".to_string(), Json::Str(c.emergent.to_string())),
                    ("agreed".to_string(), Json::Bool(c.agreed)),
                    (
                        "fairness_preserved".to_string(),
                        Json::Bool(c.fairness_preserved),
                    ),
                    ("seed".to_string(), Json::Num(c.seed as f64)),
                    ("digest".to_string(), Json::Str(c.digest.clone())),
                    ("rounds".to_string(), Json::Num(c.rounds as f64)),
                    (
                        "stabilised_at".to_string(),
                        c.stabilised_at.map_or(Json::Null, |r| Json::Num(r as f64)),
                    ),
                    ("starved".to_string(), Json::Num(c.starved as f64)),
                    ("dropped".to_string(), Json::Num(c.dropped as f64)),
                    ("duplicated".to_string(), Json::Num(c.duplicated as f64)),
                    ("micros".to_string(), Json::Num(c.micros as f64)),
                ];
                if let Some(d) = &c.divergence {
                    obj.push(("divergence".to_string(), Json::Str(d.clone())));
                }
                Json::Obj(obj)
            }
            Reply::Catalog { id, machines } => Json::Obj(vec![
                ("id".to_string(), id_json(*id)),
                ("status".to_string(), Json::Str("catalog".to_string())),
                (
                    "machines".to_string(),
                    Json::Arr(
                        machines
                            .iter()
                            .map(|(name, summary, arity)| {
                                Json::Obj(vec![
                                    ("name".to_string(), Json::Str(name.clone())),
                                    ("summary".to_string(), Json::Str(summary.clone())),
                                    ("arity".to_string(), Json::Num(*arity as f64)),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
        };
        tree.render()
    }
}

impl OkReply {
    /// Writes the reply line into one string and splices the cached
    /// certificate text into it as it is.
    fn render(&self) -> String {
        let blob = self.result.certificate.as_deref();
        let mut out = String::with_capacity(
            256 + self.machine.len()
                + self.result.backend.len()
                + blob.map_or(0, |b| b.kind().len() + b.json().len()),
        );
        out.push_str(r#"{"id":"#);
        match self.id {
            Some(id) => {
                let _ = write!(out, "{id}");
            }
            None => out.push_str("null"),
        }
        out.push_str(r#","status":"ok","machine":"#);
        write_json_string(&mut out, &self.machine);
        let decided = match self.result.verdict.decided() {
            None => "null",
            Some(true) => "true",
            Some(false) => "false",
        };
        // Verdicts and cache outcomes are plain ASCII words: nothing in
        // them to escape.
        let _ = write!(
            out,
            r#","verdict":"{}","decided":{decided},"backend":"#,
            self.result.verdict
        );
        write_json_string(&mut out, &self.result.backend);
        let _ = write!(
            out,
            r#","explored":{},"cache":"{}","certified":{},"degraded":{},"micros":{}"#,
            self.result.explored,
            self.cache.as_str(),
            blob.is_some(),
            self.degraded,
            self.micros
        );
        if let Some(blob) = blob {
            out.push_str(r#","certificate_kind":"#);
            write_json_string(&mut out, blob.kind());
            out.push_str(r#","certificate":"#);
            out.push_str(blob.json());
        }
        out.push('}');
        out
    }
}

/// The catalog listing for a registry, in registration order.
pub fn catalog_of(registry: &MachineRegistry) -> Vec<(String, String, usize)> {
    registry
        .entries()
        .map(|e| (e.name().to_string(), e.summary().to_string(), e.arity()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_full_decide_request() {
        let r = parse_request(
            r#"{"id":7,"machine":"majority","family":"cycle","counts":[2,1],"certified":true,"deadline_ms":250}"#,
        )
        .unwrap();
        assert_eq!(
            r,
            Request::Decide(DecideRequest {
                id: Some(7),
                machine: "majority".to_string(),
                family: "cycle".to_string(),
                counts: vec![2, 1],
                certified: true,
                deadline_ms: Some(250),
            })
        );
    }

    #[test]
    fn defaults_and_ops() {
        let r = parse_request(r#"{"machine":"m","family":"line","counts":[3,0]}"#).unwrap();
        match r {
            Request::Decide(d) => {
                assert_eq!(d.id, None);
                assert!(!d.certified);
                assert_eq!(d.deadline_ms, None);
            }
            other => panic!("expected decide, got {other:?}"),
        }
        assert_eq!(
            parse_request(r#"{"id":1,"op":"stats"}"#).unwrap(),
            Request::Stats { id: Some(1) }
        );
        assert_eq!(
            parse_request(r#"{"id":9007199254740991,"op":"stats"}"#).unwrap(),
            Request::Stats {
                id: Some(MAX_EXACT_INT)
            }
        );
        assert_eq!(
            parse_request(r#"{"op":"catalog"}"#).unwrap(),
            Request::Catalog { id: None }
        );
    }

    #[test]
    fn rejects_malformed_requests() {
        for line in [
            "not json",
            "[1,2]",
            r#"{"op":"fry"}"#,
            r#"{"machine":"m","family":"line"}"#,
            r#"{"machine":"m","family":"line","counts":[1.5]}"#,
            r#"{"machine":"m","family":"line","counts":[3],"certified":"yes"}"#,
            // Past 2⁵³ − 1 a double rounds (2⁵³ + 1 parses to 2⁵³) or the
            // cast saturates (1e300): either would echo a wrong id.
            r#"{"id":9007199254740993,"op":"stats"}"#,
            r#"{"id":1e300,"op":"catalog"}"#,
        ] {
            let e = parse_request(line).unwrap_err();
            assert_eq!(e.kind(), "bad-request", "{line}");
        }
        // A refused line still echoes its id, when that id is valid.
        assert_eq!(refused_id(r#"{"id":7,"counts":[1e300]}"#), Some(7));
        assert_eq!(refused_id(r#"{"id":1e300,"op":"catalog"}"#), None);
        assert_eq!(refused_id(r#"{"id":7,"#), None);
    }

    #[test]
    fn graph_building_enforces_the_catalog_and_size() {
        assert!(build_graph("cycle", &[2, 1]).is_ok());
        assert!(matches!(
            build_graph("torus", &[2, 1]),
            Err(ServeError::UnknownFamily { .. })
        ));
        assert!(matches!(
            build_graph("cycle", &[1, 1]),
            Err(ServeError::BadRequest { .. })
        ));
    }

    #[test]
    fn graph_building_bounds_hostile_sizes() {
        // Past the node bound: rejected before any allocation.
        assert!(matches!(
            build_graph("cycle", &[DEFAULT_MAX_NODES, 1]),
            Err(ServeError::BadRequest { .. })
        ));
        assert!(matches!(
            family_of("cycle", &[50, 51], 100),
            Err(ServeError::BadRequest { .. })
        ));
        assert_eq!(family_of("cycle", &[50, 50], 100), Ok(Family::Cycle));
        // A wrapping sum must not sneak past the bounds.
        assert!(matches!(
            build_graph("cycle", &[u64::MAX, 2]),
            Err(ServeError::BadRequest { .. })
        ));
        // Cliques hit their own O(n²) edge bound below the node bound.
        assert!(matches!(
            build_graph("clique", &[MAX_CLIQUE_NODES, 1]),
            Err(ServeError::BadRequest { .. })
        ));
        assert!(build_graph("clique", &[3, 1]).is_ok());
    }

    #[test]
    fn replies_render_to_single_json_lines() {
        let reply = Reply::Error {
            id: Some(3),
            error: ServeError::Overloaded {
                in_flight: 4,
                capacity: 4,
            },
        };
        let line = reply.render();
        assert!(!line.contains('\n'));
        let v = Json::parse(&line).unwrap();
        assert_eq!(v.get("status"), Some(&Json::Str("overloaded".to_string())));
        assert_eq!(v.get("id"), Some(&Json::Num(3.0)));
        let max = Reply::Catalog {
            id: Some(MAX_EXACT_INT),
            machines: Vec::new(),
        };
        assert!(max.render().starts_with(r#"{"id":9007199254740991,"#));
    }
}
