//! Schema checks for `BENCH_explore.json`, `BENCH_serve.json`, and
//! `BENCH_net.json`: the benchmark reports at the repository root must
//! stay parseable and keep the fields that the documentation
//! (EXPERIMENTS.md E13/E20/E21/E22) and downstream tooling read.
//! The parser is a ~60-line hand-rolled recursive descent — the workspace
//! deliberately has no JSON dependency — strict enough to reject the
//! usual hand-editing accidents (trailing commas, unquoted keys,
//! truncated files).

use std::collections::BTreeMap;

#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl<'a> Parser<'a> {
    fn new(s: &'a str) -> Self {
        Parser {
            s: s.as_bytes(),
            i: 0,
        }
    }

    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn peek(&mut self) -> u8 {
        self.ws();
        assert!(self.i < self.s.len(), "unexpected end of input");
        self.s[self.i]
    }

    fn eat(&mut self, c: u8) {
        assert_eq!(
            self.peek(),
            c,
            "expected {:?} at byte {}",
            c as char,
            self.i
        );
        self.i += 1;
    }

    fn lit(&mut self, word: &str, v: Json) -> Json {
        assert!(
            self.s[self.i..].starts_with(word.as_bytes()),
            "bad literal at byte {}",
            self.i
        );
        self.i += word.len();
        v
    }

    fn value(&mut self) -> Json {
        match self.peek() {
            b'{' => self.object(),
            b'[' => self.array(),
            b'"' => Json::Str(self.string()),
            b't' => self.lit("true", Json::Bool(true)),
            b'f' => self.lit("false", Json::Bool(false)),
            b'n' => self.lit("null", Json::Null),
            _ => self.number(),
        }
    }

    fn object(&mut self) -> Json {
        self.eat(b'{');
        let mut map = BTreeMap::new();
        if self.peek() == b'}' {
            self.i += 1;
            return Json::Obj(map);
        }
        loop {
            self.ws();
            let key = self.string();
            self.eat(b':');
            map.insert(key, self.value());
            match self.peek() {
                b',' => self.i += 1,
                b'}' => {
                    self.i += 1;
                    return Json::Obj(map);
                }
                c => panic!("expected ',' or '}}', got {:?}", c as char),
            }
        }
    }

    fn array(&mut self) -> Json {
        self.eat(b'[');
        let mut out = Vec::new();
        if self.peek() == b']' {
            self.i += 1;
            return Json::Arr(out);
        }
        loop {
            out.push(self.value());
            match self.peek() {
                b',' => self.i += 1,
                b']' => {
                    self.i += 1;
                    return Json::Arr(out);
                }
                c => panic!("expected ',' or ']', got {:?}", c as char),
            }
        }
    }

    fn string(&mut self) -> String {
        self.eat(b'"');
        let mut out = String::new();
        loop {
            assert!(self.i < self.s.len(), "unterminated string");
            match self.s[self.i] {
                b'"' => {
                    self.i += 1;
                    return out;
                }
                b'\\' => {
                    self.i += 1;
                    let e = self.s[self.i];
                    self.i += 1;
                    match e {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex =
                                std::str::from_utf8(&self.s[self.i..self.i + 4]).expect("hex");
                            self.i += 4;
                            let cp = u32::from_str_radix(hex, 16).expect("hex escape");
                            out.push(char::from_u32(cp).unwrap_or('\u{fffd}'));
                        }
                        c => panic!("bad escape {:?}", c as char),
                    }
                }
                _ => {
                    // Copy the full UTF-8 scalar, not byte by byte.
                    let rest = std::str::from_utf8(&self.s[self.i..]).expect("utf-8");
                    let ch = rest.chars().next().expect("char");
                    out.push(ch);
                    self.i += ch.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Json {
        self.ws();
        let start = self.i;
        while self.i < self.s.len()
            && matches!(
                self.s[self.i],
                b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'
            )
        {
            self.i += 1;
        }
        let text = std::str::from_utf8(&self.s[start..self.i]).expect("utf-8");
        Json::Num(
            text.parse()
                .unwrap_or_else(|_| panic!("bad number {text:?}")),
        )
    }

    fn parse(mut self) -> Json {
        let v = self.value();
        self.ws();
        assert_eq!(self.i, self.s.len(), "trailing garbage after JSON value");
        v
    }
}

fn parse(s: &str) -> Json {
    Parser::new(s).parse()
}

impl Json {
    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(m) => m.get(key).unwrap_or_else(|| panic!("missing key {key:?}")),
            _ => panic!("{key:?} looked up on a non-object"),
        }
    }

    fn num(&self) -> f64 {
        match self {
            Json::Num(n) => *n,
            _ => panic!("expected a number, got {self:?}"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            _ => panic!("expected a string, got {self:?}"),
        }
    }

    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(v) => v,
            _ => panic!("expected an array, got {self:?}"),
        }
    }
}

#[test]
fn bench_explore_json_matches_schema() {
    let raw = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_explore.json"))
        .expect("BENCH_explore.json at the repository root");
    let doc = parse(&raw);

    assert_eq!(doc.get("bench").str(), "state_space");
    doc.get("baseline").str();
    doc.get("engine").str();
    doc.get("timing").str();
    assert!(doc.get("cores").num() >= 1.0);

    let workloads = doc.get("workloads").arr();
    assert!(!workloads.is_empty(), "engine-timing section is empty");
    for w in workloads {
        assert!(!w.get("workload").str().is_empty());
        for key in [
            "nodes",
            "configs",
            "edges",
            "baseline_ms",
            "sequential_ms",
            "speedup_sequential_vs_baseline",
        ] {
            assert!(w.get(key).num() > 0.0, "{key} must be positive");
        }
        let phases = w.get("phases");
        for key in ["explore_ms", "reverse_csr_ms", "fixpoint_ms", "verdict_ms"] {
            assert!(phases.get(key).num() >= 0.0, "phases.{key} must be present");
        }
        // Exploration dominates the end-to-end decision on every workload;
        // the transpose and fixpoints are the cheap tail.
        assert!(
            phases.get("explore_ms").num()
                >= phases
                    .get("reverse_csr_ms")
                    .num()
                    .max(phases.get("fixpoint_ms").num())
                    / 10.0,
            "phase breakdown looks inverted"
        );
        assert!(matches!(
            w.get("verdict").str(),
            "accepts" | "rejects" | "no consensus" | "inconsistent"
        ));
    }
    // §3a.7: the dense rows. Every row compares a dense system of the
    // shared δ session against the generic engine on the same space, both
    // sequential, explore phase only — the bench asserts verdict and
    // reachable-count equality on every repetition before writing a row.
    // Packed node rows (`exclusive`) keep their no-regression floor and
    // the flagship Lemma-4.10 majority workload the tentpole's 2x; the
    // counter and ring rows `decide` runs must never lose to the generic
    // `CounterSystem`/`RingSystem`, and both must be present.
    let kernel = doc.get("kernel");
    kernel.get("note").str();
    let kernel_workloads = kernel.get("workloads").arr();
    assert!(!kernel_workloads.is_empty(), "kernel section is empty");
    let mut majority_speedup = None;
    let (mut counter_rows, mut ring_rows) = (0, 0);
    for w in kernel_workloads {
        assert!(!w.get("workload").str().is_empty());
        for key in [
            "nodes",
            "configs",
            "generic_explore_ms",
            "kernel_explore_ms",
            "speedup",
            "memory_bytes",
            "delta_entries",
            "states",
            "bits",
        ] {
            assert!(w.get(key).num() > 0.0, "{key} must be positive");
        }
        for key in ["sigs", "restarts"] {
            assert!(w.get(key).num() >= 0.0, "{key} must be present");
        }
        assert!(matches!(
            w.get("verdict").str(),
            "accepts" | "rejects" | "no consensus" | "inconsistent"
        ));
        // Interned ids are u16: the rows could not hold more.
        assert!(w.get("states").num() <= 65535.0);
        let hit_rate = w.get("delta_hit_rate").num();
        assert!(
            (0.0..=1.0).contains(&hit_rate),
            "delta_hit_rate must be a fraction, got {hit_rate}"
        );
        let s = w.get("speedup").num();
        let name = w.get("workload").str();
        match w.get("system").str() {
            "exclusive" => {
                // Memoization is the mechanism: on these reachable spaces
                // almost every configuration expansion replays an
                // already-computed row.
                assert!(hit_rate >= 0.5, "delta hit rate {hit_rate:.3} below 0.5");
                assert!(
                    s >= 0.85,
                    "kernel slower than the generic engine ({s:.2}x) on {name:?}"
                );
                if name == "majority via Lemma 4.10 cycle" {
                    majority_speedup = Some(s);
                }
            }
            system @ ("counter" | "ring") => {
                if system == "counter" {
                    counter_rows += 1;
                } else {
                    ring_rows += 1;
                }
                // The rows share the session's 16-bit state-id lanes.
                assert_eq!(w.get("bits").num(), 16.0, "{name:?}");
                assert!(
                    s >= 1.0,
                    "dense {system} rows slower than the generic system ({s:.2}x) on {name:?}"
                );
            }
            other => panic!("unknown kernel system {other:?} on {name:?}"),
        }
    }
    let majority_speedup =
        majority_speedup.expect("the Lemma 4.10 majority-cycle kernel row must be present");
    assert!(
        majority_speedup >= 2.0,
        "flagship kernel speedup fell below 2x: {majority_speedup:.2}"
    );
    assert!(counter_rows >= 1, "the kernel section needs a counter row");
    assert!(ring_rows >= 1, "the kernel section needs a ring row");

    let certificates = doc.get("certificates");
    certificates.get("note").str();
    let cert_workloads = certificates.get("workloads").arr();
    assert!(!cert_workloads.is_empty(), "certificates section is empty");
    let mut backends = Vec::new();
    let mut largest_lasso = 0.0f64;
    for w in cert_workloads {
        assert!(!w.get("workload").str().is_empty());
        let backend = w.get("backend").str();
        assert!(
            matches!(backend, "explicit" | "counter" | "ring" | "lasso"),
            "unknown certificate backend {backend}"
        );
        backends.push(backend);
        assert!(matches!(
            w.get("verdict").str(),
            "accepts" | "rejects" | "no consensus" | "inconsistent"
        ));
        assert!(matches!(
            w.get("kind").str(),
            "stable" | "inconsistent" | "no-consensus" | "lasso"
        ));
        for key in ["nodes", "cert_configs", "json_bytes"] {
            assert!(w.get(key).num() >= 1.0, "{key} must be at least 1");
        }
        for key in [
            "plain_ms",
            "certified_ms",
            "verify_ms",
            "encode_ms",
            "emission_overhead",
        ] {
            assert!(w.get(key).num() > 0.0, "{key} must be positive");
        }
        // Verification re-executes only the certificate's configurations,
        // never the whole space: it must not dwarf the certified decision.
        assert!(
            w.get("verify_ms").num() <= w.get("certified_ms").num(),
            "verification slower than emitting the certificate"
        );
        // A lasso certificate is its entry configuration plus two lengths:
        // its size is linear in the nodes, whatever the cycle's length.
        if w.get("kind").str() == "lasso" {
            let nodes = w.get("nodes").num();
            assert_eq!(
                w.get("cert_configs").num(),
                1.0,
                "a lasso stores one configuration"
            );
            assert!(
                w.get("json_bytes").num() < 32.0 * nodes + 1024.0,
                "lasso certificate larger than linear in {nodes} nodes"
            );
            largest_lasso = largest_lasso.max(nodes);
        }
    }
    assert!(
        largest_lasso >= 2000.0,
        "the certificates section needs a lasso row of at least 2 000 nodes"
    );
    // Certified decisions ride the dense rows: each row type must have a
    // certificate row of its own.
    for dense in ["explicit", "counter", "ring"] {
        assert!(
            backends.contains(&dense),
            "the report must include a certificate emitted from {dense} rows"
        );
    }

    // E18: the counter-abstracted backend section. Every row must carry
    // its small-instance cross-validation, the three graph families must
    // all appear at >= 10^3 nodes, at least three distinct predicates must
    // be decided, and something must reach 10^4 nodes.
    let counter = doc.get("counter");
    counter.get("note").str();
    let counter_workloads = counter.get("workloads").arr();
    assert!(!counter_workloads.is_empty(), "counter section is empty");
    let mut families = std::collections::BTreeSet::new();
    let mut predicates = std::collections::BTreeSet::new();
    let mut max_nodes = 0.0f64;
    for w in counter_workloads {
        assert!(!w.get("workload").str().is_empty());
        assert!(matches!(
            w.get("backend").str(),
            "counter" | "ring" | "counter-population"
        ));
        assert!(w.get("nodes").num() >= 1000.0, "counter rows start at 10^3");
        assert!(w.get("configs").num() >= 1.0);
        assert!(w.get("explore_ms").num() > 0.0);
        // The abstraction is the point: orders of magnitude fewer
        // configurations than nodes would ever allow explicitly.
        assert!(w.get("configs").num() < 2f64.powf(w.get("nodes").num()));
        for key in ["verdict", "small_verdict"] {
            assert!(matches!(
                w.get(key).str(),
                "accepts" | "rejects" | "no consensus" | "inconsistent"
            ));
        }
        // The bench asserts verdict equality against the explicit engine
        // at small n before writing the row; the report must preserve it.
        assert_eq!(
            w.get("verdict").str(),
            w.get("small_verdict").str(),
            "a counter verdict diverged from its small-n cross-check"
        );
        let small = w.get("small_nodes").num();
        assert!(small >= 3.0 && small < w.get("nodes").num());
        families.insert(w.get("family").str().to_string());
        predicates.insert(w.get("predicate").str().to_string());
        max_nodes = max_nodes.max(w.get("nodes").num());
    }
    for family in ["cycle", "clique", "star"] {
        assert!(
            families.contains(family),
            "counter section must cover the {family} family"
        );
    }
    assert!(
        predicates.len() >= 3,
        "counter section must decide at least three distinct predicates, got {predicates:?}"
    );
    assert!(
        max_nodes >= 10_000.0,
        "counter section must reach 10^4 nodes"
    );

    // E19: the spill section. Every row is a space the decider refused at
    // its default limit, decided twice at a raised limit — in memory and
    // under a byte budget that actually pushed edge segments to disk — with
    // the bench asserting verdict equality before writing the row.
    let spill = doc.get("spill");
    spill.get("note").str();
    let spill_workloads = spill.get("workloads").arr();
    assert!(!spill_workloads.is_empty(), "spill section is empty");
    for w in spill_workloads {
        assert!(!w.get("workload").str().is_empty());
        assert_eq!(
            w.get("refused_at_default_limit"),
            &Json::Bool(true),
            "spill rows must document the refusal they fix"
        );
        assert!(
            w.get("configs").num() > w.get("default_limit").num(),
            "a spill row must exceed the default limit it was refused at"
        );
        assert!(w.get("configs").num() <= w.get("raised_limit").num());
        assert!(w.get("memory_budget_bytes").num() > 0.0);
        assert!(
            w.get("spilled_bytes").num() > w.get("memory_budget_bytes").num(),
            "the edge stream must genuinely outgrow the budget"
        );
        for key in ["edges", "in_memory_ms", "spilled_ms", "slowdown"] {
            assert!(w.get(key).num() > 0.0, "{key} must be positive");
        }
        assert!(matches!(
            w.get("verdict").str(),
            "accepts" | "rejects" | "no consensus" | "inconsistent"
        ));
    }
}

#[test]
fn bench_serve_json_matches_schema() {
    let raw = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_serve.json"))
        .expect("BENCH_serve.json at the repository root");
    let doc = parse(&raw);

    assert_eq!(doc.get("bench").str(), "serve_traffic");
    doc.get("note").str();
    for key in ["workers", "admission", "clients"] {
        assert!(doc.get(key).num() >= 1.0, "{key} must be at least 1");
    }

    // Traffic accounting: the steady phase is a subset of the total, and
    // the closed loop must have pushed real volume through the service.
    let requests = doc.get("requests").num();
    let steady = doc.get("steady_requests").num();
    assert!(steady >= 1.0 && steady <= requests);
    assert!(doc.get("steady_elapsed_ms").num() > 0.0);
    assert!(doc.get("requests_per_sec").num() > 0.0);

    // Latency percentiles are steady-phase only and must be ordered.
    let p50 = doc.get("p50_us").num();
    let p99 = doc.get("p99_us").num();
    assert!(p50 > 0.0, "p50 must be positive");
    assert!(p99 >= p50, "p99 below p50");

    // The acceptance pins of the tentpole: a skewed workload keeps the
    // sharded memo hot, concurrent duplicates join in-flight decisions,
    // and admission control sheds (rather than queues) the overload burst.
    assert!(
        doc.get("cache_hit_rate").num() >= 0.5,
        "cache hit rate below 0.5"
    );
    let coalesced_fraction = doc.get("coalesced_fraction").num();
    assert!(
        coalesced_fraction > 0.0 && coalesced_fraction <= 1.0,
        "coalesced fraction must be in (0, 1]"
    );
    assert!(doc.get("cache_hits").num() >= 1.0);
    assert!(doc.get("coalesced").num() >= 1.0);
    assert!(doc.get("rejected_overload").num() >= 1.0);
    assert!(doc.get("rejected_deadline").num() >= 0.0);
    assert!(doc.get("degraded").num() >= 1.0);

    // Every decision is cached under its canonical key and each key
    // decides once, so the distinct-key count is the decision count.
    let decided = doc.get("decided").num();
    let distinct = doc.get("distinct_keys").num();
    assert!(decided >= 1.0);
    assert_eq!(distinct, decided, "each distinct key decides exactly once");
    assert!(
        decided < requests,
        "the cache must absorb most of the workload"
    );
}

#[test]
fn bench_net_json_matches_schema() {
    let raw = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_net.json"))
        .expect("BENCH_net.json at the repository root");
    let doc = parse(&raw);

    assert_eq!(doc.get("bench").str(), "net_chaos");
    doc.get("note").str();
    assert!(doc.get("cores").num() >= 1.0);
    assert!(doc.get("seed").num() >= 0.0);

    let verdicts = ["accepts", "rejects", "no consensus", "inconsistent"];
    let check_row = |w: &Json| {
        assert!(!w.get("workload").str().is_empty());
        assert!(!w.get("machine").str().is_empty());
        assert!(w.get("nodes").num() >= 3.0, "the model needs >= 3 nodes");
        assert!(w.get("seed").num() >= 0.0);
        assert!(!w.get("plan").str().is_empty());
        assert!(verdicts.contains(&w.get("expected").str()));
        assert!(verdicts.contains(&w.get("emergent").str()));
        // Every row is a determinism check: the bench reruns the seed and
        // asserts digest equality before writing.
        assert_eq!(w.get("replayed"), &Json::Bool(true));
        let digest = w.get("digest").str();
        assert_eq!(digest.len(), 16, "FNV-1a digest is 16 hex digits");
        assert!(digest.bytes().all(|b| b.is_ascii_hexdigit()));
        assert!(w.get("rounds").num() >= 1.0);
        assert!(w.get("delivered").num() >= 1.0);
        for key in ["dropped", "duplicated", "starved"] {
            assert!(w.get(key).num() >= 0.0, "{key} must be present");
        }
        assert!(w.get("elapsed_ms").num() > 0.0);
        assert!(w.get("activations_per_sec").num() > 0.0);
    };

    // E22 agreement matrix: under fairness-preserving plans the emergent
    // verdict equals the exact one on every row, at least four distinct
    // Figure-1 machines appear, and both non-trivial verdicts show up.
    let agreement = doc.get("agreement").arr();
    assert!(agreement.len() >= 4, "agreement matrix too small");
    let mut machines = std::collections::BTreeSet::new();
    let mut seen_verdicts = std::collections::BTreeSet::new();
    for w in agreement {
        check_row(w);
        assert_eq!(w.get("fairness_preserved"), &Json::Bool(true));
        assert_eq!(w.get("agreed"), &Json::Bool(true));
        assert_eq!(
            w.get("expected").str(),
            w.get("emergent").str(),
            "a fair-plan row diverged"
        );
        let stabilised = w.get("stabilised_at").num();
        assert!(stabilised >= 1.0 && stabilised <= w.get("rounds").num());
        machines.insert(w.get("machine").str().to_string());
        seen_verdicts.insert(w.get("expected").str().to_string());
    }
    assert!(
        machines.len() >= 4,
        "agreement must cover >= 4 Figure-1 machines, got {machines:?}"
    );
    assert!(seen_verdicts.contains("accepts") && seen_verdicts.contains("rejects"));

    // The documented divergence: an unfair plan (permanent partition) run
    // on purpose, recorded as data — expected and emergent must differ
    // and the isolated region must have starved.
    let divergence = doc.get("divergence").arr();
    assert!(!divergence.is_empty(), "divergence section is empty");
    for w in divergence {
        check_row(w);
        assert_eq!(w.get("fairness_preserved"), &Json::Bool(false));
        assert_eq!(w.get("agreed"), &Json::Bool(false));
        assert_ne!(w.get("expected").str(), w.get("emergent").str());
        assert!(w.get("starved").num() >= 1.0, "the cut region must starve");
        assert!(
            w.get("plan").str().contains("partition"),
            "the divergence row must name its fault"
        );
    }
}

#[test]
fn parser_rejects_malformed_documents() {
    for bad in [
        "",
        "{",
        "{\"a\": 1,}",
        "{\"a\" 1}",
        "[1, 2",
        "{\"a\": 1} trailing",
        "\"unterminated",
    ] {
        let caught = std::panic::catch_unwind(|| parse(bad));
        assert!(caught.is_err(), "parser accepted malformed input {bad:?}");
    }
}

#[test]
fn parser_handles_escapes_and_unicode() {
    let v = parse(r#"{"k": "x₀ \"q\" \\ ₀", "n": -1.5e2, "b": [true, false, null]}"#);
    assert_eq!(v.get("k").str(), "x₀ \"q\" \\ ₀");
    assert_eq!(v.get("n").num(), -150.0);
    assert_eq!(v.get("b").arr().len(), 3);
    assert_eq!(v.get("b").arr()[2], Json::Null);
}
