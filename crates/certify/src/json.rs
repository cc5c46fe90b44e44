//! Serde-free JSON export/import for certificates.
//!
//! The workspace deliberately has no JSON dependency; this module carries
//! its own ~100-line recursive-descent parser (the same style as the
//! schema check in `tests/bench_schema.rs`, but returning `Result` instead
//! of panicking) and a small writer. Certificates are exported by a
//! streaming encoder ([`certificate_to_json`]) that writes the document's
//! text directly, without building a [`Json`] tree first.
//!
//! # Why configurations need a codec
//!
//! A [`Machine`](wam_core::Machine)'s states are arbitrary Rust values
//! (products, enums, closure-built tags) with no canonical serial form, so
//! a certificate cannot be decoded without machine-specific shared
//! context. The [`ConfigCodec`] trait supplies that context; the stock
//! implementation [`StateTable`] enumerates the distinct states occurring
//! in a certificate (states are `Ord`, so the table is deterministic) and
//! encodes every configuration as an array of table indices. The exporting
//! and importing side must construct the codec from the same machine
//! context — typically by building the [`StateTable`] from the certificate
//! before export and shipping it alongside, as
//! `examples/certified_verdict.rs` does. Every document a [`StateTable`]
//! exports, whatever the configuration encoding, embeds the same
//! `sidecar` object as a mismatch tripwire:
//! `{"encoding":"state-table","state_count":n,"digest":"<hex>"}`, where
//! the digest is a 64-bit FNV-1a over the `Debug` renderings of the table's
//! states. The importer refuses a document whose count or digest differs
//! from its own table's.

use crate::certificate::{
    Certificate, Escape, LassoCertificate, LassoSchedule, NoConsensusCertificate, PathStep,
    Polarity, ReachPath, StabilityInvariant, StableCertificate, StepSelection,
};
use crate::verify::CertError;
use rustc_hash::FxHashSet;
use std::fmt::Write as _;
use wam_core::{Config, CounterConfig, RingConfig, State, Verdict};

/// A JSON value. Objects preserve insertion order (emission order is part
/// of the readable format; lookup is linear, which is fine at certificate
/// scale).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (certificates only use nonnegative integers within
    /// `u32`, which import enforces).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object (ordered key–value pairs).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses a JSON document.
    ///
    /// # Errors
    ///
    /// [`CertError::Json`] on malformed input (including trailing garbage)
    /// and on arrays or objects nested more than 64 levels deep.
    pub fn parse(text: &str) -> Result<Json, CertError> {
        let mut p = Parser {
            text,
            s: text.as_bytes(),
            i: 0,
            depth: 0,
        };
        let v = p.value()?;
        p.ws();
        if p.i != p.s.len() {
            return Err(err("trailing garbage after JSON value"));
        }
        Ok(v)
    }

    /// Renders the value as compact JSON text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                if n.fract() == 0.0 && n.abs() < 9e15 {
                    let _ = write!(out, "{}", *n as i64);
                } else {
                    let _ = write!(out, "{n}");
                }
            }
            Json::Str(s) => write_json_string(out, s),
            Json::Arr(items) => write_array(out, items, |out, item| item.write(out)),
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_json_string(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Looks up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn field(&self, key: &str) -> Result<&Json, CertError> {
        self.get(key)
            .ok_or_else(|| err(&format!("missing key {key:?}")))
    }

    fn num(&self) -> Result<f64, CertError> {
        match self {
            Json::Num(n) => Ok(*n),
            _ => Err(err("expected a number")),
        }
    }

    /// A nonnegative integer within `u32` — the range of every index and
    /// count a certificate stores, so later narrowing casts are lossless.
    fn index(&self) -> Result<usize, CertError> {
        let n = self.num()?;
        if !(0.0..=f64::from(u32::MAX)).contains(&n) || n.fract() != 0.0 {
            return Err(err(&format!(
                "expected an integer in 0..=u32::MAX, got {n}"
            )));
        }
        Ok(n as usize)
    }

    fn str(&self) -> Result<&str, CertError> {
        match self {
            Json::Str(s) => Ok(s),
            _ => Err(err("expected a string")),
        }
    }

    fn arr(&self) -> Result<&[Json], CertError> {
        match self {
            Json::Arr(v) => Ok(v),
            _ => Err(err("expected an array")),
        }
    }
}

fn err(msg: &str) -> CertError {
    CertError::Json(msg.to_string())
}

/// Writes `s` as a JSON string literal: quoted, with `"`, `\` and
/// control characters escaped.
pub fn write_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// How deeply arrays and objects may nest in a parsed document. The
/// parser recurses once per level, so the cap bounds its stack use; the
/// deepest document the workspace emits (a certificate) nests well under
/// ten levels.
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    /// The input, for slicing out string runs (always valid UTF-8).
    text: &'a str,
    /// The same input as bytes, for scanning.
    s: &'a [u8],
    i: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn peek(&mut self) -> Result<u8, CertError> {
        self.ws();
        self.s
            .get(self.i)
            .copied()
            .ok_or_else(|| err("unexpected end of input"))
    }

    fn eat(&mut self, c: u8) -> Result<(), CertError> {
        if self.peek()? != c {
            return Err(err(&format!("expected {:?} at byte {}", c as char, self.i)));
        }
        self.i += 1;
        Ok(())
    }

    fn lit(&mut self, word: &str, v: Json) -> Result<Json, CertError> {
        if !self.s[self.i..].starts_with(word.as_bytes()) {
            return Err(err(&format!("bad literal at byte {}", self.i)));
        }
        self.i += word.len();
        Ok(v)
    }

    fn value(&mut self) -> Result<Json, CertError> {
        match self.peek()? {
            b'{' => self.nested(Self::object),
            b'[' => self.nested(Self::array),
            b'"' => Ok(Json::Str(self.string()?)),
            b't' => self.lit("true", Json::Bool(true)),
            b'f' => self.lit("false", Json::Bool(false)),
            b'n' => self.lit("null", Json::Null),
            _ => self.number(),
        }
    }

    /// Parses one array or object one level deeper, refusing to go past
    /// [`MAX_DEPTH`].
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Json, CertError>,
    ) -> Result<Json, CertError> {
        if self.depth == MAX_DEPTH {
            return Err(err(&format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.i
            )));
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn object(&mut self) -> Result<Json, CertError> {
        self.eat(b'{')?;
        let mut pairs = Vec::new();
        if self.peek()? == b'}' {
            self.i += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.ws();
            let key = self.string()?;
            self.eat(b':')?;
            pairs.push((key, self.value()?));
            match self.peek()? {
                b',' => self.i += 1,
                b'}' => {
                    self.i += 1;
                    return Ok(Json::Obj(pairs));
                }
                c => return Err(err(&format!("expected ',' or '}}', got {:?}", c as char))),
            }
        }
    }

    fn array(&mut self) -> Result<Json, CertError> {
        self.eat(b'[')?;
        let mut out = Vec::new();
        if self.peek()? == b']' {
            self.i += 1;
            return Ok(Json::Arr(out));
        }
        loop {
            out.push(self.value()?);
            match self.peek()? {
                b',' => self.i += 1,
                b']' => {
                    self.i += 1;
                    return Ok(Json::Arr(out));
                }
                c => return Err(err(&format!("expected ',' or ']', got {:?}", c as char))),
            }
        }
    }

    fn string(&mut self) -> Result<String, CertError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let b = *self
                .s
                .get(self.i)
                .ok_or_else(|| err("unterminated string"))?;
            match b {
                b'"' => {
                    self.i += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.i += 1;
                    let e = *self.s.get(self.i).ok_or_else(|| err("truncated escape"))?;
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
                            let hex = self
                                .s
                                .get(self.i..self.i + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| err("truncated \\u escape"))?;
                            self.i += 4;
                            let cp =
                                u32::from_str_radix(hex, 16).map_err(|_| err("bad \\u escape"))?;
                            out.push(char::from_u32(cp).unwrap_or('\u{fffd}'));
                        }
                        c => return Err(err(&format!("bad escape {:?}", c as char))),
                    }
                }
                _ => {
                    // Copy the run up to the next quote or backslash in one
                    // slice: both are ASCII, so the run ends on a character
                    // boundary of the (valid UTF-8) input.
                    let start = self.i;
                    while self.i < self.s.len() && !matches!(self.s[self.i], b'"' | b'\\') {
                        self.i += 1;
                    }
                    out.push_str(&self.text[start..self.i]);
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, CertError> {
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
        let text = std::str::from_utf8(&self.s[start..self.i]).map_err(|_| err("invalid UTF-8"))?;
        text.parse()
            .map(Json::Num)
            .map_err(|_| err(&format!("bad number {text:?}")))
    }
}

/// Machine-specific shared context for encoding configurations.
pub trait ConfigCodec<C> {
    /// Writes one configuration as JSON text onto `out`.
    fn write_config(&self, c: &C, out: &mut String);

    /// Decodes one configuration.
    ///
    /// # Errors
    ///
    /// [`CertError::Json`] when the value does not decode under this codec.
    fn decode_config(&self, v: &Json) -> Result<C, CertError>;

    /// An optional object embedded under `"sidecar"` in the export —
    /// human-readable context plus whatever the codec wants as a mismatch
    /// tripwire.
    fn sidecar(&self) -> Option<Json> {
        None
    }

    /// Checks a parsed sidecar against this codec on import.
    ///
    /// # Errors
    ///
    /// [`CertError::Json`] when the sidecar reveals a codec mismatch.
    fn check_sidecar(&self, _v: &Json) -> Result<(), CertError> {
        Ok(())
    }
}

/// The stock codec for `Config<S>`: a sorted, deduplicated table of the
/// distinct states occurring in a certificate; configurations are encoded
/// as arrays of table indices. Both sides of an exchange derive the same
/// table from the same certificate, because [`State`] is `Ord`.
#[derive(Debug, Clone)]
pub struct StateTable<S> {
    states: Vec<S>,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// A 64-bit FNV-1a hash that `write!` can render into.
struct Fnv1a(u64);

impl Fnv1a {
    fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
    }
}

impl std::fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.eat(s.as_bytes());
        Ok(())
    }
}

impl<S: State> StateTable<S> {
    /// Builds the table of distinct states stored in `cert`.
    pub fn from_certificate(cert: &Certificate<Config<S>>) -> Self {
        let mut seen = FxHashSet::default();
        cert.for_each_config(|c| seen.extend(c.states()));
        Self::from_distinct(seen)
    }

    /// Builds the table of distinct states stored in a counter-abstracted
    /// certificate (count vectors over a twin partition).
    pub fn from_counter_certificate(cert: &Certificate<CounterConfig<S>>) -> Self {
        let mut seen = FxHashSet::default();
        cert.for_each_config(|c| seen.extend(c.entries().iter().map(|(_, s, _)| s)));
        Self::from_distinct(seen)
    }

    /// Builds the table of distinct states stored in a ring-abstracted
    /// certificate (canonical necklaces).
    pub fn from_ring_certificate(cert: &Certificate<RingConfig<S>>) -> Self {
        let mut seen = FxHashSet::default();
        cert.for_each_config(|c| seen.extend(c.runs().iter().map(|(s, _)| s)));
        Self::from_distinct(seen)
    }

    /// Sorts the distinct states once: a certificate repeats each state
    /// across many configurations, so deduplicating by hash first keeps
    /// the clone and the sort to the table's own size.
    fn from_distinct(seen: FxHashSet<&S>) -> Self {
        let mut states: Vec<S> = seen.into_iter().cloned().collect();
        states.sort_unstable();
        StateTable { states }
    }

    /// The table entries, sorted.
    pub fn states(&self) -> &[S] {
        &self.states
    }

    /// Number of distinct states.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// FNV-1a over the states' `Debug` renderings, each closed by a
    /// `0xFF` byte, which UTF-8 text never contains, as 16 hex digits.
    /// The renderings are written straight into the hash, without a
    /// `String` per state.
    fn digest(&self) -> String {
        let mut h = Fnv1a(FNV_OFFSET);
        for s in &self.states {
            // `Fnv1a::write_str` never fails, so neither does the render.
            let _ = write!(h, "{s:?}");
            h.eat(&[0xFF]);
        }
        format!("{:016x}", h.0)
    }

    /// The sidecar all three configuration encodings share: the table's
    /// length and the digest of its states.
    fn table_sidecar(&self) -> Json {
        Json::Obj(vec![
            ("encoding".to_string(), Json::Str("state-table".to_string())),
            (
                "state_count".to_string(),
                Json::Num(self.states.len() as f64),
            ),
            ("digest".to_string(), Json::Str(self.digest())),
        ])
    }

    /// Refuses a document whose table differs from this one in length or
    /// in the digest of its states.
    fn check_table_sidecar(&self, v: &Json) -> Result<(), CertError> {
        let n = v.field("state_count")?.index()?;
        if n != self.states.len() {
            return Err(err(&format!(
                "state table size mismatch: document has {n}, codec has {}",
                self.states.len()
            )));
        }
        if v.field("digest")?.str()? != self.digest() {
            return Err(err("state table digest mismatch"));
        }
        Ok(())
    }

    /// The table index of `s`, written as a JSON number.
    fn write_index(&self, s: &S, out: &mut String) {
        let i = self
            .states
            .binary_search(s)
            .expect("state missing from the table built for this certificate");
        write_uint(out, i as u64);
    }
}

impl<S: State> ConfigCodec<Config<S>> for StateTable<S> {
    fn write_config(&self, c: &Config<S>, out: &mut String) {
        write_array(out, c.states(), |out, s| self.write_index(s, out));
    }

    fn decode_config(&self, v: &Json) -> Result<Config<S>, CertError> {
        let mut states = Vec::new();
        for item in v.arr()? {
            let i = item.index()?;
            let s = self
                .states
                .get(i)
                .ok_or_else(|| err("state index out of table range"))?;
            states.push(s.clone());
        }
        Ok(Config::from_states(states))
    }

    fn sidecar(&self) -> Option<Json> {
        Some(self.table_sidecar())
    }

    fn check_sidecar(&self, v: &Json) -> Result<(), CertError> {
        self.check_table_sidecar(v)
    }
}

impl<S: State> ConfigCodec<CounterConfig<S>> for StateTable<S> {
    fn write_config(&self, c: &CounterConfig<S>, out: &mut String) {
        write_array(out, c.entries(), |out, (cell, s, count)| {
            out.push('[');
            write_uint(out, u64::from(*cell));
            out.push(',');
            self.write_index(s, out);
            out.push(',');
            write_uint(out, *count);
            out.push(']');
        });
    }

    fn decode_config(&self, v: &Json) -> Result<CounterConfig<S>, CertError> {
        let mut entries = Vec::new();
        for item in v.arr()? {
            let triple = item.arr()?;
            if triple.len() != 3 {
                return Err(err("counter entry is not a [cell, state, count] triple"));
            }
            let cell = u16::try_from(triple[0].index()?)
                .map_err(|_| err("counter cell out of u16 range"))?;
            let i = triple[1].index()?;
            let count = triple[2].index()?;
            let s = self
                .states
                .get(i)
                .ok_or_else(|| err("state index out of table range"))?;
            entries.push((cell, s.clone(), count as u64));
        }
        Ok(CounterConfig::from_entries(entries))
    }

    fn sidecar(&self) -> Option<Json> {
        Some(self.table_sidecar())
    }

    fn check_sidecar(&self, v: &Json) -> Result<(), CertError> {
        self.check_table_sidecar(v)
    }
}

impl<S: State> ConfigCodec<RingConfig<S>> for StateTable<S> {
    fn write_config(&self, c: &RingConfig<S>, out: &mut String) {
        write_array(out, c.runs(), |out, (s, len)| {
            out.push('[');
            self.write_index(s, out);
            out.push(',');
            write_uint(out, u64::from(*len));
            out.push(']');
        });
    }

    fn decode_config(&self, v: &Json) -> Result<RingConfig<S>, CertError> {
        let mut runs = Vec::new();
        for item in v.arr()? {
            let pair = item.arr()?;
            if pair.len() != 2 {
                return Err(err("ring run is not a [state, length] pair"));
            }
            let i = pair[0].index()?;
            let len = pair[1].index()?;
            let s = self
                .states
                .get(i)
                .ok_or_else(|| err("state index out of table range"))?;
            runs.push((s.clone(), len as u32));
        }
        Ok(RingConfig::from_runs(runs))
    }

    fn sidecar(&self) -> Option<Json> {
        Some(self.table_sidecar())
    }

    fn check_sidecar(&self, v: &Json) -> Result<(), CertError> {
        self.check_table_sidecar(v)
    }
}

fn parse_verdict(v: &Json) -> Result<Verdict, CertError> {
    match v.str()? {
        "accepts" => Ok(Verdict::Accepts),
        "rejects" => Ok(Verdict::Rejects),
        "no consensus" => Ok(Verdict::NoConsensus),
        "inconsistent" => Ok(Verdict::Inconsistent),
        other => Err(err(&format!("unknown verdict {other:?}"))),
    }
}

fn parse_selection(v: &Json) -> Result<StepSelection, CertError> {
    match v {
        Json::Str(s) if s == "all" => Ok(StepSelection::All),
        Json::Obj(_) => {
            if let Some(n) = v.get("node") {
                Ok(StepSelection::Node(n.index()? as u32))
            } else if let Some(c) = v.get("choice") {
                Ok(StepSelection::Choice(c.index()? as u32))
            } else {
                Err(err("selection object needs \"node\" or \"choice\""))
            }
        }
        _ => Err(err("bad selection")),
    }
}

fn parse_escape(v: &Json) -> Result<Escape, CertError> {
    match v {
        Json::Str(s) if s == "here" => Ok(Escape::Here),
        Json::Obj(_) => Ok(Escape::Via(v.field("via")?.index()? as u32)),
        _ => Err(err("bad escape")),
    }
}

fn parse_configs<C>(v: &Json, codec: &dyn ConfigCodec<C>) -> Result<Vec<C>, CertError> {
    v.arr()?.iter().map(|c| codec.decode_config(c)).collect()
}

/// Refuses a body carrying a key of an older format: `transport` holds
/// orbit representatives, no closed set without the permutations this
/// format no longer replays, and a lasso's `cycle` is now `entry` and
/// `cycle_len`.
fn reject_key(body: &Json, key: &str) -> Result<(), CertError> {
    match body.get(key) {
        Some(_) => Err(err(&format!("unsupported key {key:?} of an older format"))),
        None => Ok(()),
    }
}

fn parse_stable<C>(
    v: &Json,
    codec: &dyn ConfigCodec<C>,
) -> Result<StableCertificate<C>, CertError> {
    reject_key(v, "transport")?;
    let polarity = match v.field("polarity")?.str()? {
        "accepting" => Polarity::Accepting,
        "rejecting" => Polarity::Rejecting,
        other => return Err(err(&format!("unknown polarity {other:?}"))),
    };
    let path_v = v.field("path")?;
    let start = codec.decode_config(path_v.field("start")?)?;
    let steps = path_v
        .field("steps")?
        .arr()?
        .iter()
        .map(|step| {
            Ok(PathStep {
                to: codec.decode_config(step.field("to")?)?,
                selection: parse_selection(step.field("selection")?)?,
            })
        })
        .collect::<Result<Vec<_>, CertError>>()?;
    let members = parse_configs(v.field("members")?, codec)?;
    Ok(StableCertificate {
        polarity,
        path: ReachPath { start, steps },
        invariant: StabilityInvariant { members },
    })
}

/// Exports a certificate as a JSON document.
///
/// The document is written straight into one string: keys are literals,
/// integers go through a digit writer and configurations through the
/// codec's [`ConfigCodec::write_config`], so no [`Json`] value is built
/// for the body. The text is compact and parses back with [`Json::parse`].
pub fn certificate_to_json<C>(cert: &Certificate<C>, codec: &dyn ConfigCodec<C>) -> String {
    let mut out = String::with_capacity(256 + 32 * cert.config_count());
    // Kinds and verdicts are plain ASCII words: nothing in them to escape.
    let _ = write!(
        out,
        r#"{{"format":"wam-certify","version":1,"kind":"{}","verdict":"{}""#,
        cert.kind(),
        cert.verdict()
    );
    match cert {
        Certificate::Stable(s) => {
            out.push_str(r#","stable":"#);
            write_stable(&mut out, s, codec);
        }
        Certificate::Inconsistent(acc, rej) => {
            out.push_str(r#","accepting":"#);
            write_stable(&mut out, acc, codec);
            out.push_str(r#","rejecting":"#);
            write_stable(&mut out, rej, codec);
        }
        Certificate::NoConsensus(n) => {
            out.push_str(r#","no_consensus":{"space":"#);
            write_configs(&mut out, &n.space, codec);
            out.push_str(r#","escape_accepting":"#);
            write_array(&mut out, &n.escape_accepting, write_escape);
            out.push_str(r#","escape_rejecting":"#);
            write_array(&mut out, &n.escape_rejecting, write_escape);
            out.push('}');
        }
        Certificate::Lasso(l) => {
            out.push_str(match l.schedule {
                LassoSchedule::RoundRobin => r#","lasso":{"schedule":"round-robin","stem_len":"#,
                LassoSchedule::Synchronous => r#","lasso":{"schedule":"synchronous","stem_len":"#,
            });
            write_uint(&mut out, l.stem_len as u64);
            out.push_str(r#","entry":"#);
            codec.write_config(&l.entry, &mut out);
            out.push_str(r#","cycle_len":"#);
            write_uint(&mut out, l.cycle_len as u64);
            out.push('}');
        }
    }
    if let Some(sidecar) = codec.sidecar() {
        out.push_str(r#","sidecar":"#);
        sidecar.write(&mut out);
    }
    out.push('}');
    out
}

/// Writes `n` in decimal.
fn write_uint(out: &mut String, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut i = digits.len();
    loop {
        i -= 1;
        digits[i] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[i..]).expect("ASCII digits"));
}

/// Writes `items` as a JSON array, each through `item`.
fn write_array<T>(out: &mut String, items: &[T], mut item: impl FnMut(&mut String, &T)) {
    out.push('[');
    for (i, x) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        item(out, x);
    }
    out.push(']');
}

fn write_configs<C>(out: &mut String, configs: &[C], codec: &dyn ConfigCodec<C>) {
    write_array(out, configs, |out, c| codec.write_config(c, out));
}

fn write_selection(out: &mut String, sel: &StepSelection) {
    match sel {
        StepSelection::Node(v) => {
            out.push_str(r#"{"node":"#);
            write_uint(out, u64::from(*v));
            out.push('}');
        }
        StepSelection::Choice(j) => {
            out.push_str(r#"{"choice":"#);
            write_uint(out, u64::from(*j));
            out.push('}');
        }
        StepSelection::All => out.push_str(r#""all""#),
    }
}

fn write_escape(out: &mut String, e: &Escape) {
    match e {
        Escape::Here => out.push_str(r#""here""#),
        Escape::Via(j) => {
            out.push_str(r#"{"via":"#);
            write_uint(out, u64::from(*j));
            out.push('}');
        }
    }
}

fn write_stable<C>(out: &mut String, s: &StableCertificate<C>, codec: &dyn ConfigCodec<C>) {
    out.push_str(match s.polarity {
        Polarity::Accepting => r#"{"polarity":"accepting","path":{"start":"#,
        Polarity::Rejecting => r#"{"polarity":"rejecting","path":{"start":"#,
    });
    codec.write_config(&s.path.start, out);
    out.push_str(r#","steps":"#);
    write_array(out, &s.path.steps, |out, step| {
        out.push_str(r#"{"to":"#);
        codec.write_config(&step.to, out);
        out.push_str(r#","selection":"#);
        write_selection(out, &step.selection);
        out.push('}');
    });
    out.push_str(r#"},"members":"#);
    write_configs(out, &s.invariant.members, codec);
    out.push('}');
}

/// Imports a certificate from a JSON document.
///
/// # Errors
///
/// [`CertError::Json`] on malformed documents, unknown versions or codec
/// mismatches.
pub fn certificate_from_json<C>(
    text: &str,
    codec: &dyn ConfigCodec<C>,
) -> Result<Certificate<C>, CertError> {
    let doc = Json::parse(text)?;
    if doc.field("format")?.str()? != "wam-certify" {
        return Err(err("not a wam-certify document"));
    }
    if doc.field("version")?.index()? != 1 {
        return Err(err("unsupported wam-certify version"));
    }
    match doc.get("sidecar") {
        Some(sidecar) => codec.check_sidecar(sidecar)?,
        // Without its sidecar a document would decode under any table of
        // the right size, as a different certificate.
        None if codec.sidecar().is_some() => {
            return Err(err("document lacks the sidecar its codec requires"))
        }
        None => {}
    }
    let claimed = parse_verdict(doc.field("verdict")?)?;
    let cert = match doc.field("kind")?.str()? {
        "stable" => Certificate::Stable(parse_stable(doc.field("stable")?, codec)?),
        "inconsistent" => Certificate::Inconsistent(
            Box::new(parse_stable(doc.field("accepting")?, codec)?),
            Box::new(parse_stable(doc.field("rejecting")?, codec)?),
        ),
        "no-consensus" => {
            let body = doc.field("no_consensus")?;
            reject_key(body, "transport")?;
            let escapes = |key: &str| -> Result<Vec<Escape>, CertError> {
                body.field(key)?.arr()?.iter().map(parse_escape).collect()
            };
            Certificate::NoConsensus(NoConsensusCertificate {
                space: parse_configs(body.field("space")?, codec)?,
                escape_accepting: escapes("escape_accepting")?,
                escape_rejecting: escapes("escape_rejecting")?,
            })
        }
        "lasso" => {
            let body = doc.field("lasso")?;
            let schedule = match body.field("schedule")?.str()? {
                "round-robin" => LassoSchedule::RoundRobin,
                "synchronous" => LassoSchedule::Synchronous,
                other => return Err(err(&format!("unknown schedule {other:?}"))),
            };
            reject_key(body, "cycle")?;
            Certificate::Lasso(LassoCertificate {
                schedule,
                verdict: claimed,
                stem_len: body.field("stem_len")?.index()?,
                entry: codec.decode_config(body.field("entry")?)?,
                cycle_len: body.field("cycle_len")?.index()?,
            })
        }
        other => return Err(err(&format!("unknown certificate kind {other:?}"))),
    };
    if cert.verdict() != claimed {
        return Err(err("document verdict disagrees with certificate body"));
    }
    Ok(cert)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_is_capped() {
        let deep = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(Json::parse(&deep(MAX_DEPTH)).is_ok());
        assert!(matches!(
            Json::parse(&deep(MAX_DEPTH + 1)),
            Err(CertError::Json(_))
        ));
        let objects = format!(
            "{}1{}",
            r#"{"a":"#.repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        );
        assert!(matches!(Json::parse(&objects), Err(CertError::Json(_))));
        // An unterminated line of brackets far past any stack is refused
        // at the cap, not by overflowing.
        assert!(matches!(
            Json::parse(&"[".repeat(200_000)),
            Err(CertError::Json(_))
        ));
    }

    #[test]
    fn transported_bodies_are_refused() {
        let codec = StateTable {
            states: vec![false, true],
        };
        let sidecar = codec.table_sidecar().render();
        let stable = |transport: &str| {
            format!(
                r#"{{"format":"wam-certify","version":1,"kind":"stable","verdict":"accepts",
                "sidecar":{sidecar},
                "stable":{{"polarity":"accepting","path":{{"start":[1,0],"steps":[]}},
                "members":[[0,1]]{transport}}}}}"#
            )
        };
        let no_consensus = |transport: &str| {
            format!(
                r#"{{"format":"wam-certify","version":1,"kind":"no-consensus",
                "verdict":"no consensus","sidecar":{sidecar},
                "no_consensus":{{"space":[[0,1]]{transport},
                "escape_accepting":["here"],"escape_rejecting":["here"]}}}}"#
            )
        };
        let stable_transport = r#","transport":{"closure":[[[1,0]]],"endpoint":[1,0]}"#;
        let space_transport = r#","transport":{"closure":[[[1,0]]],"initial":[1,0]}"#;
        for (plain, transported) in [
            (stable(""), stable(stable_transport)),
            (no_consensus(""), no_consensus(space_transport)),
        ] {
            let plain: Result<Certificate<Config<bool>>, _> = certificate_from_json(&plain, &codec);
            assert!(plain.is_ok(), "{plain:?}");
            match certificate_from_json::<Config<bool>>(&transported, &codec) {
                Err(CertError::Json(msg)) => assert!(msg.contains("\"transport\""), "{msg}"),
                other => panic!("imported a transported body: {other:?}"),
            }
        }
    }

    #[test]
    fn a_megabyte_string_round_trips() {
        let value = "ab\u{e9}\"\\x".repeat(1 << 18);
        assert!(value.len() >= 1 << 20);
        let doc = Json::Arr(vec![Json::Str(value)]);
        assert_eq!(Json::parse(&doc.render()).unwrap(), doc);
    }

    #[test]
    fn strings_keep_escapes_and_multibyte_characters() {
        let v = Json::parse(r#"["a\"b\\c\u00e9 \u2603 é☃"]"#).unwrap();
        assert_eq!(
            v,
            Json::Arr(vec![Json::Str("a\"b\\c\u{e9} \u{2603} é☃".into())])
        );
        assert!(Json::parse(r#""unterminated"#).is_err());
    }
}
