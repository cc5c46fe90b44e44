//! Property tests over request parsing: generated decide, chaos, stats
//! and catalog lines parse to the fields they were built from, and damaged
//! or hostile lines — truncated, byte-flipped, nested too deep, or carrying
//! numbers a double cannot hold as an exact nonnegative integer — are
//! refused as bad requests rather than panicking or half-parsing.

use proptest::prelude::*;
use wam_certify::Json;
use wam_serve::proto::MAX_EXACT_INT;
use wam_serve::{parse_request, ChaosRequest, DecideRequest, Request};

const FAMILIES: [&str; 4] = ["cycle", "line", "star", "clique"];

/// A name over characters that need escaping, and a non-ASCII one.
fn name(picks: &[usize]) -> String {
    picks
        .iter()
        .map(|&i| ['a', '0', '-', '"', '\\', '\n', 'é'][i])
        .collect()
}

/// A JSON string literal, escaped by the service's own codec.
fn lit(s: &str) -> String {
    Json::Str(s.to_string()).render()
}

/// An object of the present `(key, value)` fields, values pre-rendered.
fn object(fields: &[(&str, Option<String>)]) -> String {
    let fields: Vec<String> = fields
        .iter()
        .filter_map(|(k, v)| Some(format!("\"{k}\":{}", v.as_ref()?)))
        .collect();
    format!("{{{}}}", fields.join(","))
}

fn num(n: &u64) -> String {
    n.to_string()
}

fn counts_lit(counts: &[u64]) -> String {
    format!("[{}]", counts.iter().map(num).collect::<Vec<_>>().join(","))
}

/// No id, the largest exact id, or `raw`.
fn id_of(raw: u64, sel: u8) -> Option<u64> {
    [None, Some(MAX_EXACT_INT)]
        .get(sel as usize)
        .copied()
        .unwrap_or(Some(raw))
}

fn decide_line(id: u64, machine: &str, family: &str, counts: &[u64]) -> String {
    object(&[
        ("id", Some(num(&id))),
        ("machine", Some(lit(machine))),
        ("family", Some(lit(family))),
        ("counts", Some(counts_lit(counts))),
    ])
}

proptest! {
    /// Decide lines parse to exactly the fields they were built from.
    #[test]
    fn decide_lines_parse_to_their_fields(
        (raw_id, id_sel, explicit_op) in (0u64..=MAX_EXACT_INT, 0u8..3, 0u8..2),
        machine in prop::collection::vec(0usize..7, 0..12),
        family in 0usize..4,
        counts in prop::collection::vec(0u64..=MAX_EXACT_INT, 0..5),
        (certified, deadline, has_deadline) in (0u8..3, 0u64..=MAX_EXACT_INT, 0u8..2),
    ) {
        let (id, machine) = (id_of(raw_id, id_sel), name(&machine));
        let deadline_ms = (has_deadline == 1).then_some(deadline);
        let line = object(&[
            ("id", id.as_ref().map(num)),
            ("op", (explicit_op == 1).then(|| lit("decide"))),
            ("machine", Some(lit(&machine))),
            ("family", Some(lit(FAMILIES[family]))),
            ("counts", Some(counts_lit(&counts))),
            ("certified", (certified < 2).then(|| (certified == 1).to_string())),
            ("deadline_ms", deadline_ms.as_ref().map(num)),
        ]);
        let family = FAMILIES[family].to_string();
        let certified = certified == 1;
        let want = DecideRequest { id, machine, family, counts, certified, deadline_ms };
        prop_assert_eq!(parse_request(&line).expect("a well-formed line"), Request::Decide(want));
    }

    /// Chaos lines parse to their fields, with the documented defaults for
    /// every absent knob.
    #[test]
    fn chaos_lines_parse_to_their_fields(
        (id_sel, present) in (0u8..3, 0u16..128),
        machine in prop::collection::vec(0usize..7, 1..8),
        (family, seed) in (0usize..4, 0u64..=MAX_EXACT_INT),
        counts in prop::collection::vec(0u64..1_000, 1..4),
        (drop, dup, delay_min, delay_max) in (0u32..101, 0u32..101, 0u64..50, 0u64..50),
        (max_rounds, window) in (0u64..1_000_000, 0u64..1_000),
    ) {
        let (id, machine) = (id_of(seed / 3, id_sel), name(&machine));
        let has = |bit: u16| present & (1 << bit) != 0;
        let (drop_p, dup_p) = (f64::from(drop) / 100.0, f64::from(dup) / 100.0);
        let line = object(&[
            ("id", id.as_ref().map(num)),
            ("op", Some(lit("chaos"))),
            ("machine", Some(lit(&machine))),
            ("family", Some(lit(FAMILIES[family]))),
            ("counts", Some(counts_lit(&counts))),
            ("seed", has(0).then(|| num(&seed))),
            ("drop", has(1).then(|| drop_p.to_string())),
            ("dup", has(2).then(|| dup_p.to_string())),
            ("delay_min", has(3).then(|| num(&delay_min))),
            ("delay_max", has(4).then(|| num(&delay_max))),
            ("max_rounds", has(5).then(|| num(&max_rounds))),
            ("window", has(6).then(|| num(&window))),
        ]);
        let delay_min = if has(3) { delay_min } else { 1 };
        let want = ChaosRequest {
            id,
            machine,
            family: FAMILIES[family].to_string(),
            counts,
            seed: if has(0) { seed } else { 0 },
            drop_p: if has(1) { drop_p } else { 0.0 },
            dup_p: if has(2) { dup_p } else { 0.0 },
            delay: (delay_min, if has(4) { delay_max } else { delay_min }),
            max_rounds: has(5).then_some(max_rounds),
            window: has(6).then_some(window),
        };
        prop_assert_eq!(parse_request(&line).expect("a well-formed line"), Request::Chaos(want));
    }

    /// Stats and catalog lines parse to their op and keep the id exact up
    /// to 2⁵³ − 1.
    #[test]
    fn stats_and_catalog_lines_parse_to_their_id(
        (raw_id, id_sel, catalog) in (0u64..=MAX_EXACT_INT, 0u8..3, 0u8..2),
    ) {
        let id = id_of(raw_id, id_sel);
        let op = if catalog == 1 { "catalog" } else { "stats" };
        let line = object(&[("id", id.as_ref().map(num)), ("op", Some(lit(op)))]);
        let want = if catalog == 1 { Request::Catalog { id } } else { Request::Stats { id } };
        prop_assert_eq!(parse_request(&line).expect("a well-formed line"), want);
    }

    /// No strict prefix of a request line parses: a truncated line is a
    /// bad request, never a partially-read one.
    #[test]
    fn truncated_lines_are_bad_requests(
        (raw_id, family) in (0u64..=MAX_EXACT_INT, 0usize..4),
        machine in prop::collection::vec(0usize..7, 0..6),
        counts in prop::collection::vec(0u64..100, 0..4),
    ) {
        let line = decide_line(raw_id, &name(&machine), FAMILIES[family], &counts);
        for cut in (0..line.len()).filter(|&i| line.is_char_boundary(i)) {
            let err = parse_request(&line[..cut]).expect_err("a strict prefix");
            prop_assert_eq!(err.kind(), "bad-request", "{:?}", &line[..cut]);
        }
    }

    /// Overwriting random bytes never panics: the damaged line parses or
    /// is refused as a bad request.
    #[test]
    fn byte_flips_never_panic(
        raw_id in 0u64..=MAX_EXACT_INT,
        machine in prop::collection::vec(0usize..7, 0..6),
        flips in prop::collection::vec((0usize..4096, 0u8..=255), 1..6),
    ) {
        let mut bytes = decide_line(raw_id, &name(&machine), "cycle", &[2, 1]).into_bytes();
        for (at, byte) in flips {
            let at = at % bytes.len();
            bytes[at] = byte;
        }
        let line = String::from_utf8_lossy(&bytes);
        if let Err(err) = parse_request(&line) {
            prop_assert_eq!(err.kind(), "bad-request", "{:?}", line);
        }
    }

    /// Nesting past the codec's depth cap is refused, with arrays or
    /// objects; shallow nesting in an unknown field is ignored.
    #[test]
    fn nesting_past_the_depth_cap_is_refused(
        (depth, shallow, objects) in (65usize..2_000, 1usize..32, 0u8..2),
    ) {
        let (open, close) = if objects == 1 { ("{\"k\":", "}") } else { ("[", "]") };
        let line = |d: usize| {
            format!(r#"{{"id":1,"op":"stats","x":{}0{}}}"#, open.repeat(d), close.repeat(d))
        };
        let err = parse_request(&line(depth)).expect_err("nested past the cap");
        prop_assert_eq!(err.kind(), "bad-request");
        let ok = parse_request(&line(shallow)).expect("shallow nesting");
        prop_assert_eq!(ok, Request::Stats { id: Some(1) });
    }

    /// Negative, fractional, non-finite and past-2⁵³ numbers are refused
    /// in every integer field, naming the field.
    #[test]
    fn hostile_integers_are_refused_naming_the_field(
        (field, kind, k) in (0usize..6, 0u8..5, 0u64..1_000_000),
    ) {
        let bad = match kind {
            0 => format!("-{}", k + 1),
            1 => format!("{k}.{}", k % 9 + 1),
            2 => num(&(MAX_EXACT_INT + 1 + k)),
            3 => format!("1e{}", 16 + k % 400), // past 1e308 it parses as infinity
            _ => format!("-{k}.5e{}", k % 3),
        };
        let chaos = r#""op":"chaos","machine":"m","family":"cycle","counts":[2,1]"#;
        let decide = r#""machine":"m","family":"cycle""#;
        let (line, name) = [
            (format!(r#"{{"id":{bad},"op":"stats"}}"#), "id"),
            (format!(r#"{{{decide},"counts":[2,{bad}]}}"#), "counts"),
            (format!(r#"{{{decide},"counts":[2,1],"deadline_ms":{bad}}}"#), "deadline_ms"),
            (format!(r#"{{{chaos},"seed":{bad}}}"#), "seed"),
            (format!(r#"{{{chaos},"delay_min":{bad}}}"#), "delay_min"),
            (format!(r#"{{{chaos},"delay_max":{bad}}}"#), "delay_max"),
        ][field].clone();
        let err = parse_request(&line).expect_err("a hostile integer");
        prop_assert_eq!(err.kind(), "bad-request", "{}", line);
        prop_assert!(err.to_string().contains(name), "{}: {}", line, err);
    }
}
