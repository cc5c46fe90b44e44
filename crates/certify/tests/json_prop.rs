//! Property tests over certificate JSON import: certificates of every kind
//! that the `Decider` emits on small random instances round-trip
//! byte-identically, and damaged documents — truncated, byte-flipped,
//! nested too deep, or carrying out-of-range numbers — are refused with an
//! error rather than a panic or a half-decoded certificate.

use proptest::prelude::*;
use std::collections::BTreeSet;
use std::fmt::Debug;
use wam_certify::{
    certificate_from_json, certificate_to_json, CertError, Certificate, ConfigCodec, Decider,
    DecisionCertificate, Json, StateTable,
};
use wam_core::{Backend, Machine, Output, Schedule, State, Verdict};
use wam_graph::{generators, Graph, LabelCount};

/// "Some node carries label x1", by flag flooding: stable certificates.
fn flood() -> Machine<bool> {
    Machine::new(
        1,
        |l| l.0 == 1,
        |&s, n| s || n.exists(|&t| t),
        |&s| if s { Output::Accept } else { Output::Reject },
    )
}

/// Every node toggles forever: no-consensus certificates.
fn toggler() -> Machine<bool> {
    Machine::new(
        1,
        |_| false,
        |&s, _| !s,
        |&s| if s { Output::Accept } else { Output::Reject },
    )
}

/// The first mover's label decides the flooded consensus: inconsistent
/// certificates on mixed labels.
fn first_mover() -> Machine<u8> {
    Machine::new(
        1,
        |l| if l.0 == 0 { 10u8 } else { 20u8 },
        |&s, n| match s {
            10 | 20 if n.exists(|&t| t == 1) => 1,
            10 | 20 if n.exists(|&t| t == 2) => 2,
            10 => 1,
            20 => 2,
            s => s,
        },
        |&s| match s {
            1 => Output::Accept,
            2 => Output::Reject,
            _ => Output::Neutral,
        },
    )
}

/// What importing a document and verifying the import gave.
type Checked = Result<Result<Verdict, CertError>, CertError>;

/// An exported certificate: its document, verdict, representation and
/// kind, and a checker that imports a document with the codec it was
/// exported with and verifies the import against its machine and graph.
struct Doc {
    json: String,
    verdict: Verdict,
    repr: &'static str,
    kind: &'static str,
    check: Box<dyn Fn(&str) -> Checked>,
}

impl Doc {
    fn import(&self, text: &str) -> Result<(), CertError> {
        (self.check)(text).map(|_| ())
    }
}

/// Exports `cert`, checks that importing is lossless and that re-exporting
/// the import reproduces the document byte for byte.
fn doc<S, C, K>(
    m: &Machine<S>,
    g: &Graph,
    repr: &'static str,
    wrap: fn(Certificate<C>) -> DecisionCertificate<S>,
    cert: &Certificate<C>,
    codec: K,
) -> Doc
where
    S: State,
    C: PartialEq + Debug + 'static,
    K: ConfigCodec<C> + 'static,
{
    let json = certificate_to_json(cert, &codec);
    let back = certificate_from_json(&json, &codec).expect("an export must import");
    assert_eq!(&back, cert, "import must be lossless");
    assert_eq!(
        certificate_to_json(&back, &codec),
        json,
        "re-export must be byte-identical"
    );
    let (m, g) = (m.clone(), g.clone());
    Doc {
        json,
        verdict: cert.verdict(),
        repr,
        kind: cert.kind(),
        check: Box::new(move |text| {
            certificate_from_json(text, &codec).map(|c| wrap(c).verify(&m, &g))
        }),
    }
}

/// The certified decision of `m` on `g`, exported; `None` where the
/// backend refuses the graph.
fn decided<S: State>(
    m: &Machine<S>,
    g: &Graph,
    schedule: Schedule,
    backend: Backend,
) -> Option<Doc> {
    let d = Decider::new(m, g)
        .schedule(schedule)
        .backend(backend)
        .certified(true)
        .limit(100_000)
        .decide()
        .ok()?;
    Some(match d.certificate.expect("certified run") {
        DecisionCertificate::Node(c) => doc(
            m,
            g,
            "node",
            DecisionCertificate::Node,
            &c,
            StateTable::from_certificate(&c),
        ),
        DecisionCertificate::Counter(c) => doc(
            m,
            g,
            "counter",
            DecisionCertificate::Counter,
            &c,
            StateTable::from_counter_certificate(&c),
        ),
        DecisionCertificate::Ring(c) => doc(
            m,
            g,
            "ring",
            DecisionCertificate::Ring,
            &c,
            StateTable::from_ring_certificate(&c),
        ),
    })
}

/// One small instance, picked by the sampled indices.
fn instance(
    machine: usize,
    shape: usize,
    counts: (u64, u64),
    schedule: usize,
    backend: usize,
) -> Option<Doc> {
    let c = LabelCount::from_vec(vec![counts.0, counts.1]);
    let g = match shape {
        0 => generators::labelled_cycle(&c),
        1 => generators::labelled_line(&c),
        2 => generators::labelled_star(&c),
        _ => generators::labelled_clique(&c),
    };
    let schedule = [
        Schedule::PseudoStochastic,
        Schedule::RoundRobin,
        Schedule::Synchronous,
    ][schedule];
    let backend = [Backend::Auto, Backend::Explicit, Backend::Counter][backend];
    match machine {
        0 => decided(&flood(), &g, schedule, backend),
        1 => decided(&toggler(), &g, schedule, backend),
        _ => decided(&first_mover(), &g, schedule, backend),
    }
}

/// Replaces the number right after the first `key` (skipping opening
/// brackets) with `value`; `None` if the document has no such key.
fn replace_number_after(json: &str, key: &str, value: &str) -> Option<String> {
    let at = json.find(key)? + key.len();
    let start = at + json[at..].find(|c: char| c != '[')?;
    let len = json[start..].find(|c: char| !matches!(c, '0'..='9' | '-' | '.' | 'e'))?;
    Some(format!("{}{value}{}", &json[..start], &json[start + len..]))
}

const BAD_NUMBERS: [&str; 7] = [
    "-1",
    "0.5",
    "-0.5",
    "4294967296",
    "1e300",
    "1e999",
    "-1e999",
];

/// Keys whose value starts with a number: configurations (`start`,
/// `members`, `space`, `entry`), selections (`choice`, `node`), escape
/// pointers (`via`) and lasso lengths (`stem_len`, `cycle_len`).
const NUMBER_KEYS: [&str; 9] = [
    "\"start\":",
    "\"members\":",
    "\"space\":",
    "\"entry\":",
    "\"choice\":",
    "\"node\":",
    "\"via\":",
    "\"stem_len\":",
    "\"cycle_len\":",
];

/// Replacement bytes for the flip property: JSON syntax, digits, letters
/// and a byte that is never valid UTF-8 on its own.
const FLIP_BYTES: &[u8] = b"0123456789,:[]{}\"-.e axyz\xff";

/// The parser's nesting cap.
const MAX_DEPTH: usize = 64;

#[test]
fn every_kind_and_representation_round_trips() {
    let mut seen = BTreeSet::new();
    for machine in 0..3 {
        for shape in 0..4 {
            for schedule in 0..3 {
                for backend in 0..3 {
                    // Five nodes: the smallest cycle without twins.
                    if let Some(d) = instance(machine, shape, (4, 1), schedule, backend) {
                        seen.insert((d.repr, d.kind));
                    }
                }
            }
        }
    }
    for kind in ["stable", "inconsistent", "no-consensus", "lasso"] {
        assert!(seen.contains(&("node", kind)), "no node {kind} certificate");
    }
    for repr in ["counter", "ring"] {
        for kind in ["stable", "inconsistent", "no-consensus"] {
            assert!(seen.contains(&(repr, kind)), "no {repr} {kind} certificate");
        }
    }
}

#[test]
fn nesting_past_the_cap_is_refused() {
    let d = instance(0, 0, (2, 1), 0, 1).expect("flood decides on a cycle");
    // An unknown top-level key, which import would otherwise ignore.
    let nested = |depth: usize| {
        d.json.replacen(
            '{',
            &format!("{{\"deep\":{}{},", "[".repeat(depth), "]".repeat(depth)),
            1,
        )
    };
    assert!(d.import(&nested(MAX_DEPTH - 1)).is_ok());
    assert!(matches!(
        d.import(&nested(MAX_DEPTH)),
        Err(CertError::Json(_))
    ));
}

#[test]
fn lasso_documents_with_a_cycle_are_refused() {
    // Flooding on a round-robin cycle: a lasso certificate.
    let d = instance(0, 0, (2, 1), 1, 0).expect("flood decides on a cycle");
    let doc = Json::parse(&d.json).expect("an export parses");
    let Some(Json::Obj(lasso)) = doc.get("lasso") else {
        panic!("a lasso document has a lasso body");
    };
    let entry = lasso.iter().find(|(k, _)| k == "entry").unwrap().1.clone();
    let cycle = ("cycle".to_string(), Json::Arr(vec![entry; 3]));
    // The cycle next to `entry` and `cycle_len`, and in their place.
    let mut both = lasso.clone();
    both.push(cycle.clone());
    let mut old = lasso.clone();
    old.retain(|(k, _)| k != "entry" && k != "cycle_len");
    old.push(cycle);
    let body = Json::Obj(lasso.clone()).render();
    assert!(d.json.contains(&body) && d.import(&d.json).is_ok());
    for damaged in [both, old] {
        let text = d.json.replacen(&body, &Json::Obj(damaged).render(), 1);
        assert!(
            matches!(d.import(&text), Err(CertError::Json(_))),
            "imported a lasso body carrying a cycle: {text}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Every certificate the `Decider` emits on a small instance survives
    /// export → import → export unchanged (checked inside `doc`).
    #[test]
    fn decided_certificates_round_trip_byte_identically(
        machine in 0usize..3,
        shape in 0usize..4,
        counts in (1u64..4, 0u64..3),
        schedule in 0usize..3,
        backend in 0usize..3,
    ) {
        prop_assume!(counts.0 + counts.1 >= 3);
        if let Some(d) = instance(machine, shape, counts, schedule, backend) {
            prop_assert!(d.json.starts_with('{') && d.json.ends_with('}'));
        }
    }

    /// No strict prefix of a document imports.
    #[test]
    fn every_truncation_is_refused(
        machine in 0usize..3,
        shape in 0usize..4,
        counts in (1u64..3, 0u64..3),
        schedule in 0usize..3,
        backend in 0usize..3,
    ) {
        prop_assume!(counts.0 + counts.1 >= 3);
        let Some(d) = instance(machine, shape, counts, schedule, backend) else {
            return;
        };
        for cut in (0..d.json.len()).filter(|&i| d.json.is_char_boundary(i)) {
            prop_assert!(
                d.import(&d.json[..cut]).is_err(),
                "imported a prefix of {} bytes",
                cut
            );
        }
    }

    /// Overwriting bytes panics neither the importer nor the verifier, and
    /// a damaged document that still imports and verifies proves the
    /// original verdict: damage can hit a number or the sidecar's unread
    /// `encoding` name, but can never make the checker accept a wrong
    /// claim.
    #[test]
    fn byte_flips_never_panic_or_prove_a_wrong_verdict(
        machine in 0usize..3,
        shape in 0usize..4,
        counts in (1u64..4, 0u64..3),
        schedule in 0usize..3,
        backend in 0usize..3,
        flips in prop::collection::vec((0usize..1 << 16, 0usize..FLIP_BYTES.len()), 1..32),
    ) {
        prop_assume!(counts.0 + counts.1 >= 3);
        let Some(d) = instance(machine, shape, counts, schedule, backend) else {
            return;
        };
        let mut all = d.json.clone().into_bytes();
        let mut damaged = Vec::new();
        for &(at, b) in &flips {
            let mut one = d.json.clone().into_bytes();
            let i = at % one.len();
            one[i] = FLIP_BYTES[b];
            all[i] = FLIP_BYTES[b];
            damaged.push(one);
        }
        damaged.push(all);
        // Import takes text: bytes that are no longer UTF-8 never reach it.
        for text in damaged.into_iter().filter_map(|b| String::from_utf8(b).ok()) {
            if let Ok(Ok(v)) = (d.check)(&text) {
                prop_assert_eq!(v, d.verdict, "damaged document verified: {}", text);
            }
        }
    }

    /// Numbers outside `0..=u32::MAX`, negative or fractional, are refused
    /// wherever a certificate stores a configuration entry, a choice, a
    /// node or an escape pointer.
    #[test]
    fn out_of_range_numbers_are_refused(
        machine in 0usize..3,
        shape in 0usize..4,
        counts in (1u64..4, 0u64..3),
        schedule in 0usize..3,
        backend in 0usize..3,
        bad in 0usize..BAD_NUMBERS.len(),
    ) {
        prop_assume!(counts.0 + counts.1 >= 3);
        let Some(d) = instance(machine, shape, counts, schedule, backend) else {
            return;
        };
        for key in NUMBER_KEYS {
            if let Some(damaged) = replace_number_after(&d.json, key, BAD_NUMBERS[bad]) {
                prop_assert!(
                    matches!(d.import(&damaged), Err(CertError::Json(_))),
                    "imported {} after {}",
                    BAD_NUMBERS[bad],
                    key
                );
            }
        }
    }
}
