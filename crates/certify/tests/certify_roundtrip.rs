//! End-to-end exercises of the certificate subsystem on small machines:
//! every verdict kind is emitted, independently verified, round-tripped
//! through JSON and re-verified.

use wam_certify::{
    certificate_from_json, certificate_to_json, certify_exploration, verify_machine, verify_system,
    Certificate, Decider, DecisionCertificate, StateTable,
};
use wam_core::{Backend, ExclusiveSystem, Exploration, Machine, Output, State, Verdict};
use wam_graph::{generators, Graph, Label, LabelCount};

/// "Some node carries label x1", by flag flooding.
fn flood() -> Machine<bool> {
    Machine::new(
        1,
        |l: Label| l.0 == 1,
        |&s, n| s || n.exists(|&t| t),
        |&s| if s { Output::Accept } else { Output::Reject },
    )
}

/// Never stabilises: every node toggles forever.
fn toggler() -> Machine<bool> {
    Machine::new(
        1,
        |_| false,
        |&s, _| !s,
        |&s| if s { Output::Accept } else { Output::Reject },
    )
}

/// First mover's label decides the (flooding) consensus — inconsistent on
/// mixed-label inputs (same machine as the explore test suite uses).
fn first_mover_by_label() -> Machine<u8> {
    Machine::new(
        1,
        |l| if l.0 == 0 { 10u8 } else { 20u8 },
        |&s, n| {
            if s >= 10 {
                if n.exists(|&t| t == 1) {
                    1
                } else if n.exists(|&t| t == 2) {
                    2
                } else if s == 10 {
                    1
                } else {
                    2
                }
            } else {
                s
            }
        },
        |&s| match s {
            1 => Output::Accept,
            2 => Output::Reject,
            _ => Output::Neutral,
        },
    )
}

/// Runs a certified explicit-backend decision and unwraps its node-space
/// certificate (the explicit backend always emits one).
fn certified_node<S: State>(
    m: &Machine<S>,
    g: &Graph,
    limit: usize,
) -> (Verdict, Certificate<wam_core::Config<S>>) {
    let d = Decider::new(m, g)
        .backend(Backend::Explicit)
        .certified(true)
        .limit(limit)
        .decide()
        .unwrap();
    match d.certificate.unwrap() {
        DecisionCertificate::Node(cert) => (d.verdict, cert),
        other => panic!("explicit backend must emit a node certificate, got {other:?}"),
    }
}

fn roundtrip_machine<S: State>(
    m: &Machine<S>,
    cert: &Certificate<wam_core::Config<S>>,
    g: &Graph,
    expected: Verdict,
) {
    let table = StateTable::from_certificate(cert);
    let json = certificate_to_json(cert, &table);
    let back = certificate_from_json(&json, &table).expect("JSON import");
    assert_eq!(back, *cert, "JSON round-trip must be lossless");
    assert_eq!(verify_machine(m, g, &back).expect("re-verify"), expected);
}

#[test]
fn stable_accept_and_reject_certificates_verify() {
    let m = flood();
    for (counts, expected) in [
        (vec![3u64, 1], Verdict::Accepts),
        (vec![4, 0], Verdict::Rejects),
    ] {
        let g = generators::labelled_cycle(&LabelCount::from_vec(counts));
        let (verdict, cert) = certified_node(&m, &g, 100_000);
        assert_eq!(verdict, expected);
        assert_eq!(verdict, cert.verdict());
        let plain = Decider::new(&m, &g).limit(100_000).decide().unwrap();
        assert_eq!(
            plain.verdict, verdict,
            "certified and plain deciders must agree"
        );
        let v = verify_machine(&m, &g, &cert).unwrap();
        assert_eq!(v, expected);
        roundtrip_machine(&m, &cert, &g, expected);
    }
}

#[test]
fn no_consensus_certificate_verifies() {
    let m = toggler();
    let g = generators::cycle(3);
    let (verdict, cert) = certified_node(&m, &g, 100_000);
    assert_eq!(verdict, Verdict::NoConsensus);
    roundtrip_machine(&m, &cert, &g, Verdict::NoConsensus);
}

#[test]
fn inconsistent_certificate_verifies() {
    let m = first_mover_by_label();
    let g = generators::labelled_cycle(&LabelCount::from_vec(vec![2, 2]));
    let (verdict, cert) = certified_node(&m, &g, 100_000);
    assert_eq!(verdict, Verdict::Inconsistent);
    let table = StateTable::from_certificate(&cert);
    let json = certificate_to_json(&cert, &table);
    let back = certificate_from_json(&json, &table).unwrap();
    assert_eq!(back, cert);
    assert_eq!(
        verify_machine(&m, &g, &back).unwrap(),
        Verdict::Inconsistent
    );
}

/// Runs a certified lasso-schedule decision and unwraps its certificate.
fn certified_lasso<S: State>(
    m: &Machine<S>,
    g: &Graph,
    schedule: wam_core::Schedule,
) -> (Verdict, Certificate<wam_core::Config<S>>) {
    let d = Decider::new(m, g)
        .schedule(schedule)
        .certified(true)
        .limit(100_000)
        .decide()
        .unwrap();
    match d.certificate.unwrap() {
        DecisionCertificate::Node(cert) => (d.verdict, cert),
        other => panic!("lasso schedules must emit a node certificate, got {other:?}"),
    }
}

#[test]
fn lasso_certificates_verify_for_both_schedules() {
    let m = flood();
    let g = generators::labelled_cycle(&LabelCount::from_vec(vec![3, 1]));
    let (rr_verdict, rr_cert) = certified_lasso(&m, &g, wam_core::Schedule::RoundRobin);
    assert_eq!(rr_verdict, Verdict::Accepts);
    roundtrip_machine(&m, &rr_cert, &g, Verdict::Accepts);
    let (sy_verdict, sy_cert) = certified_lasso(&m, &g, wam_core::Schedule::Synchronous);
    assert_eq!(sy_verdict, Verdict::Accepts);
    roundtrip_machine(&m, &sy_cert, &g, Verdict::Accepts);
    // The toggler has a no-consensus synchronous lasso.
    let t = toggler();
    let g3 = generators::cycle(3);
    let (nc_verdict, nc_cert) = certified_lasso(&t, &g3, wam_core::Schedule::Synchronous);
    assert_eq!(nc_verdict, Verdict::NoConsensus);
    roundtrip_machine(&t, &nc_cert, &g3, Verdict::NoConsensus);
}

#[test]
fn generic_system_certificates_verify_without_a_graph() {
    let m = flood();
    let g = generators::labelled_line(&LabelCount::from_vec(vec![2, 1]));
    let sys = ExclusiveSystem::new(&m, &g);
    let e = Exploration::explore(&sys, 100_000).unwrap();
    let out = certify_exploration(&sys, &e);
    assert_eq!(out.verdict, Verdict::Accepts);
    // Choice-selection certificates need no graph — the fully generic
    // entry point suffices.
    assert_eq!(verify_system(&sys, &out.certificate).unwrap(), out.verdict);
}

#[test]
fn generic_emitters_verify_and_match_the_decider() {
    let mixed = LabelCount::from_vec(vec![3, 1]);
    let uniform = LabelCount::from_vec(vec![4]);
    for m in [flood(), toggler()] {
        for g in [
            generators::labelled_cycle(&mixed),
            generators::labelled_clique(&mixed),
            generators::labelled_star(&mixed),
            generators::labelled_line(&mixed),
            generators::labelled_cycle(&uniform),
        ] {
            let sys = ExclusiveSystem::new(&m, &g);
            let e = Exploration::explore(&sys, 200_000).unwrap();
            let full = certify_exploration(&sys, &e);
            let decided = Decider::new(&m, &g).backend(Backend::Explicit).decide();
            assert_eq!(full.verdict, decided.unwrap().verdict, "{g:?}");
            assert_eq!(
                verify_system(&sys, &full.certificate).unwrap(),
                full.verdict
            );
        }
    }
}

#[test]
fn counter_and_ring_certificates_roundtrip_through_json() {
    let m = flood();
    for g in [
        generators::labelled_clique(&LabelCount::from_vec(vec![3, 1])),
        generators::labelled_cycle(&LabelCount::from_vec(vec![4, 1])),
    ] {
        let d = Decider::new(&m, &g)
            .backend(Backend::Counter)
            .certified(true)
            .limit(100_000)
            .decide()
            .unwrap();
        let cert = d.certificate.unwrap();
        assert_eq!(cert.verify(&m, &g).unwrap(), d.verdict);
        // Abstract certificates round-trip through JSON like node ones.
        match &cert {
            DecisionCertificate::Counter(c) => {
                let sys = wam_core::CounterSystem::new(&m, &g).unwrap();
                let table = StateTable::from_counter_certificate(c);
                let json = certificate_to_json(c, &table);
                let back = certificate_from_json(&json, &table).expect("JSON import");
                assert_eq!(back, *c);
                assert_eq!(verify_system(&sys, &back).unwrap(), d.verdict);
            }
            DecisionCertificate::Ring(c) => {
                let sys = wam_core::RingSystem::new(&m, &g).unwrap();
                let table = StateTable::from_ring_certificate(c);
                let json = certificate_to_json(c, &table);
                let back = certificate_from_json(&json, &table).expect("JSON import");
                assert_eq!(back, *c);
                assert_eq!(verify_system(&sys, &back).unwrap(), d.verdict);
            }
            DecisionCertificate::Node(_) => panic!("counter backend emitted a node certificate"),
        }
    }
}

#[test]
fn certificate_summaries_mention_kind_and_sizes() {
    let m = flood();
    let g = generators::labelled_cycle(&LabelCount::from_vec(vec![3, 1]));
    let (_, stable) = certified_node(&m, &g, 100_000);
    assert!(stable.summary().contains("stable"));
    let (_, lasso) = certified_lasso(&m, &g, wam_core::Schedule::Synchronous);
    assert!(lasso.summary().contains("lasso"));
    assert!(stable.config_count() >= 2);
}

#[test]
fn json_import_rejects_malformed_and_mismatched_documents() {
    let m = flood();
    let g = generators::labelled_cycle(&LabelCount::from_vec(vec![3, 1]));
    let (_, cert) = certified_node(&m, &g, 100_000);
    let table = StateTable::from_certificate(&cert);
    let json = certificate_to_json(&cert, &table);
    // Malformed syntax.
    for bad in ["", "{", "{\"a\": 1,}", "[1, 2", "\"unterminated"] {
        assert!(certificate_from_json::<wam_core::Config<bool>>(bad, &table).is_err());
    }
    // Wrong format tag.
    assert!(certificate_from_json::<wam_core::Config<bool>>(
        &json.replacen("wam-certify", "not-certify", 1),
        &table
    )
    .is_err());
    // Verdict flipped at the document level must be caught at import.
    let flipped = json.replacen("\"accepts\"", "\"rejects\"", 1);
    assert!(certificate_from_json::<wam_core::Config<bool>>(&flipped, &table).is_err());
}
