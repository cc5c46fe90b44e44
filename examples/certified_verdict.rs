//! Certified verdicts: decide a Lemma 4.10 majority instance, receive a
//! machine-checkable certificate alongside the verdict, round-trip it
//! through the engine-free JSON format, and re-verify the import with the
//! independent checker — the full life cycle of a `wam-certify` proof.
//!
//! ```sh
//! cargo run --release --example certified_verdict
//! ```

use weak_async_models::certify::{
    certificate_from_json, certificate_to_json, verify_machine, Decider, DecisionCertificate,
    StateTable,
};
use weak_async_models::core::Backend;
use weak_async_models::extensions::{compile_rendezvous, GraphPopulationProtocol, MajorityState};
use weak_async_models::graph::{generators, LabelCount};

fn main() {
    // 3 nodes labelled `a`, 2 labelled `b` on a cycle: strict majority for
    // `a`. The witness protocol is the 4-state population majority
    // protocol, turned into a plain DAF machine by the Lemma 4.10
    // rendez-vous compilation.
    let count = LabelCount::from_vec(vec![3, 2]);
    let graph = generators::labelled_cycle(&count);
    let machine = compile_rendezvous(&GraphPopulationProtocol::<MajorityState>::majority());

    // The certified decider returns the usual exact verdict *plus* a
    // certificate: a concrete path to a stable configuration and the closed
    // invariant that keeps it stable (or an escape structure / lasso for
    // the other verdict kinds). The explicit backend keeps the witness in
    // node space.
    let decision = Decider::new(&machine, &graph)
        .backend(Backend::Explicit)
        .certified(true)
        .limit(5_000_000)
        .decide()
        .expect("space within limit");
    let verdict = decision.verdict;
    let DecisionCertificate::Node(certificate) = decision.certificate.expect("certified run")
    else {
        unreachable!("the explicit backend emits node-space certificates");
    };
    println!("verdict:     {verdict}");
    println!("certificate: {}", certificate.summary());
    println!(
        "backend:     {:?}, {} configurations explored",
        decision.stats.backend, decision.stats.explored
    );

    // Verification is independent of the exploration engine: it replays
    // the recorded steps through the machine semantics and re-checks the
    // invariant's closure — no interned id spaces, no CSR.
    let checked =
        verify_machine(&machine, &graph, &certificate).expect("emitted certificate must verify");
    assert_eq!(checked, verdict);
    println!("verified:    {checked} (independent checker)");

    // Certificates serialise to a self-contained JSON document; the state
    // table maps the machine's opaque states to stable indices.
    let table = StateTable::from_certificate(&certificate);
    let json = certificate_to_json(&certificate, &table);
    println!("exported:    {} bytes of JSON", json.len());

    // ...and import losslessly: the round-tripped certificate is the same
    // object and verifies again.
    let back = certificate_from_json(&json, &table).expect("import");
    assert_eq!(back, certificate, "round-trip must be lossless");
    let again =
        verify_machine(&machine, &graph, &back).expect("re-imported certificate must verify");
    assert_eq!(again, verdict);
    println!("re-verified: {again} (after JSON round-trip)");
}
