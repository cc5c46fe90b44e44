//! **E1, certified:** every verdict of the Figure-1 witness protocols on
//! the small-graph suite is emitted together with a certificate, checked by
//! the independent verifier, round-tripped through JSON and re-verified.
//! The certified sweeps also run through the shared [`VerdictStore`], so
//! repeated isomorphism classes are served with their cached proofs.

use std::collections::HashMap;
use weak_async_models::analysis::{system_fingerprint, Predicate, VerdictStore};
use weak_async_models::certify::{
    certificate_from_json, certificate_to_json, verify_machine, Certificate, CertifiedVerdict,
    Decider, DecisionCertificate, Polarity, StableCertificate, StateTable,
};
use weak_async_models::core::{
    Backend, Config, ExclusiveSystem, Exploration, Machine, Schedule, State, TransitionSystem,
};
use weak_async_models::extensions::{
    compile_broadcasts, compile_rendezvous, GraphPopulationProtocol, MajorityState,
};
use weak_async_models::graph::generators::Family;
use weak_async_models::graph::{Graph, LabelCount};
use weak_async_models::protocols::{cutoff_one_machine, modulo_protocol, threshold_machine};

/// One certified decision through the [`Decider`], forced onto the
/// explicit backend so every certificate lives in node space (the form
/// [`VerdictStore`] transports between isomorphic graphs). Stability
/// invariants are checked for minimality against the full exploration.
fn certified<S: State>(
    m: &Machine<S>,
    g: &Graph,
    schedule: Schedule,
    limit: usize,
) -> CertifiedVerdict<Config<S>> {
    let d = Decider::new(m, g)
        .schedule(schedule)
        .backend(Backend::Explicit)
        .certified(true)
        .limit(limit)
        .decide()
        .unwrap();
    let certificate = match d.certificate.unwrap() {
        DecisionCertificate::Node(certificate) => certificate,
        other => panic!("explicit backend must emit a node certificate, got {other:?}"),
    };
    let stable: Vec<&StableCertificate<Config<S>>> = match &certificate {
        Certificate::Stable(s) => vec![s],
        Certificate::Inconsistent(acc, rej) => vec![acc, rej],
        _ => vec![],
    };
    if !stable.is_empty() {
        let system = ExclusiveSystem::new(m, g);
        let x = Exploration::explore(&system, limit).unwrap();
        for s in stable {
            assert_bottom_scc(&system, &x, s);
        }
    }
    CertifiedVerdict {
        verdict: d.verdict,
        certificate,
    }
}

/// Whether every index of `adj` is reachable from `from`.
fn covers(adj: &[Vec<usize>], from: usize) -> bool {
    let mut seen = vec![false; adj.len()];
    seen[from] = true;
    let mut stack = vec![from];
    while let Some(i) = stack.pop() {
        for &j in &adj[i] {
            if !seen[j] {
                seen[j] = true;
                stack.push(j);
            }
        }
    }
    seen.into_iter().all(|b| b)
}

/// The invariant of `s` is one strongly connected component under
/// `system`'s successors: the path endpoint reaches every member, and
/// every member reaches the endpoint, inside the member set. It is also no
/// larger than the forward closure of the nearest stably-good
/// configuration of `x`, `system`'s full exploration, found breadth-first
/// from the initial configuration in successor order.
fn assert_bottom_scc<T: TransitionSystem>(
    system: &T,
    x: &Exploration<T::C>,
    s: &StableCertificate<T::C>,
) {
    let members = &s.invariant.members;
    let at: HashMap<&T::C, usize> = members.iter().enumerate().map(|(i, c)| (c, i)).collect();
    let succ: Vec<Vec<usize>> = members
        .iter()
        .map(|c| {
            let next = system.successors(c);
            next.iter()
                .map(|t| *at.get(t).expect("the invariant is closed"))
                .collect()
        })
        .collect();
    let mut pred = vec![Vec::new(); members.len()];
    for (i, row) in succ.iter().enumerate() {
        for &j in row {
            pred[j].push(i);
        }
    }
    let endpoint = s.path.steps.last().map_or(&s.path.start, |step| &step.to);
    let e = at[endpoint];
    assert!(covers(&succ, e), "the endpoint must reach every member");
    assert!(covers(&pred, e), "every member must reach the endpoint");

    let stably = match s.polarity {
        Polarity::Accepting => x.stably_accepting(),
        Polarity::Rejecting => x.stably_rejecting(),
    };
    let mut seen = vec![false; x.len()];
    seen[0] = true;
    let mut queue = std::collections::VecDeque::from([0usize]);
    let nearest = loop {
        let i = queue
            .pop_front()
            .expect("a stably-good configuration is reachable");
        if stably[i] {
            break i;
        }
        for &j in x.successors(i).iter() {
            if !seen[j as usize] {
                seen[j as usize] = true;
                queue.push_back(j as usize);
            }
        }
    };
    let mut closure = vec![false; x.len()];
    closure[nearest] = true;
    let mut stack = vec![nearest];
    while let Some(i) = stack.pop() {
        for &j in x.successors(i).iter() {
            if !closure[j as usize] {
                closure[j as usize] = true;
                stack.push(j as usize);
            }
        }
    }
    let closure = closure.into_iter().filter(|&b| b).count();
    assert!(
        members.len() <= closure,
        "invariant of {} members outgrows the nearest closure of {closure}",
        members.len()
    );
}

fn counts() -> Vec<LabelCount> {
    [(3u64, 0u64), (2, 1), (1, 2), (2, 2), (3, 1)]
        .into_iter()
        .map(|(a, b)| LabelCount::from_vec(vec![a, b]))
        .collect()
}

/// Runs one witness family over the whole grid: every verdict must match
/// the predicate, every certificate must verify (before and after a JSON
/// round-trip), and the store must serve the suite's repeated isomorphism
/// classes from cache.
fn certified_grid<S: State>(
    machine: &Machine<S>,
    pred: &Predicate,
    name: &str,
    mut decide: impl FnMut(&Graph) -> CertifiedVerdict<Config<S>>,
) {
    let memo = VerdictStore::new();
    let fp = system_fingerprint(name);
    for c in counts() {
        for family in [Family::Cycle, Family::Line, Family::Star, Family::Clique] {
            let d = memo.decide_certified(fp, family, &c, &mut decide);
            assert_eq!(
                d.verdict.decided(),
                Some(pred.eval(&c)),
                "{name} on {c}: wrong verdict"
            );
            assert_eq!(d.verdict, d.certificate.verdict());
            // The cached certificate is verified against its *emission*
            // graph (isomorphic to `family`'s graph, possibly differently
            // labelled).
            let v = verify_machine(machine, &d.graph, &d.certificate)
                .unwrap_or_else(|e| panic!("{name} on {c}: verifier rejected: {e}"));
            assert_eq!(v, d.verdict);
            let table = StateTable::from_certificate(&d.certificate);
            let json = certificate_to_json(&d.certificate, &table);
            let back = certificate_from_json(&json, &table)
                .unwrap_or_else(|e| panic!("{name} on {c}: JSON import failed: {e}"));
            assert_eq!(back, *d.certificate, "{name} on {c}: lossy round-trip");
            assert_eq!(verify_machine(machine, &d.graph, &back).unwrap(), d.verdict);
        }
    }
    assert!(
        memo.hits() > 0,
        "{name}: the suite revisits isomorphic graphs, the store must hit"
    );
}

#[test]
fn daf_presence_grid_is_certified_by_lassos() {
    // dAf ⊇ Cutoff(1): the presence machine under round-robin emits lasso
    // certificates (deterministic replay).
    let m = cutoff_one_machine(2, |p| p[1]);
    let pred = Predicate::threshold(2, 1, 1);
    certified_grid(&m, &pred, "dAf-presence", |g| {
        certified(&m, g, Schedule::RoundRobin, 500_000)
    });
}

#[test]
fn daf_ladder_grid_is_certified() {
    // dAF ⊇ Cutoff: the compiled ⟨level⟩ ladder under pseudo-stochastic
    // fairness.
    let flat = compile_broadcasts(&threshold_machine(2, 0, 2));
    let pred = Predicate::threshold(2, 0, 2);
    certified_grid(&flat, &pred, "dAF-ladder", |g| {
        certified(&flat, g, Schedule::PseudoStochastic, 3_000_000)
    });
}

#[test]
fn daf_majority_grid_is_certified() {
    // DAF ⊇ NL: population majority, Lemma 4.10-compiled.
    let flat = compile_rendezvous(&GraphPopulationProtocol::<MajorityState>::majority());
    let pred = Predicate::majority();
    certified_grid(&flat, &pred, "DAF-majority", |g| {
        certified(&flat, g, Schedule::PseudoStochastic, 5_000_000)
    });
}

#[test]
fn daf_parity_grid_is_certified() {
    // DAF: parity — the other NL witness outside Cutoff.
    let flat = compile_rendezvous(&modulo_protocol(vec![1, 0], 2, 1));
    let pred = Predicate::modulo(vec![1, 0], 2, 1);
    certified_grid(&flat, &pred, "DAF-parity", |g| {
        certified(&flat, g, Schedule::PseudoStochastic, 5_000_000)
    });
}
