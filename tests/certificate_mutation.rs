//! Adversarial mutation testing of the certificate verifier: corrupt valid
//! certificates in targeted ways and check that the independent verifier
//! rejects every corruption — or, where a mutation can accidentally produce
//! another *genuinely valid* witness (dropping a path step may leave a
//! shortcut the semantics really allows), re-establish validity by direct
//! re-execution in the test itself, without trusting the verifier.

use proptest::prelude::*;
use weak_async_models::certify::{
    certificate_from_json, certificate_to_json, verify_machine, Certificate, Decider,
    DecisionCertificate, Json, LassoCertificate, Polarity, StateTable, StepSelection,
};
use weak_async_models::core::{
    Backend, Config, CounterConfig, Machine, Output, Schedule, Selection, State, Verdict,
};
use weak_async_models::graph::{generators, Graph, LabelCount};

/// "Some node carries label x1", by flag flooding.
fn flood() -> Machine<bool> {
    Machine::new(
        1,
        |l| l.0 == 1,
        |&s, n| s || n.exists(|&t| t),
        |&s| if s { Output::Accept } else { Output::Reject },
    )
}

fn verify<S: State>(
    m: &Machine<S>,
    g: &Graph,
    cert: &Certificate<Config<S>>,
) -> Result<Verdict, String> {
    verify_machine(m, g, cert).map_err(|e| e.to_string())
}

/// Emits a node-space certificate to mutate: the explicit backend always
/// produces one, and the lasso schedules ignore the backend.
fn certified<S: State>(
    m: &Machine<S>,
    g: &Graph,
    schedule: Schedule,
) -> (Verdict, Certificate<Config<S>>) {
    let d = Decider::new(m, g)
        .schedule(schedule)
        .backend(Backend::Explicit)
        .certified(true)
        .limit(200_000)
        .decide()
        .unwrap();
    match d.certificate.unwrap() {
        DecisionCertificate::Node(cert) => (d.verdict, cert),
        other => panic!("expected a node certificate, got {other:?}"),
    }
}

/// Flag flooding with a mod-3 clock on every node: a round-robin lasso
/// cycles through three rounds, so its length is not the period.
fn clocked_flood() -> Machine<(bool, u8)> {
    Machine::new(
        1,
        |l| (l.0 == 1, 0),
        |&(f, p), n| (f || n.exists(|t| t.0), (p + 1) % 3),
        |&(f, _)| if f { Output::Accept } else { Output::Reject },
    )
}

/// Flag flooding over `u8` states: label-1 nodes start in `flag`, the
/// others in 0, and a 0 node takes `flag` from a flagged neighbour. Two
/// flags give certificates over state tables of one length but different
/// states.
fn flood_with(flag: u8) -> Machine<u8> {
    Machine::new(
        1,
        move |l| if l.0 == 1 { flag } else { 0 },
        move |&s, n| {
            if s == 0 && n.exists(|&t| t != 0) {
                flag
            } else {
                s
            }
        },
        |&s| {
            if s != 0 {
                Output::Accept
            } else {
                Output::Reject
            }
        },
    )
}

/// The counter certificate of `flood_with(flag)` on a labelled clique,
/// with the state table built from it.
fn counter_certificate(flag: u8) -> (String, StateTable<u8>) {
    let m = flood_with(flag);
    let g = generators::labelled_clique(&LabelCount::from_vec(vec![2, 1]));
    let d = Decider::new(&m, &g)
        .backend(Backend::Counter)
        .certified(true)
        .limit(100_000)
        .decide()
        .unwrap();
    let DecisionCertificate::Counter(cert) = d.certificate.unwrap() else {
        panic!("the counter backend emits counter certificates on cliques");
    };
    let table = StateTable::from_counter_certificate(&cert);
    (certificate_to_json(&cert, &table), table)
}

/// Imports a counter certificate through `table`.
fn import(json: &str, table: &StateTable<u8>) -> Result<Certificate<CounterConfig<u8>>, String> {
    certificate_from_json(json, table).map_err(|e| e.to_string())
}

#[test]
fn counter_certificate_under_a_foreign_table_is_refused() {
    let (json, own) = counter_certificate(1);
    let (_, foreign) = counter_certificate(2);
    assert_eq!(own.states(), [0, 1]);
    assert_eq!(foreign.states(), [0, 2]);
    assert!(import(&json, &own).is_ok());
    // Both tables have two states, so every index is in range and only
    // the sidecar's digest of the states tells them apart.
    assert!(
        import(&json, &foreign).is_err(),
        "a counter certificate must not import under a foreign table"
    );
    // Cutting the sidecar out must not smuggle the document past that
    // check: a table codec refuses a document without one, under either
    // table.
    let Some(Json::Obj(fields)) = Json::parse(&json).ok() else {
        panic!("an export is a JSON object");
    };
    let stripped = Json::Obj(fields.into_iter().filter(|(k, _)| k != "sidecar").collect());
    let stripped = stripped.render();
    assert!(!stripped.contains("sidecar"));
    for table in [&own, &foreign] {
        assert!(
            import(&stripped, table).is_err(),
            "a certificate without its sidecar must not import"
        );
    }
}

/// Replays one recorded step by direct machine semantics — the test's own
/// ground truth, independent of the verifier's implementation.
fn direct_step(
    m: &Machine<bool>,
    g: &Graph,
    c: &Config<bool>,
    sel: &StepSelection,
) -> Config<bool> {
    match sel {
        StepSelection::Node(v) => c.successor(m, g, &Selection::exclusive(*v as usize)),
        StepSelection::All => c.successor(m, g, &Selection::all(g)),
        StepSelection::Choice(_) => panic!("machine-level certificates use node selections"),
    }
}

/// Whether `path` is genuinely valid by direct re-execution.
fn path_replays(m: &Machine<bool>, g: &Graph, cert: &Certificate<Config<bool>>) -> bool {
    let Certificate::Stable(s) = cert else {
        return false;
    };
    let mut cur = s.path.start.clone();
    for step in &s.path.steps {
        cur = direct_step(m, g, &cur, &step.selection);
        if cur != step.to {
            return false;
        }
    }
    true
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 16, ..ProptestConfig::default()
    })]

    #[test]
    fn flipped_polarity_is_rejected(a in 1u64..4, b in 1u64..3) {
        prop_assume!(a + b >= 3);
        let m = flood();
        let g = generators::labelled_cycle(&LabelCount::from_vec(vec![a, b]));
        let (_, out_certificate) = certified(&m, &g, Schedule::PseudoStochastic);
        let Certificate::Stable(mut s) = out_certificate else {
            panic!("flood on mixed labels yields a stable certificate");
        };
        s.polarity = match s.polarity {
            Polarity::Accepting => Polarity::Rejecting,
            Polarity::Rejecting => Polarity::Accepting,
        };
        prop_assert!(
            verify(&m, &g, &Certificate::Stable(s)).is_err(),
            "a flipped polarity must never verify"
        );
    }

    #[test]
    fn removed_invariant_member_is_rejected(
        a in 1u64..4,
        b in 1u64..3,
        pick in 0usize..64,
    ) {
        prop_assume!(a + b >= 3);
        let m = flood();
        let g = generators::labelled_cycle(&LabelCount::from_vec(vec![a, b]));
        let (_, out_certificate) = certified(&m, &g, Schedule::PseudoStochastic);
        let Certificate::Stable(mut s) = out_certificate else {
            panic!("expected a stable certificate");
        };
        let i = pick % s.invariant.members.len();
        s.invariant.members.remove(i);
        // The emitted invariant is one strongly connected component that
        // holds the endpoint, so every member is either the endpoint
        // itself or the target of a closure edge from another member:
        // removal must break the emptiness check, the endpoint check or
        // the closure check.
        prop_assert!(
            verify(&m, &g, &Certificate::Stable(s)).is_err(),
            "removing any invariant member must break closure"
        );
    }

    #[test]
    fn corrupted_path_config_is_rejected(
        a in 1u64..4,
        b in 1u64..3,
        step_pick in 0usize..64,
        node_pick in 0usize..64,
    ) {
        prop_assume!(a + b >= 3);
        let m = flood();
        let g = generators::labelled_cycle(&LabelCount::from_vec(vec![a, b]));
        let (_, out_certificate) = certified(&m, &g, Schedule::PseudoStochastic);
        let Certificate::Stable(mut s) = out_certificate else {
            panic!("expected a stable certificate");
        };
        prop_assume!(!s.path.steps.is_empty());
        let i = step_pick % s.path.steps.len();
        let v = node_pick % g.node_count();
        // Flip one node's state in a recorded intermediate configuration:
        // the recorded selection derives a unique successor, so any flip
        // diverges from it.
        let mut states = s.path.steps[i].to.states().to_vec();
        states[v] = !states[v];
        s.path.steps[i].to = Config::from_states(states);
        prop_assert!(
            verify(&m, &g, &Certificate::Stable(s)).is_err(),
            "a corrupted path configuration must never verify"
        );
    }

    #[test]
    fn dropped_path_step_is_rejected_or_genuinely_valid(
        a in 1u64..4,
        b in 1u64..3,
        step_pick in 0usize..64,
    ) {
        prop_assume!(a + b >= 3);
        let m = flood();
        let g = generators::labelled_cycle(&LabelCount::from_vec(vec![a, b]));
        let (out_verdict, out_certificate) = certified(&m, &g, Schedule::PseudoStochastic);
        let Certificate::Stable(mut s) = out_certificate else {
            panic!("expected a stable certificate");
        };
        prop_assume!(!s.path.steps.is_empty());
        let i = step_pick % s.path.steps.len();
        s.path.steps.remove(i);
        let mutated = Certificate::Stable(s);
        // Rejection is always sound here: even when the shortened path
        // still replays (dropping the *last* step does that), the endpoint
        // moved away from the invariant, which the verifier is right to
        // refuse. Dropping a step may instead leave a shortcut the
        // semantics genuinely allows (the skipped node's update was
        // independent); in that case re-execution in the test must agree
        // with the verifier.
        if let Ok(v) = verify(&m, &g, &mutated) {
            prop_assert_eq!(v, out_verdict);
            prop_assert!(
                path_replays(&m, &g, &mutated),
                "verifier accepted a path that direct replay refutes"
            );
        }
    }

    #[test]
    fn flipped_lasso_verdict_is_rejected(a in 1u64..4, b in 0u64..3) {
        prop_assume!(a + b >= 3);
        let m = flood();
        let g = generators::labelled_cycle(&LabelCount::from_vec(vec![a, b]));
        let (_, out_certificate) = certified(&m, &g, Schedule::Synchronous);
        let Certificate::Lasso(mut l) = out_certificate else {
            panic!("synchronous decider emits lasso certificates");
        };
        l.verdict = match l.verdict {
            Verdict::Accepts => Verdict::Rejects,
            _ => Verdict::Accepts,
        };
        prop_assert!(
            verify(&m, &g, &Certificate::Lasso(l)).is_err(),
            "a flipped lasso verdict must never verify"
        );
    }

    /// A lasso certificate is its entry configuration and two lengths;
    /// the verifier must refuse a stem one step short, a cycle one period
    /// short or twice as long (the run is back at the entry halfway), an
    /// entry with one node's clock moved, and the opposite verdict.
    #[test]
    fn mutated_lasso_lengths_and_entries_are_rejected(
        a in 1u64..4,
        b in 0u64..3,
        shape in 0usize..2,
        schedule in 0usize..2,
        node in 0usize..7,
    ) {
        prop_assume!(a + b >= 3);
        let m = clocked_flood();
        let c = LabelCount::from_vec(vec![a, b]);
        let g = if shape == 0 {
            generators::labelled_line(&c)
        } else {
            generators::labelled_cycle(&c)
        };
        let (schedule, period) = if schedule == 0 {
            (Schedule::RoundRobin, g.node_count())
        } else {
            (Schedule::Synchronous, 1)
        };
        let (verdict, cert) = certified(&m, &g, schedule);
        let Certificate::Lasso(l) = cert else {
            panic!("lasso schedules emit lasso certificates");
        };
        prop_assert_eq!(verify(&m, &g, &Certificate::Lasso(l.clone())), Ok(verdict));
        prop_assert_eq!(l.cycle_len % (3 * period), 0);
        let mut moved = l.entry.states().to_vec();
        let v = node % moved.len();
        moved[v].1 = (moved[v].1 + 1) % 3;
        let mut mutants = vec![
            LassoCertificate { cycle_len: l.cycle_len - period, ..l.clone() },
            LassoCertificate { cycle_len: 2 * l.cycle_len, ..l.clone() },
            LassoCertificate { entry: Config::from_states(moved), ..l.clone() },
            LassoCertificate {
                verdict: match l.verdict {
                    Verdict::Accepts => Verdict::Rejects,
                    _ => Verdict::Accepts,
                },
                ..l.clone()
            },
        ];
        if l.stem_len > 0 {
            mutants.push(LassoCertificate { stem_len: l.stem_len - 1, ..l.clone() });
        }
        for mutant in mutants {
            let refused = verify(&m, &g, &Certificate::Lasso(mutant.clone())).is_err();
            prop_assert!(refused, "verified a mutated lasso: {:?}", mutant);
        }
    }
}
