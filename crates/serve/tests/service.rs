//! Integration tests for the verdict service: coalescing, admission
//! control, and deadline degradation, driven through instrumented
//! registry entries whose timing the tests control.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use wam_certify::Json;
use wam_core::Verdict;
use wam_serve::{
    CacheOutcome, CachedVerdict, CertificateBlob, DecideRequest, MachineRegistry, Reply,
    ServeError, ServiceConfig, VerdictService,
};

/// A registry with one instrumented entry: `decide` sleeps `slow_ms`
/// when certified (plain decisions return immediately), counts every
/// invocation, and fabricates a tiny certificate blob for certified
/// runs.
fn instrumented(
    name: &str,
    slow_certified_ms: u64,
    slow_plain_ms: u64,
) -> (MachineRegistry, Arc<AtomicUsize>) {
    let calls = Arc::new(AtomicUsize::new(0));
    let counter = Arc::clone(&calls);
    let mut reg = MachineRegistry::new();
    reg.register_with(
        name,
        "instrumented test entry",
        2,
        Box::new(move |_graph, certified| {
            counter.fetch_add(1, Ordering::SeqCst);
            let ms = if certified {
                slow_certified_ms
            } else {
                slow_plain_ms
            };
            if ms > 0 {
                std::thread::sleep(Duration::from_millis(ms));
            }
            Ok(CachedVerdict {
                verdict: Verdict::Accepts,
                backend: "test".to_string(),
                explored: 1,
                certificate: certified
                    .then(|| Arc::new(CertificateBlob::new("node", "{\"test\":true}"))),
            })
        }),
    );
    (reg, calls)
}

fn req(machine: &str, id: u64, counts: Vec<u64>) -> DecideRequest {
    DecideRequest {
        id: Some(id),
        machine: machine.to_string(),
        family: "cycle".to_string(),
        counts,
        certified: false,
        deadline_ms: None,
    }
}

fn expect_ok(reply: Reply) -> wam_serve::OkReply {
    match reply {
        Reply::Ok(ok) => ok,
        other => panic!("expected ok reply, got {other:?}"),
    }
}

fn expect_err(reply: Reply) -> ServeError {
    match reply {
        Reply::Error { error, .. } => error,
        other => panic!("expected error reply, got {other:?}"),
    }
}

#[test]
fn concurrent_identical_requests_coalesce_into_one_decision() {
    let (reg, calls) = instrumented("slow", 0, 150);
    let service = VerdictService::new(reg, ServiceConfig::default());
    let handle = service.handle();

    let leader = handle.submit(req("slow", 1, vec![2, 1]));
    // Give the leader time to claim the in-flight slot and start the
    // 150 ms decision before the followers arrive.
    std::thread::sleep(Duration::from_millis(40));
    let followers: Vec<_> = (2..=4)
        .map(|id| handle.submit(req("slow", id, vec![2, 1])))
        .collect();

    let leader_reply = expect_ok(leader.recv().unwrap());
    assert_eq!(leader_reply.cache, CacheOutcome::Miss);
    for f in followers {
        let r = expect_ok(f.recv().unwrap());
        assert!(
            matches!(r.cache, CacheOutcome::Coalesced | CacheOutcome::Hit),
            "follower must never re-decide, got {:?}",
            r.cache
        );
        assert_eq!(r.result.verdict, Verdict::Accepts);
    }

    assert_eq!(calls.load(Ordering::SeqCst), 1, "exactly one decision ran");
    let stats = service.stats();
    assert_eq!(stats.received, 4);
    assert_eq!(stats.completed, 4);
    assert_eq!(stats.decided, 1);
    assert_eq!(stats.coalesced + stats.cache_hits, 3);
}

#[test]
fn oversubscribed_bursts_report_one_miss_per_key() {
    // More workers than cores and instant decisions: copies of a key keep
    // arriving while its decision publishes. Whatever the interleaving,
    // each key must decide once and reply `miss` once. Every round is a
    // fresh service, so every round starts cold; one round alone catches
    // a double miss only some of the time.
    const ROUNDS: usize = 16;
    let keys: Vec<Vec<u64>> = (2..=11)
        .flat_map(|zeros| (1..=8).map(move |ones| vec![zeros, ones]))
        .collect();
    for round in 0..ROUNDS {
        let (reg, calls) = instrumented("instant", 0, 0);
        // Admission above the key count: no request may be refused.
        let config = ServiceConfig {
            workers: 8,
            admission: 2 * keys.len(),
            ..ServiceConfig::default()
        };
        let service = VerdictService::new(reg, config);
        let handle = service.handle();
        let mut replies = Vec::new();
        for (k, counts) in keys.iter().enumerate() {
            for copy in 0..8 {
                let id = (k * 8 + copy) as u64;
                replies.push((k, handle.submit(req("instant", id, counts.clone()))));
            }
        }
        let mut misses = vec![0; keys.len()];
        for (k, reply) in replies {
            if expect_ok(reply.recv().unwrap()).cache == CacheOutcome::Miss {
                misses[k] += 1;
            }
        }
        for (k, n) in misses.iter().enumerate() {
            assert_eq!(
                *n, 1,
                "round {round}: key {:?} replied miss {n} times",
                keys[k]
            );
        }
        let stats = service.stats();
        assert_eq!(calls.load(Ordering::SeqCst), keys.len());
        assert_eq!(stats.decided, keys.len() as u64);
        assert_eq!(
            stats.cache_hits + stats.coalesced + stats.decided,
            stats.received
        );
    }
}

#[test]
fn completed_decisions_are_served_from_cache() {
    let (reg, calls) = instrumented("fast", 0, 0);
    let service = VerdictService::new(reg, ServiceConfig::default());

    let first = expect_ok(service.process_blocking(req("fast", 1, vec![2, 1])));
    assert_eq!(first.cache, CacheOutcome::Miss);
    let second = expect_ok(service.process_blocking(req("fast", 2, vec![2, 1])));
    assert_eq!(second.cache, CacheOutcome::Hit);
    // Isomorphic request (3-cycle == 3-clique on the same counts is not
    // guaranteed, but the same family/counts is the same key).
    assert_eq!(calls.load(Ordering::SeqCst), 1);
    assert_eq!(service.stats().cache_hits, 1);
}

#[test]
fn requests_past_the_admission_bound_are_rejected_not_queued() {
    let (reg, _calls) = instrumented("slow", 0, 200);
    let config = ServiceConfig {
        admission: 1,
        ..ServiceConfig::default()
    };
    let service = VerdictService::new(reg, config);
    let handle = service.handle();

    // Occupy the only admission slot with a 200 ms decision...
    let busy = handle.submit(req("slow", 1, vec![2, 1]));
    std::thread::sleep(Duration::from_millis(40));
    // ...then ask for a *different* key: no coalescing possible, and the
    // bound is full, so the service must reject immediately.
    let start = std::time::Instant::now();
    let rejected = expect_err(service.process_blocking(req("slow", 2, vec![3, 1])));
    assert!(
        start.elapsed() < Duration::from_millis(100),
        "rejection must not wait for the running decision"
    );
    match rejected {
        ServeError::Overloaded {
            in_flight,
            capacity,
        } => {
            assert_eq!(capacity, 1);
            assert!(in_flight >= 1);
        }
        other => panic!("expected overload, got {other}"),
    }

    // The occupied slot still completes normally.
    let ok = expect_ok(busy.recv().unwrap());
    assert_eq!(ok.result.verdict, Verdict::Accepts);
    let stats = service.stats();
    assert_eq!(stats.rejected_overload, 1);
    assert_eq!(stats.decided, 1);
}

#[test]
fn queued_decisions_count_against_the_admission_bound() {
    // One worker, bound 2: the bound must still shed, so an admitted
    // decision has to hold its permit while it waits for the worker.
    let (reg, calls) = instrumented("slow", 0, 100);
    let config = ServiceConfig {
        workers: 1,
        admission: 2,
        ..ServiceConfig::default()
    };
    let service = VerdictService::new(reg, config);
    let handle = service.handle();

    // The worker decides key 1 while three more distinct keys arrive.
    // The gates run on arrival: key 2 takes the second permit and queues
    // behind key 1, and keys 3 and 4 find both permits taken.
    let busy = handle.submit(req("slow", 1, vec![2, 1]));
    std::thread::sleep(Duration::from_millis(40));
    let mut queued: Vec<_> = (2..5)
        .map(|n| handle.submit(req("slow", n, vec![n + 1, 1])))
        .collect();
    let queued_key = queued.remove(0);
    for rejected in queued {
        assert_eq!(expect_err(rejected.recv().unwrap()).kind(), "overloaded");
    }
    assert_eq!(calls.load(Ordering::SeqCst), 1, "key 2 is still queued");
    expect_ok(busy.recv().unwrap());
    let queued_key = expect_ok(queued_key.recv().unwrap());
    assert_eq!(queued_key.cache, CacheOutcome::Miss);
    let stats = service.stats();
    assert_eq!(stats.rejected_overload, 2);
    assert_eq!(stats.decided, 2);
}

#[test]
fn a_deadline_runs_from_arrival_while_the_decision_queues() {
    // One worker, busy on a 300 ms decision: a request for another key
    // queues its decision behind it, and its 50 ms deadline must still
    // fire 50 ms after `submit`, not once the worker takes the job up.
    let (reg, _calls) = instrumented("slow", 0, 300);
    let config = ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    };
    let service = VerdictService::new(reg, config);
    let handle = service.handle();
    let busy = handle.submit(req("slow", 1, vec![2, 1]));
    std::thread::sleep(Duration::from_millis(20));

    let mut timed = req("slow", 2, vec![3, 1]);
    timed.deadline_ms = Some(50);
    let submitted = Instant::now();
    let reply = handle.submit(timed).recv().unwrap();
    let waited = submitted.elapsed();
    match expect_err(reply) {
        ServeError::DeadlineExceeded { elapsed_ms } => assert!(elapsed_ms >= 50),
        other => panic!("expected deadline, got {other}"),
    }
    assert!(
        waited < Duration::from_millis(150),
        "the deadline reply waited {waited:?}"
    );
    expect_ok(busy.recv().unwrap());
}

#[test]
fn deadlines_degrade_certified_requests_to_cached_plain_verdicts() {
    // Plain decisions are instant; certified ones take 300 ms.
    let (reg, calls) = instrumented("mixed", 300, 0);
    let service = VerdictService::new(reg, ServiceConfig::default());

    // Warm the *plain* cache for (2,1).
    let plain = expect_ok(service.process_blocking(req("mixed", 1, vec![2, 1])));
    assert_eq!(plain.cache, CacheOutcome::Miss);

    // A certified request that cannot finish in 60 ms degrades to the
    // cached plain verdict instead of rejecting.
    let mut certified = req("mixed", 2, vec![2, 1]);
    certified.certified = true;
    certified.deadline_ms = Some(60);
    let degraded = expect_ok(service.process_blocking(certified));
    assert!(degraded.degraded);
    assert_eq!(degraded.cache, CacheOutcome::Hit);
    assert!(
        degraded.result.certificate.is_none(),
        "a degraded reply serves the plain verdict"
    );
    assert_eq!(degraded.result.verdict, Verdict::Accepts);

    // The same deadline on a key with *no* plain fallback rejects.
    let mut cold = req("mixed", 3, vec![4, 1]);
    cold.certified = true;
    cold.deadline_ms = Some(60);
    match expect_err(service.process_blocking(cold)) {
        ServeError::DeadlineExceeded { elapsed_ms } => assert!(elapsed_ms >= 60),
        other => panic!("expected deadline, got {other}"),
    }

    let stats = service.stats();
    assert_eq!(stats.degraded, 1);
    assert_eq!(stats.rejected_deadline, 1);
    // Decisions launched: plain (2,1), certified (2,1), certified (4,1).
    assert!(calls.load(Ordering::SeqCst) >= 2);
}

#[test]
fn deadline_already_expired_degrades_before_any_work() {
    let (reg, calls) = instrumented("mixed", 300, 0);
    let service = VerdictService::new(reg, ServiceConfig::default());
    let _ = expect_ok(service.process_blocking(req("mixed", 1, vec![2, 1])));
    let decided_before = calls.load(Ordering::SeqCst);

    // deadline_ms = 0 is always already-expired at the gate.
    let mut hopeless = req("mixed", 2, vec![2, 1]);
    hopeless.certified = true;
    hopeless.deadline_ms = Some(0);
    let degraded = expect_ok(service.process_blocking(hopeless));
    assert!(degraded.degraded);
    assert_eq!(
        calls.load(Ordering::SeqCst),
        decided_before,
        "no decision may start for an already-expired deadline"
    );

    // A plain request with an expired deadline has nothing to degrade
    // to on a cold key: rejected.
    let mut cold = req("mixed", 3, vec![5, 1]);
    cold.deadline_ms = Some(0);
    match expect_err(service.process_blocking(cold)) {
        ServeError::DeadlineExceeded { .. } => {}
        other => panic!("expected deadline, got {other}"),
    }
}

#[test]
fn decision_errors_fan_out_to_every_coalesced_waiter() {
    // A panicking decision ends like a failing one: every waiter gets
    // the error and the key stays decidable.
    for panics in [false, true] {
        let mut reg = MachineRegistry::new();
        reg.register_with(
            "failing",
            "always errors after a delay",
            2,
            Box::new(move |_g, _c| {
                std::thread::sleep(Duration::from_millis(100));
                if panics {
                    panic!("synthetic failure");
                }
                Err(ServeError::Internal {
                    reason: "synthetic failure".to_string(),
                })
            }),
        );
        let service = VerdictService::new(reg, ServiceConfig::default());
        let handle = service.handle();
        let a = handle.submit(req("failing", 1, vec![2, 1]));
        std::thread::sleep(Duration::from_millis(30));
        let b = handle.submit(req("failing", 2, vec![2, 1]));
        for h in [a, b] {
            match expect_err(h.recv().unwrap()) {
                ServeError::Internal { reason } => assert!(reason.contains("synthetic")),
                other => panic!("expected internal error, got {other}"),
            }
        }
        let stats = service.stats();
        assert_eq!(stats.decide_errors, 1);
        assert_eq!(stats.completed, 0);
        // Errors are not cached: a retry runs the decision again.
        let retry = service.process_blocking(req("failing", 3, vec![2, 1]));
        let _ = expect_err(retry);
        assert_eq!(service.stats().decide_errors, 2);
    }
}

/// Certificate text a `register_with` closure hands over is parsed once,
/// when the blob is built: valid JSON reaches the reply as a JSON value,
/// anything else as a string holding the text, and the reply line parses
/// either way.
#[test]
fn foreign_certificate_blobs_render_as_valid_reply_lines() {
    let mut reg = MachineRegistry::new();
    for (name, text) in [
        ("foreign-text", "not json"),
        ("foreign-json", "{\"test\": [1,\n 2]}"),
    ] {
        reg.register_with(
            name,
            "foreign certificate text",
            2,
            Box::new(move |_graph, certified| {
                Ok(CachedVerdict {
                    verdict: Verdict::Accepts,
                    backend: "test".to_string(),
                    explored: 1,
                    certificate: certified.then(|| Arc::new(CertificateBlob::new("node", text))),
                })
            }),
        );
    }
    let service = VerdictService::new(reg, ServiceConfig::default());
    let certificate_of = |machine: &str| {
        let mut r = req(machine, 1, vec![2, 1]);
        r.certified = true;
        let line = service.process_blocking(r).render();
        assert!(!line.contains('\n'), "{line}");
        let reply = Json::parse(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
        assert_eq!(
            reply.get("certificate_kind"),
            Some(&Json::Str("node".into()))
        );
        reply
            .get("certificate")
            .cloned()
            .expect("certificate field")
    };
    assert_eq!(certificate_of("foreign-text"), Json::Str("not json".into()));
    assert_eq!(
        certificate_of("foreign-json"),
        Json::Obj(vec![(
            "test".into(),
            Json::Arr(vec![Json::Num(1.0), Json::Num(2.0)])
        )])
    );
}

#[test]
fn paper_catalog_decides_certified_majority_end_to_end() {
    let service = VerdictService::with_paper_catalog(ServiceConfig::default());
    let mut r = DecideRequest {
        id: Some(9),
        machine: "majority".to_string(),
        family: "cycle".to_string(),
        counts: vec![2, 1],
        certified: true,
        deadline_ms: None,
    };
    let ok = expect_ok(service.process_blocking(r.clone()));
    // #0 = 2 > #1 = 1: majority accepts.
    assert_eq!(ok.result.verdict, Verdict::Accepts);
    let blob = ok
        .result
        .certificate
        .expect("certified request gets a blob");
    assert!(!blob.json().is_empty());

    // The star on the same counts is a different graph but the same
    // 3-node isomorphism class sometimes; either way the verdict agrees.
    r.family = "star".to_string();
    r.id = Some(10);
    let again = expect_ok(service.process_blocking(r));
    assert_eq!(again.result.verdict, Verdict::Accepts);

    // Unknown machines and arity mismatches error cleanly.
    let bad = service.process_blocking(req("nonesuch", 11, vec![2, 1]));
    assert_eq!(expect_err(bad).kind(), "unknown-machine");
    let wrong = service.process_blocking(req("majority", 12, vec![1, 1, 1]));
    assert_eq!(expect_err(wrong).kind(), "bad-request");
}

#[test]
fn a_handle_that_outlives_its_service_is_refused_not_stranded() {
    let (reg, calls) = instrumented("fast", 0, 0);
    let service = VerdictService::new(reg, ServiceConfig::default());
    let handle = service.handle();
    expect_ok(handle.process(req("fast", 0, vec![3, 1])));
    drop(service);
    // The workers are gone: a request's receiver disconnects, and
    // `process` turns that into an internal error instead of waiting,
    // with or without a deadline, and on a cached key too.
    assert!(handle.submit(req("fast", 1, vec![2, 1])).recv().is_err());
    let mut timed = req("fast", 2, vec![2, 1]);
    timed.deadline_ms = Some(1_000);
    for r in [
        req("fast", 3, vec![2, 1]),
        timed,
        req("fast", 4, vec![3, 1]),
    ] {
        match expect_err(handle.process(r)) {
            ServeError::Internal { .. } => {}
            other => panic!("expected internal error, got {other}"),
        }
    }
    assert_eq!(calls.load(Ordering::SeqCst), 1);
    assert_eq!(
        handle.stats().received,
        1,
        "a refused request reaches no gate"
    );
}
