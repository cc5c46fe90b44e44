//! The `--net` chaos backend end to end: the `chaos` op is parsed,
//! gated behind [`ServiceConfig::net`], runs deterministically by seed
//! against the service's own registry, and flows through the line
//! transport next to ordinary decide traffic.

use std::io::Cursor;
use std::sync::{Arc, Mutex};
use wam_certify::Json;
use wam_core::{Schedule, Verdict};
use wam_net::ChaosOptions;
use wam_protocols::cutoff_one_machine;
use wam_serve::{
    parse_request, serve, CachedVerdict, ChaosRequest, MachineRegistry, Reply, Request,
    ServiceConfig, VerdictService,
};

fn net_config() -> ServiceConfig {
    ServiceConfig {
        net: true,
        workers: 2,
        ..ServiceConfig::default()
    }
}

/// A `Write` that appends into a shared buffer the test can inspect.
#[derive(Clone)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl std::io::Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn chaos_requests_parse_with_defaults_and_overrides() {
    let r = parse_request(
        r#"{"id":4,"op":"chaos","machine":"presence","family":"cycle","counts":[3,1],
            "seed":7,"drop":0.15,"dup":0.1,"delay_min":1,"delay_max":4,"window":100}"#,
    )
    .unwrap();
    let Request::Chaos(c) = r else {
        panic!("expected a chaos request, got {r:?}");
    };
    assert_eq!(c.machine, "presence");
    assert_eq!(c.counts, vec![3, 1]);
    assert_eq!(c.seed, 7);
    assert_eq!(c.delay, (1, 4));
    assert_eq!(c.window, Some(100));
    assert_eq!(c.max_rounds, None);

    // Minimal form: every fault knob defaults to a reliable network.
    let r = parse_request(r#"{"op":"chaos","machine":"presence","family":"cycle","counts":[3,1]}"#)
        .unwrap();
    let Request::Chaos(c) = r else {
        panic!("expected a chaos request, got {r:?}");
    };
    assert_eq!(c.seed, 0);
    assert_eq!(c.drop_p, 0.0);
    assert_eq!(c.dup_p, 0.0);
    assert_eq!(c.delay, (1, 1));

    let e = parse_request(
        r#"{"op":"chaos","machine":"m","family":"cycle","counts":[3,1],"drop":"lots"}"#,
    )
    .unwrap_err();
    assert_eq!(e.kind(), "bad-request");
}

#[test]
fn chaos_is_rejected_without_the_net_flag() {
    let service = VerdictService::with_paper_catalog(ServiceConfig::default());
    let Request::Chaos(req) = parse_request(
        r#"{"id":1,"op":"chaos","machine":"presence","family":"cycle","counts":[3,1]}"#,
    )
    .unwrap() else {
        panic!("parse gave a non-chaos request");
    };
    let reply = service.handle().chaos_reply(&req);
    let Reply::Error { id, error } = reply else {
        panic!("chaos must be rejected without --net, got {reply:?}");
    };
    assert_eq!(id, Some(1));
    assert_eq!(error.kind(), "bad-request");
    assert!(error.to_string().contains("--net"), "{error}");
    assert_eq!(service.stats().chaos_runs, 0);
}

#[test]
fn chaos_runs_agree_and_replay_through_the_handle() {
    let service = VerdictService::with_paper_catalog(net_config());
    let Request::Chaos(req) = parse_request(
        r#"{"id":2,"op":"chaos","machine":"presence","family":"cycle","counts":[3,1],
            "seed":11,"drop":0.15,"dup":0.1,"delay_max":4}"#,
    )
    .unwrap() else {
        panic!("parse gave a non-chaos request");
    };
    let a = service.handle().chaos_reply(&req);
    let b = service.handle().chaos_reply(&req);
    let (Reply::Chaos(a), Reply::Chaos(b)) = (a, b) else {
        panic!("chaos replies expected");
    };
    assert!(a.agreed, "fairness-preserving chaos must agree: {a:?}");
    assert!(a.fairness_preserved);
    assert_eq!(a.expected.to_string(), "accepts");
    assert_eq!(a.emergent, a.expected);
    assert!(a.divergence.is_none());
    assert_eq!(a.digest, b.digest, "same seed, same trace digest");
    assert_eq!(service.stats().chaos_runs, 2);
}

#[test]
fn chaos_flows_through_the_line_transport() {
    let service = VerdictService::with_paper_catalog(net_config());
    let input = Cursor::new(
        [
            r#"{"id":1,"machine":"presence","family":"cycle","counts":[2,1]}"#,
            r#"{"id":2,"op":"chaos","machine":"presence","family":"cycle","counts":[3,1],"seed":7,"drop":0.1,"dup":0.05,"delay_max":3}"#,
            r#"{"id":3,"op":"chaos","machine":"nonesuch","family":"cycle","counts":[3,1]}"#,
            r#"{"id":4,"op":"stats"}"#,
        ]
        .join("\n"),
    );
    let buf = SharedBuf(Arc::new(Mutex::new(Vec::new())));
    let stats = serve(&service, input, buf.clone()).unwrap();
    assert_eq!(stats.chaos_runs, 1);

    let raw = buf.0.lock().unwrap();
    let text = String::from_utf8(raw.clone()).unwrap();
    let mut saw_chaos = false;
    let mut saw_unknown = false;
    for line in text.lines() {
        let v = Json::parse(line).unwrap();
        match (v.get("id"), v.get("status")) {
            (Some(Json::Num(id)), Some(Json::Str(s))) if *id == 2.0 => {
                assert_eq!(s, "chaos", "{line}");
                assert_eq!(v.get("agreed"), Some(&Json::Bool(true)), "{line}");
                assert_eq!(v.get("expected"), Some(&Json::Str("accepts".to_string())));
                let Some(Json::Str(digest)) = v.get("digest") else {
                    panic!("chaos reply without a digest: {line}");
                };
                assert_eq!(digest.len(), 16, "digest is 16 hex digits");
                saw_chaos = true;
            }
            (Some(Json::Num(id)), Some(Json::Str(s))) if *id == 3.0 => {
                assert_eq!(s, "error", "{line}");
                assert_eq!(
                    v.get("kind"),
                    Some(&Json::Str("unknown-machine".to_string()))
                );
                saw_unknown = true;
            }
            (Some(Json::Num(id)), _) if *id == 4.0 => {
                assert_eq!(v.get("chaos_runs"), Some(&Json::Num(1.0)), "{line}");
            }
            _ => {}
        }
    }
    assert!(saw_chaos && saw_unknown, "{text}");
}

fn chaos_request(line: &str) -> ChaosRequest {
    match parse_request(line).unwrap() {
        Request::Chaos(req) => req,
        other => panic!("parse gave a non-chaos request: {other:?}"),
    }
}

#[test]
fn chaos_runs_from_the_service_registry() {
    let mut reg = MachineRegistry::new();
    reg.register(
        "flag",
        "typed flooding entry",
        2,
        cutoff_one_machine(2, |p| p[1]),
        Schedule::RoundRobin,
        500_000,
        ChaosOptions::budget(6_000, 150),
    );
    reg.register_with(
        "opaque",
        "closure-only entry",
        2,
        Box::new(|_graph, _certified| {
            Ok(CachedVerdict {
                verdict: Verdict::Accepts,
                backend: "test".to_string(),
                explored: 1,
                certificate: None,
            })
        }),
    );
    let service = VerdictService::new(reg, net_config());
    let handle = service.handle();

    let typed = chaos_request(
        r#"{"id":1,"op":"chaos","machine":"flag","family":"cycle","counts":[3,1],"seed":5,"drop":0.1}"#,
    );
    let Reply::Chaos(reply) = handle.chaos_reply(&typed) else {
        panic!("the typed entry must run");
    };
    assert!(reply.agreed, "{reply:?}");
    assert_eq!(reply.expected, Verdict::Accepts);

    // A closure-only entry has no machine for the chaos nodes: a
    // structured error, not a panic.
    let opaque = chaos_request(
        r#"{"id":2,"op":"chaos","machine":"opaque","family":"cycle","counts":[3,1]}"#,
    );
    let Reply::Error { id, error } = handle.chaos_reply(&opaque) else {
        panic!("a register_with entry cannot run chaos");
    };
    assert_eq!(id, Some(2));
    assert_eq!(error.kind(), "bad-request");
    assert!(error.to_string().contains("chaos runner"), "{error}");

    // The hard-coded paper catalog is not consulted.
    let presence = chaos_request(
        r#"{"id":3,"op":"chaos","machine":"presence","family":"cycle","counts":[3,1]}"#,
    );
    let Reply::Error { error, .. } = handle.chaos_reply(&presence) else {
        panic!("presence is not in this registry");
    };
    assert_eq!(error.kind(), "unknown-machine");
    assert_eq!(service.stats().chaos_runs, 1);
}
