//! End-to-end smoke test of the `wam-serve` binary: pipe a request
//! batch through stdin/stdout and check the replies — the same exchange
//! the CI smoke step performs with a shell pipe.

use std::io::Write;
use std::process::{Command, Stdio};
use wam_serve::ServeError;
use weak_async_models_smoke::parse_lines;

/// Minimal reply model shared with the assertions below.
mod weak_async_models_smoke {
    use wam_certify::Json;

    pub struct ReplyLine {
        pub id: Option<u64>,
        pub status: String,
        pub cache: Option<String>,
        pub verdict: Option<String>,
    }

    pub fn parse_lines(text: &str) -> Vec<ReplyLine> {
        text.lines()
            .filter(|l| !l.trim().is_empty())
            .map(|line| {
                let v = Json::parse(line).unwrap_or_else(|e| panic!("bad reply {line:?}: {e}"));
                let get_str = |key: &str| match v.get(key) {
                    Some(Json::Str(s)) => Some(s.clone()),
                    _ => None,
                };
                ReplyLine {
                    id: match v.get("id") {
                        Some(Json::Num(n)) => Some(*n as u64),
                        _ => None,
                    },
                    status: get_str("status").expect("reply has a status"),
                    cache: get_str("cache"),
                    verdict: get_str("verdict"),
                }
            })
            .collect()
    }
}

#[test]
fn binary_serves_a_piped_batch_with_at_most_one_decision_per_key() {
    // Eight identical requests: whatever the interleaving, the at-most-
    // once guarantee means exactly one may report `cache: miss`; the
    // rest are hits or coalesced joins. Eight workers, more than a CI
    // runner has cores, keep the interleavings varied. Two distinct keys
    // keep the catalog honest, and an unknown machine must error without
    // disturbing the rest.
    let mut input = String::new();
    for id in 1..=8 {
        input.push_str(&format!(
            "{{\"id\":{id},\"machine\":\"presence\",\"family\":\"cycle\",\"counts\":[2,1]}}\n"
        ));
    }
    input.push_str("{\"id\":20,\"machine\":\"presence\",\"family\":\"line\",\"counts\":[3,0]}\n");
    input.push_str("{\"id\":21,\"machine\":\"nonesuch\",\"family\":\"cycle\",\"counts\":[2,1]}\n");
    input.push_str("{\"id\":22,\"op\":\"stats\"}\n");

    let mut child = Command::new(env!("CARGO_BIN_EXE_wam-serve"))
        .args(["--workers", "8"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn wam-serve");
    child
        .stdin
        .take()
        .unwrap()
        .write_all(input.as_bytes())
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let replies = parse_lines(&String::from_utf8(out.stdout).unwrap());
    assert_eq!(replies.len(), 11);

    let dup_replies: Vec<_> = replies
        .iter()
        .filter(|r| r.id.is_some_and(|id| (1..=8).contains(&id)))
        .collect();
    assert_eq!(dup_replies.len(), 8);
    let mut misses = 0;
    for r in dup_replies {
        assert_eq!(r.status, "ok");
        assert_eq!(r.verdict.as_deref(), Some("accepts"));
        match r.cache.as_deref() {
            Some("miss") => misses += 1,
            Some("hit") | Some("coalesced") => {}
            other => panic!("unexpected cache outcome {other:?}"),
        }
    }
    assert_eq!(misses, 1, "identical requests decide at most once");

    let no_presence = replies
        .iter()
        .find(|r| r.id == Some(20))
        .expect("reply for the (3,0) line");
    assert_eq!(no_presence.status, "ok");
    // No node labelled 1: presence rejects.
    assert_eq!(no_presence.verdict.as_deref(), Some("rejects"));

    let unknown = replies
        .iter()
        .find(|r| r.id == Some(21))
        .expect("reply for the unknown machine");
    assert_eq!(unknown.status, "error");
    // The kind string must match the library's tag for the variant.
    assert_eq!(
        ServeError::UnknownMachine {
            name: "nonesuch".to_string()
        }
        .kind(),
        "unknown-machine"
    );

    let stats = replies
        .iter()
        .find(|r| r.id == Some(22))
        .expect("stats reply");
    assert_eq!(stats.status, "stats");
}

#[test]
fn binary_prints_the_catalog() {
    let out = Command::new(env!("CARGO_BIN_EXE_wam-serve"))
        .arg("--catalog")
        .output()
        .expect("run wam-serve --catalog");
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    for name in ["presence", "ladder", "majority", "parity"] {
        assert!(text.contains(name), "catalog must list {name}: {text}");
    }
}
