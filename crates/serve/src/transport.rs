//! The framed line transport: requests in on a [`BufRead`], replies out
//! on a [`Write`], one JSON document per line.
//!
//! The read loop parses each line and runs a decide request through the
//! service's gates itself, without waiting for a decision: a hit is
//! answered on the spot, and a miss becomes a job on the service's worker
//! pool. Every reply goes onto a bounded queue that a dedicated writer
//! thread renders and drains, flushing once the queue is empty. Replies
//! therefore come back in *completion* order; clients match them up by
//! `id`. Parse failures and the synchronous ops (`stats`, `catalog`,
//! `chaos`) are answered inline, in order of arrival.
//!
//! Lines are read as raw bytes: a line that is not UTF-8, or longer than
//! [`MAX_LINE_BYTES`], gets a `bad-request` reply and the loop moves on to
//! the next line. An overlong line is skipped without being buffered.

use crate::error::ServeError;
use crate::proto::{parse_request, refused_id, Reply, Request};
use crate::service::{ServiceStats, Sink, VerdictService};
use std::io::{BufRead, BufWriter, Read, Write};
use std::sync::mpsc;
use std::thread;

/// How many replies may queue for the writer before dispatch
/// backpressures the read loop.
const REPLY_QUEUE: usize = 1024;

/// The longest request line the transport reads, newline excluded.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// Serves requests from `input` until EOF, writing one reply line each,
/// then returns the final counter snapshot.
///
/// # Errors
///
/// Propagates I/O errors from reading `input` or writing `output`.
pub fn serve<R, W>(
    service: &VerdictService,
    mut input: R,
    output: W,
) -> std::io::Result<ServiceStats>
where
    R: BufRead,
    W: Write + Send + 'static,
{
    let handle = service.handle();
    let (tx, rx) = mpsc::sync_channel::<Box<Reply>>(REPLY_QUEUE);

    let writer = thread::Builder::new()
        .name("serve-writer".to_string())
        .spawn(move || -> std::io::Result<W> {
            let mut output = BufWriter::new(output);
            while let Ok(first) = rx.recv() {
                // Write every queued reply, then flush once.
                for reply in std::iter::once(first).chain(rx.try_iter()) {
                    writeln!(output, "{}", reply.render())?;
                }
                output.flush()?;
            }
            output.into_inner().map_err(|e| e.into_error())
        })
        .expect("spawn serve writer thread");

    let reply = |reply: Reply| {
        let _ = tx.send(Box::new(reply));
    };
    let bad_line = |reason: String| {
        let error = ServeError::BadRequest { reason };
        reply(Reply::Error { id: None, error });
    };
    let mut raw = Vec::new();
    loop {
        raw.clear();
        let n = (&mut input)
            .take(MAX_LINE_BYTES as u64 + 1)
            .read_until(b'\n', &mut raw)?;
        if n == 0 {
            break;
        }
        if raw.last() == Some(&b'\n') {
            raw.pop();
            if raw.last() == Some(&b'\r') {
                raw.pop();
            }
        } else if raw.len() > MAX_LINE_BYTES {
            input.skip_until(b'\n')?;
            bad_line(format!("request line longer than {MAX_LINE_BYTES} bytes"));
            continue;
        }
        let Ok(line) = std::str::from_utf8(&raw) else {
            bad_line("request line is not valid UTF-8".to_string());
            continue;
        };
        if line.trim().is_empty() {
            continue;
        }
        match parse_request(line) {
            Err(error) => reply(Reply::Error {
                id: refused_id(line),
                error,
            }),
            Ok(Request::Stats { id }) => reply(handle.stats_reply(id)),
            Ok(Request::Catalog { id }) => reply(handle.catalog_reply(id)),
            // Chaos runs execute synchronously on the read loop: they are
            // opt-in (`--net`) diagnostics whose determinism is the point,
            // so interleaving them with decide traffic would buy nothing
            // and cost reproducible ordering.
            Ok(Request::Chaos(req)) => reply(handle.chaos_reply(&req)),
            // The job owns a sender clone until its reply is written, so
            // the writer drains it before shutting down.
            Ok(Request::Decide(req)) => handle.enqueue(req, Sink::Writer(tx.clone())),
        }
    }

    // Dropping the last reader-side sender lets the writer finish once
    // every queued or parked decide job has sent its reply and dropped
    // its own clone.
    drop(tx);
    let output = writer.join().expect("serve writer thread panicked")?;
    drop(output);
    Ok(handle.stats())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{CachedVerdict, MachineRegistry};
    use crate::service::ServiceConfig;
    use std::io::Cursor;
    use std::sync::{Arc, Mutex};
    use std::time::{Duration, Instant};
    use wam_certify::Json;
    use wam_core::Verdict;

    /// A `Write` that keeps the bytes written and stamps each newline
    /// with the instant it was written; one `write` may carry several
    /// lines or part of one. The test inspects the lines after `serve`
    /// returns.
    #[derive(Clone, Default)]
    struct StampedLines(Arc<Mutex<(Vec<u8>, Vec<Instant>)>>);

    impl StampedLines {
        /// Each line with the instant its newline was written.
        fn stamped(&self) -> Vec<(Instant, String)> {
            let (bytes, stamps) = &*self.0.lock().unwrap();
            let lines = std::str::from_utf8(bytes)
                .unwrap()
                .lines()
                .map(String::from);
            stamps.iter().copied().zip(lines).collect()
        }
    }

    impl Write for StampedLines {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            let (bytes, stamps) = &mut *self.0.lock().unwrap();
            bytes.extend_from_slice(buf);
            let now = Instant::now();
            stamps.extend(buf.iter().filter(|&&b| b == b'\n').map(|_| now));
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn deadlines_answer_on_the_writer_before_the_decision_ends() {
        // Plain decisions are instant; certified ones take 300 ms and
        // stamp the instant they end.
        let ended = Arc::new(Mutex::new(Vec::new()));
        let stamp = Arc::clone(&ended);
        let mut reg = MachineRegistry::new();
        reg.register_with(
            "slow-certified",
            "certified decisions take 300 ms",
            2,
            Box::new(move |_graph, certified| {
                if certified {
                    std::thread::sleep(Duration::from_millis(300));
                    stamp.lock().unwrap().push(Instant::now());
                }
                Ok(CachedVerdict {
                    verdict: Verdict::Accepts,
                    backend: "test".to_string(),
                    explored: 1,
                    certificate: None,
                })
            }),
        );
        let service = VerdictService::new(reg, ServiceConfig::default());
        // Two certified keys whose deadlines fire in the reverse order of
        // arrival, and a plain key that meets its deadline, so its timer
        // entry later fires on a waiter that is already answered.
        let input = Cursor::new(
            [
                r#"{"id":1,"machine":"slow-certified","family":"cycle","counts":[2,1]}"#,
                r#"{"id":2,"machine":"slow-certified","family":"cycle","counts":[3,1],"certified":true,"deadline_ms":60}"#,
                r#"{"id":3,"machine":"slow-certified","family":"cycle","counts":[4,1],"certified":true,"deadline_ms":30}"#,
                r#"{"id":4,"machine":"slow-certified","family":"cycle","counts":[5,1],"deadline_ms":200}"#,
                r#"{"id":5,"op":"stats"}"#,
            ]
            .join("\n"),
        );
        let out = StampedLines::default();
        serve(&service, input, out.clone()).unwrap();

        // `serve` returns once every line is answered; the certified
        // decisions run on past their deadlines and fill the cache.
        let waited = Instant::now();
        while service.stats().decided < 4 {
            assert!(waited.elapsed() < Duration::from_secs(10), "decision hung");
            std::thread::sleep(Duration::from_millis(10));
        }
        let first_end = *ended.lock().unwrap().iter().min().unwrap();
        let mut ids: Vec<u64> = Vec::new();
        for (written, line) in out.stamped() {
            let v = Json::parse(&line).unwrap();
            let Some(Json::Num(id)) = v.get("id") else {
                panic!("reply without id: {line}");
            };
            let field = |key| v.get(key).cloned();
            match *id as u64 {
                1 | 4 => assert_eq!(field("status"), Some(Json::Str("ok".into())), "{line}"),
                2 | 3 => {
                    assert_eq!(field("kind"), Some(Json::Str("deadline".into())), "{line}");
                    assert!(
                        written < first_end,
                        "a deadline reply waited for a decision"
                    );
                }
                _ => assert_eq!(field("status"), Some(Json::Str("stats".into())), "{line}"),
            }
            ids.push(*id as u64);
        }
        ids.sort_unstable();
        assert_eq!(
            ids,
            vec![1, 2, 3, 4, 5],
            "every line gets exactly one reply"
        );
        assert_eq!(service.stats().rejected_deadline, 2);
    }

    #[test]
    fn serves_a_batch_over_lines() {
        let service = VerdictService::with_paper_catalog(ServiceConfig::default());
        let input = Cursor::new(
            [
                r#"{"id":1,"machine":"presence","family":"cycle","counts":[2,1]}"#,
                "",
                r#"{"id":2,"machine":"presence","family":"line","counts":[2,1]}"#,
                "this is not json",
                r#"{"id":3,"op":"catalog"}"#,
            ]
            .join("\n"),
        );
        let out = StampedLines::default();
        let stats = serve(&service, input, out.clone()).unwrap();
        assert_eq!(stats.received, 2);
        assert_eq!(stats.completed, 2);

        let lines = out.stamped();
        assert_eq!(lines.len(), 4, "{lines:?}");
        let mut ok = 0;
        let mut errors = 0;
        let mut catalogs = 0;
        for (_, line) in &lines {
            let v = Json::parse(line).unwrap();
            match v.get("status") {
                Some(Json::Str(s)) if s == "ok" => ok += 1,
                Some(Json::Str(s)) if s == "error" => errors += 1,
                Some(Json::Str(s)) if s == "catalog" => catalogs += 1,
                other => panic!("unexpected status {other:?}"),
            }
        }
        assert_eq!((ok, errors, catalogs), (2, 1, 1));
        // The 3-cycle and the 3-line on (2,1) are non-isomorphic, but the
        // verdicts agree; at least one decision ran.
        assert!(stats.decided >= 1);
    }

    #[test]
    fn hostile_sizes_are_rejected_not_served() {
        // A million-node clique once drove an O(n²) allocation that could
        // panic a worker and hang `serve` in writer.join(); now the size
        // bounds reject it up front and the loop keeps answering.
        let service = VerdictService::with_paper_catalog(ServiceConfig::default());
        let input = Cursor::new(
            [
                r#"{"id":1,"machine":"presence","family":"clique","counts":[1000000,1000000]}"#,
                r#"{"id":2,"machine":"presence","family":"cycle","counts":[18446744073709551615,2]}"#,
                r#"{"id":3,"machine":"presence","family":"cycle","counts":[2,1]}"#,
            ]
            .join("\n"),
        );
        let out = StampedLines::default();
        let stats = serve(&service, input, out.clone()).unwrap();
        assert_eq!(stats.completed, 1);

        let mut statuses: Vec<(u64, String)> = out
            .stamped()
            .iter()
            .map(|(_, line)| {
                let v = Json::parse(line).unwrap();
                let Some(Json::Num(id)) = v.get("id") else {
                    panic!("reply without id: {line}");
                };
                let Some(Json::Str(status)) = v.get("status") else {
                    panic!("reply without status: {line}");
                };
                (*id as u64, status.clone())
            })
            .collect();
        statuses.sort();
        assert_eq!(
            statuses,
            vec![
                (1, "error".to_string()),
                (2, "error".to_string()),
                (3, "ok".to_string()),
            ]
        );
    }

    /// Serves raw `input` bytes and returns each reply's `(status, kind)`,
    /// in reply order (`kind` is empty on non-error replies).
    fn serve_raw(input: Vec<u8>) -> Vec<(String, String)> {
        let service = VerdictService::with_paper_catalog(ServiceConfig::default());
        let out = StampedLines::default();
        serve(&service, Cursor::new(input), out.clone()).unwrap();
        out.stamped()
            .iter()
            .map(|(_, line)| {
                let v = Json::parse(line).unwrap();
                let field = |key| match v.get(key) {
                    Some(Json::Str(s)) => s.clone(),
                    _ => String::new(),
                };
                (field("status"), field("kind"))
            })
            .collect()
    }

    /// `hostile` followed by a valid request gets a `bad-request` reply,
    /// and the valid request is still answered.
    fn assert_refused_then_served(hostile: &[u8]) {
        let mut input = hostile.to_vec();
        input.push(b'\n');
        input
            .extend_from_slice(br#"{"id":1,"machine":"presence","family":"cycle","counts":[2,1]}"#);
        let replies = serve_raw(input);
        assert_eq!(
            replies,
            vec![
                ("error".to_string(), "bad-request".to_string()),
                ("ok".to_string(), String::new()),
            ]
        );
    }

    #[test]
    fn deeply_nested_line_is_refused_and_serving_continues() {
        assert_refused_then_served(&[b'['; 200_000]);
    }

    #[test]
    fn non_utf8_line_is_refused_and_serving_continues() {
        assert_refused_then_served(b"{\"id\":7,\"op\":\"stats\xff\xfe\"}");
    }

    #[test]
    fn overlong_line_is_refused_and_serving_continues() {
        let mut line = br#"{"id":7,"op":"stats","pad":""#.to_vec();
        line.resize(MAX_LINE_BYTES + 1, b'x');
        line.extend_from_slice(br#""}"#);
        assert_refused_then_served(&line);
        // A line exactly at the cap is read and parsed, not refused.
        let mut at_cap = br#"{"id":7,"op":"stats","pad":""#.to_vec();
        at_cap.resize(MAX_LINE_BYTES - 2, b'x');
        at_cap.extend_from_slice(br#""}"#);
        assert_eq!(at_cap.len(), MAX_LINE_BYTES);
        let replies = serve_raw(at_cap);
        assert_eq!(replies, vec![("stats".to_string(), String::new())]);
    }
}
