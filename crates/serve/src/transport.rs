//! The framed line transport: requests in on a [`Read`], replies out on
//! a [`Write`], one JSON document per line.
//!
//! The read loop parses each line and runs a decide request through the
//! service's gates itself, without waiting for a decision: a hit is
//! answered on the spot, and a miss becomes a job on the service's worker
//! pool. Each reply is written where it is made, into one [`BufWriter`]
//! behind a mutex: the read loop flushes only before a read that may
//! block, when the bytes it holds contain no complete line, and a worker
//! or the timer thread flushes each reply it writes. Replies therefore
//! come back in *completion* order; clients match them up by `id`.
//!
//! Lines are read as raw bytes: a line that is not UTF-8, or longer than
//! [`MAX_LINE_BYTES`], gets a `bad-request` reply and the loop moves on to
//! the next line. An overlong line is skipped without being buffered.

use crate::error::ServeError;
use crate::proto::{parse_request, refused_id, Reply, Request};
use crate::service::{ServiceStats, Sink, VerdictService};
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::sync::mpsc::{self, Sender};
use std::sync::{Arc, Mutex};

/// The longest request line the transport reads, newline excluded.
pub const MAX_LINE_BYTES: usize = 1 << 20;

type Writer = BufWriter<Box<dyn Write + Send>>;

/// The output the read loop, the workers and the timer thread share: the
/// writer and its first error behind one lock. The read loop holds one
/// handle and each parked decide request's sink another; the last handle
/// to go flushes and hands the first error to `serve`.
pub(crate) struct Output {
    out: Mutex<(Writer, io::Result<()>)>,
    done: Sender<io::Result<()>>,
}

impl Output {
    /// Runs `op` on the writer under the lock, unless a write failed
    /// before; the first error is kept.
    fn with(&self, op: impl FnOnce(&mut Writer) -> io::Result<()>) {
        let mut guard = self.out.lock().expect("a reply write panicked");
        let (out, result) = &mut *guard;
        if result.is_ok() {
            *result = op(out);
        }
    }

    /// Renders `reply`, then writes and flushes it under the lock.
    pub(crate) fn send(&self, reply: &Reply) {
        let line = reply.render();
        self.with(|out| writeln!(out, "{line}").and_then(|()| out.flush()));
    }
}

impl Drop for Output {
    fn drop(&mut self) {
        // A lock poisoned by a panicking write sends nothing: `serve` panics.
        if let Ok((out, result)) = self.out.get_mut() {
            let result = std::mem::replace(result, Ok(())).and_then(|()| out.flush());
            let _ = self.done.send(result);
        }
    }
}

/// Serves requests from `input` until EOF, one reply line each, and
/// returns the final counter snapshot once every request is answered.
///
/// # Errors
///
/// Propagates I/O errors from reading `input`, and the first error from
/// writing `output`.
pub fn serve<R, W>(service: &VerdictService, input: R, output: W) -> io::Result<ServiceStats>
where
    R: Read,
    W: Write + Send + 'static,
{
    let handle = service.handle();
    let (done, finished) = mpsc::channel();
    let output = Arc::new(Output {
        out: Mutex::new((BufWriter::new(Box::new(output)), Ok(()))),
        done,
    });
    let bad_line = |reason: String| {
        let error = ServeError::BadRequest { reason };
        Some(Reply::Error { id: None, error })
    };
    let mut input = BufReader::new(input);
    let mut raw = Vec::new();
    // Whether the read loop wrote since it last flushed.
    let mut wrote = false;
    loop {
        if wrote && !input.buffer().contains(&b'\n') {
            // No complete line is held, so the next read may block.
            output.with(|out| out.flush());
            wrote = false;
        }
        raw.clear();
        let n = (&mut input)
            .take(MAX_LINE_BYTES as u64 + 1)
            .read_until(b'\n', &mut raw)?;
        if n == 0 {
            break;
        }
        let reply = 'reply: {
            if raw.last() != Some(&b'\n') && raw.len() > MAX_LINE_BYTES {
                input.skip_until(b'\n')?;
                break 'reply bad_line(format!("request line longer than {MAX_LINE_BYTES} bytes"));
            }
            let line = match raw.strip_suffix(b"\n") {
                Some(line) => line.strip_suffix(b"\r").unwrap_or(line),
                None => &raw,
            };
            let Ok(line) = std::str::from_utf8(line) else {
                break 'reply bad_line("request line is not valid UTF-8".to_string());
            };
            if line.trim().is_empty() {
                break 'reply None;
            }
            match parse_request(line) {
                Err(error) => Some(Reply::Error {
                    id: refused_id(line),
                    error,
                }),
                Ok(Request::Stats { id }) => Some(handle.stats_reply(id)),
                Ok(Request::Catalog { id }) => Some(handle.catalog_reply(id)),
                // Chaos runs execute synchronously on the read loop: they
                // are opt-in (`--net`) diagnostics whose determinism is the
                // point, so interleaving them with decide traffic would buy
                // nothing and cost reproducible ordering.
                Ok(Request::Chaos(req)) => Some(handle.chaos_reply(&req)),
                // A parked request's sink holds a handle on the output, so
                // `serve` returns only once it is answered.
                Ok(Request::Decide(req)) => handle.enqueue(req, Sink::Output(Arc::clone(&output))),
            }
        };
        if let Some(reply) = reply {
            let line = reply.render();
            output.with(|out| writeln!(out, "{line}"));
            wrote = true;
        }
    }
    drop(output);
    finished.recv().expect("a reply write panicked")?;
    Ok(handle.stats())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{CachedVerdict, MachineRegistry};
    use crate::service::ServiceConfig;
    use std::io::Cursor;
    use std::time::{Duration, Instant};
    use wam_certify::Json;
    use wam_core::Verdict;

    /// A `Write` that keeps the bytes written and stamps each newline
    /// with the instant it was written; one `write` may carry several
    /// lines or part of one. Only flushed bytes reach it, as the
    /// `BufWriter` in front of it holds the rest.
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

    /// The timer thread writes the deadline replies; the writer thread
    /// the name refers to is gone.
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
        // panic a worker and hang `serve` until its reply; now the size
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
