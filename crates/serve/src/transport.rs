//! The framed line transport: requests in on a [`BufRead`], replies out
//! on a [`Write`], one JSON document per line.
//!
//! The read loop parses and dispatches each line without waiting for the
//! decision — decide jobs become tasks on the service runtime, and their
//! replies flow through a bounded mpsc channel to a dedicated writer
//! thread. Replies therefore come back in *completion* order; clients
//! match them up by `id`. Parse failures and the synchronous ops
//! (`stats`, `catalog`) are answered inline, in order of arrival.
//!
//! Lines are read as raw bytes: a line that is not UTF-8, or longer than
//! [`MAX_LINE_BYTES`], gets a `bad-request` reply and the loop moves on to
//! the next line. An overlong line is skipped without being buffered.

use crate::error::ServeError;
use crate::proto::{parse_request, refused_id, Reply, Request};
use crate::service::{ServiceStats, VerdictService};
use executor::{block_on, mpsc};
use std::io::{BufRead, Read, Write};
use std::thread;

/// How many rendered replies may queue for the writer before dispatch
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
    let (tx, mut rx) = mpsc::channel::<String>(REPLY_QUEUE);

    let writer = thread::Builder::new()
        .name("serve-writer".to_string())
        .spawn(move || -> std::io::Result<W> {
            let mut output = output;
            while let Some(line) = block_on(rx.recv()) {
                output.write_all(line.as_bytes())?;
                output.write_all(b"\n")?;
                output.flush()?;
            }
            Ok(output)
        })
        .expect("spawn serve writer thread");

    let bad_line = |reason: String| {
        let error = ServeError::BadRequest { reason };
        let _ = block_on(tx.send(Reply::Error { id: None, error }.render()));
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
            Err(error) => {
                let reply = Reply::Error {
                    id: refused_id(line),
                    error,
                };
                let _ = block_on(tx.send(reply.render()));
            }
            Ok(Request::Stats { id }) => {
                let _ = block_on(tx.send(handle.stats_reply(id).render()));
            }
            Ok(Request::Catalog { id }) => {
                let _ = block_on(tx.send(handle.catalog_reply(id).render()));
            }
            Ok(Request::Chaos(req)) => {
                // Chaos runs execute synchronously on the read loop: they
                // are opt-in (`--net`) diagnostics whose determinism is
                // the point, so interleaving them with decide traffic
                // would buy nothing and cost reproducible ordering.
                let _ = block_on(tx.send(handle.chaos_reply(&req).render()));
            }
            Ok(Request::Decide(req)) => {
                // Dropping the join handle is fine: the task owns a tx
                // clone, so the writer drains it before shutting down.
                drop(handle.submit_to_writer(req, tx.clone()));
            }
        }
    }

    // Dropping the last reader-side sender lets the writer finish once
    // every in-flight decide task has sent its reply and dropped its
    // own clone.
    drop(tx);
    let output = writer.join().expect("serve writer thread panicked")?;
    drop(output);
    Ok(handle.stats())
}

impl crate::service::ServiceHandle {
    /// Spawns `req` and routes its rendered reply into `tx` — the
    /// transport's dispatch primitive, public so custom transports and
    /// tests can reuse it.
    pub fn submit_to_writer(
        &self,
        req: crate::proto::DecideRequest,
        tx: mpsc::Sender<String>,
    ) -> executor::JoinHandle<()> {
        let h = self.clone();
        self.submit_raw(async move {
            let reply = h.process(req).await;
            let _ = tx.send(reply.render()).await;
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServiceConfig;
    use std::io::Cursor;
    use std::sync::{Arc, Mutex};
    use wam_certify::Json;

    /// A `Write` that appends into a shared buffer the test can inspect
    /// after `serve` returns.
    #[derive(Clone)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
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
        let buf = SharedBuf(Arc::new(Mutex::new(Vec::new())));
        let stats = serve(&service, input, buf.clone()).unwrap();
        assert_eq!(stats.received, 2);
        assert_eq!(stats.completed, 2);

        let raw = buf.0.lock().unwrap();
        let text = String::from_utf8(raw.clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4, "{text}");
        let mut ok = 0;
        let mut errors = 0;
        let mut catalogs = 0;
        for line in lines {
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
        let buf = SharedBuf(Arc::new(Mutex::new(Vec::new())));
        let stats = serve(&service, input, buf.clone()).unwrap();
        assert_eq!(stats.completed, 1);

        let raw = buf.0.lock().unwrap();
        let text = String::from_utf8(raw.clone()).unwrap();
        let mut statuses: Vec<(u64, String)> = text
            .lines()
            .map(|line| {
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
        let buf = SharedBuf(Arc::new(Mutex::new(Vec::new())));
        serve(&service, Cursor::new(input), buf.clone()).unwrap();
        let raw = buf.0.lock().unwrap();
        String::from_utf8(raw.clone())
            .unwrap()
            .lines()
            .map(|line| {
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
