//! The line transport end to end through `serve`: the replies the read
//! loop writes itself are flushed before it blocks on its input, and every
//! line stays whole while workers write large replies beside it.

use std::io::{Read, Write};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use wam_certify::Json;
use wam_serve::{serve, ServiceConfig, VerdictService};

/// A `Write` that keeps the bytes that reach it; `serve`'s `BufWriter`
/// holds back whatever it has not flushed.
#[derive(Clone, Default)]
struct Shared(Arc<Mutex<Vec<u8>>>);

impl Shared {
    fn lines(&self) -> Vec<String> {
        let bytes = self.0.lock().unwrap();
        let text = std::str::from_utf8(&bytes).unwrap();
        text.lines().map(String::from).collect()
    }
}

impl Write for Shared {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// A `Read` that hands out the chunks the test sends, blocking until the
/// next one arrives; EOF once the sender is gone.
struct Fed(Receiver<Vec<u8>>, Vec<u8>);

impl Read for Fed {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.1.is_empty() {
            self.1 = self.0.recv().unwrap_or_default();
        }
        let n = buf.len().min(self.1.len());
        buf[..n].copy_from_slice(&self.1[..n]);
        self.1.drain(..n);
        Ok(n)
    }
}

/// Runs `serve` on a paper-catalog service with `workers` workers, fed by
/// `feed` through a [`Fed`] reader, and returns every output line once
/// `serve` has returned. `feed` sees the output as it is flushed, and the
/// service.
fn serve_fed(
    workers: usize,
    feed: impl FnOnce(&Sender<Vec<u8>>, &Shared, &VerdictService),
) -> Vec<String> {
    let config = ServiceConfig {
        workers,
        ..ServiceConfig::default()
    };
    let service = VerdictService::with_paper_catalog(config);
    let out = Shared::default();
    std::thread::scope(|s| {
        let (tx, rx) = mpsc::channel();
        let (service, sink) = (&service, out.clone());
        let server = s.spawn(move || serve(service, Fed(rx, Vec::new()), sink).unwrap());
        // The sender is dropped when `feed` returns or panics, so `serve`
        // sees EOF and the scope can join it.
        feed(&tx, &out, service);
        drop(tx);
        server.join().unwrap();
    });
    out.lines()
}

#[test]
fn the_read_loop_flushes_before_it_blocks() {
    let key = r#"{"id":1,"machine":"presence","family":"cycle","counts":[2,1]"#;
    let lines = serve_fed(2, |tx, out, _| {
        // A miss that a worker answers; then a hit and a parse error; then
        // a hit followed by the first part of a line. Each chunk's replies
        // must be out before the next chunk is sent.
        let chunks = [
            (format!("{key}}}\n"), 1, r#""cache":"miss""#),
            (format!("{key}}}\nnot json\n"), 3, r#""kind":"bad-request""#),
            (format!("{key}}}\n{{\"id\":2,"), 4, r#""cache":"hit""#),
            ("\"op\":\"stats\"}\n".to_string(), 5, r#""status":"stats""#),
        ];
        for (chunk, count, last) in chunks {
            tx.send(chunk.into_bytes()).unwrap();
            let sent = Instant::now();
            while out.lines().len() < count {
                assert!(
                    sent.elapsed() < Duration::from_secs(5),
                    "reply {count} was held back: {:?}",
                    out.lines()
                );
                std::thread::sleep(Duration::from_millis(2));
            }
            assert!(out.lines()[count - 1].contains(last), "{:?}", out.lines());
        }
        // A certified decision parks its reply, and EOF follows at once.
        let certified =
            r#"{"id":3,"machine":"majority","family":"line","counts":[5,1],"certified":true}"#;
        tx.send(format!("{certified}\n").into_bytes()).unwrap();
    });
    assert_eq!(lines.len(), 6, "serve returned before the parked reply");
    assert!(lines[5].starts_with(r#"{"id":3,"#), "{}", lines[5]);
    assert!(lines[5].contains("certificate_kind"), "{}", lines[5]);
}

#[test]
fn lines_stay_whole_under_concurrent_writers() {
    // Certified majority keys whose replies carry large certificates
    // (line [5,1] about 139 KB, line [6,1] about 613 KB), decided by four
    // workers while the read loop answers plain hits and, once line [5,1]
    // is stored, hits on it. With the plain key, 7 decisions in all.
    let certified: Vec<String> = [
        ("line", "[5,1]"),
        ("line", "[4,2]"),
        ("line", "[6,1]"),
        ("cycle", "[5,1]"),
        ("cycle", "[4,2]"),
        ("star", "[5,1]"),
    ]
    .iter()
    .map(|(family, counts)| {
        format!(r#""machine":"majority","family":"{family}","counts":{counts},"certified":true}}"#)
    })
    .collect();
    let plain = r#""machine":"presence","family":"cycle","counts":[2,1]}"#;
    let mut sent = 0u64;
    let lines = serve_fed(4, |tx, _, service| {
        let mut line = |body: &str| {
            sent += 1;
            format!("{{\"id\":{sent},{body}\n")
        };
        let mut chunk: String = certified.iter().map(|body| line(body)).collect();
        let start = Instant::now();
        // Hits go on until every decision has been made, plus 20 rounds,
        // so the workers write their replies among the read loop's.
        let mut rounds_left = 20;
        for round in 0.. {
            chunk.extend((0..10).map(|_| line(plain)));
            if round % 10 == 0 {
                chunk.push_str(&line(&certified[0]));
            }
            tx.send(std::mem::take(&mut chunk).into_bytes()).unwrap();
            std::thread::sleep(Duration::from_millis(2));
            if service.stats().decided == 7 {
                rounds_left -= 1;
                if rounds_left == 0 {
                    break;
                }
            }
            assert!(start.elapsed() < Duration::from_secs(60), "a decision hung");
        }
    });
    let mut ids: Vec<u64> = lines
        .iter()
        .map(
            |line| match Json::parse(line).map(|v| v.get("id").cloned()) {
                Ok(Some(Json::Num(id))) => id as u64,
                _ => panic!(
                    "not a whole reply line: {}",
                    line.get(..200).unwrap_or(line)
                ),
            },
        )
        .collect();
    ids.sort_unstable();
    assert_eq!(ids, (1..=sent).collect::<Vec<_>>(), "every id once");
    assert!(lines.iter().any(|l| l.len() > 100_000), "no large reply");
}
