//! **E20 — synthetic heavy traffic against the certified-verdict
//! service:** closed-loop clients hammer a [`VerdictService`] over the
//! E1 grid with a skewed key distribution, plus three targeted bursts
//! that pin down the service's load-shedding behaviours:
//!
//! * a *coalescing burst* — identical cold-key requests arriving while
//!   the first is still deciding must join it, not re-decide;
//! * an *overload burst* — more distinct cold keys at once than the
//!   admission bound allows must be rejected, not queued;
//! * a *degrade probe* — a certified request with a deadline shorter
//!   than the decision, over a warm plain cache, must be answered with
//!   the plain verdict (`degraded`), not rejected.
//!
//! Results (requests/s, p50/p99 latency, cache hit rate, coalesced
//! fraction, rejection/degrade counts) go to stdout and to
//! `BENCH_serve.json` at the repository root, pinned by
//! `tests/bench_schema.rs`.

use std::time::{Duration, Instant};
use wam_core::Verdict;
use wam_serve::{
    CachedVerdict, DecideRequest, MachineRegistry, Reply, ServiceConfig, VerdictService,
};

const WORKERS: usize = 6;
const ADMISSION: usize = 8;
const CLIENTS: usize = 8;
const REQUESTS_PER_CLIENT: usize = 150;
/// The synthetic decision time of the burst-phase registry entry: long
/// enough that a burst submitted in microseconds lands inside it.
const SLOW_MS: u64 = 25;

fn req(machine: &str, family: &str, counts: &[u64], certified: bool) -> DecideRequest {
    DecideRequest {
        id: None,
        machine: machine.to_string(),
        family: family.to_string(),
        counts: counts.to_vec(),
        certified,
        deadline_ms: None,
    }
}

/// The paper catalog plus one synthetic entry with a fixed decision
/// cost, used by the burst phases so their timing does not depend on
/// engine performance.
fn registry() -> MachineRegistry {
    let mut reg = MachineRegistry::paper_catalog();
    reg.register_with(
        "slow",
        "synthetic fixed-cost decision for the burst phases",
        2,
        Box::new(|_g, _certified| {
            std::thread::sleep(Duration::from_millis(SLOW_MS));
            Ok(CachedVerdict {
                verdict: Verdict::Accepts,
                backend: "synthetic".to_string(),
                explored: 1,
                certificate: None,
            })
        }),
    );
    reg
}

/// A splitmix-style deterministic generator (no clock seeding: runs are
/// reproducible).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

fn expect_ok(reply: Reply) -> wam_serve::OkReply {
    match reply {
        Reply::Ok(ok) => ok,
        other => panic!("expected ok reply, got {other:?}"),
    }
}

fn main() {
    let service = VerdictService::new(
        registry(),
        ServiceConfig {
            workers: WORKERS,
            admission: ADMISSION,
            ..ServiceConfig::default()
        },
    );
    let handle = service.handle();

    // ------------------------------------------------------------------
    // Phase 1: coalescing burst. Submit a pack of identical cold-key
    // requests; the ones arriving during the leader's decision join it.
    // Retried with a fresh key in the (unlikely) event the whole pack
    // was scheduled after the leader finished.
    println!("phase 1: coalescing burst");
    let mut attempt = 0u64;
    while service.stats().coalesced == 0 {
        assert!(attempt < 8, "no burst produced a coalesced join");
        let counts = [2 + attempt, 1];
        let handles: Vec<_> = (0..24)
            .map(|_| handle.submit(req("slow", "cycle", &counts, false)))
            .collect();
        for h in handles {
            let ok = expect_ok(h.recv().unwrap());
            assert_eq!(ok.result.verdict, Verdict::Accepts);
        }
        attempt += 1;
    }
    let after_coalesce = service.stats();
    println!(
        "  {} joined in-flight decisions, {} decided",
        after_coalesce.coalesced, after_coalesce.decided
    );

    // ------------------------------------------------------------------
    // Phase 2: overload burst. More distinct cold keys at once than the
    // admission bound can hold; the excess must be rejected immediately.
    println!("phase 2: overload burst (admission bound {ADMISSION})");
    let mut round = 0u64;
    while service.stats().rejected_overload == 0 {
        assert!(round < 8, "no burst tripped admission control");
        let handles: Vec<_> = (0..32)
            .map(|k| handle.submit(req("slow", "cycle", &[k + 2, 40 + round], false)))
            .collect();
        let mut rejected = 0;
        for h in handles {
            match h.recv().unwrap() {
                Reply::Ok(_) => {}
                Reply::Error { error, .. } => {
                    assert_eq!(error.kind(), "overloaded", "unexpected rejection: {error}");
                    rejected += 1;
                }
                other => panic!("unexpected reply {other:?}"),
            }
        }
        println!("  round {round}: {rejected}/32 rejected");
        round += 1;
    }

    // ------------------------------------------------------------------
    // Phase 3: degrade probe. Warm the plain cache, then ask for a
    // certified verdict with a deadline far shorter than the decision:
    // the service answers with the cached plain verdict, degraded.
    println!("phase 3: deadline degrade probe");
    let mut probe = 0u64;
    while service.stats().degraded == 0 {
        assert!(probe < 8, "no probe degraded");
        let counts = [9 + probe, 9];
        let _ = expect_ok(handle.process(req("slow", "cycle", &counts, false)));
        let mut certified = req("slow", "cycle", &counts, true);
        certified.deadline_ms = Some(5);
        match handle.process(certified.clone()) {
            Reply::Ok(ok) => {
                assert!(
                    ok.degraded,
                    "an in-deadline certified reply on a {SLOW_MS} ms decision"
                );
                assert!(ok.result.certificate.is_none());
            }
            Reply::Error { error, .. } => {
                panic!("degrade probe must not reject: {error}")
            }
            other => panic!("unexpected reply {other:?}"),
        }
        // The degraded request's decision keeps running; wait for it so
        // the final counts include it.
        certified.deadline_ms = None;
        let _ = expect_ok(handle.process(certified));
        probe += 1;
    }

    // ------------------------------------------------------------------
    // Phase 4: steady closed-loop traffic over the E1 grid. Each client
    // thread issues requests back-to-back; 80% of them go to a 4-key
    // hot set, the rest spread over a ~20-key tail (including certified
    // presence requests, whose certificates cache separately).
    println!("phase 4: closed loop, {CLIENTS} clients x {REQUESTS_PER_CLIENT} requests");
    let hot: Vec<DecideRequest> = vec![
        req("presence", "cycle", &[2, 1], false),
        req("presence", "star", &[3, 1], false),
        req("parity", "cycle", &[2, 2], false),
        req("ladder", "line", &[2, 1], false),
    ];
    let mut tail: Vec<DecideRequest> = Vec::new();
    for machine in ["presence", "parity"] {
        for family in ["cycle", "line", "star", "clique"] {
            for counts in [[2u64, 1], [2, 2]] {
                tail.push(req(machine, family, &counts, false));
            }
        }
    }
    for family in ["cycle", "line", "star", "clique"] {
        tail.push(req("presence", family, &[2, 1], true));
    }

    let steady_start = Instant::now();
    let mut workers = Vec::new();
    for client in 0..CLIENTS {
        let handle = handle.clone();
        let hot = hot.clone();
        let tail = tail.clone();
        workers.push(std::thread::spawn(move || {
            let mut rng = Rng(0x9E3779B97F4A7C15 ^ (client as u64 + 1));
            let mut latencies = Vec::with_capacity(REQUESTS_PER_CLIENT);
            for _ in 0..REQUESTS_PER_CLIENT {
                let r = if rng.next() % 10 < 8 {
                    hot[(rng.next() as usize) % hot.len()].clone()
                } else {
                    tail[(rng.next() as usize) % tail.len()].clone()
                };
                let t = Instant::now();
                let reply = handle.process(r);
                latencies.push(t.elapsed().as_micros() as u64);
                match reply {
                    Reply::Ok(_) => {}
                    other => panic!("steady-phase request failed: {other:?}"),
                }
            }
            latencies
        }));
    }
    let mut latencies: Vec<u64> = Vec::new();
    for w in workers {
        latencies.extend(w.join().expect("client thread"));
    }
    let steady_elapsed = steady_start.elapsed();
    latencies.sort_unstable();
    let p = |q: f64| latencies[((latencies.len() - 1) as f64 * q) as usize];
    let p50 = p(0.50);
    let p99 = p(0.99);
    let steady_requests = latencies.len() as u64;
    let requests_per_sec = steady_requests as f64 / steady_elapsed.as_secs_f64();

    // ------------------------------------------------------------------
    let stats = service.stats();
    let hit_rate = stats.cache_hits as f64 / stats.received as f64;
    let coalesced_fraction = stats.coalesced as f64 / stats.received as f64;
    println!("\ntotals:");
    println!("  received            {}", stats.received);
    println!("  completed           {}", stats.completed);
    println!(
        "  cache hits          {} ({:.1}%)",
        stats.cache_hits,
        100.0 * hit_rate
    );
    println!(
        "  coalesced           {} ({:.1}%)",
        stats.coalesced,
        100.0 * coalesced_fraction
    );
    println!("  decided             {}", stats.decided);
    println!("  rejected (overload) {}", stats.rejected_overload);
    println!("  rejected (deadline) {}", stats.rejected_deadline);
    println!("  degraded            {}", stats.degraded);
    println!("  distinct cached     {}", service.store().len());
    println!("  steady throughput   {requests_per_sec:.0} req/s");
    println!("  steady latency      p50 {p50} us, p99 {p99} us");

    // The acceptance pins, asserted before the report is written.
    assert!(hit_rate >= 0.5, "cache hit rate {hit_rate:.2} below 0.5");
    assert!(stats.coalesced > 0, "no request coalesced");
    assert!(
        stats.rejected_overload > 0,
        "admission control never tripped"
    );
    assert!(stats.degraded > 0, "no certified request degraded");
    assert!(p99 >= p50);
    // One decision per cached key: nothing evicts here, so a second
    // decision of a key would show as `decided` above the store size.
    assert_eq!(
        stats.decided,
        service.store().len() as u64,
        "a key was decided more than once"
    );

    let json = format!(
        "{{\n  \"bench\": \"serve_traffic\",\n  \"note\": \"closed-loop clients over the E1 grid with an 80/20 hot-set skew, plus coalescing / overload / degrade bursts against a synthetic fixed-cost entry; latencies and throughput are steady-phase only\",\n  \"workers\": {WORKERS},\n  \"admission\": {ADMISSION},\n  \"clients\": {CLIENTS},\n  \"requests\": {},\n  \"steady_requests\": {steady_requests},\n  \"steady_elapsed_ms\": {:.3},\n  \"requests_per_sec\": {requests_per_sec:.1},\n  \"p50_us\": {p50},\n  \"p99_us\": {p99},\n  \"cache_hit_rate\": {hit_rate:.4},\n  \"coalesced_fraction\": {coalesced_fraction:.4},\n  \"cache_hits\": {},\n  \"coalesced\": {},\n  \"decided\": {},\n  \"rejected_overload\": {},\n  \"rejected_deadline\": {},\n  \"degraded\": {},\n  \"distinct_keys\": {}\n}}\n",
        stats.received,
        steady_elapsed.as_secs_f64() * 1e3,
        stats.cache_hits,
        stats.coalesced,
        stats.decided,
        stats.rejected_overload,
        stats.rejected_deadline,
        stats.degraded,
        service.store().len(),
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serve.json");
    std::fs::write(path, &json).expect("write BENCH_serve.json");
    println!("\nwrote {path}");
}
