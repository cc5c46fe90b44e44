//! The certified-verdict service used in-process (DESIGN.md §3a.6):
//! build a [`VerdictService`] over the Figure-1 catalog, fire a burst of
//! concurrent identical requests (they coalesce onto one decision), hit
//! the warm cache, degrade an out-of-time certified request, and print
//! the service counters. The `wam-serve` binary wraps the same service
//! behind line-JSON stdin/stdout.

use weak_async_models::serve::{CacheOutcome, DecideRequest, Reply, ServiceConfig, VerdictService};

fn req(machine: &str, counts: &[u64], certified: bool) -> DecideRequest {
    DecideRequest {
        id: None,
        machine: machine.to_string(),
        family: "cycle".to_string(),
        counts: counts.to_vec(),
        certified,
        deadline_ms: None,
    }
}

fn main() {
    let service = VerdictService::with_paper_catalog(ServiceConfig::default());
    let handle = service.handle();

    println!("== burst: 8 concurrent identical majority requests ==");
    let burst: Vec<_> = (0..8)
        .map(|_| handle.submit(req("majority", &[3, 2], true)))
        .collect();
    for h in burst {
        match h.recv().unwrap() {
            Reply::Ok(ok) => println!(
                "  {} via {} ({} explored, cache: {}, certificate: {})",
                ok.result.verdict,
                ok.result.backend,
                ok.result.explored,
                ok.cache.as_str(),
                ok.result.certificate.as_ref().map_or("none", |c| c.kind()),
            ),
            other => panic!("burst request failed: {other:?}"),
        }
    }

    println!("\n== warm hit: the burst's key again, after it completed ==");
    match handle.process(req("majority", &[3, 2], true)) {
        Reply::Ok(ok) => {
            assert_eq!(ok.cache, CacheOutcome::Hit);
            println!(
                "  cycle[3,2]: {} (cache: {})",
                ok.result.verdict,
                ok.cache.as_str()
            );
        }
        other => panic!("{other:?}"),
    }

    println!("\n== deadline degrade: certified parity with 0 ms budget ==");
    // Warm the plain cache first, then ask for a certificate with no time.
    let plain = handle.process(req("parity", &[2, 1], false));
    assert!(matches!(plain, Reply::Ok(_)));
    let mut hopeless = req("parity", &[2, 1], true);
    hopeless.deadline_ms = Some(0);
    match handle.process(hopeless) {
        Reply::Ok(ok) => {
            assert!(ok.degraded);
            assert_eq!(ok.cache, CacheOutcome::Hit);
            println!(
                "  {} served from the plain cache (degraded: {})",
                ok.result.verdict, ok.degraded
            );
        }
        other => panic!("degrade must not reject: {other:?}"),
    }

    let stats = service.stats();
    println!(
        "\nstats: {} received, {} hits, {} coalesced, {} decided, {} degraded",
        stats.received, stats.cache_hits, stats.coalesced, stats.decided, stats.degraded
    );
    assert_eq!(
        stats.decided as usize,
        service.store().len(),
        "every decision is cached exactly once"
    );
}
