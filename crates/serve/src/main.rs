//! The `wam-serve` binary: the certified-verdict service on
//! stdin/stdout, one JSON request per line in, one JSON reply per line
//! out (completion order; match replies by `id`).
//!
//! ```text
//! wam-serve [--workers N] [--admission N] [--capacity N] [--deadline-ms N]
//!           [--max-nodes N] [--net] [--catalog]
//! ```
//!
//! `--net` enables the chaos backend: `{"op":"chaos",...}` requests run
//! catalog machines as real communicating nodes over a simulated faulty
//! network and cross-validate the emergent verdict against the exact
//! decider.

use std::io::Write as _;
use std::process::ExitCode;
use std::time::Duration;
use wam_serve::{serve, ServiceConfig, VerdictService};

fn usage() -> ! {
    eprintln!(
        "usage: wam-serve [--workers N] [--admission N] [--capacity N] \
         [--deadline-ms N] [--max-nodes N] [--net] [--catalog]"
    );
    std::process::exit(2);
}

fn main() -> ExitCode {
    let mut config = ServiceConfig::default();
    let mut print_catalog = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut num = |name: &str| -> usize {
            args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                eprintln!("{name} needs a numeric argument");
                usage()
            })
        };
        match arg.as_str() {
            "--workers" => config.workers = num("--workers").max(1),
            "--admission" => config.admission = num("--admission").max(1),
            "--capacity" => config.store_capacity = Some(num("--capacity").max(1)),
            "--deadline-ms" => {
                config.default_deadline = Some(Duration::from_millis(num("--deadline-ms") as u64))
            }
            "--max-nodes" => config.max_nodes = (num("--max-nodes") as u64).max(3),
            "--net" => config.net = true,
            "--catalog" => print_catalog = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument {other:?}");
                usage()
            }
        }
    }

    let service = VerdictService::with_paper_catalog(config);
    if print_catalog {
        let line = service.handle().catalog_reply(None).render();
        println!("{line}");
        return ExitCode::SUCCESS;
    }

    match serve(&service, std::io::stdin().lock(), std::io::stdout()) {
        Ok(stats) => {
            // The snapshot goes to stderr so reply parsers on stdout
            // never see it.
            let _ = writeln!(
                std::io::stderr(),
                "wam-serve: {} received, {} completed, {} hits, {} coalesced, \
                 {} decided, {} overloaded, {} deadline, {} degraded",
                stats.received,
                stats.completed,
                stats.cache_hits,
                stats.coalesced,
                stats.decided,
                stats.rejected_overload,
                stats.rejected_deadline,
                stats.degraded,
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("wam-serve: I/O error: {e}");
            ExitCode::FAILURE
        }
    }
}
