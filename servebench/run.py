#!/usr/bin/env python3
"""End-to-end benchmark of the `wam-serve` binary.

Builds `wam-serve` from the checkout it runs in, starts it as a child
process and pipes one of five seeded request mixes (workloads.py)
through its stdin/stdout transport. Run it from the root of a checkout:

    python3 servebench/run.py --workload hot --seed 1 --seconds 10 --trace 0

A run sends request batches until --seconds have passed, alternating
two clients: a closed loop that keeps WINDOW requests in flight, and a
lone caller that waits for each reply. Between batches it starts and
stops a spare server, SETUP_SPAWNS times in all spread evenly over the
run, to time the server's start-up. Every reply is checked against the
predicate its machine decides and against the cache outcome its place in
the batch allows, and every batch against the server's own counters. The
last line of standard output is one JSON object with the run's metrics.

With --trace 0 these are the end-to-end metrics (END_TO_END). With
--trace 1 the same schedule is replayed with one span per request and
the run reports how the time and work split across the layers
(PER_LAYER); the spans go to <CARGO_TARGET_DIR>/servebench/.
"""

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import collections  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

from client import Server, ServerError, host_ticks, now_ns, run_batch  # noqa: E402
from workloads import WORKLOADS, check_counters, check_decide, key_of  # noqa: E402

WINDOW = 8
SETUP_SPAWNS = 61
BUILD_TIMEOUT_S = 850
SPAN_REQUESTS = 20000

END_TO_END = {
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "throughput_rps": "1/s",
    "cpu_ms_per_req": "ms",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}

PER_LAYER = {
    "spawn_ms": "ms",
    "drain_ms": "ms",
    "request_us": "us",
    "service_us": "us",
    "transport_us": "us",
    "service_share": "ratio",
    "wait_loaded_us": "us",
    "cpu_us_per_req": "us",
    "requests": "count",
    "hit_rate": "ratio",
    "decided_rate": "ratio",
    "coalesced_rate": "ratio",
    "explored_per_req": "count",
    "reply_bytes_per_req": "B",
}


def die(message, code=2):
    print(f"servebench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    """Builds wam-serve from source; returns the binary and the target directory."""
    if not (Path("Cargo.toml").is_file() and Path("crates/serve/Cargo.toml").is_file()):
        die("run from the root of a checkout: Cargo.toml or crates/serve is missing")
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    try:
        done = subprocess.run(
            ["cargo", "build", "--release", "--offline", "-p", "wam-serve"],
            env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        die(f"cannot build wam-serve: {e}")
    if done.returncode != 0:
        die("cargo build failed")
    target = Path(env["CARGO_TARGET_DIR"])
    return str((target / "release" / "wam-serve").resolve()), target


def encode(rid, req):
    return json.dumps({"id": rid, **req}, separators=(",", ":")).encode() + b"\n"


class Run:
    """Everything one run measured."""

    def __init__(self, trace):
        self.trace = trace
        self.setup_ns = []
        self.spawn_ns = []
        self.drain_ns = []
        self.latency_ns = {WINDOW: [], 1: []}
        # Per pipelined batch: (median latency, p90 latency, requests per
        # second, share of the machine's CPU time the host stole meanwhile).
        # The lone caller's batches are too few and too long to report
        # steadily; they feed the per-layer split and the exact counter check.
        self.batch_stats = []
        self.cpu_s = 0.0
        self.peak_kib = 0
        self.attempted = 0
        self.failed = 0
        self.problems = []
        # Traced runs only.
        self.service_ns = {WINDOW: [], 1: []}
        self.server_counts = {"cache_hits": 0, "decided": 0, "coalesced": 0}
        self.reply_counts = {"explored": 0, "reply_bytes": 0}
        self.spans = []

    def problem(self, message):
        if len(self.problems) < 10:
            self.problems.append(message)

    def start(self, binary):
        server = Server(binary)
        self.spawn_ns.append(server.spawn_ns)
        if self.trace:
            self.spans.append({"span": "spawn", "server": len(self.spawn_ns), "dur_ns": server.spawn_ns})
        return server

    def retire(self, server):
        self.peak_kib = max(self.peak_kib, server.peak_rss_kib())
        self.drain_ns.append(server.close())
        self.cpu_s += server.cpu_s
        if self.trace:
            self.spans.append({"span": "drain", "server": len(self.spawn_ns), "dur_ns": self.drain_ns[-1]})

    def check(self, reqs, replies, caches):
        """Parses and checks every reply, whose cache outcome must be one of
        `caches[id]`; returns the replies parsed, by id."""
        parsed = {}
        for rid, raw in replies.items():
            reply = json.loads(raw)
            parsed[rid] = reply
            self.attempted += 1
            why = check_decide(reqs[rid], reply, caches[rid])
            if why:
                self.failed += 1
                self.problem(f"request {json.dumps(reqs[rid])}: {why}")
        return parsed

    def record(self, window, batch_no, start, elapsed, timings, reqs, replies, parsed, delta, steal):
        latencies = [lat for _, _, lat in timings]
        self.latency_ns[window].extend(latencies)
        if window == WINDOW:
            self.batch_stats.append((statistics.median(latencies), statistics.quantiles(latencies, n=10)[8],
                                     len(latencies) / (elapsed / 1e9), steal))
        why = check_counters(delta, parsed.values(), len(reqs))
        if why:
            self.problem(why)
        if not self.trace:
            return
        for key in self.server_counts:
            self.server_counts[key] += delta[key]
        counts = self.reply_counts
        for rid, sent, lat in timings:
            reply = parsed[rid]
            service = reply.get("micros", 0) * 1000
            self.service_ns[window].append(service)
            counts["reply_bytes"] += len(replies[rid]) + 1
            counts["explored"] += reply.get("explored", 0)
            if len(self.spans) < 2 * SPAN_REQUESTS:
                self.spans.append({"span": "request", "trace": rid, "parent": f"batch-{batch_no}",
                                   "start_ns": sent, "end_ns": sent + lat})
                self.spans.append({"span": "service", "trace": rid, "parent": "request",
                                   "dur_ns": service})
        self.spans.append({"span": "batch", "id": f"batch-{batch_no}", "window": window,
                           "start_ns": start, "end_ns": start + elapsed, "requests": len(reqs)})

    def end_to_end(self):
        # Each statistic is taken per batch, and the run reports its median
        # over the batches that lost no more CPU time to the host than the
        # run's median batch did: on a shared machine, bursts of steal time
        # otherwise decide the result. With no steal every batch counts.
        def across_batches(stat):
            batches = self.batch_stats
            calm = statistics.median(batch[3] for batch in batches)
            return statistics.median(batch[stat] for batch in batches if batch[3] <= calm)

        return {
            "latency_p50_ms": across_batches(0) / 1e6,
            "latency_p90_ms": across_batches(1) / 1e6,
            "throughput_rps": across_batches(2),
            # Whole server lives, start-up and warm-up included, over every
            # request they served: decisions run on short-lived threads, so
            # only the reaped process accounts for all of their CPU time.
            "cpu_ms_per_req": self.cpu_s * 1e3 / self.attempted,
            "peak_rss_mb": self.peak_kib / 1024,
            "setup_s": statistics.median(self.setup_ns) / 1e9,
        }

    def per_layer(self):
        serial, serial_service = self.latency_ns[1], self.service_ns[1]
        loaded, loaded_service = self.latency_ns[WINDOW], self.service_ns[WINDOW]
        requests = len(serial) + len(loaded)
        counts = self.reply_counts
        mean = statistics.fmean
        return {
            "spawn_ms": statistics.median(self.spawn_ns + self.setup_ns) / 1e6,
            "drain_ms": statistics.median(self.drain_ns) / 1e6,
            "request_us": mean(serial) / 1e3,
            "service_us": mean(serial_service) / 1e3,
            "transport_us": (mean(serial) - mean(serial_service)) / 1e3,
            "service_share": sum(serial_service) / sum(serial),
            "wait_loaded_us": (mean(loaded) - mean(loaded_service)) / 1e3,
            "cpu_us_per_req": self.cpu_s * 1e6 / self.attempted,
            "requests": requests,
            "hit_rate": self.server_counts["cache_hits"] / requests,
            "decided_rate": self.server_counts["decided"] / requests,
            "coalesced_rate": self.server_counts["coalesced"] / requests,
            "explored_per_req": counts["explored"] / requests,
            "reply_bytes_per_req": counts["reply_bytes"] / requests,
        }


def allowed_caches(workload, warm, window, reqs):
    """The cache outcomes each request of a batch may get, by id."""
    copies = collections.Counter(key_of(req) for req in reqs.values())
    seen = set()
    caches = {}
    for rid, req in reqs.items():
        key = key_of(req)
        caches[rid] = workload.caches(warm, window == 1, key not in seen, copies[key] > 1)
        seen.add(key)
    return caches


def measure(workload, binary, seed, seconds, trace):
    run = Run(trace)

    def time_setup(spawns):
        # Separate servers, so that start-up is timed on a cold process.
        while len(run.setup_ns) < spawns:
            with Server(binary) as server:
                run.setup_ns.append(server.spawn_ns)
                server.close()

    warmup, batches = workload.plan(random.Random(seed))
    ids = itertools.count(1)
    windows = itertools.cycle((WINDOW, 1))
    begin = now_ns()
    deadline = begin + seconds * 10**9
    server = None
    try:
        for batch_no in itertools.count():
            # Stop at the deadline, but only once both clients have run.
            if batch_no >= 2 and now_ns() >= deadline:
                break
            # Spread the start-up timings over the run, so that one burst
            # of host load does not move them all.
            time_setup(math.ceil(SETUP_SPAWNS * min(1, (now_ns() - begin) / (deadline - begin))))
            window = next(windows)
            reqs = {next(ids): req for req in next(batches)}
            lines = [(rid, encode(rid, req)) for rid, req in reqs.items()]
            if server is None or not warmup:
                if server is not None:
                    run.retire(server)
                    server = None
                server = run.start(binary)
                if warmup:
                    # One at a time, so the peak memory does not depend on
                    # which warm-up decisions happened to overlap.
                    warm = {next(ids): req for req in warmup}
                    _, _, replies = run_batch(server, [(rid, encode(rid, r)) for rid, r in warm.items()], 1)
                    run.check(warm, replies, dict.fromkeys(warm, ("miss",)))
            before = server.stats()
            ticks, start = host_ticks(), now_ns()
            elapsed, timings, replies = run_batch(server, lines, window)
            steal, total = (b - a for a, b in zip(ticks, host_ticks()))
            after = server.stats()
            delta = {k: after[k] - before[k] for k in after if isinstance(after[k], int)}
            parsed = run.check(reqs, replies, allowed_caches(workload, bool(warmup), window, reqs))
            run.record(window, batch_no, start, elapsed, timings, reqs, replies, parsed, delta,
                       steal / max(total, 1))
        run.retire(server)
        server = None
        time_setup(SETUP_SPAWNS)
    finally:
        if server is not None:
            server.kill()
    return run


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary, target = build()
    workload = WORKLOADS[args.workload]
    try:
        run = measure(workload, binary, args.seed, args.seconds, args.trace == 1)
    except (ServerError, OSError, ValueError) as e:
        die(f"{args.workload} run failed: {e}", 1)

    for problem in run.problems:
        print(f"servebench: {problem}", file=sys.stderr)
    if args.trace:
        values, units = run.per_layer(), PER_LAYER
        out = target / "servebench"
        out.mkdir(parents=True, exist_ok=True)
        with open(out / f"spans-{args.workload}-{args.seed}.jsonl", "w") as f:
            f.writelines(json.dumps(span) + "\n" for span in run.spans)
    else:
        values, units = run.end_to_end(), END_TO_END
    print(json.dumps({
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))


if __name__ == "__main__":
    main()
