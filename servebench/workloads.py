"""The five traffic mixes the benchmark drives through `wam-serve`.

Four of them draw on one fixed pool of decide requests; `mixed` uses the
keys and the 80/20 split of the steady phase of the `serve_traffic`
bench (crates/bench/benches/serve_traffic.rs, EXPERIMENTS.md E20). The
run's seed only orders the requests, because what a request costs
depends on its key: a seed that picked keys would change the work, not
just the inputs.

Each workload also knows the ground truth for its replies: the four
catalog machines decide simple predicates of the label counts, so the
benchmark checks every verdict against that predicate rather than
against the program's own output.
"""

import collections
import json

# The predicate each catalog machine decides, on counts = [#label0, #label1].
TRUTH = {
    "presence": lambda c: c[1] >= 1,
    "ladder": lambda c: c[0] >= 2,
    "majority": lambda c: c[0] > c[1],
    "parity": lambda c: c[0] % 2 == 1,
}

# Node counts per (machine, family) that the exact deciders answer in
# well under 0.2 s each. Stars and cliques start at 4 nodes because on 3
# nodes they are the line and the cycle again, which the store would
# answer from the cache.
DECIDE_SIZES = {
    "presence": {"cycle": range(3, 8), "line": range(3, 8), "star": range(4, 8), "clique": range(4, 8)},
    "ladder": {"cycle": range(3, 5), "line": range(3, 4), "star": range(4, 5), "clique": range(4, 8)},
    "majority": {"cycle": range(3, 6), "line": range(3, 6), "star": range(4, 6), "clique": range(4, 8)},
    "parity": {"cycle": range(3, 5), "line": range(3, 5), "star": range(4, 5), "clique": range(4, 7)},
}

HOT_REPEATS = 8
BURST_COPIES = 4

POOL = [(machine, family, [zeros, n - zeros], False)
        for machine, sizes in DECIDE_SIZES.items()
        for family, ns in sizes.items() for n in ns for zeros in range(n + 1)]

# The serve_traffic steady phase: 80% of the requests go to a 4-key hot
# set and 20% to a 20-key tail that includes certified keys. On 3 nodes
# the star is the line and the clique is the cycle, so some tail keys
# share a store entry with another key.
FAMILIES = ("cycle", "line", "star", "clique")
MIXED_HOT = [("presence", "cycle", [2, 1], False), ("presence", "star", [3, 1], False),
             ("parity", "cycle", [2, 2], False), ("ladder", "line", [2, 1], False)]
MIXED_TAIL = ([(m, f, c, False) for m in ("presence", "parity") for f in FAMILIES for c in ([2, 1], [2, 2])]
              + [("presence", f, [2, 1], True) for f in FAMILIES])
MIXED_HOT_REPEATS = 40
MIXED_TAIL_REPEATS = 2


def requests(keys, certified=None):
    return [{"machine": m, "family": f, "counts": c, "certified": certified if certified is not None else cert}
            for m, f, c, cert in keys]


def key_of(req):
    return json.dumps([req["machine"], req["family"], req["counts"], req["certified"]])


def check_decide(req, reply, caches):
    """None when `reply` answers `req` correctly, else the reason."""
    want = "accepts" if TRUTH[req["machine"]](req["counts"]) else "rejects"
    if reply.get("status") != "ok":
        return f"status {reply.get('status')}: {reply.get('error')}"
    if reply.get("verdict") != want:
        return f"verdict {reply.get('verdict')}, want {want}"
    if reply.get("cache") not in caches:
        return f"cache {reply.get('cache')}, want one of {caches}"
    if reply.get("certified") != req["certified"]:
        return f"certified {reply.get('certified')}, want {req['certified']}"
    if req["certified"] and not (reply.get("certificate_kind") in ("node", "counter", "ring")
                                 and isinstance(reply.get("certificate"), dict)):
        return "certificate missing"
    return None


def check_counters(stats, replies, n):
    """None when the server's counters over a batch of `n` requests agree
    with the `cache` outcomes of its `replies`, else the reason. A miss
    reply is the one decision task the service starts for its key."""
    tally = collections.Counter(reply.get("cache") for reply in replies)
    want = {"completed": n, "cache_hits": tally["hit"], "coalesced": tally["coalesced"], "decided": tally["miss"]}
    got = {k: stats[k] for k in want}
    return None if got == want else f"server counters {got}, want {want}"


class Workload:
    """One traffic mix; BENCHMARK.json says why each exists.

    `plan(rng)` returns the warm-up requests sent to each server before
    timing and an endless iterator of request batches. A workload without
    warm-up gives each batch a new server process, so its cache starts
    empty. `aliased` says that two keys of a batch may share a store entry.
    """

    def __init__(self, name, plan, aliased=False):
        self.name = name
        self.plan = plan
        self.aliased = aliased

    def caches(self, warm, serial, first, repeated):
        """The cache outcomes a reply may carry. `first`: no earlier request
        of the batch had its key; `repeated`: another one of the batch has."""
        if warm:
            return ("hit",)
        if serial:
            # The lone caller waits for each reply, so a key's first request
            # decides it and every later one hits the published entry.
            if not first:
                return ("hit",)
            return ("miss", "hit") if self.aliased else ("miss",)
        if repeated or self.aliased:
            # Pipelined copies may overtake each other, join a decision in
            # flight, or start a task just as the previous one publishes.
            return ("miss", "coalesced", "hit")
        return ("miss",)


def _hot_plan(rng):
    # A cache hit still canonicalises the request's graph, which costs
    # ~10 us on the median key and ~2 ms on a uniform 7-clique, so every
    # batch repeats every key equally often.
    keys = requests(POOL)

    def batches():
        while True:
            batch = keys * HOT_REPEATS
            rng.shuffle(batch)
            yield batch

    return keys, batches()


def _distinct_plan(certified):
    def plan(rng):
        def batches():
            while True:
                batch = requests(POOL, certified)
                rng.shuffle(batch)
                yield batch

        return [], batches()

    return plan


def _burst_plan(rng):
    def batches():
        while True:
            keys = requests(POOL)
            rng.shuffle(keys)
            yield [key for key in keys for _ in range(BURST_COPIES)]

    return [], batches()


def _mixed_plan(rng):
    # The exact 80/20 shares in every batch, not a draw per request, so
    # that every seed asks for the same work.
    def batches():
        while True:
            batch = requests(MIXED_HOT) * MIXED_HOT_REPEATS + requests(MIXED_TAIL) * MIXED_TAIL_REPEATS
            rng.shuffle(batch)
            yield batch

    return [], batches()


WORKLOADS = {
    w.name: w
    for w in (
        Workload("hot", _hot_plan),
        Workload("cold", _distinct_plan(False)),
        Workload("certified", _distinct_plan(True)),
        Workload("burst", _burst_plan),
        Workload("mixed", _mixed_plan, aliased=True),
    )
}
