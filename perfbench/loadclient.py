"""server-mixed traffic: one client process, two connections, open loop.

Started by ``iteration.py`` once the daemon has booted and its hit set
is seeded.  One connection sends single-job hit requests at
``HIT_RATE`` per second; the other sends two-job miss requests (two
first-time jobs on two different traces) spread evenly over the same
``TRAFFIC_SECONDS`` window.  Each request has a due time fixed before
the clock starts, and every latency runs from that due time (see
``benchstats.open_loop_timings``), so a request the generator sent late
still carries the wait.  The sum of those latencies is server-mixed's
``wall_s``: it grows when the hit or the miss path gets slower, not
only when the server falls behind the schedule.

Every miss carries its result body, which is digested client-side
(``result_digests(verify=True)``); hits carry the server's digest only,
to keep serialisation out of the hit path, and after the window every
hit-set job is fetched once more with its body and digested
client-side.  All digests are compared with ``reference/server.json``.
Prints one JSON object on its last line.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import benchstats  # noqa: E402
import tracing  # noqa: E402
from workload_spec import (HIT_RATE, TRAFFIC_SECONDS, hit_schedule,  # noqa: E402
                           miss_pairs)

PINGS = 50


def _sleep_until(due: float) -> None:
    delay = due - time.perf_counter()
    if delay > 0:
        time.sleep(delay)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--address", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer, tracing.CLIENT_PROBES)
    from repro.server.client import JobResult, ServerClient, result_digests

    reference = json.loads((HERE / "reference" / "server.json").read_text())
    hits = hit_schedule(args.seed)
    pairs = miss_pairs(args.seed)
    interval = TRAFFIC_SECONDS / len(pairs)

    hit_conn = ServerClient(args.address, tenant="hits")
    miss_conn = ServerClient(args.address, tenant="misses")
    try:
        for _ in range(PINGS):  # traced: the server.ping_p50_ms sample
            hit_conn.ping()
        records = {"hit": [], "miss": []}   # (due, sent, done, result)
        refused = {"hit": 0, "miss": 0}
        job_errors = []
        failures = []
        start = time.perf_counter() + 0.05

        def send_hits() -> None:
            for index, job in enumerate(hits):
                due = start + index / HIT_RATE
                _sleep_until(due)
                sent = time.perf_counter()
                outcome = hit_conn.submit([job], detail="digest")
                done = time.perf_counter()
                if not outcome.accepted:
                    refused["hit"] += 1
                    continue
                job_errors.extend(outcome.errors)
                for item in outcome.results:
                    records["hit"].append((due, sent, done, item))

        def send_misses() -> None:
            for index, pair in enumerate(pairs):
                due = start + index * interval
                _sleep_until(due)
                sent = time.perf_counter()
                outcome = miss_conn.submit(list(pair), detail="full",
                                           wait=False)
                if not outcome.accepted:
                    refused["miss"] += len(pair)
                    continue
                for _ in pair:
                    frame = miss_conn.collect(1)[0]
                    done = time.perf_counter()
                    if frame.get("t") != "result":
                        job_errors.append(frame)
                        continue
                    records["miss"].append((due, sent, done, JobResult(
                        workload=frame["workload"], key=frame["key"],
                        instructions=frame["instructions"],
                        source=frame.get("source", "?"),
                        digest=frame.get("digest", ""),
                        seconds=float(frame.get("seconds") or 0.0),
                        payload=frame.get("result"))))

        def guarded(body):
            def run():
                try:
                    body()
                except BaseException as error:  # reported, then re-raised
                    failures.append(error)
            return run

        threads = [threading.Thread(target=guarded(send_hits)),
                   threading.Thread(target=guarded(send_misses))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        window_end = time.perf_counter()
        if failures:
            raise failures[0]
        stats = hit_conn.stats()
        # Outside the window: every hit-set result once more with its
        # body, so the hits' content is checked client-side too.
        verified = hit_conn.submit(sorted(set(hits)), detail="full")
    finally:
        hit_conn.close()
        miss_conn.close()

    errors = [f"job error: {frame}" for frame in job_errors]
    served = [item for rows in records.values() for *_, item in rows]
    mismatched = 0
    for item in served + verified.results:
        label = f"{item.workload}|{item.key}|{item.instructions}"
        if result_digests([item])[label] != reference["digests"].get(label):
            mismatched += 1
    unverified = int(not verified.accepted or bool(verified.errors) or any(
        item.payload is None for item in verified.results))
    if unverified:
        errors.append("hit-set verification pass failed")
    if mismatched:
        errors.append(f"{mismatched} served results differ from reference")
    if any(item.source == "cache" for *_, item in records["miss"]):
        errors.append("a first-time job was answered from the cache")
    if any(item.source != "cache" for *_, item in records["hit"]):
        errors.append("a hit-set job was not answered from the cache")

    timing = {}
    for kind in ("hit", "miss"):
        rows = records[kind]
        timing[kind] = benchstats.open_loop_timings(
            [r[0] for r in rows], [r[1] for r in rows], [r[2] for r in rows])
    lateness = timing["hit"]["lateness"] + timing["miss"]["lateness"]
    attempted = len(hits) + 2 * len(pairs)
    refusals = refused["hit"] + refused["miss"]
    layers = {
        "server.coalesced": (stats["accepted"] - stats["served"]["computed"]
                             - stats["errors"]),
        "server.refused": sum(stats["rejected"].values()),
        "loadgen.sent": len(hits) + len(pairs),
        "loadgen.late_p99_ms": benchstats.percentile(lateness, 99.0) * 1000.0,
    }
    if tracer is not None:
        spans = tracer.collect()
        tracing.check_coverage(spans, tracing.SERVER, tracing.CLIENT_PROBES)
        layers["server.ping_p50_ms"] = benchstats.median(
            (s["end"] - s["start"]) * 1000.0 for s in spans
            if s["name"] == "server.ping")
    out = {
        # server-mixed's wall_s: how long the run's users waited in all,
        # every hit request and every miss job from its due time.
        "latency_sum_s": sum(timing["hit"]["latency"])
        + sum(timing["miss"]["latency"]),
        "window_end": window_end,
        "hit_ms": [t * 1000.0 for t in timing["hit"]["latency"]],
        "miss_ms": [t * 1000.0 for t in timing["miss"]["latency"]],
        "attempted": attempted,
        "failed": min(attempted, refusals + len(job_errors) + mismatched
                      + unverified),
        "errors": errors,
        "layers": layers,
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
