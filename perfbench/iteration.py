"""One benchmark iteration of one workload, in a fresh process.

``run.py`` starts this script once per iteration so that every
iteration pays its own imports, starts from its own empty cache
directory and reports its own peak memory.  It prints one JSON object
on its last stdout line:

    {"setup_s", "wall_s", "hit_ms": [...], "miss_ms": [...],
     "peak_rss_mb", "attempted", "failed", "errors": [...],
     "layers": {...}}      # "layers" only with --trace 1

``hit_ms`` and ``miss_ms`` are server-mixed's request latencies (empty
on the other workloads).  The per-layer metrics count only the spans of
the timed section and of set-up (``tracing.in_window``), not the output
checks that follow the clock.

Usage (from the repository root; ``run.py`` sets the environment)::

    python3 perfbench/iteration.py --workload fig09-cold --seed 1 \\
        --trace 0 --workdir .perfbench/run-x/iter-0
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()  # before any repro import: explore's setup_s

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import os  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
from workload_spec import (FIG09_INSTRUCTIONS, FIG09_KEYS,  # noqa: E402
                           FIG09_TRACES, SERVER_INSTRUCTIONS,
                           SERVER_WORKLOADS, hit_set)

REFERENCE = HERE / "reference"
GOLDEN_FRONTIER = ROOT / "tests" / "explore" / "golden_frontier.json"


class StartStateError(RuntimeError):
    """The cache directory is not in the workload's stated start state."""


def tree_peak_rss_mb() -> float:
    """Sum of peak resident set sizes of this process and its children.

    Each process's ``VmHWM`` is its own peak, so the sum bounds the
    tree's peak from above and does not depend on sampling.
    """
    def hwm_kb(pid: int) -> int:
        try:
            for line in Path(f"/proc/{pid}/status").read_text().splitlines():
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
        except OSError:
            pass
        return 0

    def children(pid: int):
        found = []
        for task in Path(f"/proc/{pid}/task").glob("*"):
            try:
                found.extend(int(p) for p in
                             (task / "children").read_text().split())
            except OSError:
                continue
        return found

    total, stack, seen = 0, [os.getpid()], set()
    while stack:
        pid = stack.pop()
        if pid in seen:
            continue
        seen.add(pid)
        total += hwm_kb(pid)
        stack.extend(children(pid))
    return total / 1024.0


# ---------------------------------------------------------------------------
# fig09-cold
# ---------------------------------------------------------------------------

def run_fig09(cache: Path):
    from repro.experiments import __main__ as cli
    from repro.experiments import fig09, runner
    from repro.traces.store import read_packed
    from repro.workloads.catalog import generate_workload

    order = list(FIG09_TRACES)
    os.environ["REPRO_WORKLOADS"] = ",".join(order)
    os.environ["REPRO_INSTRUCTIONS"] = str(FIG09_INSTRUCTIONS)

    if cache.exists() and any(cache.iterdir()):
        raise StartStateError(f"{cache} is not empty before set-up")
    start = time.perf_counter()
    for workload in order:
        generate_workload(workload, FIG09_INSTRUCTIONS)
    setup_s = time.perf_counter() - start

    stored = sorted((cache / "traces").glob("*.rpt"))
    others = [p for p in cache.iterdir() if p.name != "traces"]
    if len(stored) != len(order) or others:
        raise StartStateError(f"expected only {len(order)} stored traces, "
                              f"found {stored + others}")
    for path in stored:
        if read_packed(path).aux:
            raise StartStateError(f"{path.name} already has column sections")
    runner.clear_memory_cache()

    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()) as shown:
        status = cli.main(["fig09", "-j", "1"])
    end = time.perf_counter()

    errors = []
    if status != 0 or "Fig 9" not in shown.getvalue():
        errors.append(f"fig09 exited {status}")
    jobs = len(order) * len(FIG09_KEYS)
    computed = len(list((cache / "results").glob("*.json")))
    if computed != jobs:
        errors.append(f"{computed} result files for {jobs} jobs")

    # Re-reads the results the command just cached; outside the window.
    rows = {row["workload"]: row for row in fig09.run(order)}
    reference = json.loads((REFERENCE / "fig09.json").read_text())
    for name, expected in reference["rows"].items():
        if name == "Mean":
            continue
        if rows.get(name) != expected:
            errors.append(f"fig09 row {name}: {rows.get(name)} != {expected}")
    for column, value in rows["Mean"].items():
        expected = reference["rows"]["Mean"][column]
        if column != "workload" and abs(value - expected) > 1e-9 * max(
                1.0, abs(expected)):
            errors.append(f"fig09 Mean {column}: {value} != {expected}")
    return {"setup_s": setup_s, "wall_s": end - start, "window": (start, end),
            "attempted": jobs, "failed": min(jobs, len(errors)),
            "errors": errors}


# ---------------------------------------------------------------------------
# explore-cold
# ---------------------------------------------------------------------------

def run_explore(cache: Path):
    from repro.explore import __main__ as cli

    setup_s = time.perf_counter() - STARTED  # the import above
    if cache.exists() and any(cache.iterdir()):
        raise StartStateError(f"{cache} is not empty")

    # The smoke search's seed is the CLI default (0), which the golden
    # frontier pins.  The seed shuffles the evaluation order, and the
    # order decides how many column passes the search makes (a tsl64 job
    # before an llbp job on the same trace costs one extra pass), so a
    # seed-driven order would make wall time a property of the seed.
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        status = cli.main(["--budget", "smoke", "--engine", "array",
                           "--jobs", "1", "--quiet",
                           "--check", str(GOLDEN_FRONTIER)])
    end = time.perf_counter()

    evaluations = len(list((cache / "results").glob("*.json")))
    errors = []
    if status != 0:
        errors.append(f"explore exited {status}: the artifact differs "
                      "from the golden frontier")
    attempted = max(1, evaluations)
    return {"setup_s": setup_s, "wall_s": end - start, "window": (start, end),
            "attempted": attempted, "failed": min(attempted, len(errors)),
            "errors": errors}


# ---------------------------------------------------------------------------
# server-mixed
# ---------------------------------------------------------------------------

def run_server(seed: int, cache: Path, tracer):
    from repro.server import ServerConfig, ServerThread
    from repro.server.client import ServerClient

    if cache.exists() and any(cache.iterdir()):
        raise StartStateError(f"{cache} is not empty before set-up")
    reference = json.loads((REFERENCE / "server.json").read_text())
    hits = hit_set()

    start = time.perf_counter()
    config = ServerConfig(port=0, workers=2, warm=SERVER_WORKLOADS,
                          warm_instructions=SERVER_INSTRUCTIONS)
    with ServerThread(config) as server:
        with ServerClient(server.address, tenant="seed") as client:
            seeded = client.submit(hits, detail="digest")
        setup_s = time.perf_counter() - start

        errors = []
        if not seeded.accepted or seeded.errors:
            errors.append("hit-set seeding failed")
        for item in seeded.results:
            label = f"{item.workload}|{item.key}|{item.instructions}"
            if item.digest != reference["digests"].get(label):
                errors.append(f"seeded {label}: digest mismatch")
        results = sorted((cache / "results").glob("*.json"))
        traces = sorted((cache / "traces").glob("*.rpt"))
        if len(results) != len(hits) or len(traces) != len(SERVER_WORKLOADS):
            raise StartStateError(
                f"after set-up: {len(results)} results for {len(hits)} "
                f"seeded jobs, {len(traces)} traces for "
                f"{len(SERVER_WORKLOADS)} warmed workloads")

        window_start = time.perf_counter()
        command = [sys.executable, str(HERE / "loadclient.py"),
                   "--address", server.address, "--seed", str(seed),
                   "--trace", "1" if tracer is not None else "0"]
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=120)
        if done.returncode != 0:
            raise RuntimeError(f"load client exited {done.returncode}")
        client_out = json.loads(done.stdout.strip().splitlines()[-1])
        peak_rss_mb = tree_peak_rss_mb()
    # The pool's workers exit with the server; wait for every one.
    for child in multiprocessing.active_children():
        child.join(30)

    out = {"setup_s": setup_s, "wall_s": client_out["latency_sum_s"],
           "window": (window_start, client_out["window_end"]),
           "hit_ms": client_out["hit_ms"], "miss_ms": client_out["miss_ms"],
           "peak_rss_mb": peak_rss_mb,
           "attempted": client_out["attempted"],
           "failed": min(client_out["attempted"],
                         client_out["failed"] + len(errors)),
           "errors": errors + client_out["errors"]}
    if tracer is not None:
        out["client_layers"] = client_out["layers"]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(tracing.ALL))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    args = parser.parse_args(argv)

    cache = args.workdir / "cache"
    spill = args.workdir / "spans"
    spill.mkdir(parents=True, exist_ok=True)
    os.environ["REPRO_CACHE_DIR"] = str(cache)

    tracer = None
    if args.trace:
        tracer = tracing.Tracer(spill)
        tracing.install(tracer, tracing.PROBES)

    if args.workload == tracing.FIG09:
        out = run_fig09(cache)
    elif args.workload == tracing.EXPLORE:
        out = run_explore(cache)
    else:
        out = run_server(args.seed, cache, tracer)
    out.setdefault("peak_rss_mb", tree_peak_rss_mb())
    out.setdefault("hit_ms", [])
    out.setdefault("miss_ms", [])
    window = out.pop("window")

    if tracer is not None:
        spans = tracing.in_window(tracer.collect(), *window)
        tracing.check_coverage(spans, args.workload, tracing.PROBES)
        layers = tracing.layer_metrics(spans)
        layers.update(out.pop("client_layers", {}))
        out["layers"] = layers
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
