"""The repository's benchmark: one workload, timed end to end.

Usage, from the repository root::

    python3 perfbench/run.py --workload fig09-cold --seed 1 --seconds 20 \\
        --trace 0

Workloads (see ``BENCHMARK.json`` for why each was chosen):

``fig09-cold``
    ``python -m repro.experiments fig09 -j 1`` with the default engine
    over three catalog traces stored beforehand without column sections,
    from an empty result cache.
``explore-cold``
    the ``smoke`` search of ``repro.explore`` on the array engine,
    ``-j 1``, from an empty cache directory.
``server-mixed``
    an in-process sweep-server daemon with a 2-process pool, fed
    open-loop hit and miss traffic by one client process over two
    connections; its ``wall_s`` is the sum of every request's latency
    from its due time.

Each iteration runs in a fresh process (``iteration.py``) with its own
throwaway cache under ``.perfbench/`` and every inherited ``REPRO_*``
variable removed.  Iterations repeat until ``--seconds`` have passed
(at least ``MIN_ITERATIONS``); times are reported as medians over
iterations, latencies as percentiles of the pooled samples.  With
``--trace 1`` one further, traced iteration follows and the metrics are
the per-layer ones: that iteration's layer counts and self times, the
untraced iterations' server latencies, and the tracing overhead (the
traced ``wall_s`` minus the untraced median).

Every run checks outputs (fig09 rows, the explore frontier bytes, the
served result digests) against committed references; a mismatch counts
as a failed job.  The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import benchstats  # noqa: E402
import tracing  # noqa: E402

WORKLOADS = (tracing.FIG09, tracing.EXPLORE, tracing.SERVER)
MIN_ITERATIONS = 3
#: A whole run, traced iteration included, ends within this many seconds
#: (an iteration still running then is killed and the run fails).
RUN_DEADLINE = 170

#: name -> unit, in report order.
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: server-mixed's latencies, reported with the per-layer metrics (from
#: the same run's untraced iterations; 0 on the other workloads, which
#: serve no requests, while an end-to-end metric must be non-zero on
#: every workload).  Their sum is server-mixed's ``wall_s``.
LATENCIES = ("hit_p50_ms", "hit_p99_ms", "miss_p50_ms", "miss_p90_ms")


def _environment() -> dict:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy_version, "machine": platform.machine()}


def _iteration(workload: str, seed: int, trace: bool, workdir: Path,
               env: dict, deadline: float) -> dict:
    command = [sys.executable, str(HERE / "iteration.py"),
               "--workload", workload, "--seed", str(seed),
               "--trace", "1" if trace else "0", "--workdir", str(workdir)]
    # Its own session, so a timeout kills the iteration's pool workers and
    # load client along with it.
    proc = subprocess.Popen(command, cwd=ROOT, env=env, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            start_new_session=True)
    try:
        stdout, stderr = proc.communicate(
            timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired as error:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"{workload} iteration timed out") from error
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0 or not stdout.strip():
        sys.stderr.write(stderr[-4000:])
        raise RuntimeError(f"{workload} iteration exited {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def untraced_metrics(iterations) -> dict:
    """A run's end-to-end metrics and ``LATENCIES`` from its untraced
    iterations."""
    def pooled(field):
        return [v for it in iterations for v in it[field]]

    def percentile(sample, p):
        return benchstats.percentile(sample, p) if sample else 0.0

    hits, misses = pooled("hit_ms"), pooled("miss_ms")
    return {
        "wall_s": benchstats.median(it["wall_s"] for it in iterations),
        "setup_s": benchstats.median(it["setup_s"] for it in iterations),
        "peak_rss_mb": benchstats.median(it["peak_rss_mb"]
                                         for it in iterations),
        "hit_p50_ms": percentile(hits, 50.0),
        "hit_p99_ms": percentile(hits, 99.0),
        "miss_p50_ms": percentile(misses, 50.0),
        "miss_p90_ms": percentile(misses, 90.0),
    }


def _describe(iterations, env_info: dict) -> None:
    """Human-readable lines before the JSON: quartiles and sample counts."""
    print(f"# environment {json.dumps(env_info, sort_keys=True)}")
    for field in ("wall_s", "setup_s", "peak_rss_mb"):
        q1, q2, q3 = benchstats.quartiles(it[field] for it in iterations)
        print(f"# {field}: median {q2:.4f} (q1 {q1:.4f}, q3 {q3:.4f}) "
              f"over {len(iterations)} iterations")
    for field in ("hit_ms", "miss_ms"):
        sample = [v for it in iterations for v in it[field]]
        if not sample:
            continue
        top = benchstats.highest_supported_percentile(len(sample))
        print(f"# {field}: n={len(sample)}, p50 "
              f"{benchstats.percentile(sample, 50):.3f}, highest percentile "
              f"with 10 samples beyond it: p{top:g}"
              + (f" = {benchstats.percentile(sample, top):.3f}"
                 if top else ""))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to benchmark: {ROOT / 'src' / 'repro'} is "
              "missing", file=sys.stderr)
        return 2

    env = {name: value for name, value in os.environ.items()
           if not name.startswith("REPRO_")}
    base = ROOT / ".perfbench"
    base.mkdir(exist_ok=True)
    rundir = Path(tempfile.mkdtemp(prefix="run-", dir=base))
    iterations, errors = [], []
    try:
        started = time.perf_counter()
        deadline = started + RUN_DEADLINE
        while (len(iterations) < MIN_ITERATIONS
               or time.perf_counter() - started < args.seconds):
            iterations.append(_iteration(
                args.workload, args.seed, False,
                rundir / f"iter-{len(iterations)}", env, deadline))
        traced = None
        if args.trace:
            traced = _iteration(args.workload, args.seed, True,
                                rundir / "traced", env, deadline)
    except RuntimeError as error:
        print(f"benchmark failed: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    everything = iterations + ([traced] if traced else [])
    for it in everything:
        errors.extend(it["errors"])
    _describe(iterations, _environment())
    for error in errors:
        print(f"# check failed: {error}")

    if args.trace:
        values = {name: 0 for name in tracing.LAYER_METRICS}
        values.update(traced["layers"])
        untraced = untraced_metrics(iterations)
        values.update((name, untraced[name]) for name in LATENCIES)
        values["trace.overhead_s"] = traced["wall_s"] - untraced["wall_s"]
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, (unit, _) in tracing.LAYER_METRICS.items()}
        for layer, target in tracing.SHOULD_MOVE.items():
            print(f"# layer {layer} should move: {target}")
    else:
        values = untraced_metrics(iterations)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    failed = sum(it["failed"] for it in everything)
    print(json.dumps({"correct": failed == 0 and not errors,
                      "attempted": sum(it["attempted"] for it in everything),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
