"""Check the benchmark's run-to-run spread against its own bounds.

Runs ``run.py`` once per seed on each named workload (one after the
other, never in parallel) and prints, for every end-to-end metric, the
median over seeds and the spread: the distance between the first and
third quartiles (``statistics.quantiles(values, n=4)``) as a share of
the median.  A spread above a third of the metric's bound in
``BENCHMARK.json`` is flagged; ``setup_s`` is reported but not held to
it, since set-up time is judged by its median alone.  Usage::

    python3 perfbench/spread.py --seeds 10 [--out spread.json] \\
        [fig09-cold explore-cold server-mixed]
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import benchstats  # noqa: E402


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("workloads", nargs="*",
                        default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", type=Path, default=None,
                        help="also write every run's metrics here as JSON")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    raw = {}
    steady = True
    for workload in args.workloads:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            command = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            done = subprocess.run(command, cwd=ROOT, text=True,
                                  stdout=subprocess.PIPE)
            if done.returncode != 0:
                print(f"{workload} seed {seed}: exit {done.returncode}")
                return 1
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: output check failed")
                steady = False
            runs.append({name: m["value"]
                         for name, m in result["metrics"].items()})
            print(f"  seed {seed}: " + ", ".join(
                f"{name} {value:.4g}" for name, value in runs[-1].items()),
                flush=True)
        raw[workload] = runs
        print(f"{workload} ({len(runs)} seeds)", flush=True)
        for name, bound in bounds.items():
            values = [run[name] for run in runs]
            spread = benchstats.relative_spread(values)
            flag = "ok"
            if spread > bound / 3:
                flag = "setup, unchecked" if name == "setup_s" else "WIDE"
                steady = steady and name == "setup_s"
            print(f"  {name:12s} median {benchstats.median(values):12.4f}  "
                  f"spread {spread:6.3f}  bound {bound:5.3f}  {flag}")
    if args.out is not None:
        args.out.write_text(json.dumps(raw, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
