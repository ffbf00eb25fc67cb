"""Regenerate the benchmark's committed references in ``reference/``.

Computes, serially and in-process with a throwaway cache, the fig09
rows and the server-mixed result digests the benchmark checks every
run against.  Run from the repository root::

    python3 perfbench/make_reference.py

Only when the benchmark's inputs (``workload_spec.py``) change, or a
change to the simulator is meant to change results.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from workload_spec import (FIG09_INSTRUCTIONS, FIG09_TRACES,  # noqa: E402
                           MISS_KEYS, SERVER_INSTRUCTIONS, SERVER_WORKLOADS,
                           hit_set)


def _write(name: str, payload: dict) -> None:
    path = HERE / "reference" / name
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path.relative_to(ROOT)}")


def main() -> int:
    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        del os.environ[name]
    base = ROOT / ".perfbench"
    base.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="reference-", dir=base))
    os.environ["REPRO_CACHE_DIR"] = str(scratch)
    try:
        from repro.experiments import __main__ as cli
        from repro.experiments import fig09, runner
        from repro.experiments.journal import result_digest

        os.environ["REPRO_WORKLOADS"] = ",".join(FIG09_TRACES)
        os.environ["REPRO_INSTRUCTIONS"] = str(FIG09_INSTRUCTIONS)
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["fig09", "-j", "1"])
        rows = fig09.run(list(FIG09_TRACES))
        _write("fig09.json", {
            "instructions": FIG09_INSTRUCTIONS,
            "rows": {row["workload"]: row for row in rows}})

        jobs = hit_set() + [(w, k, SERVER_INSTRUCTIONS)
                            for w in SERVER_WORKLOADS for k in MISS_KEYS]
        digests = {f"{w}|{k}|{i}": result_digest(runner.get_result(w, k, i))
                   for w, k, i in jobs}
        _write("server.json", {"digests": digests})
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
