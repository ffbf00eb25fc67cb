"""Layer tracing from outside the program: wrappers, spans, self time.

The benchmark's traced run wraps each layer's public functions (the
``PROBES`` table) and records one span per call — name, start, end,
parent, thread — in memory.  Nothing inside ``src/`` changes: the
wrappers replace the module attribute *and* every alias another
``repro`` module imported with ``from x import f``, so calls through
either spelling are seen.

A layer's self time is its span's duration minus the part of that
interval covered by its child spans (:func:`self_times`).  Pool workers
forked from a traced process inherit the wrappers; a forked child
appends each finished span to ``spans-<pid>.jsonl`` in the spill
directory, because a pool worker can exit without running any exit
hook.  The parent merges those files when the iteration ends.

Each probe names the workloads it serves.  :func:`check_coverage`
fails the run when a probe that serves a workload recorded no call on
it, so a wrapper bound to a stale import or a renamed function fails
loudly instead of reporting zero.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import os
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Tuple

FIG09 = "fig09-cold"
EXPLORE = "explore-cold"
SERVER = "server-mixed"
ALL = frozenset((FIG09, EXPLORE, SERVER))


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------

class Tracer:
    """In-memory span recorder with a per-thread stack of open spans.

    The process that creates the tracer keeps its spans in memory;
    processes forked from it spill theirs to ``spill_dir``.
    """

    def __init__(self, spill_dir: Optional[Path] = None) -> None:
        self.spans: List[dict] = []
        self.spill_dir = spill_dir
        self._root_pid = os.getpid()
        self._next = 0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._spill = None
        os.register_at_fork(after_in_child=self._forked)

    def _forked(self) -> None:
        # A forked pool worker starts with a copy of the parent's spans
        # and of the forking thread's open-span stack; neither is its own.
        self.spans = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._spill = None

    @contextlib.contextmanager
    def span(self, name: str, fn: str):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        with self._lock:
            self._next += 1
            ident = f"{os.getpid()}:{self._next}"
        record = {"id": ident,
                  "parent": stack[-1]["id"] if stack else None,
                  "name": name, "fn": fn,
                  "thread": threading.current_thread().name,
                  "start": time.perf_counter(), "end": None, "attrs": {}}
        stack.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()
            self._finish(record)

    def _finish(self, record: dict) -> None:
        with self._lock:
            if os.getpid() == self._root_pid:
                self.spans.append(record)
            elif self.spill_dir is not None:
                if self._spill is None:
                    path = self.spill_dir / f"spans-{os.getpid()}.jsonl"
                    self._spill = open(path, "a", buffering=1)
                self._spill.write(json.dumps(record) + "\n")

    def collect(self) -> List[dict]:
        """This process's spans plus every spilled child span."""
        spans = list(self.spans)
        if self.spill_dir is not None:
            for path in sorted(self.spill_dir.glob("spans-*.jsonl")):
                for line in path.read_text().splitlines():
                    if line.strip():
                        spans.append(json.loads(line))
        return spans


def self_times(spans: Iterable[dict]) -> Dict[str, float]:
    """Span id -> duration minus the union of its children's intervals.

    Children are clipped to the parent's interval and may overlap each
    other (threads, or siblings recorded in another process); the
    covered time is the measure of their union, so no instant is
    subtracted twice.
    """
    spans = list(spans)
    children: Dict[str, List[Tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(
                (span["start"], span["end"]))
    out = {}
    for span in spans:
        start, end = span["start"], span["end"]
        clipped = sorted((max(s, start), min(e, end))
                         for s, e in children.get(span["id"], ())
                         if min(e, end) > max(s, start))
        covered = 0.0
        run_start = run_end = None
        for s, e in clipped:
            if run_end is None or s > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = s, e
            else:
                run_end = max(run_end, e)
        if run_end is not None:
            covered += run_end - run_start
        out[span["id"]] = (end - start) - covered
    return out


# ---------------------------------------------------------------------------
# Probes: which public functions make up each layer
# ---------------------------------------------------------------------------

#: ``annotate(args, result, attrs, state)``: ``args`` are the call's
#: bound arguments, ``state`` is what ``before(args)`` returned.
Annotate = Callable[[Dict[str, object], object, dict, object], None]


@dataclass(frozen=True)
class Probe:
    """One wrapped public function.

    ``layer`` is the span name; ``target`` is ``"module:attr"`` or
    ``"module:Class.method"``; ``serves`` lists the workloads on which
    the function must record at least one call.
    """

    layer: str
    target: str
    serves: FrozenSet[str]
    before: Optional[Callable[[Dict[str, object]], object]] = None
    annotate: Optional[Annotate] = None


def _load_hit(args, result, attrs, state):
    attrs["hit"] = result is not None


def _store_bytes(args, result, attrs, state):
    attrs["bytes"] = Path(result).stat().st_size


def _aux_bytes(args, result, attrs, state):
    attrs["bytes"] = sum(int(a.nbytes) for a in args["arrays"].values())


def _aux_keys(args):
    return set(args["trace"].aux)


def _columns(args, result, attrs, state):
    built = set(args["trace"].aux) - state
    attrs["built"] = bool(built)
    matrix = result[0] if isinstance(result, tuple) else result
    attrs["rows"] = len(matrix) if built else 0


def _sim_run(args, result, attrs, state):
    from repro.sim import array, engine

    attrs["branches"] = len(args["trace"])
    attrs["fallback"] = (
        engine.resolve_engine(args.get("engine")) == "array"
        and array.unsupported_reason(args["predictor"]) is not None)


def _sim_batch(args, result, attrs, state):
    attrs["members"] = len(args["predictors"])
    attrs["branches"] = len(args["trace"])


def _run_jobs(args, result, attrs, state):
    jobs = list(args["jobs"])
    attrs["jobs"] = len(jobs)
    attrs["configs"] = len({job.key for job in jobs})
    attrs["instructions"] = sum(job.instructions for job in jobs)


_COLUMNS = frozenset((EXPLORE,))
PROBES: Tuple[Probe, ...] = (
    Probe("workloads.generate", "repro.workloads.catalog:generate_workload",
          ALL),
    Probe("traces.load", "repro.traces.store:TraceStore.load", ALL,
          annotate=_load_hit),
    Probe("traces.store", "repro.traces.store:TraceStore.store", ALL,
          annotate=_store_bytes),
    Probe("traces.append_aux", "repro.traces.store:append_aux",
          frozenset((EXPLORE,)), annotate=_aux_bytes),
    Probe("sim.columns", "repro.sim.columns:tsl_columns", _COLUMNS,
          before=_aux_keys, annotate=_columns),
    Probe("sim.columns", "repro.sim.columns:llbp_columns", _COLUMNS,
          before=_aux_keys, annotate=_columns),
    # No benchmark workload runs gshare/bimode/perceptron on the array
    # engine; these are wrapped so the layer is complete, and only
    # checked to resolve.
    Probe("sim.columns", "repro.sim.columns:gshare_columns", frozenset(),
          before=_aux_keys, annotate=_columns),
    Probe("sim.columns", "repro.sim.columns:bimode_columns", frozenset(),
          before=_aux_keys, annotate=_columns),
    Probe("sim.columns", "repro.sim.columns:percep_columns", frozenset(),
          before=_aux_keys, annotate=_columns),
    # fig09 with the default engine goes through the batched pass only.
    Probe("sim.run", "repro.sim.engine:run_simulation",
          frozenset((EXPLORE, SERVER)), annotate=_sim_run),
    Probe("sim.batch", "repro.sim.multi:run_simulation_batch",
          frozenset((FIG09, EXPLORE)), annotate=_sim_batch),
    # The search asks the runner through run_batch only.
    Probe("runner.get_result", "repro.experiments.runner:get_result",
          frozenset((FIG09, SERVER))),
    Probe("runner.run_batch", "repro.experiments.runner:run_batch",
          frozenset((FIG09, EXPLORE))),
    Probe("runner.peek_result", "repro.experiments.runner:peek_result", ALL,
          annotate=_load_hit),
    Probe("executor.run_jobs", "repro.parallel.executor:run_jobs", ALL,
          annotate=_run_jobs),
    Probe("explore.search", "repro.explore.search:run_search",
          frozenset((EXPLORE,))),
    Probe("server.peek", "repro.server.daemon:SweepServer._peek_verified",
          frozenset((SERVER,)), annotate=_load_hit),
)

#: Probes installed in the server-mixed client process, which checks
#: their coverage and reports ``server.ping_p50_ms`` itself.
CLIENT_PROBES: Tuple[Probe, ...] = (
    Probe("server.submit", "repro.server.client:ServerClient.submit",
          frozenset((SERVER,))),
    Probe("server.ping", "repro.server.client:ServerClient.ping",
          frozenset((SERVER,))),
)


class ProbeError(RuntimeError):
    """A probe's target does not resolve, or recorded no call."""


def resolve(target: str):
    """``(owner, attribute name, original)`` for a probe target."""
    module_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError as error:
        raise ProbeError(f"probe {target}: cannot import "
                         f"{module_name}: {error}") from error
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            raise ProbeError(f"probe {target}: {part} not found")
    original = getattr(owner, parts[-1], None)
    if original is None or not callable(original):
        raise ProbeError(f"probe {target}: {parts[-1]} not found")
    return owner, parts[-1], original


def _wrap(tracer: Tracer, probe: Probe, original):
    signature = inspect.signature(original)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        bound = None
        if probe.before is not None or probe.annotate is not None:
            bound = signature.bind(*args, **kwargs).arguments
        state = probe.before(bound) if probe.before is not None else None
        with tracer.span(probe.layer, probe.target) as record:
            result = original(*args, **kwargs)
            if probe.annotate is not None:
                probe.annotate(bound, result, record["attrs"], state)
            return result

    wrapper.__wrapped_probe__ = probe
    return wrapper


def install(tracer: Tracer, probes: Iterable[Probe]) -> None:
    """Wrap every probe's target and every ``repro`` alias of it."""
    resolved = [(probe, *resolve(probe.target)) for probe in probes]
    for probe, owner, name, original in resolved:
        wrapper = _wrap(tracer, probe, original)
        if inspect.isclass(owner):
            setattr(owner, name, wrapper)
            continue
        for module in list(sys.modules.values()):
            module_name = getattr(module, "__name__", "")
            if not module_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)


def check_coverage(spans: Iterable[dict], workload: str,
                   probes: Iterable[Probe]) -> None:
    """Raise unless every probe serving ``workload`` recorded a call."""
    seen = {span["fn"] for span in spans}
    silent = [probe.target for probe in probes
              if workload in probe.serves and probe.target not in seen]
    if silent:
        raise ProbeError(f"{workload}: no call recorded by "
                         + ", ".join(silent))


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

#: name -> (unit, better); the order is the report order.
LAYER_METRICS: Dict[str, Tuple[str, str]] = {
    "workloads.generate.calls": ("count", "lower"),
    "workloads.generate.s": ("s", "lower"),
    "traces.load.hits": ("count", "higher"),
    "traces.load.misses": ("count", "lower"),
    "traces.load.s": ("s", "lower"),
    "traces.store.bytes": ("B", "lower"),
    "traces.store.s": ("s", "lower"),
    "traces.append_aux.calls": ("count", "lower"),
    "traces.append_aux.bytes": ("B", "lower"),
    "traces.append_aux.s": ("s", "lower"),
    "sim.columns.builds": ("count", "lower"),
    "sim.columns.memo_hits": ("count", "higher"),
    "sim.columns.rows": ("count", "lower"),
    "sim.columns.s": ("s", "lower"),
    "sim.run.calls": ("count", "lower"),
    "sim.run.branches": ("count", "lower"),
    "sim.run.fallbacks": ("count", "lower"),
    "sim.run.s": ("s", "lower"),
    "sim.batch.calls": ("count", "lower"),
    "sim.batch.members": ("count", "higher"),
    "sim.batch.s": ("s", "lower"),
    "runner.computed": ("count", "lower"),
    "runner.cached": ("count", "higher"),
    "runner.s": ("s", "lower"),
    "executor.calls": ("count", "lower"),
    "executor.jobs": ("count", "lower"),
    "executor.s": ("s", "lower"),
    "explore.rungs": ("count", "lower"),
    "explore.rung1.s": ("s", "lower"),
    "explore.rung2.s": ("s", "lower"),
    "explore.rung3.s": ("s", "lower"),
    "explore.rung1.configs": ("count", "lower"),
    "explore.rung2.configs": ("count", "lower"),
    "explore.rung3.configs": ("count", "lower"),
    "explore.instructions": ("count", "lower"),
    "server.ping_p50_ms": ("ms", "lower"),
    "server.peek.calls": ("count", "lower"),
    "server.peek.s": ("s", "lower"),
    "server.batches": ("count", "lower"),
    "server.batch_jobs_mean": ("count", "higher"),
    "server.coalesced": ("count", "higher"),
    "server.refused": ("count", "lower"),
    "hit_p50_ms": ("ms", "lower"),
    "hit_p99_ms": ("ms", "lower"),
    "miss_p50_ms": ("ms", "lower"),
    "miss_p90_ms": ("ms", "lower"),
    "loadgen.sent": ("count", "higher"),
    "loadgen.late_p99_ms": ("ms", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

#: Which end-to-end metric each layer should move, on which workload
#: (ROADMAP's "write it down before measuring").  Reported beside the
#: layer numbers; ``BENCHMARK.json`` has no field for it.
SHOULD_MOVE: Dict[str, str] = {
    "workloads": "explore-cold wall_s; setup_s on every workload",
    "traces": "explore-cold wall_s and peak_rss_mb",
    "sim.columns": "explore-cold wall_s (fig09-cold once array is the "
                   "default engine); peak_rss_mb",
    "sim.run": "explore-cold wall_s, server-mixed miss_p50_ms and wall_s",
    "sim.batch": "fig09-cold wall_s",
    "runner": "server-mixed hit_p50_ms; fig09-cold wall_s (small)",
    "executor": "explore-cold wall_s, server-mixed miss_p50_ms and wall_s",
    "explore": "explore-cold wall_s",
    "server": "server-mixed hit_p50_ms, hit_p99_ms, miss_p50_ms, "
              "miss_p90_ms and wall_s",
    "loadgen": "none: validity of server-mixed",
    "trace": "none: must stay small",
}


#: Layers whose set-up work counts too (they should move
#: ``setup_s``); every other layer counts the timed section only.
SETUP_LAYERS = frozenset(("workloads.generate", "traces.load",
                          "traces.store", "traces.append_aux"))


def in_window(spans: Iterable[dict], start: float,
              end: float) -> List[dict]:
    """The spans a traced iteration's layer metrics count.

    ``start`` and ``end`` (``perf_counter`` seconds, one clock for every
    process on the host) bound the timed section.  Spans that end after
    it belong to the benchmark's own output checks and are dropped;
    spans that start before it are set-up, kept only for
    ``SETUP_LAYERS``.
    """
    return [span for span in spans
            if span["end"] <= end
            and (span["start"] >= start or span["name"] in SETUP_LAYERS)]


def layer_metrics(spans: List[dict]) -> Dict[str, float]:
    """Per-layer counts and self times from one traced iteration."""
    own = self_times(spans)
    by_name: Dict[str, List[dict]] = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(span)

    def named(name):
        return by_name.get(name, [])

    def self_sum(*names):
        return sum(own[s["id"]] for n in names for s in named(n))

    def attr_sum(name, attr):
        return sum(s["attrs"].get(attr, 0) for s in named(name))

    runner_names = ("runner.get_result", "runner.run_batch",
                    "runner.peek_result")
    runner_callers = {s["id"] for n in runner_names[:2] for s in named(n)}
    peeks = named("runner.peek_result")
    columns = named("sim.columns")
    searches = {s["id"] for s in named("explore.search")}
    rungs = sorted((s for s in named("executor.run_jobs")
                    if s["parent"] in searches), key=lambda s: s["start"])
    batches = [s for s in named("executor.run_jobs")
               if s["thread"].startswith("sweep-dispatch")]

    metrics = {
        "workloads.generate.calls": len(named("workloads.generate")),
        "workloads.generate.s": self_sum("workloads.generate"),
        "traces.load.hits": sum(1 for s in named("traces.load")
                                if s["attrs"].get("hit")),
        "traces.load.misses": sum(1 for s in named("traces.load")
                                  if not s["attrs"].get("hit")),
        "traces.load.s": self_sum("traces.load"),
        "traces.store.bytes": attr_sum("traces.store", "bytes"),
        "traces.store.s": self_sum("traces.store"),
        "traces.append_aux.calls": len(named("traces.append_aux")),
        "traces.append_aux.bytes": attr_sum("traces.append_aux", "bytes"),
        "traces.append_aux.s": self_sum("traces.append_aux"),
        "sim.columns.builds": sum(1 for s in columns
                                  if s["attrs"].get("built")),
        "sim.columns.memo_hits": sum(1 for s in columns
                                     if not s["attrs"].get("built")),
        "sim.columns.rows": attr_sum("sim.columns", "rows"),
        "sim.columns.s": self_sum("sim.columns"),
        "sim.run.calls": len(named("sim.run")),
        "sim.run.branches": attr_sum("sim.run", "branches"),
        "sim.run.fallbacks": sum(1 for s in named("sim.run")
                                 if s["attrs"].get("fallback")),
        "sim.run.s": self_sum("sim.run"),
        "sim.batch.calls": len(named("sim.batch")),
        "sim.batch.members": attr_sum("sim.batch", "members"),
        "sim.batch.s": self_sum("sim.batch"),
        # A peek miss inside get_result/run_batch is a result the
        # runner then had to simulate.
        "runner.computed": sum(1 for s in peeks
                               if s["parent"] in runner_callers
                               and not s["attrs"].get("hit")),
        "runner.cached": sum(1 for s in peeks if s["attrs"].get("hit")),
        "runner.s": self_sum(*runner_names),
        "executor.calls": len(named("executor.run_jobs")),
        "executor.jobs": attr_sum("executor.run_jobs", "jobs"),
        "executor.s": self_sum("executor.run_jobs"),
        "explore.rungs": len(rungs),
        "explore.instructions": sum(s["attrs"]["instructions"]
                                    for s in rungs),
        "server.peek.calls": len(named("server.peek")),
        "server.peek.s": self_sum("server.peek"),
        "server.batches": len(batches),
        "server.batch_jobs_mean": (
            sum(s["attrs"]["jobs"] for s in batches) / len(batches)
            if batches else 0.0),
    }
    for index in range(3):
        rung = rungs[index] if index < len(rungs) else None
        metrics[f"explore.rung{index + 1}.s"] = (
            rung["end"] - rung["start"] if rung else 0.0)
        metrics[f"explore.rung{index + 1}.configs"] = (
            rung["attrs"]["configs"] if rung else 0)
    return metrics
