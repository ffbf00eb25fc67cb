"""Tests for the benchmark's own arithmetic and tracing plumbing.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import benchstats  # noqa: E402
import tracing  # noqa: E402


def _span(ident, parent, start, end, name="x", **attrs):
    return {"id": ident, "parent": parent, "name": name, "fn": name,
            "thread": "MainThread", "start": start, "end": end,
            "attrs": attrs}


# -- self time ---------------------------------------------------------------

def test_self_time_subtracts_union_of_overlapping_children():
    spans = [
        _span("p", None, 0.0, 10.0),
        _span("a", "p", 1.0, 4.0),
        _span("b", "p", 3.0, 6.0),     # overlaps a: [1, 6] covered once
        _span("c", "p", 8.0, 12.0),    # clipped to the parent's end
        _span("g", "a", 1.5, 2.0),     # grandchild: a's business only
    ]
    own = tracing.self_times(spans)
    assert own["p"] == pytest.approx(10.0 - 5.0 - 2.0)
    assert own["a"] == pytest.approx(3.0 - 0.5)
    assert own["b"] == pytest.approx(3.0)
    assert own["c"] == pytest.approx(4.0)


def test_self_time_with_nested_and_disjoint_children():
    spans = [
        _span("p", None, 0.0, 10.0),
        _span("a", "p", 2.0, 8.0),
        _span("b", "p", 3.0, 4.0),     # wholly inside a
        _span("c", "p", 9.0, 9.5),
        _span("d", "p", 11.0, 12.0),   # outside the parent: no effect
    ]
    assert tracing.self_times(spans)["p"] == pytest.approx(10.0 - 6.0 - 0.5)


def test_tracer_records_parents_per_thread():
    tracer = tracing.Tracer()
    with tracer.span("outer", "outer"):
        with tracer.span("inner", "inner"):
            pass

        def other():
            with tracer.span("other", "other"):
                pass

        worker = threading.Thread(target=other)
        worker.start()
        worker.join(5)
        assert not worker.is_alive()
    by_name = {s["name"]: s for s in tracer.collect()}
    assert by_name["inner"]["parent"] == by_name["outer"]["id"]
    assert by_name["outer"]["parent"] is None
    # Another thread's span is not a child of this thread's open span.
    assert by_name["other"]["parent"] is None
    own = tracing.self_times(tracer.collect())
    outer = by_name["outer"]
    inner = by_name["inner"]
    assert own[outer["id"]] == pytest.approx(
        (outer["end"] - outer["start"]) - (inner["end"] - inner["start"]))


# -- percentiles -------------------------------------------------------------

def test_percentile_interpolates_between_order_statistics():
    assert benchstats.percentile([4, 1, 3, 2], 50) == pytest.approx(2.5)
    assert benchstats.percentile([1, 2, 3, 4], 0) == 1
    assert benchstats.percentile([1, 2, 3, 4], 100) == 4
    assert benchstats.percentile(range(101), 99) == pytest.approx(99.0)
    with pytest.raises(ValueError):
        benchstats.percentile([], 50)


@pytest.mark.parametrize("count, expected", [
    (10_000, 99.9), (1000, 99.0), (999, 95.0), (200, 95.0), (199, 90.0),
    (100, 90.0), (40, 75.0), (39, 50.0), (20, 50.0), (19, 0.0), (0, 0.0),
])
def test_highest_percentile_has_ten_samples_beyond_it(count, expected):
    top = benchstats.highest_supported_percentile(count)
    assert top == expected
    if top:
        assert benchstats.samples_beyond(count, top) >= 10
    higher = [p for p in benchstats.REPORTABLE_PERCENTILES if p > top]
    assert all(benchstats.samples_beyond(count, p) < 10 for p in higher)


# -- open-loop timing --------------------------------------------------------

def test_open_loop_latency_runs_from_due_time():
    # The second request was due at 1.0, but the generator only got it
    # out at 1.5 (its connection was busy): the user due at 1.0 waited
    # from 1.0, so its latency is 0.7, not 0.2.
    timing = benchstats.open_loop_timings(
        due=[0.0, 1.0, 2.0], sent=[0.0, 1.5, 2.0], done=[0.2, 1.7, 2.1])
    assert timing["latency"] == pytest.approx([0.2, 0.7, 0.1])
    assert timing["lateness"] == pytest.approx([0.0, 0.5, 0.0])


def test_open_loop_stall_counts_against_every_later_request():
    # A 1 s stall at t=0 delays three requests due every 0.25 s; each
    # carries its own wait from its due time.
    due = [0.0, 0.25, 0.5, 0.75]
    sent = [0.0, 1.0, 1.01, 1.02]
    done = [1.0, 1.01, 1.02, 1.03]
    timing = benchstats.open_loop_timings(due, sent, done)
    assert timing["latency"] == pytest.approx([1.0, 0.76, 0.52, 0.28])
    assert max(timing["lateness"]) == pytest.approx(0.75)


def test_open_loop_rejects_impossible_orderings():
    with pytest.raises(ValueError):
        benchstats.open_loop_timings([1.0], [0.5], [2.0])
    with pytest.raises(ValueError):
        benchstats.open_loop_timings([0.0], [0.0, 1.0], [1.0])


def test_quartiles_use_the_exclusive_method():
    # statistics.quantiles(n=4), exclusive: q1 sits at position
    # (n + 1) / 4 = 2.75 of the sorted sample, q3 at 8.25.
    values = [13, 10, 10, 11, 11, 11, 12, 12, 12, 10]
    assert benchstats.quartiles(values) == pytest.approx((10.0, 11.0, 12.0))
    assert benchstats.quartiles([1, 2, 3, 4]) == pytest.approx(
        (1.25, 2.5, 3.75))
    assert benchstats.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_relative_spread_is_iqr_over_median():
    assert benchstats.relative_spread([1, 2, 3, 4]) == pytest.approx(
        (3.75 - 1.25) / 2.5)


# -- probes ------------------------------------------------------------------

def test_every_probe_resolves():
    for probe in tracing.PROBES + tracing.CLIENT_PROBES:
        tracing.resolve(probe.target)


def test_stale_probe_fails_loudly():
    with pytest.raises(tracing.ProbeError):
        tracing.resolve("repro.experiments.runner:no_such_function")
    probe = tracing.Probe("runner.get_result",
                          "repro.experiments.runner:get_result",
                          frozenset({tracing.FIG09}))
    with pytest.raises(tracing.ProbeError):
        tracing.check_coverage([], tracing.FIG09, [probe])
    tracing.check_coverage([], tracing.SERVER, [probe])


def test_window_keeps_timed_spans_and_set_up_layers_only():
    spans = [
        _span("gen", None, 0, 1, name="workloads.generate"),   # set-up
        _span("seed", None, 1, 2, name="runner.get_result"),   # set-up
        _span("run", None, 10, 15, name="runner.get_result"),  # timed
        _span("late", None, 19, 21, name="runner.get_result"), # ends after
        _span("chk", None, 22, 23, name="runner.get_result"),  # the check
    ]
    kept = tracing.in_window(spans, 10.0, 20.0)
    assert [s["id"] for s in kept] == ["gen", "run"]
    metrics = tracing.layer_metrics(kept)
    assert metrics["runner.s"] == pytest.approx(5.0)
    assert metrics["workloads.generate.calls"] == 1


def test_runner_counts_peek_misses_under_callers_as_computed():
    spans = [
        _span("g", None, 0, 5, name="runner.get_result"),
        _span("p1", "g", 0, 1, name="runner.peek_result", hit=False),
        _span("g2", None, 5, 6, name="runner.get_result"),
        _span("p2", "g2", 5, 5.5, name="runner.peek_result", hit=True),
        _span("p3", None, 7, 8, name="runner.peek_result", hit=False),
    ]
    metrics = tracing.layer_metrics(spans)
    assert metrics["runner.computed"] == 1
    assert metrics["runner.cached"] == 1
    assert metrics["runner.s"] == pytest.approx(4 + 0.5 + 1 + 0.5 + 1)
