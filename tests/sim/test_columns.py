"""Precomputed hash/fold columns == the predictors' own rolling hashes.

The array engine's whole premise is that every per-branch hash is a pure
function of the trace stream and the predictor geometry — independent of
table contents, predictions and training.  These properties pin that:

* the vectorised gshare index column equals a scalar replay through the
  real predictor's ``_index``/``update_history``;
* the closed-form TAGE/SC column matrix equals the values a *live,
  training* simulation computes at every conditional branch (captured by
  instrumenting the compiled ``_match`` and ``_vote`` cores mid-run);
* ditto for the LLBP slot-tag matrix, captured from the live predictor's
  ``compute_slot_tags`` at every conditional branch.

The traces vary bit 2 of the PC (the bit unconditional branches shift
into the history and every branch shifts into the path register), run
past the longest TAGE history (3000 branches) so every fold drops bits,
and include empty and conditional-free streams.  Geometries come from
the ``repro.explore`` template spaces plus edge widths: a 1-bit second
tag fold (``tag=2``), folds wider than their history, SC lengths beyond
the corrector's 64-bit register, and LLBP over baselines whose tag folds
it cannot borrow.
"""

from __future__ import annotations

import numpy as np
import pytest

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:  # pragma: no cover - hypothesis is a dev extra
    pytest.skip("hypothesis not installed", allow_module_level=True)

from repro.explore.space import (LLBP_BUDGET_SMOKE, LLBP_CAPACITY,
                                 TSL_GEOMETRY, TSL_SCALE_SMOKE)
from repro.llbp.predictor import LLBPTageScL
from repro.predictors.gshare import GShare
from repro.predictors.registry import make_predictor, parse_llbp_spec
from repro.predictors.tage import TageConfig
from repro.predictors.tage_sc_l import TageScL, TslConfig
from repro.sim import columns
from repro.sim.engine import run_simulation
from repro.traces.trace import TraceBuilder
from repro.traces.types import BranchType
from repro.workloads.catalog import generate_workload

BRANCH_TYPES = (BranchType.COND, BranchType.JUMP, BranchType.CALL,
                BranchType.RET)

#: (pc-slot, branch type, taken) tuples.  PCs are ``0x4000 + 4 * slot``,
#: so bit 2 alternates with the slot; a handful of distinct PCs is
#: enough to drive aliasing in every fold width the predictors use.
branch_lists = st.lists(
    st.tuples(st.integers(0, 15), st.sampled_from(BRANCH_TYPES),
              st.booleans()),
    min_size=0, max_size=120)


def build_trace(branches):
    builder = TraceBuilder("prop")
    for slot, btype, taken in branches:
        pc = 0x4000 + 4 * slot
        builder.append(pc, btype, taken, pc ^ 0x1F0, 3)
    return builder.build()


@st.composite
def long_branch_lists(draw):
    """Seeded random streams longer than the longest TAGE history.

    ``cond_share`` 0 gives a stream with no conditional branch at all.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    length = draw(st.integers(3001, 3400))
    cond_share = draw(st.sampled_from((0.0, 0.5, 0.9)))
    slots = rng.integers(0, 64, length)
    kinds = np.where(rng.random(length) < cond_share, 0,
                     rng.integers(1, len(BRANCH_TYPES), length))
    takens = rng.random(length) < 0.6
    return [(int(slot), BRANCH_TYPES[kind], bool(taken))
            for slot, kind, taken in zip(slots, kinds, takens)]


traces = st.one_of(branch_lists, long_branch_lists()).map(build_trace)


TSL_KEYS = tuple(dict.fromkeys(
    TSL_SCALE_SMOKE.expand() + TSL_GEOMETRY.expand()
    + ["tsl:t=11,tag=2", "tsl:x=2,t=15,tag=10,sc=9", "edge"]))
LLBP_SPECS = tuple(dict.fromkeys(
    key.partition(":")[2]
    for key in LLBP_BUDGET_SMOKE.expand() + LLBP_CAPACITY.expand()))
#: tag_bits != pattern_tag_bits - 1 keeps LLBP from borrowing the
#: baseline's tag folds, so the live predictor maintains its own pair.
LLBP_BASELINES = ("tsl64", "tsl:t=11,tag=10", "tsl:x=4,tag=2")


def make_tsl(key: str) -> TageScL:
    """A registry TSL, or ``edge``: narrow folds over short and long
    histories and SC lengths past the corrector's 64-bit register."""
    if key != "edge":
        return make_predictor(key)
    return TageScL(TslConfig(
        tage=TageConfig(history_lengths=(3, 9, 130, 3000), index_bits=5,
                        tag_bits=2, bimodal_index_bits=6),
        sc_index_bits=7, sc_history_lengths=(2, 64, 80)))


def make_llbp(spec: str, baseline: str) -> LLBPTageScL:
    return LLBPTageScL(parse_llbp_spec(spec),
                       baseline=make_predictor(baseline))


def _live_hashes(trace, live, tsl):
    """Every TAGE/SC (and LLBP slot) hash a training simulation computes."""
    recorded_match, recorded_vote, recorded_slots = [], [], []
    real_match, real_vote = tsl.tage._match, tsl.sc._vote

    def spy_match(pcx, path_mix):
        indices, tags, provider, alt = real_match(pcx, path_mix)
        recorded_match.append(list(indices) + list(tags))
        return indices, tags, provider, alt

    def spy_vote(pcx, history):
        indices, vote = real_vote(pcx, history)
        recorded_vote.append(list(indices))
        return indices, vote

    tsl.tage._match = spy_match
    tsl.sc._vote = spy_vote
    if live is not tsl:
        real_predict = live.predict

        def spy_predict(pc):
            recorded_slots.append(list(live.compute_slot_tags(pc)))
            return real_predict(pc)

        live.predict = spy_predict
    run_simulation(trace, live, warmup_instructions=0, engine="python")
    return recorded_match, recorded_vote, recorded_slots


def _assert_same_rows(got, expected):
    """Row-by-row equality that reports the first differing row (a plain
    ``==`` on long lists makes pytest diff the whole lists)."""
    assert len(got) == len(expected)
    for row, (a, b) in enumerate(zip(got, expected)):
        assert a == b, f"row {row}"


def _assert_tsl_rows(cols, tsl, recorded_match, recorded_vote):
    num_tables = tsl.tage.config.num_tables
    assert cols.shape == (len(recorded_match),
                          2 * num_tables + len(tsl.sc.history_lengths))
    _assert_same_rows(cols.tolist(), [
        hashes + sc_indices
        for hashes, sc_indices in zip(recorded_match, recorded_vote)])


@given(traces, st.integers(1, 16), st.integers(1, 20))
def test_gshare_column_matches_scalar_replay(trace, index_bits,
                                             history_bits):
    predictor = GShare(index_bits, history_bits)
    expected = []
    for pc, btype, taken, target, _gap in trace.iter_tuples():
        if btype == 0:
            expected.append(predictor._index(pc))
        predictor.update_history(pc, btype, taken == 1, target)
    column = columns.gshare_index_column(
        trace, predictor.index_bits, predictor.history_bits)
    _assert_same_rows(column.tolist(), expected)


@given(traces, st.sampled_from(TSL_KEYS))
@settings(max_examples=30)
def test_tsl_columns_match_live_simulation(trace, key):
    """The closed-form columns and a live, training predictor agree."""
    live = make_tsl(key)
    recorded_match, recorded_vote, _ = _live_hashes(trace, live, live)
    cols = columns.tsl_columns(trace, make_tsl(key))
    _assert_tsl_rows(cols, live, recorded_match, recorded_vote)


@given(traces, st.sampled_from(LLBP_SPECS), st.sampled_from(LLBP_BASELINES))
@settings(max_examples=20)
def test_llbp_columns_match_live_simulation(trace, spec, baseline):
    live = make_llbp(spec, baseline)
    recorded_match, recorded_vote, recorded_slots = _live_hashes(
        trace, live, live.tsl)
    tsl_cols, slot_cols = columns.llbp_columns(
        trace, make_llbp(spec, baseline))
    _assert_tsl_rows(tsl_cols, live.tsl, recorded_match, recorded_vote)
    assert slot_cols.shape == (len(recorded_slots),
                               len(live.config.slot_lengths))
    _assert_same_rows(slot_cols.tolist(), recorded_slots)


def test_llbp_slot_tags_match_live_simulation():
    """Wherever the live LLBP hashes slot tags, the matrix agrees.

    Slot tags are only computed on pattern-buffer hits, so this needs a
    real workload (warm contexts), not a synthetic micro-trace.
    """
    trace = generate_workload("Kafka", 30_000)
    live = make_predictor("llbp")
    row_of_call = {}
    state = {"row": -1}

    real_predict = live.predict
    real_slot_tags = live.compute_slot_tags

    def spy_predict(pc):
        state["row"] += 1
        return real_predict(pc)

    def spy_slot_tags(pc):
        tags = real_slot_tags(pc)
        row_of_call[state["row"]] = list(tags)
        return tags

    live.predict = spy_predict
    live.compute_slot_tags = spy_slot_tags
    run_simulation(trace, live, engine="python")

    _, slot_cols = columns.llbp_columns(trace, make_predictor("llbp"))
    assert len(slot_cols) == state["row"] + 1
    assert row_of_call, "no pattern-buffer hit ever computed slot tags"
    for row, tags in row_of_call.items():
        assert slot_cols[row].tolist() == tags


@pytest.mark.parametrize("branches", [
    [],
    [(slot, BranchType.JUMP, True) for slot in range(5)],
], ids=["empty", "no-conditional"])
def test_columns_of_traces_without_conditional_branches(branches):
    trace = build_trace(branches)
    predictor = make_predictor("llbp")
    tsl_cols, slot_cols = columns.llbp_columns(trace, predictor)
    assert tsl_cols.shape == (0, 2 * 21 + 5)
    assert slot_cols.shape == (0, len(predictor.config.slot_lengths))
    assert columns.gshare_index_column(trace, 14, 14).shape == (0,)


def test_columns_are_memoised_on_trace_aux():
    trace = generate_workload("Kafka", 30_000)
    predictor = make_predictor("tsl64")
    first = columns.tsl_columns(trace, predictor)
    assert columns.tsl_columns(trace, predictor) is first
    assert columns.tsl_key(predictor) in trace.aux


def test_column_dtype_stays_compact():
    assert columns._column_dtype(12) == np.uint16
    assert columns._column_dtype(16) == np.uint16
    assert columns._column_dtype(17) == np.uint32
