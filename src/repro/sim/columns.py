"""Precomputed per-branch hash/fold columns for the array engine.

Every index, tag and fold the predictors hash per branch is a pure
function of (trace stream, predictor geometry) — it depends on the
history *bits*, never on predictions or table contents.  That makes the
whole hashing layer precomputable, and linear enough to compute in
closed form with whole-column numpy expressions instead of replaying
the trace:

* every retired branch shifts one bit into the global history (the
  outcome if conditional, else ``(pc >> 2) & 1``) and one address bit
  into the 16-bit path register; the statistical corrector keeps its
  own 64-bit register of conditional outcomes;
* a length-``L`` history folded into ``W`` bits (``FoldedHistory``'s
  incremental shift-and-XOR) is a fixed XOR of history bits: bit ``j``
  of the fold is the XOR of the bits at ages ``a < L`` with
  ``a ≡ j (mod W)``.  One prefix XOR per residue class mod ``W``
  (shared by every length folded at that width) turns each fold into
  three shifted copies of a packed ``W``-bit register (see
  :class:`_Folds`);
* the TAGE index/tag, SC index and LLBP slot-tag hashes on top of the
  folds are elementwise.

The fused simulation loops then consume these as flat integer rows and
never touch the folded-history machinery at all.

Columns are memoised on ``Trace.aux`` (keyed by a digest of the
geometry) and, when the trace came from the packed store
(:mod:`repro.traces.store`), persisted back into the trace file as aux
sections — precompute once, reuse across every run and process.  An old
store file lacking the columns emits ``trace.store_stale`` and is
transparently upgraded in place.

The scalar reference implementations these columns must match are the
predictors' own ``_match`` / ``_vote`` / ``compute_slot_tags`` cores as
a live simulation drives them; the property tests in
``tests/sim/test_columns.py`` pin that equivalence.
"""

from __future__ import annotations

import hashlib
import time
from typing import Dict, Tuple

import numpy as np

from repro import telemetry
from repro.predictors.history import PATH_BITS
from repro.traces.trace import Trace


def _digest(*parts) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()[:16]


def tsl_key(tsl) -> str:
    """Aux key of the TAGE+SC column matrix for ``tsl``'s geometry."""
    tage_cfg = tsl.tage.config
    return "cols/tsl:" + _digest(
        tuple(tage_cfg.history_lengths), tage_cfg.index_bits,
        tage_cfg.tag_bits, PATH_BITS,
        tuple(tsl.sc.history_lengths), tsl.sc.index_bits)


def llbp_key(predictor) -> str:
    """Aux key of the LLBP slot-tag matrix for ``predictor``'s geometry."""
    return "cols/llbp:" + _digest(
        tuple(predictor.config.slot_lengths),
        predictor.config.pattern_tag_bits)


def gshare_key(predictor) -> str:
    return f"cols/gshare:{predictor.index_bits}:{predictor.history_bits}"


def bimode_key(predictor) -> str:
    cfg = predictor.config
    return (f"cols/bimode:{cfg.choice_bits}:{cfg.direction_bits}"
            f":{cfg.history_bits}")


def percep_key(predictor) -> str:
    cfg = predictor.config
    # weight_bits / threshold never enter the index computation.
    return f"cols/percep:{cfg.tables}:{cfg.row_bits}:{cfg.history_bits}"


def _column_dtype(max_bits: int):
    return np.uint16 if max_bits <= 16 else np.uint32


def gshare_index_column(trace: Trace, index_bits: int,
                        history_bits: int) -> np.ndarray:
    """The gshare table index of every conditional branch, vectorised.

    Bit ``k`` of the history at conditional branch ``i`` is the outcome
    of conditional branch ``i - 1 - k`` (gshare shifts outcomes in for
    conditional branches only), so each history bit-lane is a shifted
    copy of the taken column.  Equivalent to replaying
    ``GShare._index`` / ``update_history`` per branch.
    """
    pcs, hist = _cond_history_lanes(trace, history_bits)
    idx = ((pcs >> np.uint64(2)) ^ hist) & np.uint64((1 << index_bits) - 1)
    return idx.astype(np.uint32)


def _shift_register(bits: np.ndarray, width: int) -> np.ndarray:
    """A ``width``-bit shift register over ``bits``, as seen before each.

    Bit ``k`` of ``reg[i]`` is ``bits[i - 1 - k]`` (0 before the stream
    starts): the register every ``(reg << 1) | bit`` update leaves
    behind, newest bit in bit 0.  Built by doubling — a ``2s``-bit
    register is an ``s``-bit one OR its ``s``-branch-older self shifted
    up ``s`` bits — in 32-bit lanes while the register shifted left once
    still fits.  Registers wider than 64 bits keep their low 64.
    """
    width = min(width, 64)
    dtype = np.uint32 if width < 32 else np.uint64
    reg = np.zeros(len(bits), dtype=dtype)
    reg[1:] = bits[:-1]
    span = 1
    while span < width:
        reg[span:] |= reg[:-span] << dtype(span)
        span *= 2
    if span > width:
        reg &= dtype((1 << width) - 1)
    return reg


def _cond_history_lanes(trace: Trace,
                        history_bits: int) -> Tuple[np.ndarray, np.ndarray]:
    """``(pcs, hist)`` per conditional branch for outcome-shift histories.

    ``hist[i]`` is the global history register (conditional outcomes
    only, newest in bit 0) as seen *before* conditional branch ``i`` —
    what gshare, bimode, the perceptron and the statistical corrector
    all shift their outcomes into.
    """
    cond = trace.types == 0
    return trace.pcs[cond], _shift_register(trace.takens[cond], history_bits)


def bimode_index_columns(trace: Trace, config) -> np.ndarray:
    """Per-conditional-branch ``[choice_index, direction_index]`` rows.

    Equivalent to replaying ``BiMode._indices`` / ``update_history``
    per branch.
    """
    pcs, hist = _cond_history_lanes(trace, config.history_bits)
    pcx = pcs >> np.uint64(2)
    out = np.empty((len(pcs), 2), dtype=np.uint32)
    out[:, 0] = (pcx & np.uint64((1 << config.choice_bits) - 1)).astype(np.uint32)
    out[:, 1] = ((pcx ^ hist)
                 & np.uint64((1 << config.direction_bits) - 1)).astype(np.uint32)
    return out


def percep_index_columns(trace: Trace, config) -> np.ndarray:
    """Per-conditional-branch perceptron table indices, one column per table.

    Column 0 is the PC-indexed bias table; column ``t`` XOR-folds history
    segment ``t - 1`` into the PC, exactly as
    ``HashedPerceptron._indices`` does scalar-wise.
    """
    pcs, hist = _cond_history_lanes(trace, config.history_bits)
    rmask = np.uint64((1 << config.row_bits) - 1)
    seg_bits = config.segment_bits
    seg_mask = np.uint64((1 << seg_bits) - 1)
    base = (pcs >> np.uint64(2)) & rmask
    out = np.empty((len(pcs), config.tables), dtype=np.uint32)
    out[:, 0] = base.astype(np.uint32)
    for t in range(1, config.tables):
        seg = (hist >> np.uint64((t - 1) * seg_bits)) & seg_mask
        folded = np.zeros_like(seg)
        while seg.any():
            folded ^= seg & rmask
            seg = seg >> np.uint64(config.row_bits)
        out[:, t] = ((base ^ folded) & rmask).astype(np.uint32)
    return out


def _strided_prefix_xor(bits: np.ndarray, stride: int) -> np.ndarray:
    """``out[k] = bits[k] ^ bits[k - stride] ^ bits[k - 2*stride] ^ ...``.

    One cumulative XOR per residue class mod ``stride``: the stream is
    laid out as rows of ``stride`` bits and accumulated down the columns.
    """
    n = len(bits)
    rows = -(-n // stride)
    grid = np.zeros(rows * stride, dtype=np.uint8)
    grid[:n] = bits
    return np.bitwise_xor.accumulate(
        grid.reshape(rows, stride), axis=0).ravel()[:n]


class _Folds:
    """The trace's global-history streams, in closed form.

    ``fold(L, W)`` equals the ``W``-bit fold of the last ``L`` history
    bits that ``HistorySet`` maintains incrementally, as seen before
    each branch of the trace.  With ``S`` the stride-``W`` prefix XOR of
    the history bits and ``R`` the ``W``-bit shift register over ``S``
    (bit ``j`` of ``R[i]`` is ``S[i - 1 - j]``), bit ``j`` of the fold at
    branch ``i`` is ``S[i-1-j] ^ S[i-1-last_j-W]``, ``last_j`` being the
    oldest age ``< L`` in ``j``'s residue class.  Writing
    ``L = q*W + r``, ``last_j + W`` is ``(q+1)*W + j`` for ``j < r`` and
    ``q*W + j`` otherwise, so the whole fold is three shifted copies of
    ``R``: ``R[i] ^ (R[i-(q+1)W] & low_r) ^ (R[i-qW] & ~low_r)``.  ``R``
    is built once per width and shared by every length folded at it.

    ``rows`` are the conditional branches' positions in the trace;
    ``pcx`` (``pc >> 2``) and ``path`` (the 16-bit path register) are
    sampled there.
    """

    def __init__(self, trace: Trace) -> None:
        cond = trace.types == 0
        self.rows = np.flatnonzero(cond)
        self.pcx = trace.pcs[cond] >> np.uint64(2)
        address_bits = ((trace.pcs >> np.uint64(2))
                        & np.uint64(1)).astype(np.uint8)
        self.bits = np.where(cond, trace.takens, address_bits)
        self.path = _shift_register(address_bits, PATH_BITS)[self.rows]
        self._registers: Dict[int, np.ndarray] = {}

    def fold(self, length: int, width: int) -> np.ndarray:
        """The ``width``-bit fold of the last ``length`` bits, per branch."""
        register = self._registers.get(width)
        if register is None:
            register = _shift_register(
                _strided_prefix_xor(self.bits, width), width)
            self._registers[width] = register
        dtype = register.dtype.type
        n = len(register)
        q, r = divmod(length, width)
        low = (1 << r) - 1
        fold = register.copy()
        lag = q * width
        if lag < n:
            fold[lag:] ^= register[:n - lag] & dtype(((1 << width) - 1) ^ low)
        lag += width
        if r and lag < n:
            fold[lag:] ^= register[:n - lag] & dtype(low)
        return fold

    def tag_fold(self, length: int, width: int) -> np.ndarray:
        """``fold(L, W) ^ (fold(L, max(1, W - 1)) << 1)`` — the TAGE tag
        and LLBP pattern-tag double fold — at every conditional row."""
        second = self.fold(length, max(1, width - 1))
        second <<= second.dtype.type(1)
        second ^= self.fold(length, width)
        return second[self.rows]


def _tsl_matrix(trace: Trace, folds: _Folds, tsl) -> np.ndarray:
    """TAGE index/tag + SC index columns (``Tage._match``, ``sc._vote``)."""
    pcx = folds.pcx
    # The corrector's register is 64 bits wide, so longer SC lengths
    # see the whole register.
    _, sc_history = _cond_history_lanes(trace, 64)
    tage_cfg = tsl.tage.config
    sc = tsl.sc
    lengths = tage_cfg.history_lengths
    num_tables = len(lengths)
    index_bits, tag_bits = tage_cfg.index_bits, tage_cfg.tag_bits
    # Filled column by column straight into the row-major layout the
    # fused loops read: one copy of the matrix, never two.
    cols = np.empty((len(pcx), 2 * num_tables + len(sc.history_lengths)),
                    dtype=_column_dtype(max(index_bits, tag_bits,
                                            sc.index_bits)))
    idx_mask = np.uint64((1 << index_bits) - 1)
    tag_mask = np.uint64((1 << tag_bits) - 1)
    path = folds.path
    path_mix = pcx ^ path ^ (path >> np.uint64(index_bits))
    for t, length in enumerate(lengths):
        cols[:, t] = ((pcx >> np.uint64(t + 1))
                      ^ folds.fold(length, index_bits)[folds.rows]
                      ^ path_mix) & idx_mask
        cols[:, num_tables + t] = (
            pcx ^ folds.tag_fold(length, tag_bits)) & tag_mask
    sc_mask = np.uint64((1 << sc.index_bits) - 1)
    for c, length in enumerate(sc.history_lengths):
        h = sc_history & np.uint64((1 << min(length, 64)) - 1)
        cols[:, 2 * num_tables + c] = (
            pcx ^ (pcx >> np.uint64(c + 2)) ^ h
            ^ (h >> np.uint64(sc.index_bits))) & sc_mask
    return cols


def _slot_tag_matrix(folds: _Folds, llbp_config) -> np.ndarray:
    """LLBP pattern-tag columns, one per hash slot (``compute_slot_tags``)."""
    pcx = folds.pcx
    ptb = llbp_config.pattern_tag_bits
    lengths = llbp_config.slot_lengths
    slots = np.empty((len(pcx), len(lengths)), dtype=_column_dtype(ptb))
    tag_mask = np.uint64((1 << ptb) - 1)
    for h, length in enumerate(lengths):
        slots[:, h] = (pcx ^ (pcx >> np.uint64(h + 2))
                       ^ folds.tag_fold(length, ptb)
                       ^ np.uint64(h * 0x9E5)) & tag_mask
    return slots


def _persist(trace: Trace, arrays: dict) -> None:
    """Publish freshly computed columns back into the trace's store file."""
    if trace.store_path is None or not arrays:
        return
    from repro.traces import store

    for key in arrays:
        telemetry.emit("trace.store_stale", workload=trace.name,
                       path=str(trace.store_path),
                       reason="missing-columns", key=key)
    store.append_aux(trace.store_path, arrays)


def gshare_columns(trace: Trace, predictor) -> np.ndarray:
    """Per-conditional-branch gshare indices (memoised, not persisted)."""
    key = gshare_key(predictor)
    cached = trace.aux.get(key)
    if cached is None:
        cached = gshare_index_column(
            trace, predictor.index_bits, predictor.history_bits)
        trace.aux[key] = cached
    return cached


def bimode_columns(trace: Trace, predictor) -> np.ndarray:
    """Per-conditional-branch bimode indices (memoised, not persisted)."""
    key = bimode_key(predictor)
    cached = trace.aux.get(key)
    if cached is None:
        cached = bimode_index_columns(trace, predictor.config)
        trace.aux[key] = cached
    return cached


def percep_columns(trace: Trace, predictor) -> np.ndarray:
    """Per-conditional-branch perceptron indices (memoised, not persisted)."""
    key = percep_key(predictor)
    cached = trace.aux.get(key)
    if cached is None:
        cached = percep_index_columns(trace, predictor.config)
        trace.aux[key] = cached
    return cached


def tsl_columns(trace: Trace, predictor) -> np.ndarray:
    """TAGE index/tag + SC index columns for a :class:`TageScL`.

    Row layout per conditional branch (``T`` TAGE tables, ``C`` SC
    components): ``[idx_0..idx_T-1, tag_0..tag_T-1, sc_0..sc_C-1]``.
    """
    key = tsl_key(predictor)
    cached = trace.aux.get(key)
    if cached is None:
        start = time.perf_counter()
        cached = _tsl_matrix(trace, _Folds(trace), predictor)
        trace.aux[key] = cached
        _persist(trace, {key: cached})
        telemetry.emit("sim.columns", workload=trace.name, key=key,
                       rows=len(cached),
                       seconds=time.perf_counter() - start)
    return cached


def llbp_columns(trace: Trace, predictor) -> Tuple[np.ndarray, np.ndarray]:
    """``(tsl_columns, slot_tag_columns)`` for an :class:`LLBPTageScL`.

    Both matrices share one set of history streams when either is
    missing; only the missing ones are built and (re)stored.
    """
    t_key = tsl_key(predictor.tsl)
    s_key = llbp_key(predictor)
    t_cached = trace.aux.get(t_key)
    s_cached = trace.aux.get(s_key)
    if t_cached is None or s_cached is None:
        start = time.perf_counter()
        folds = _Folds(trace)
        fresh = {}
        if t_cached is None:
            t_cached = _tsl_matrix(trace, folds, predictor.tsl)
            trace.aux[t_key] = fresh[t_key] = t_cached
        if s_cached is None:
            s_cached = _slot_tag_matrix(folds, predictor.config)
            trace.aux[s_key] = fresh[s_key] = s_cached
        _persist(trace, fresh)
        telemetry.emit("sim.columns", workload=trace.name, key=s_key,
                       rows=len(s_cached),
                       seconds=time.perf_counter() - start)
    return t_cached, s_cached
