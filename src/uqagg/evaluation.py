"""Downstream evaluation of aggregated scores.

Two tasks are covered. Separation: how well a score ranks out-of-distribution
samples above in-distribution ones (AUROC with 0.5 credit for ties). Failure
detection: how well the negated score, used as confidence, defers the riskiest
predictions (risk-coverage curves, AURC, and its excess over the oracle
ordering). Uncertainty-band statistics come from bootstrap resampling; paired
strategy comparisons use a one-sided Wilcoxon signed-rank test (exact
distribution up to n = 25, tie-corrected normal approximation with continuity
correction beyond).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import core
from .core import as_mask
from .errors import (
    AllZeroDifferences,
    EmptyInput,
    InvalidParam,
    LengthMismatch,
    NonFinite,
    ShapeMismatch,
    SingleClass,
    StrategySetMismatch,
)
from .rng import stream

DEFAULT_BOOTSTRAP = 500
_WILCOXON_EXACT_MAX = 25
_REDRAW_LIMIT = 100
_LANE_BOOTSTRAP = 21
# Tied pairs named in significance_matrix's one warning; the rest are counted.
_TIES_NAMED = 3


def _rankdata(x: np.ndarray) -> np.ndarray:
    """Ranks starting at 1 along the last axis, ties averaged."""
    keys, midranks = _midranks(_codes(x).reshape(-1, x.shape[-1]))
    return midranks.ravel()[keys].reshape(x.shape)


def _numeric(x) -> np.ndarray:
    """``x`` as an array: integers as they are, anything else as float64. A
    NaN has no rank (it sorts after every number, and resampled it would tie
    with itself as a code but not as a float), so it raises NonFinite."""
    x = np.asarray(x)
    if x.dtype.kind not in "iu":
        x = np.asarray(x, dtype=np.float64)
        if np.isnan(x).any():
            raise NonFinite("scores contain NaN")
    return x


def _codes(x: np.ndarray) -> np.ndarray:
    """Dense integer codes of the values of each row along the last axis.

    Codes keep the order and the ties of the values, as the comparisons of a
    stable sort see them, so a stable sort of the codes is the stable sort of
    the values.
    """
    n = x.shape[-1]
    order = np.argsort(x, axis=-1, kind="stable")
    sx = np.take_along_axis(x, order, axis=-1)
    opens = np.zeros(x.shape, dtype=np.intp)
    opens[..., 1:] = sx[..., 1:] != sx[..., :-1]
    codes = np.empty(x.shape, dtype=np.uint16 if n <= 65536 else np.intp)
    np.put_along_axis(codes, order, np.cumsum(opens, axis=-1), axis=-1)
    return codes


def _midranks(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean rank, starting at 1, of each code of each row of an ``(r, n)`` block.

    Returns ``(keys, midranks)``. ``keys`` are the codes shifted by row * n,
    so that one ``bincount`` of length r * n counts each row's codes apart.
    ``midranks[row, code]`` is the count of the row's values below the code
    plus (count + 1) / 2: a half-integer, exact in float64.
    """
    r, n = codes.shape
    keys = codes + np.arange(0, r * n, n)[:, None]
    counts = np.bincount(keys.ravel(), minlength=r * n).reshape(r, n)
    return keys, np.cumsum(counts, axis=1) - 0.5 * (counts - 1)


def _stacked(x: np.ndarray, target: np.ndarray, x_name: str, target_name: str):
    """``x`` as a ``(b, s, n)`` stack of b problems and ``target`` as ``(b, n)``.

    A 1-D or ``(s, n)`` ``x`` with a 1-D target is one problem; a
    ``(b, s, n)`` ``x`` takes one target row per problem. Other shapes raise
    InvalidParam, and counts that disagree raise LengthMismatch.
    """
    if not (target.ndim == 1 and x.ndim in (1, 2) or target.ndim == 2 and x.ndim == 3):
        raise InvalidParam(
            f"{x_name} must be 1-D or (s, n) with 1-D {target_name}, "
            f"or (b, s, n) with (b, n) {target_name}"
        )
    n = target.shape[-1]
    if x.shape[-1] != n:
        raise LengthMismatch(f"{x.shape[-1]} {x_name} vs {n} {target_name}")
    if x.ndim == 3 and len(x) != len(target):
        raise LengthMismatch(
            f"{len(x)} problems of {x_name} vs {len(target)} rows of {target_name}"
        )
    return x.reshape((1,) * (3 - x.ndim) + x.shape), target.reshape(-1, n)


def _shaped(values: np.ndarray, ndim: int):
    """A ``(b, s)`` result shaped like an input of ``ndim`` dimensions: a
    float for 1-D, one value per row for ``(s, n)``, all of it for ``(b, s, n)``."""
    return float(values[0, 0]) if ndim == 1 else values[0] if ndim == 2 else values


def _positives(labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where the 0/1 labels of each row of a ``(b, n)`` block are 1, and how
    many are per row, as a ``(b, 1)`` column; raises SingleClass unless both
    classes appear in every row."""
    pos = labels == 1
    if not (pos | (labels == 0)).all():
        raise InvalidParam("labels must be 0 or 1")
    n = labels.shape[-1]
    n_pos = pos.sum(axis=-1, keepdims=True)
    if n_pos.min() == 0 or n_pos.max() == n:
        one_class = n_pos[(n_pos == 0) | (n_pos == n)][0]
        raise SingleClass(f"need both classes, got {one_class} positives of {n}")
    return pos, n_pos


def auroc(scores, labels):
    """Probability that a positive outscores a negative, ties worth 0.5.

    ``labels`` are 0/1 with 1 the positive class; both classes must appear.
    ``scores`` is one score per label, or an ``(s, n)`` block with one row of
    scores per strategy: a 1-D input returns a float, a block one value per
    row. A ``(b, s, n)`` stack of b such blocks, with ``(b, n)`` labels (one
    row per block, each holding both classes), returns ``(b, s)``: entry
    ``(i, j)`` is byte-identical to the 1-D call on row j of block i with
    label row i. Integer scores are taken as they are, never cast to float;
    values in [0, n) serve directly as the rank codes of
    :func:`bootstrap_table`. A NaN score raises NonFinite.
    """
    scores = _numeric(scores)
    stack, labels = _stacked(scores, np.asarray(labels), "scores", "labels")
    b, s, n = stack.shape
    pos, n_pos = _positives(labels)
    codes = stack.reshape(-1, n)
    in_range = 0 <= codes.min(initial=0) and codes.max(initial=0) < n
    if scores.dtype.kind == "f" or not in_range:
        codes = _codes(codes)
    # Each row's rank sum over its block's positives: the positives of all
    # blocks lie side by side in each strategy's row, n_pos[i] of block i.
    # Rank sums are sums of half-integers <= n, exact in any summation order.
    keys, midranks = _midranks(codes)
    positive_keys = keys.reshape(b, s, n).swapaxes(0, 1)[:, pos]
    firsts = np.cumsum(n_pos) - n_pos[:, 0]
    rank_sums = np.add.reduceat(midranks.ravel()[positive_keys], firsts, axis=1).T
    values = (rank_sums - n_pos * (n_pos + 1) / 2.0) / (n_pos * (n - n_pos))
    return _shaped(values, scores.ndim)


def dice(pred, gt, mode: str = "micro") -> float:
    """Dice agreement between predicted and reference masks, background (0) excluded.

    micro pools pixels over all foreground classes; macro averages per-class
    Dice over the classes present in either mask. Two all-background masks
    agree perfectly (1.0).
    """
    pred = as_mask(pred)
    gt = as_mask(gt)
    if pred.shape != gt.shape:
        raise ShapeMismatch(f"pred {pred.shape} vs gt {gt.shape}")
    p = pred.labels
    g = gt.labels
    if mode == "micro":
        inter = int(((p == g) & (g != 0)).sum())
        total = int((p != 0).sum() + (g != 0).sum())
        if total == 0:
            return 1.0
        return 2.0 * inter / total
    if mode == "macro":
        classes = (set(np.unique(p)) | set(np.unique(g))) - {0}
        if not classes:
            return 1.0
        per_class = []
        for c in sorted(classes):
            inter = int(((p == c) & (g == c)).sum())
            size = int((p == c).sum() + (g == c).sum())
            per_class.append(2.0 * inter / size)
        return float(np.mean(per_class))
    raise InvalidParam(f"mode must be 'micro' or 'macro', got {mode!r}")


@dataclass(frozen=True, eq=False)
class RiskCoverageCurve:
    """Working points of a selective predictor, coverage strictly decreasing."""

    coverages: np.ndarray   # fraction of samples retained
    risks: np.ndarray       # mean risk over the retained samples


def _check_curve_inputs(risks, confidences):
    """The risks as ``(b, n)`` rows and the confidences as a ``(b, s, n)``
    stack (see :func:`_stacked`), and the number of dimensions the
    confidences came in. Raises EmptyInput for no samples, and NonFinite for
    a NaN confidence or a NaN or infinite risk."""
    confidences = _numeric(confidences)
    stack, risks = _stacked(confidences, np.asarray(risks, dtype=np.float64),
                            "confidences", "risks")
    if risks.shape[-1] == 0:
        raise EmptyInput("risk-coverage needs at least one sample")
    if not np.isfinite(risks).all():
        raise NonFinite("risks must be finite")
    return risks, stack, confidences.ndim


def _working_points(risks: np.ndarray, confidences: np.ndarray):
    """Risk-coverage working points of every row of a ``(b, s, n)`` stack,
    the rows of block i scored against ``risks[i]``.

    Returns ``(bounds, coverages, risks)`` with the points of all b * s rows
    concatenated, block by block: row r's points are
    ``[bounds[r], bounds[r + 1])``, in ascending threshold order.
    """
    b, s, n = confidences.shape
    conf = confidences.reshape(-1, n)
    order = np.argsort(conf, axis=-1, kind="stable")
    # Flat offsets gather each row's values, and its block's risks, in one
    # step; take_along_axis would build a two-index gather.
    sorted_conf = conf.ravel()[order + np.arange(0, conf.size, n)[:, None]]
    at = order.reshape(b, s, n) + np.arange(0, b * n, n)[:, None, None]
    # suffix_sum[r, i] = total risk of row r's samples with the i-th smallest
    # confidence or larger; distinct thresholds are the first positions of
    # each run.
    suffix_sum = np.cumsum(risks.ravel()[at].reshape(-1, n)[:, ::-1], axis=-1)[:, ::-1]
    first = np.ones(conf.shape, dtype=bool)
    first[:, 1:] = sorted_conf[:, 1:] != sorted_conf[:, :-1]
    points = np.flatnonzero(first)
    bounds = np.searchsorted(points, np.arange(0, conf.size + 1, n))
    starts = points % n
    coverages = (n - starts) / n
    sel_risks = suffix_sum.ravel()[points] / (n - starts)
    return bounds, coverages, sel_risks


def risk_coverage(risks, confidences) -> RiskCoverageCurve:
    """Selective risk at every distinct confidence threshold.

    At threshold t the samples with confidence >= t are retained; tied
    confidences are retained or dropped together. The first point always has
    coverage 1. NaN or infinite risks and NaN confidences raise NonFinite.
    """
    risks, stack, ndim = _check_curve_inputs(risks, confidences)
    if ndim != 1:
        raise InvalidParam("risks and confidences must be 1-D")
    _, coverages, sel_risks = _working_points(risks, stack)
    return RiskCoverageCurve(coverages, sel_risks)


def _segment_areas(coverages: np.ndarray, risks: np.ndarray) -> np.ndarray:
    """Trapezoid areas between consecutive working points."""
    return (coverages[:-1] - coverages[1:]) * (0.5 * (risks[:-1] + risks[1:]))


def aurc(curve: RiskCoverageCurve) -> float:
    """Trapezoidal area under the risk-coverage curve.

    Integrates over positive coverage decrements between consecutive working
    points; a single-point curve has zero area.
    """
    return float(_segment_areas(curve.coverages, curve.risks).sum())


def _row_sums(areas: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Sum of each row's segments ``areas[bounds[r]:bounds[r + 1] - 1]``.

    The last segment of a row would join it to the next row, so it is left
    out. Every row must sum in the order of a lone curve's 1-D sum: rows with
    the same number of segments are gathered into one contiguous ``(k, L)``
    block, whose sum along axis 1 runs numpy's pairwise sum over each row
    just as the 1-D sum does. A row alone in its group sums its slice.
    """
    starts = bounds[:-1]
    lengths = bounds[1:] - starts - 1
    by_length = np.argsort(lengths, kind="stable")
    sorted_lengths = lengths[by_length]
    # Group edges: lengths are >= 0, so the -1 pads open the first group and
    # close the last.
    padded = np.concatenate(([-1], sorted_lengths, [-1]))
    edges = np.flatnonzero(padded[1:] != padded[:-1]).tolist()
    out = np.empty(len(starts))
    for lo, hi in zip(edges[:-1], edges[1:]):
        count = int(sorted_lengths[lo])
        if hi - lo == 1:
            row = int(by_length[lo])
            out[row] = areas[starts[row]:starts[row] + count].sum()
        else:
            rows = by_length[lo:hi]
            out[rows] = areas[starts[rows][:, None] + np.arange(count)].sum(axis=1)
    return out


def _aurc_rows(risks: np.ndarray, confidences: np.ndarray) -> np.ndarray:
    """AURC of every row of a ``(b, s, n)`` stack against its block's risks,
    as ``(b, s)``."""
    bounds, coverages, sel_risks = _working_points(risks, confidences)
    areas = _segment_areas(coverages, sel_risks)
    return _row_sums(areas, bounds).reshape(confidences.shape[:2])


def eaurc(risks, confidences):
    """AURC in excess of the oracle that ranks by ascending true risk.

    The oracle uses confidence = -risk under the same curve convention.
    Non-negative for tie-free confidences; degenerate inputs whose tied
    confidences collapse the curve to fewer points can undercount area and
    go negative. Float noise above -1e-12 is clamped to zero.
    ``confidences`` is one value per risk, or an ``(s, n)`` block with one row
    per strategy: a 1-D input returns a float, a block one value per row. A
    ``(b, s, n)`` stack of b such blocks, with ``(b, n)`` risks (one row per
    block), returns ``(b, s)``: entry ``(i, j)`` is byte-identical to the 1-D
    call on risk row i and row j of block i. The oracle curves are built in
    one float sort per call. Integer confidences, such as the rank codes of
    :func:`bootstrap_table`, are taken as they are, never cast to float: only
    their order and ties enter the curve. A NaN confidence, or a NaN or
    infinite risk, raises NonFinite, here and in :func:`risk_coverage`.
    """
    risks, stack, ndim = _check_curve_inputs(risks, confidences)
    oracle = _aurc_rows(risks, -risks[:, None, :])
    values = _aurc_rows(risks, stack) - oracle
    values[(-1e-12 < values) & (values < 0.0)] = 0.0
    return _shaped(values, ndim)


def bootstrap_table(scores, target, metric: str, b: int = DEFAULT_BOOTSTRAP,
                    seed: int = 0) -> np.ndarray:
    """Paired bootstrap samples of a metric for several strategies.

    ``scores`` is an ``(s, n)`` block, one row per strategy; ``target`` holds
    one value per column: the 0/1 labels for ``auroc``, the risks for
    ``eaurc`` (whose confidence is the negated score). Returns a ``(b, s)``
    array whose row i is resample i for every strategy.

    Every iteration draws one resample (with replacement) shared by all
    strategies, so the columns are aligned for paired tests. Resamples that
    break a metric precondition (single class for AUROC) are redrawn from the
    same iteration stream, at most 100 times; labels of one class raise
    SingleClass before any draw, and so do NaN or infinite risks NonFinite.

    The scores (for ``eaurc`` the confidences) are turned into integer rank
    codes once per call. A resample only repeats values of the full sample,
    so the codes of its columns keep every order and tie the metric sees, and
    no resample sorts floats. Consecutive resamples are scored in blocks of
    at most ``core._STRIP_PIXELS`` codes (one resample at least), each block
    one call of the stacked ``(m, s, n)`` form of the metric; its values are
    byte-identical to one call per resample.
    """
    if metric not in ("auroc", "eaurc"):
        raise InvalidParam(f"metric must be 'auroc' or 'eaurc', got {metric!r}")
    if b < 1:
        raise InvalidParam(f"bootstrap count must be >= 1, got {b}")
    # float64 first: the negated scores of eaurc would wrap in an unsigned type
    scores = _numeric(np.asarray(scores, dtype=np.float64))
    target = np.asarray(target)
    if scores.ndim != 2 or target.ndim != 1:
        raise InvalidParam("scores must be (s, n) and target 1-D")
    s, n = scores.shape
    if n != len(target):
        raise LengthMismatch(f"{n} score columns vs {len(target)} targets")
    if n == 0:
        raise EmptyInput("no samples to evaluate")
    if metric == "auroc":
        _positives(target[None])  # a sample of one class has no resample of two
    else:
        target = _check_curve_inputs(target, scores)[0][0]  # finite float64 risks
    codes = _codes(-scores if metric == "eaurc" else scores)
    out = np.empty((b, s), dtype=np.float64)
    per_block = max(1, core._STRIP_PIXELS // (max(s, 1) * n))
    for lo in range(0, b, per_block):
        draws = []
        for i in range(lo, min(lo + per_block, b)):
            rng = stream(seed, _LANE_BOOTSTRAP, i)
            for _ in range(_REDRAW_LIMIT + 1):
                draw = rng.integers(0, n, size=n)
                # the labels are 0/1: both classes unless all or none are 1
                if metric == "eaurc" or 0 < np.count_nonzero(target[draw]) < n:
                    break
            else:
                raise SingleClass(
                    f"bootstrap iteration {i}: no valid resample in "
                    f"{_REDRAW_LIMIT} redraws"
                )
            draws.append(draw)
        block = np.array(draws)
        stack = codes[:, block].swapaxes(0, 1)
        if metric == "eaurc":
            out[lo:lo + len(block)] = eaurc(target[block], stack)
        else:
            out[lo:lo + len(block)] = auroc(stack, target[block])
    return out


def wilcoxon_one_sided(d) -> float:
    """One-sided Wilcoxon signed-rank p-value that the paired differences
    ``d`` (a - b) are positive, i.e. that a exceeds b.

    Zero differences are discarded; if all are zero the test is undefined and
    AllZeroDifferences is raised. A NaN difference raises NonFinite. Up to
    n = 25 the p-value is exact over all 2^n sign assignments; beyond that a
    tie-corrected normal approximation with a 0.5 continuity correction is used.
    """
    d = np.asarray(d, dtype=np.float64)
    if d.ndim != 1:
        raise InvalidParam("differences must be 1-D")
    if d.size == 0:
        raise EmptyInput("no differences to test")
    if np.isnan(d).any():
        raise NonFinite("differences contain NaN")
    d = d[d != 0.0]
    if d.size == 0:
        raise AllZeroDifferences("every paired difference is zero")
    n = d.size
    ranks = _rankdata(np.abs(d))
    w_pos = float(ranks[d > 0].sum())

    if n <= _WILCOXON_EXACT_MAX:
        return _wilcoxon_exact(ranks, w_pos)

    mean = n * (n + 1) / 4.0
    var = n * (n + 1) * (2 * n + 1) / 24.0
    _, tie_counts = np.unique(ranks, return_counts=True)
    var -= (tie_counts.astype(np.float64) ** 3 - tie_counts).sum() / 48.0
    z = (w_pos - mean - 0.5) / math.sqrt(var)
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def _wilcoxon_exact(ranks: np.ndarray, w_pos: float) -> float:
    # Doubled ranks are integers even with averaged ties; the subset-sum DP
    # enumerates the null distribution of 2*W+ over all sign assignments.
    doubled = np.rint(2.0 * ranks).astype(np.int64)
    total = int(doubled.sum())
    counts = np.zeros(total + 1, dtype=np.float64)
    counts[0] = 1.0
    for r in doubled:
        shifted = np.zeros_like(counts)
        shifted[r:] = counts[: total + 1 - r]
        counts += shifted
    threshold = int(np.rint(2.0 * w_pos))
    return float(counts[threshold:].sum() / 2.0 ** len(ranks))


def mean_rank(tables: Mapping[str, Mapping[str, float]],
              direction: str = "higher") -> dict[str, float]:
    """Average per-dataset rank of each strategy (rank 1 is best).

    ``tables`` maps dataset name -> (strategy -> metric value). Every dataset
    must cover the same strategies. ``direction`` says whether higher or
    lower metric values are better; ties share an averaged rank. A NaN
    value has no rank and raises NonFinite.
    """
    if direction not in ("higher", "lower"):
        raise InvalidParam(f"direction must be 'higher' or 'lower', got {direction!r}")
    if not tables:
        raise EmptyInput("no datasets to rank over")
    datasets = list(tables)
    strategies = sorted(tables[datasets[0]])
    for name in datasets[1:]:
        if sorted(tables[name]) != strategies:
            raise StrategySetMismatch(
                f"dataset {name!r} covers a different strategy set"
            )
    if not strategies:
        raise EmptyInput("no strategies to rank")
    totals = np.zeros(len(strategies))
    for name in datasets:
        values = np.array([float(tables[name][s]) for s in strategies])
        if np.isnan(values).any():
            bad = strategies[int(np.flatnonzero(np.isnan(values))[0])]
            raise NonFinite(f"dataset {name!r} holds NaN for strategy {bad!r}")
        keyed = -values if direction == "higher" else values
        totals += _rankdata(keyed)
    return {s: float(t / len(datasets)) for s, t in zip(strategies, totals)}


def significance_matrix(samples: Mapping[str, np.ndarray],
                        direction: str = "higher") -> tuple[list[str], np.ndarray]:
    """Matrix of one-sided p-values that strategy A beats strategy B.

    ``samples`` holds paired per-resample metric values per strategy. Entry
    (A, B) tests whether A's values exceed B's (or fall below, for
    direction='lower'). Pairs with no nonzero difference, including the
    diagonal, are reported as 1.0; one warning per call counts the off-diagonal
    ones and names the first few. A NaN or infinite sample raises NonFinite.
    """
    if direction not in ("higher", "lower"):
        raise InvalidParam(f"direction must be 'higher' or 'lower', got {direction!r}")
    names = list(samples)
    if not names:
        raise EmptyInput("no strategies to compare")
    vectors = [np.asarray(samples[n], dtype=np.float64) for n in names]
    length = len(vectors[0])
    for name, v in zip(names, vectors):
        if len(v) != length:
            raise LengthMismatch(f"strategy {name!r} has {len(v)} samples, not {length}")
        if not np.isfinite(v).all():
            raise NonFinite(f"strategy {name!r} has a non-finite sample")
    p = np.ones((len(names), len(names)))
    tied = []
    for i, vi in enumerate(vectors):
        for j, vj in enumerate(vectors):
            if i == j:
                continue  # self-comparison is 1.0 by the zero-difference convention
            diffs = vi - vj if direction == "higher" else vj - vi
            try:
                p[i, j] = wilcoxon_one_sided(diffs)
            except AllZeroDifferences:
                tied.append(f"{names[i]!r} vs {names[j]!r}")
    if tied:
        more = f" and {len(tied) - _TIES_NAMED} more" if len(tied) > _TIES_NAMED else ""
        warnings.warn(
            f"{len(tied)} ordered pairs have no nonzero differences "
            f"({', '.join(tied[:_TIES_NAMED])}{more}); reporting p = 1.0 for them",
            RuntimeWarning,
            stacklevel=2,
        )
    return names, p
