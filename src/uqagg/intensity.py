"""Intensity and prediction-based reductions of an uncertainty map.

Prediction-free reductions use only the map values: global mean, best patch
mean, above-threshold average, above-quantile average. Prediction-based
reductions additionally use a segmentation mask: per-class averages combined
with equal or area-proportional weights, and the foreground-sized top fraction
of the whole map.

Every reduction takes a raw grid, an UncertaintyMap or a MapPass. Through one
MapPass, the top-k reductions share one sort, the patch means one column
running sum, and the class reductions one per-label tally.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .core import as_pass
from .errors import (
    InvalidParam,
    InvalidQuantile,
    InvalidThreshold,
    NoForeground,
    PatchTooLarge,
)

# Counts k = ceil(x) snap down when x sits within this slack of an integer, so
# float artifacts like (1 - 0.6) * 10 = 4.000000000000001 keep the intended k.
_CEIL_SLACK = 1e-9


def _top_k_count(fraction_times_pixels: float, total: int) -> int:
    k = math.ceil(fraction_times_pixels - _CEIL_SLACK)
    return min(max(k, 1), total)


def check_patch(patch) -> int:
    """``patch`` when it is a valid plm patch edge, an integer >= 1."""
    if not isinstance(patch, (int, np.integer)) or patch < 1:
        raise InvalidParam(f"plm patch must be an integer >= 1, got {patch!r}")
    return patch


def check_threshold(threshold) -> float:
    """``threshold`` when it is a valid ata threshold, in [0, 1]."""
    if not (0.0 <= threshold <= 1.0):
        raise InvalidThreshold(f"ata threshold must lie in [0, 1], got {threshold!r}")
    return threshold


def check_quantile(q) -> float:
    """``q`` when it is a valid aqa quantile, in [0, 1]."""
    if not (0.0 <= q <= 1.0):
        raise InvalidQuantile(f"aqa quantile must lie in [0, 1], got {q!r}")
    return q


def avg(u) -> float:
    """Global mean of the map."""
    return float(as_pass(u).values.mean())


def plm(u, patch: int) -> float:
    """Largest mean over all patch x patch windows fully inside the map.

    Window sums come from two 1-D running sums (a column pass, which every
    patch size scored through one MapPass shares, then a row pass), so the
    cost is O(m * n) for any patch. Its running sums stay far
    smaller than those of one 2-D summed-area table, so cancellation costs
    less. A difference of running sums can still land a rounding step above
    the true window sum, so the result is capped at the map maximum, which no
    window mean exceeds.
    """
    p = as_pass(u)
    vals = p.values
    patch = check_patch(patch)
    m, n = vals.shape
    if patch > min(m, n):
        raise PatchTooLarge(f"patch {patch} exceeds map extent {m}x{n}")
    csum = p.column_sums()
    cols = csum[patch - 1 :].copy()  # sums over `patch` consecutive rows
    cols[1:] -= csum[:-patch]
    csum = np.cumsum(cols, axis=1)
    boxes = csum[:, patch - 1 :].copy()  # ... and over `patch` columns
    boxes[:, 1:] -= csum[:, :-patch]
    return float(min(boxes.max() / (patch * patch), vals.max()))


def ata(u, threshold: float) -> float:
    """Mean of the values strictly above ``threshold``; 0.0 if none qualify."""
    vals = as_pass(u).values
    above = vals[vals > check_threshold(threshold)]
    if above.size == 0:
        return 0.0
    return float(above.mean())


def aqa(u, q: float) -> float:
    """Mean of the top ceil((1 - q) * m * n) values of the map."""
    p = as_pass(u)
    total = p.values.size
    k = _top_k_count((1.0 - check_quantile(q)) * total, total)
    return float(p.sorted_values()[total - k :].mean())


class ClassAverage(NamedTuple):
    alpha: float
    area: int


def class_averages(u, mask) -> dict[int, ClassAverage]:
    """Mean uncertainty and pixel count of each non-background class, by label.

    Raises ShapeMismatch when map and mask shapes differ and NoForeground
    when every pixel carries the background label 0.
    """
    sums, counts = as_pass(u, mask).class_tally()
    per_class: dict[int, ClassAverage] = {}
    for c in np.flatnonzero(counts[1:]) + 1:
        per_class[int(c)] = ClassAverage(float(sums[c] / counts[c]), int(counts[c]))
    if not per_class:
        raise NoForeground("mask contains only background pixels")
    return per_class


def bca(u, mask) -> float:
    """Mean of the per-class averages with equal class weights."""
    per_class = class_averages(u, mask)
    weight = 1.0 / len(per_class)
    return float(math.fsum(weight * stat.alpha for stat in per_class.values()))


def ica(u, mask) -> float:
    """Area-proportional combination of the per-class averages."""
    per_class = class_averages(u, mask)
    total_area = sum(stat.area for stat in per_class.values())
    return float(
        math.fsum((stat.area / total_area) * stat.alpha for stat in per_class.values())
    )


def qfr(u, mask) -> float:
    """Mean of the top k map values where k matches the foreground area.

    The mask fixes only the count: with f foreground pixels out of m*n, the
    reduction averages the top ceil((f / (m*n)) * m*n) values of the whole
    map, foreground or not.
    """
    p = as_pass(u, mask)
    _, counts = p.class_tally()
    total = p.values.size
    fg = total - int(counts[0])
    if fg == 0:
        raise NoForeground("mask contains only background pixels")
    k = _top_k_count((fg / total) * total, total)
    return float(p.sorted_values()[total - k :].mean())
