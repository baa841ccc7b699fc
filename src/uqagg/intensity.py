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
from dataclasses import dataclass
from typing import Mapping, NamedTuple

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
    if not isinstance(patch, (int, np.integer)) or patch < 1:
        raise InvalidParam(f"patch must be a positive integer, got {patch!r}")
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
    if not (0.0 <= threshold <= 1.0):
        raise InvalidThreshold(f"threshold must lie in [0, 1], got {threshold!r}")
    above = vals[vals > threshold]
    if above.size == 0:
        return 0.0
    return float(above.mean())


def aqa(u, q: float) -> float:
    """Mean of the top ceil((1 - q) * m * n) values of the map."""
    p = as_pass(u)
    if not (0.0 <= q <= 1.0):
        raise InvalidQuantile(f"quantile must lie in [0, 1], got {q!r}")
    total = p.values.size
    k = _top_k_count((1.0 - q) * total, total)
    return float(p.sorted_values()[total - k :].mean())


class ClassAverage(NamedTuple):
    alpha: float
    area: int


@dataclass(frozen=True)
class ClassAverages:
    """Mean uncertainty and pixel count per non-background class."""

    per_class: dict[int, ClassAverage]
    background_label: int


def class_averages(u, mask) -> ClassAverages:
    """Per-class mean uncertainty over the mask's non-background classes.

    Raises ShapeMismatch when map and mask shapes differ and NoForeground
    when every pixel carries the background label.
    """
    sums, counts, background = as_pass(u, mask).class_tally()
    per_class: dict[int, ClassAverage] = {}
    for c in np.nonzero(counts)[0]:
        if c == background:
            continue
        per_class[int(c)] = ClassAverage(float(sums[c] / counts[c]), int(counts[c]))
    if not per_class:
        raise NoForeground("mask contains only background pixels")
    return ClassAverages(per_class, background)


def wca(u, mask, weights: Mapping[int, float]) -> float:
    """Weighted combination of per-class averages.

    ``weights`` must cover every non-background class present in the mask and
    sum to 1 within float tolerance.
    """
    stats = class_averages(u, mask)
    missing = set(stats.per_class) - set(weights)
    if missing:
        raise InvalidParam(f"weights missing for classes {sorted(missing)}")
    total = math.fsum(weights[c] for c in stats.per_class)
    if abs(total - 1.0) > 1e-9:
        raise InvalidParam(f"class weights must sum to 1, got {total!r}")
    return float(
        math.fsum(weights[c] * stat.alpha for c, stat in stats.per_class.items())
    )


def bca(u, mask) -> float:
    """Mean of the per-class averages with equal class weights."""
    per_class = class_averages(u, mask).per_class
    weight = 1.0 / len(per_class)
    return float(math.fsum(weight * stat.alpha for stat in per_class.values()))


def ica(u, mask) -> float:
    """Area-proportional combination of the per-class averages."""
    per_class = class_averages(u, mask).per_class
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
    _, counts, background = p.class_tally()
    total = p.values.size
    fg = total - (int(counts[background]) if background < counts.size else 0)
    if fg == 0:
        raise NoForeground("mask contains only background pixels")
    k = _top_k_count((fg / total) * total, total)
    return float(p.sorted_values()[total - k :].mean())
