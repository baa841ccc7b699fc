"""Intensity and prediction-based reductions of an uncertainty map.

Prediction-free reductions use only the map values: global mean, best patch
mean, above-threshold average, above-quantile average. Prediction-based
reductions additionally use a segmentation mask, given as their second
argument or carried by the MapPass (MaskRequired when there is none):
per-class averages combined with equal or area-proportional weights, and the
foreground-sized top fraction of the whole map.

Every reduction takes a raw grid, an UncertaintyMap or a MapPass. Through one
MapPass, the mean takes the map total the spatial reductions also use, the
top-k reductions share one sort, the patch means one column running sum, and
the class reductions one per-label tally. The column running sum and the
patch means' row sums are taken over row strips sized to stay in cache, with
the strip budget of the spatial kernels.
"""

from __future__ import annotations

import math

import numpy as np

from .core import _row_strips, as_pass
from .errors import InvalidParam, NoForeground, PatchTooLarge

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
        raise InvalidParam(f"ata threshold must lie in [0, 1], got {threshold!r}")
    return threshold


def check_quantile(q) -> float:
    """``q`` when it is a valid aqa quantile, in [0, 1]."""
    if not (0.0 <= q <= 1.0):
        raise InvalidParam(f"aqa quantile must lie in [0, 1], got {q!r}")
    return q


def avg(u) -> float:
    """Global mean of the map."""
    p = as_pass(u)
    return p.total() / p.values.size


def plm(u, patch: int) -> float:
    """Largest mean over all patch x patch windows fully inside the map.

    Window sums come from two 1-D running sums (a column pass, which every
    patch size scored through one MapPass shares, then a row pass), so the
    cost is O(m * n) for any patch. Its running sums stay far
    smaller than those of one 2-D summed-area table, so cancellation costs
    less. A difference of running sums can still land a rounding step above
    the true window sum, so the result is capped at the map maximum, which no
    window mean exceeds.

    The row pass runs over strips of window rows sized to stay in cache. Each
    window sum is the same two differences of the same running sums in any
    strip, so the result does not depend on the strips.
    """
    p = as_pass(u)
    vals = p.values
    patch = check_patch(patch)
    m, n = vals.shape
    if patch > min(m, n):
        raise PatchTooLarge(f"patch {patch} exceeds map extent {m}x{n}")
    csum = p.column_sums()
    best = -math.inf
    for r0, r1 in _row_strips(m - patch + 1, n):
        # windows with top rows r0..r1-1: sums over `patch` consecutive rows,
        sums = np.empty((r1 - r0, n))
        lo = max(r0, 1)
        if r0 == 0:
            sums[0] = csum[patch - 1]
        np.subtract(csum[lo + patch - 1 : r1 + patch - 1], csum[lo - 1 : r1 - 1],
                    out=sums[lo - r0 :])
        # then running sums along each row and their differences `patch` apart
        np.cumsum(sums, axis=1, out=sums)
        boxes = sums[:, patch:] - sums[:, :-patch]
        best = max(best, sums[:, patch - 1].max(), boxes.max(initial=-math.inf))
    return float(min(best / (patch * patch), vals.max()))


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


def _class_means(u, mask=None) -> tuple[np.ndarray, np.ndarray]:
    """Mean uncertainty and pixel count of each non-background class, in label
    order.

    Raises MaskRequired when there is no mask, ShapeMismatch when map and
    mask shapes differ and NoForeground when every pixel carries the
    background label 0.
    """
    sums, counts = as_pass(u, mask).class_tally()
    fg = np.flatnonzero(counts[1:]) + 1
    if not fg.size:
        raise NoForeground("mask contains only background pixels")
    return sums[fg] / counts[fg], counts[fg]


def bca(u, mask=None) -> float:
    """Mean of the per-class averages with equal class weights."""
    alpha, _ = _class_means(u, mask)
    return math.fsum((1.0 / len(alpha)) * alpha)


def ica(u, mask=None) -> float:
    """Area-proportional combination of the per-class averages."""
    alpha, area = _class_means(u, mask)
    return math.fsum((area / area.sum()) * alpha)


def qfr(u, mask=None) -> float:
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
