"""Spatial structure measures and the spatial-mass-ratio reductions.

Each measure scans a 3x3 window over the map (edge-replicated by one pixel so
border windows are full) and produces a per-pixel weight in [0, 1]:

* ``moran``    windowed Moran's I under queen (8-neighbour) adjacency,
               clamped to [0, 1]; constant windows score 1
* ``eds``      fraction of the nine window pixels whose Sobel gradient
               magnitude exceeds a threshold (unit step -> magnitude 1)
* ``entropy``  Shannon entropy of the window values over equal-width bins
               on [0, 1], normalized by ln(bins)

The weight map splits the uncertainty mass into a structured part U * W and an
unstructured part U * (1 - W); the scalar reduction is the mass fraction
sum(U * W) / sum(U).

All three measures read one edge-replicated pad of the map, built once per
MapPass (``eds`` needs two rings, the others its inner one-ring view), and
compute their weights over row strips of the budget ``plm`` also uses, sized to
stay in cache. Halo rows give every strip pixel its full window, so the
weights do not depend on the strips.

The kernels give the same bits as the literal definitions with less work:
``moran`` scales its sums once and compares no window cells, since the
arithmetic of an exactly constant window gives weight 1 by itself (see the
comment above ``_moran_strip``), ``eds`` compares squared gradient
magnitudes with the squared threshold and calls ``np.hypot`` only for the
pixels too close to call, and ``entropy`` finds each value's bin by comparing
``v * bins`` with the bin edges.

The mass ratios take sum(U) from the pass, which sums the map once for all
of them, and multiply each fresh weight map by U in place; ``smr`` multiplies
a caller's weight map into a new array.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .core import MapPass, UncertaintyMap, _as_grid, _row_strips, as_pass, validate_map
from .errors import InvalidParam, ShapeMismatch

DEFAULT_EDGE_TAU = 0.2
DEFAULT_ENTROPY_BINS = 4

_MEASURES = ("moran", "eds", "entropy")

# Queen adjacency inside a flattened 3x3 window: all index pairs at Chebyshev
# distance 1. 20 unordered pairs, so the total adjacency weight S0 is 40.
_PAIRS = np.array(
    [
        (a, b)
        for a in range(9)
        for b in range(a + 1, 9)
        if max(abs(a // 3 - b // 3), abs(a % 3 - b % 3)) == 1
    ]
)
_S0 = 2 * len(_PAIRS)


@dataclass(frozen=True, eq=False)
class WeightMap:
    """Per-pixel spatial weights in [0, 1] plus the measure that made them."""

    weights: np.ndarray
    measure: str

    def __post_init__(self):
        arr = _as_grid(self.weights, np.float64)
        if not np.isfinite(arr).all() or arr.min() < 0.0 or arr.max() > 1.0:
            raise InvalidParam("spatial weights must be finite values in [0, 1]")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "weights", arr)

    @property
    def shape(self) -> tuple[int, int]:
        return self.weights.shape


# Window bin shares are c / 9 for a count c in 0..9, so p * ln(p) takes one of
# ten values; looking them up spares a logarithm per pixel and bin.
_SHARES = np.arange(10) / 9.0
with np.errstate(divide="ignore", invalid="ignore"):
    _PLOGP = np.where(_SHARES > 0.0, _SHARES * np.log(_SHARES), 0.0)

def check_edge_tau(tau) -> float:
    """``tau`` when it is a valid eds gradient threshold, in (0, 1)."""
    if not (0.0 < tau < 1.0):
        raise InvalidParam(f"eds threshold must lie in (0, 1), got {tau!r}")
    return tau


def check_entropy_bins(bins) -> int:
    """``bins`` when it is a valid ent bin count, an integer >= 2."""
    if not isinstance(bins, (int, np.integer)) or bins < 2:
        raise InvalidParam(f"ent bin count must be an integer >= 2, got {bins!r}")
    return bins


def _by_strips(padded: np.ndarray, ring: int, kernel, *args) -> np.ndarray:
    """Weights of a map padded by ``ring`` pixels, one row strip at a time.

    ``kernel(strip, out, *args)`` writes to ``out`` the weights of the rows of
    a padded strip (its rows plus ``ring`` halo rows above and below), so each
    pixel sees the same window and the same arithmetic as in one whole-map
    pass.
    """
    m, n = padded.shape[0] - 2 * ring, padded.shape[1] - 2 * ring
    out = np.empty((m, n))
    for r0, r1 in _row_strips(m, n):
        kernel(padded[r0 : r1 + 2 * ring], out[r0:r1], *args)
    return out


def _views9(padded: np.ndarray) -> list[np.ndarray]:
    """The nine cells of every pixel's 3x3 window, as shifted views of the
    padded map, in the row-major cell order of ``_PAIRS``."""
    m, n = padded.shape[0] - 2, padded.shape[1] - 2
    return [padded[a : a + m, b : b + n] for a in range(3) for b in range(3)]


def _box3_count(flags: np.ndarray) -> np.ndarray:
    """3x3 window counts of a padded boolean array, as two 1-D passes."""
    f = flags.view(np.uint8)
    rows = f[:, :-2] + f[:, 1:-1]
    rows += f[:, 2:]
    counts = rows[:-2] + rows[1:-1]
    counts += rows[2:]
    return counts


# Moran gives an exactly constant window weight 1 by convention, and its
# arithmetic already does, so no window cells are compared. Take nine copies
# of c in (0, 1] and u = 2^-53. The running sum is off 9 c by at most
# u c (2 + ... + 9) = 44 u c, so the mean lies within (44/9 + 1) u c < 6 u c
# of c. Then z = c - mean is exact (Sterbenz) and the same in every cell,
# fewer than 24 steps of the finer of the two values' float spacings. So
# p = fl(z^2) has at most 10 significant bits: z^2 exactly, or, where z^2 is
# subnormal, a multiple of 2^-1074 below 2^-1064. Hence denom = 9 p and the
# pair sum 20 p are exact, and fl(fl(9/20) * 20 p) = 9 p, because
# fl(9/20) = (9/20)(1 + e) with e < 2.5e-17 moves 9 p by less than half its
# spacing. The weight is 9 p / 9 p = 1, or denom is 0 (c = 0 among others),
# and a zero denom gets weight 1 below.


def _moran_strip(padded: np.ndarray, out: np.ndarray) -> None:
    cells = _views9(padded)
    mean = np.add(cells[0], cells[1])
    for cell in cells[2:]:
        mean += cell
    mean /= 9.0
    z = [cell - mean for cell in cells]
    tmp = mean  # the mean is spent once the deviations exist
    denom = np.multiply(z[0], z[0])
    for zk in z[1:]:
        denom += np.multiply(zk, zk, out=tmp)
    num = np.zeros_like(denom)
    for a, b in _PAIRS:
        num += np.multiply(z[a], z[b], out=tmp)
    # (9 / S0) * (2 num) / denom; 2 fl(9/40) is fl(9/20), so one scaling
    # gives the same bits
    num *= 2.0 * (9.0 / _S0)
    with np.errstate(divide="ignore", invalid="ignore"):
        num /= denom
    if denom.min() <= 0.0:
        np.copyto(num, 1.0, where=denom <= 0.0)
    np.clip(num, 0.0, 1.0, out=out)


# eds decides np.hypot(gx, gy) > tau on squares. With dx = 4 gx and dy = 4 gy
# (exact unless gx or gy is subnormal, and then off by at most 2^-1075),
# s = fl(fl(dx^2) + fl(dy^2)) lies within 2.1 ulp of dx^2 + dy^2, give or take
# 2^-1073 where a square underflows; T = fl((4 tau)^2) lies within half an ulp
# of 16 tau^2, and np.hypot within a few ulp of the true magnitude. When T is
# a normal float, s > T (1 + _EDGE_BAND) thus means hypot > tau and
# s < T (1 - _EDGE_BAND) means hypot < tau: the relative band is over a
# million times wider than those errors. Pixels inside it, and every pixel
# when T is subnormal or zero, are decided by np.hypot itself.
_EDGE_BAND = 1e-9


def _sobel_edges(padded: np.ndarray, tau: float) -> np.ndarray:
    """The flags ``np.hypot(gx, gy) > tau`` of the Sobel gradient (gx, gy),
    decided on squared magnitudes wherever that gives the same answer."""
    # 3x3 Sobel scaled by 1/4 so a unit step yields gradient magnitude 1,
    # as a [1, 2, 1] smoothing pass followed by a difference across it.
    # dx and dy are 4 gx and 4 gy; the threshold carries the scale instead.
    p = padded
    down = p[1:-1] * 2.0
    down += p[:-2]
    down += p[2:]
    dx = down[:, 2:] - down[:, :-2]
    across = p[:, 1:-1] * 2.0
    across += p[:, :-2]
    across += p[:, 2:]
    dy = across[2:] - across[:-2]
    t4 = 4.0 * float(tau)
    limit = t4 * t4  # T, the bound on dx^2 + dy^2
    if limit < np.finfo(np.float64).tiny:
        return np.hypot(dx / 4.0, dy / 4.0) > tau
    s = np.multiply(dx, dx)
    s += np.multiply(dy, dy, out=across[:-2])
    flags = s > limit * (1.0 + _EDGE_BAND)
    near = s >= limit * (1.0 - _EDGE_BAND)
    near ^= flags  # inside the band
    if near.any():
        at = np.flatnonzero(near)
        flags.flat[at] = np.hypot(dx.flat[at] / 4.0, dy.flat[at] / 4.0) > tau
    return flags


def _eds_strip(padded: np.ndarray, out: np.ndarray, tau: float) -> None:
    # ``padded`` carries two replicate rings: the outer one feeds the Sobel
    # pass so gradients exist on the ring the window sweep sees.
    np.divide(_box3_count(_sobel_edges(padded, tau)), 9.0, out=out)


def _entropy_strip(padded: np.ndarray, out: np.ndarray, bins: int) -> None:
    # Equal-width bins on [0, 1], half-open except the last one: value v goes
    # to bin min(floor(v * bins), bins - 1). For t = v * bins >= 0 that bin is
    # b or above exactly when t >= b (1 <= b < bins), so each bin's window
    # count is the difference of two window counts of such comparisons.
    t = padded * bins
    above = _box3_count(t >= 1)  # window pixels in bin 1 or above
    acc = np.take(_PLOGP, 9 - above)
    for b in range(2, bins):
        higher = _box3_count(t >= b)
        acc += np.take(_PLOGP, above - higher)  # bin b - 1
        above = higher
    acc += np.take(_PLOGP, above)  # the last bin
    acc /= -np.log(bins)  # -acc / ln(bins), to the bit
    np.clip(acc, 0.0, 1.0, out=out)


def _moran_weights(p: MapPass) -> np.ndarray:
    return _by_strips(p.padded()[1:-1, 1:-1], 1, _moran_strip)


def _eds_weights(p: MapPass, tau: float) -> np.ndarray:
    return _by_strips(p.padded(), 2, _eds_strip, check_edge_tau(tau))


def _entropy_weights(p: MapPass, bins: int) -> np.ndarray:
    return _by_strips(p.padded()[1:-1, 1:-1], 1, _entropy_strip,
                      check_entropy_bins(bins))


def spatial_weight_map(u, measure: str, *, tau: float = DEFAULT_EDGE_TAU,
                       bins: int = DEFAULT_ENTROPY_BINS) -> WeightMap:
    """Compute the per-pixel weight map for one spatial measure."""
    p = as_pass(u)
    if measure == "moran":
        return WeightMap(_moran_weights(p), measure)
    if measure == "eds":
        return WeightMap(_eds_weights(p, tau), measure)
    if measure == "entropy":
        return WeightMap(_entropy_weights(p, bins), measure)
    raise InvalidParam(f"unknown spatial measure {measure!r}; pick from {_MEASURES}")


def spatial_decompose(u, w: WeightMap) -> tuple[UncertaintyMap, UncertaintyMap]:
    """Split the map into structured (U * W) and residual (U * (1 - W)) parts."""
    u = validate_map(u)
    if u.shape != w.shape:
        raise ShapeMismatch(f"map {u.shape} vs weight map {w.shape}")
    high = UncertaintyMap(u.values * w.weights)
    low = UncertaintyMap(u.values * (1.0 - w.weights))
    return high, low


def _mass_ratio(total: float, weighted: np.ndarray) -> float:
    """sum(U * W) / sum(U) from the map total and the product U * W."""
    if total == 0.0:
        warnings.warn(
            "spatial mass ratio of an all-zero map is defined as 0.0",
            RuntimeWarning,
            stacklevel=3,
        )
        return 0.0
    return float(weighted.sum() / total)


def smr(u, w: WeightMap) -> float:
    """Fraction of the uncertainty mass that falls on high-weight pixels.

    Defined as sum(U * W) / sum(U) in [0, 1]. An all-zero map has no mass to
    apportion; the ratio is defined as 0.0 and a RuntimeWarning is emitted.
    """
    p = as_pass(u)
    if p.map.shape != w.shape:
        raise ShapeMismatch(f"map {p.map.shape} vs weight map {w.shape}")
    return _mass_ratio(p.total(), p.values * w.weights)


def _weighted(p: MapPass, weights: np.ndarray) -> np.ndarray:
    """U * W in the buffer of ``weights``, which the caller just made."""
    weights *= p.values
    return weights


def mor(u) -> float:
    """Mass fraction on positively autocorrelated pixels (windowed Moran's I)."""
    p = as_pass(u)
    return _mass_ratio(p.total(), _weighted(p, _moran_weights(p)))


def eds(u, tau: float = DEFAULT_EDGE_TAU) -> float:
    """Mass fraction on edge-dense pixels (Sobel magnitude above ``tau``)."""
    p = as_pass(u)
    return _mass_ratio(p.total(), _weighted(p, _eds_weights(p, tau)))


def ent(u, bins: int = DEFAULT_ENTROPY_BINS) -> float:
    """Mass fraction on locally heterogeneous pixels (windowed entropy)."""
    p = as_pass(u)
    return _mass_ratio(p.total(), _weighted(p, _entropy_weights(p, bins)))
