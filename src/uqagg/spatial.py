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
compute their weights over row strips sized to stay in cache. Halo rows give
every strip pixel its full window, so the weights do not depend on the strips.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .core import MapPass, UncertaintyMap, as_pass, validate_map
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
        arr = np.asarray(self.weights, dtype=np.float64)
        if arr.ndim != 2:
            raise ShapeMismatch(f"weight map must be 2-D, got ndim={arr.ndim}")
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

# Pixels per row strip of the weight kernels. Rule: one strip's live
# temporaries fit in a 2 MiB L2 cache. The largest kernel, Moran, keeps about
# 13 strip-sized float64 arrays live beside its input rows and its output, 16
# in all, so 2 MiB / (16 * 8 B) = 16384 pixels.
_STRIP_PIXELS = 16384


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

    ``kernel`` maps a padded strip (its rows plus ``ring`` halo rows above and
    below) to the weights of the strip's rows, so each pixel sees the same
    window and the same arithmetic as in one whole-map pass.
    """
    m, n = padded.shape[0] - 2 * ring, padded.shape[1] - 2 * ring
    out = np.empty((m, n))
    rows = max(1, _STRIP_PIXELS // n)
    for r0 in range(0, m, rows):
        r1 = min(r0 + rows, m)
        out[r0:r1] = kernel(padded[r0 : r1 + 2 * ring], *args)
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


def _moran_strip(padded: np.ndarray) -> np.ndarray:
    cells = _views9(padded)
    mean = cells[0].copy()
    for cell in cells[1:]:
        mean += cell
    mean /= 9.0
    z = [cell - mean for cell in cells]
    tmp = np.empty_like(mean)
    denom = np.zeros_like(mean)
    for zk in z:
        denom += np.multiply(zk, zk, out=tmp)
    num = np.zeros_like(mean)
    for a, b in _PAIRS:
        num += np.multiply(z[a], z[b], out=tmp)
    num *= 2.0
    # Exactly constant windows get weight 1 by convention; the equality test
    # avoids trusting a float variance near zero.
    constant = np.ones(mean.shape, dtype=bool)
    same = np.empty_like(constant)
    for cell in cells[1:]:
        constant &= np.equal(cell, cells[0], out=same)
    safe = np.where(denom > 0.0, denom, 1.0)
    moran = (9.0 / _S0) * num / safe
    moran = np.where(constant | (denom <= 0.0), 1.0, moran)
    return np.clip(moran, 0.0, 1.0)


def _sobel_magnitude(padded: np.ndarray) -> np.ndarray:
    # 3x3 Sobel scaled by 1/4 so a unit step yields gradient magnitude 1,
    # as a [1, 2, 1] smoothing pass followed by a difference across it.
    p = padded
    down = p[:-2] + 2.0 * p[1:-1] + p[2:]
    gx = (down[:, 2:] - down[:, :-2]) / 4.0
    across = p[:, :-2] + 2.0 * p[:, 1:-1] + p[:, 2:]
    gy = (across[2:] - across[:-2]) / 4.0
    return np.hypot(gx, gy)


def _eds_strip(padded: np.ndarray, tau: float) -> np.ndarray:
    # ``padded`` carries two replicate rings: the outer one feeds the Sobel
    # pass so gradients exist on the ring the window sweep sees.
    return _box3_count(_sobel_magnitude(padded) > tau) / 9.0


def _entropy_strip(padded: np.ndarray, bins: int) -> np.ndarray:
    # Equal-width bins on [0, 1], half-open except the last one.
    idx = np.minimum((padded * bins).astype(np.int64), bins - 1)
    acc = _PLOGP[_box3_count(idx == 0)]
    for b in range(1, bins):
        acc += _PLOGP[_box3_count(idx == b)]
    ent = -acc / np.log(bins)
    return np.clip(ent, 0.0, 1.0)


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


def _mass_ratio(vals: np.ndarray, weights: np.ndarray) -> float:
    total = float(vals.sum())
    if total == 0.0:
        warnings.warn(
            "spatial mass ratio of an all-zero map is defined as 0.0",
            RuntimeWarning,
            stacklevel=3,
        )
        return 0.0
    return float((vals * weights).sum() / total)


def smr(u, w: WeightMap) -> float:
    """Fraction of the uncertainty mass that falls on high-weight pixels.

    Defined as sum(U * W) / sum(U) in [0, 1]. An all-zero map has no mass to
    apportion; the ratio is defined as 0.0 and a RuntimeWarning is emitted.
    """
    u = validate_map(u)
    if u.shape != w.shape:
        raise ShapeMismatch(f"map {u.shape} vs weight map {w.shape}")
    return _mass_ratio(u.values, w.weights)


def mor(u) -> float:
    """Mass fraction on positively autocorrelated pixels (windowed Moran's I)."""
    p = as_pass(u)
    return _mass_ratio(p.values, _moran_weights(p))


def eds(u, tau: float = DEFAULT_EDGE_TAU) -> float:
    """Mass fraction on edge-dense pixels (Sobel magnitude above ``tau``)."""
    p = as_pass(u)
    return _mass_ratio(p.values, _eds_weights(p, tau))


def ent(u, bins: int = DEFAULT_ENTROPY_BINS) -> float:
    """Mass fraction on locally heterogeneous pixels (windowed entropy)."""
    p = as_pass(u)
    return _mass_ratio(p.values, _entropy_weights(p, bins))
