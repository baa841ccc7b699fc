"""Core grid types and the entropy reduction of probability stacks.

An uncertainty map is a rectangular grid of per-pixel uncertainty values in
[0, 1]. A segmentation mask is an integer grid of class labels; label 0 is
the background. A probability stack holds L sampled softmax outputs
over K classes and reduces to an uncertainty map by averaging the samples and
taking normalized Shannon entropy. A map pass scores one map with several
strategies and builds what they share once.

Maps and masks are immutable. They keep read-only copies of the arrays they
are given, so a caller may go on writing to its own arrays. A caller that
holds the only reference to a fresh array, as ``aggregate`` does with what
``io.read_npy`` returns, hands it over with ``owned=True`` instead: the grid
keeps that array, frozen, with no second copy.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass

import numpy as np

from .errors import (
    EmptyGrid,
    InvalidParam,
    InvalidStack,
    MaskRequired,
    NonFinite,
    NonTwoDimensional,
    OutOfRange,
    ShapeMismatch,
)

# Row sums of a probability stack may drift from 1 by at most this much; rows
# within tolerance are renormalized, rows outside are rejected.
PROB_ROW_TOL = 1e-6

# Pixels per row strip of the passes that sweep the map: the column running
# sum, the patch means of plm and the 3x3 spatial weights. Rule: one strip's
# live temporaries fit in a 2 MiB L2 cache. The largest kernel, Moran, keeps
# 12 strip-sized float64 arrays live beside its input rows and its output,
# under 16 in all, so 2 MiB / (16 * 8 B) = 16384 pixels. The same budget caps
# the rank codes of one block of bootstrap resamples in
# ``evaluation.bootstrap_table``: that block's intp and float64 temporaries
# stay at 128 KiB each, while blocks of 2**16 codes and more would page in
# temporaries of 512 KiB and up afresh on every block.
_STRIP_PIXELS = 16384


def _row_strips(rows: int, width: int) -> list[tuple[int, int]]:
    """``(start, stop)`` bounds that cover ``rows`` rows of ``width`` pixels in
    consecutive strips of at most ``_STRIP_PIXELS`` pixels (one row at least)."""
    step = max(1, _STRIP_PIXELS // width)
    return [(r0, min(r0 + step, rows)) for r0 in range(0, rows, step)]


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _as_grid(raw, dtype) -> np.ndarray:
    """``raw`` as a non-empty 2-D ``dtype`` array; maps, masks and weight maps
    all read their grids here. Only a boolean, integer or real floating grid
    is converted: strings would be parsed, and complex numbers would lose
    their imaginary parts."""
    try:
        arr = np.asarray(raw)
        if arr.dtype.kind not in "biuf":
            raise TypeError(f"got dtype {arr.dtype}, not boolean, integer or real")
        arr = np.asarray(arr, dtype=dtype)
    except (TypeError, ValueError, OverflowError) as exc:
        raise OutOfRange(f"expected a grid of numbers: {exc}") from None
    if arr.ndim != 2:
        raise NonTwoDimensional(f"expected a 2-D grid, got ndim={arr.ndim}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise EmptyGrid(f"grid must have at least one row and column, got {arr.shape}")
    return arr


@dataclass(frozen=True, eq=False)
class UncertaintyMap:
    """Immutable 2-D grid of uncertainty values in [0, 1].

    The map keeps a read-only copy of the values it is given, so later writes
    to the caller's array change nothing; ``validate_map(raw, owned=True)``
    takes an array over without the copy.
    """

    values: np.ndarray
    _owned: InitVar[bool] = False

    def __post_init__(self, _owned):
        arr = _as_grid(self.values, np.float64)
        # min and max propagate NaN, so they are finite only when every
        # value is
        lo, hi = arr.min(), arr.max()
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise NonFinite("uncertainty map contains NaN or infinity")
        if lo < 0.0 or hi > 1.0:
            raise OutOfRange(f"uncertainty values must lie in [0, 1], got [{lo}, {hi}]")
        object.__setattr__(self, "values", _frozen(arr if _owned else arr.copy()))

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape


def validate_map(raw, *, owned: bool = False) -> UncertaintyMap:
    """Validate a raw grid and wrap it as an :class:`UncertaintyMap`.

    The map holds a read-only copy of ``raw``. With ``owned=True`` the caller
    hands ``raw`` over instead, as ``aggregate`` does with the array
    ``io.read_npy`` has just read: a float64 grid becomes the map's values
    without a copy and is frozen, and the caller must not write to it through
    any other view.

    Raises NonTwoDimensional, EmptyGrid, NonFinite, or OutOfRange when the
    input is not a non-empty 2-D grid of finite values in [0, 1]; a grid of
    strings or complex numbers is OutOfRange too.
    """
    if isinstance(raw, UncertaintyMap):
        return raw
    return UncertaintyMap(raw, owned)


@dataclass(frozen=True, eq=False)
class SegmentationMask:
    """Immutable 2-D grid of non-negative integer class labels; 0 is the
    background, excluded from foreground statistics.

    Like :class:`UncertaintyMap`, the mask keeps a read-only copy of the labels
    it is given; ``as_mask(raw, owned=True)`` takes an array over without it.
    """

    labels: np.ndarray
    _owned: InitVar[bool] = False

    def __post_init__(self, _owned):
        raw = np.asarray(self.labels)
        if not np.issubdtype(raw.dtype, np.integer):
            if np.issubdtype(raw.dtype, np.floating) and not (
                np.isfinite(raw).all() and (raw == np.round(raw)).all()
            ):
                raise OutOfRange("mask labels must be integers")
        arr = _as_grid(raw, np.int64)
        if arr.min() < 0:
            raise OutOfRange(f"mask labels must be non-negative, got min {arr.min()}")
        object.__setattr__(self, "labels", _frozen(arr if _owned else arr.copy()))

    @property
    def shape(self) -> tuple[int, int]:
        return self.labels.shape


def as_mask(raw, *, owned: bool = False) -> SegmentationMask:
    """``raw`` as a :class:`SegmentationMask`; ``owned`` as in
    :func:`validate_map`, for an int64 grid."""
    if isinstance(raw, SegmentationMask):
        return raw
    return SegmentationMask(raw, owned)


class MapPass:
    """One map's scoring pass: the validated map, its mask (unchecked until a
    strategy reads it) and the intermediates that several strategies share.

    Each intermediate is built on first use and lives only as long as the
    pass, so score a map through one pass and then drop it. A pass belongs to
    one thread and takes no lock.
    """

    __slots__ = ("map", "mask", "_total", "_sorted", "_column_sums", "_tally",
                 "_padded")

    def __init__(self, u, mask=None):
        self.map = validate_map(u)
        self.mask = mask
        self._total = self._sorted = self._column_sums = None
        self._tally = self._padded = None

    @property
    def values(self) -> np.ndarray:
        return self.map.values

    def total(self) -> float:
        """The sum of every map value."""
        if self._total is None:
            self._total = float(self.map.values.sum())
        return self._total

    def sorted_values(self) -> np.ndarray:
        """Every map value in ascending order, flat."""
        if self._sorted is None:
            self._sorted = _frozen(np.sort(self.map.values, axis=None))
        return self._sorted

    def column_sums(self) -> np.ndarray:
        """Running sums down each column of the map.

        Taken over row strips that stay in cache, each strip's sums carrying
        on from the last row of the strip above, so every sum is the one a
        single pass down the column gives.
        """
        if self._column_sums is None:
            vals = self.map.values
            csum = np.empty_like(vals)
            for r0, r1 in _row_strips(*vals.shape):
                if r0 == 0:
                    np.cumsum(vals[:r1], axis=0, out=csum[:r1])
                else:
                    csum[r0:r1] = vals[r0:r1]
                    np.cumsum(csum[r0 - 1 : r1], axis=0, out=csum[r0 - 1 : r1])
            self._column_sums = _frozen(csum)
        return self._column_sums

    def class_tally(self) -> tuple[np.ndarray, np.ndarray]:
        """Map-value sums and pixel counts per mask label, background (0) first.

        Raises MaskRequired when the pass has no mask and ShapeMismatch when
        the mask's shape differs from the map's.
        """
        if self._tally is None:
            if self.mask is None:
                raise MaskRequired("a segmentation mask is needed; none was given")
            mask = as_mask(self.mask)
            if mask.shape != self.map.shape:
                raise ShapeMismatch(f"map {self.map.shape} vs mask {mask.shape}")
            # np.bincount would copy both read-only grids first. np.add.at
            # reads them in place and adds in the same pixel order, so each
            # sum is bincount's to the bit.
            labels = mask.labels.ravel()
            size = int(labels.max()) + 1
            sums = np.zeros(size)
            np.add.at(sums, labels, self.map.values.ravel())
            counts = np.zeros(size, dtype=np.intp)
            np.add.at(counts, labels, 1)
            self._tally = (sums, counts)
        return self._tally

    def padded(self) -> np.ndarray:
        """The map edge-replicated by two pixels on every side.

        Its inner view ``padded()[1:-1, 1:-1]`` holds the one-pixel pad.
        """
        if self._padded is None:
            self._padded = _frozen(np.pad(self.map.values, 2, mode="edge"))
        return self._padded


def as_pass(u, mask=None) -> MapPass:
    """``u`` when it already is a pass, else a new pass over ``u`` and ``mask``."""
    if isinstance(u, MapPass):
        if mask is not None and mask is not u.mask:
            raise InvalidParam("a MapPass carries its own mask; pass no other")
        return u
    return MapPass(u, mask)


@dataclass(frozen=True, eq=False)
class ProbabilityStack:
    """L sampled probability grids over K classes, shape (L, K, m, n).

    Per-sample, per-pixel probabilities must lie in [0, 1] and sum to 1
    across classes within ``PROB_ROW_TOL``.
    """

    probs: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.probs, dtype=np.float64)
        if arr.ndim != 4:
            raise InvalidStack(f"expected shape (L, K, m, n), got ndim={arr.ndim}")
        ell, k, m, n = arr.shape
        if ell < 1:
            raise InvalidStack("stack needs at least one sample (L >= 1)")
        if k < 2:
            raise InvalidStack(f"stack needs at least two classes, got K={k}")
        if m < 1 or n < 1:
            raise InvalidStack(f"stack grids must be non-empty, got {(m, n)}")
        if not np.isfinite(arr).all():
            raise InvalidStack("stack contains NaN or infinity")
        if arr.min() < 0.0 or arr.max() > 1.0:
            raise InvalidStack("stack probabilities must lie in [0, 1]")
        sums = arr.sum(axis=1)
        if np.abs(sums - 1.0).max() > PROB_ROW_TOL:
            worst = float(np.abs(sums - 1.0).max())
            raise InvalidStack(
                f"class probabilities must sum to 1 within {PROB_ROW_TOL}, "
                f"worst deviation {worst:.3g}"
            )
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "probs", arr)

    @property
    def shape(self) -> tuple[int, int, int, int]:
        return self.probs.shape


def entropy_uncertainty(stack) -> UncertaintyMap:
    """Reduce a probability stack to a normalized-entropy uncertainty map.

    Probabilities are renormalized per pixel, averaged over the L samples,
    and reduced to Shannon entropy divided by ln K, so the output lies in
    [0, 1] with 1 at the uniform distribution. The 0*ln(0) terms contribute 0.
    """
    if not isinstance(stack, ProbabilityStack):
        stack = ProbabilityStack(np.asarray(stack))
    arr = stack.probs
    k = arr.shape[1]
    sums = arr.sum(axis=1, keepdims=True)
    mean_p = (arr / sums).mean(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(mean_p > 0.0, mean_p * np.log(mean_p), 0.0)
    ent = -terms.sum(axis=0) / np.log(k)
    return UncertaintyMap(np.clip(ent, 0.0, 1.0))
