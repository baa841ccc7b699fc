"""Core grid types and the entropy reduction of probability stacks.

An uncertainty map is a rectangular grid of per-pixel uncertainty values in
[0, 1]. A segmentation mask is an integer grid of class labels; label 0 is
the background. A probability stack holds L sampled softmax outputs
over K classes and reduces to an uncertainty map by averaging the samples and
taking normalized Shannon entropy. A map pass scores one map with several
strategies and builds what they share once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    EmptyGrid,
    InvalidParam,
    InvalidStack,
    NonFinite,
    NonTwoDimensional,
    OutOfRange,
    ShapeMismatch,
)

# Row sums of a probability stack may drift from 1 by at most this much; rows
# within tolerance are renormalized, rows outside are rejected.
PROB_ROW_TOL = 1e-6


def _as_grid(raw, dtype) -> np.ndarray:
    arr = np.asarray(raw, dtype=dtype)
    if arr.ndim != 2:
        raise NonTwoDimensional(f"expected a 2-D grid, got ndim={arr.ndim}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise EmptyGrid(f"grid must have at least one row and column, got {arr.shape}")
    return arr


@dataclass(frozen=True, eq=False)
class UncertaintyMap:
    """Immutable 2-D grid of uncertainty values in [0, 1]."""

    values: np.ndarray

    def __post_init__(self):
        arr = _as_grid(self.values, np.float64)
        if not np.isfinite(arr).all():
            raise NonFinite("uncertainty map contains NaN or infinity")
        if arr.min() < 0.0 or arr.max() > 1.0:
            raise OutOfRange(
                f"uncertainty values must lie in [0, 1], got "
                f"[{arr.min()}, {arr.max()}]"
            )
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape


def validate_map(raw) -> UncertaintyMap:
    """Validate a raw grid and wrap it as an :class:`UncertaintyMap`.

    Raises NonTwoDimensional, EmptyGrid, NonFinite, or OutOfRange when the
    input is not a non-empty 2-D grid of finite values in [0, 1].
    """
    if isinstance(raw, UncertaintyMap):
        return raw
    return UncertaintyMap(raw)


@dataclass(frozen=True, eq=False)
class SegmentationMask:
    """Immutable 2-D grid of non-negative integer class labels; 0 is the
    background, excluded from foreground statistics."""

    labels: np.ndarray

    def __post_init__(self):
        raw = np.asarray(self.labels)
        if not np.issubdtype(raw.dtype, np.integer):
            if np.issubdtype(raw.dtype, np.floating) and not (
                np.isfinite(raw).all() and (raw == np.round(raw)).all()
            ):
                raise OutOfRange("mask labels must be integers")
        arr = _as_grid(raw, np.int64)
        if arr.min() < 0:
            raise OutOfRange(f"mask labels must be non-negative, got min {arr.min()}")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "labels", arr)

    @property
    def shape(self) -> tuple[int, int]:
        return self.labels.shape


def as_mask(raw) -> SegmentationMask:
    if isinstance(raw, SegmentationMask):
        return raw
    return SegmentationMask(np.asarray(raw))


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


class MapPass:
    """One map's scoring pass: the validated map, its mask (unchecked until a
    strategy reads it) and the intermediates that several strategies share.

    Each intermediate is built on first use and lives only as long as the
    pass, so score a map through one pass and then drop it. A pass belongs to
    one thread and takes no lock.
    """

    __slots__ = ("map", "mask", "_sorted", "_column_sums", "_tally", "_padded")

    def __init__(self, u, mask=None):
        self.map = validate_map(u)
        self.mask = mask
        self._sorted = self._column_sums = self._tally = self._padded = None

    @property
    def values(self) -> np.ndarray:
        return self.map.values

    def sorted_values(self) -> np.ndarray:
        """Every map value in ascending order, flat."""
        if self._sorted is None:
            self._sorted = _frozen(np.sort(self.map.values, axis=None))
        return self._sorted

    def column_sums(self) -> np.ndarray:
        """Running sums down each column of the map."""
        if self._column_sums is None:
            self._column_sums = _frozen(np.cumsum(self.map.values, axis=0))
        return self._column_sums

    def class_tally(self) -> tuple[np.ndarray, np.ndarray]:
        """Map-value sums and pixel counts per mask label, background (0) first.

        Raises ShapeMismatch when the mask's shape differs from the map's.
        """
        if self._tally is None:
            mask = as_mask(self.mask)
            if mask.shape != self.map.shape:
                raise ShapeMismatch(f"map {self.map.shape} vs mask {mask.shape}")
            labels = mask.labels.ravel()
            sums = np.bincount(labels, weights=self.map.values.ravel())
            self._tally = (sums, np.bincount(labels))
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


@dataclass(frozen=True, eq=False)
class FeatureMatrix:
    """Named 2-D matrix of aggregated scores, one row per sample."""

    names: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self):
        names = tuple(self.names)
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.ndim != 2:
            raise ShapeMismatch(f"feature matrix must be 2-D, got ndim={vals.ndim}")
        if len(names) != vals.shape[1]:
            raise ShapeMismatch(
                f"{len(names)} names for {vals.shape[1]} columns"
            )
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "values", vals)
