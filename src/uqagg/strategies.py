"""Aggregation strategy identifiers and dispatch.

Canonical identifier grammar (used in CLI arguments and CSV headers):

    avg                 global mean
    plm:<patch>         best patch mean, integer patch edge >= 1
    ata:<T>             above-threshold average, T in [0, 1]
    aqa:<q>             above-quantile average, q in [0, 1]
    bca                 class-balanced average (needs mask)
    ica                 area-weighted class average (needs mask)
    qfr                 foreground-sized top fraction (needs mask)
    mor                 Moran mass ratio; spatial
    eds[:<tau>]         edge-density mass ratio, tau in (0, 1), default 0.2
    ent[:<bins>]        local-entropy mass ratio, integer bins >= 2, default 4

A strategy is one entry of :data:`TABLE`: its kernel, parameter parser,
domain check, default and mask need. Parameters are spelled minimally
(``plm:20``, ``ata:0.5``); a parameter equal to the default, and the bare
name, canonicalize to the bare name (``eds:0.2`` -> ``eds``).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import intensity, spatial
from .core import FeatureMatrix, MapPass, as_pass, validate_map
from .errors import (
    DuplicateStrategy,
    InvalidParam,
    MaskRequired,
    NoForeground,
    UnknownStrategy,
    UqaggError,
)

# Default feature set of the mixture meta-aggregator: 13 intensity features
# over a small parameter grid plus the 3 spatial mass ratios.
INTENSITY_SET = (
    "avg",
    "plm:10", "plm:20", "plm:50",
    "ata:0.3", "ata:0.5", "ata:0.7",
    "aqa:0.6", "aqa:0.75", "aqa:0.9",
    "bca", "ica", "qfr",
)
SPATIAL_SET = ("mor", "eds", "ent")
FULL_SET = INTENSITY_SET + SPATIAL_SET


class Entry(NamedTuple):
    """One strategy: its kernel, parameter parser (int, float, or None for no
    parameter), domain check, the value of the bare name (None when a
    parameter is required) and whether the kernel also takes the mask."""

    kernel: Callable
    parse: type | None = None
    check: Callable | None = None
    default: int | float | None = None
    needs_mask: bool = False


TABLE = {
    "avg": Entry(intensity.avg),
    "plm": Entry(intensity.plm, int, intensity.check_patch),
    "ata": Entry(intensity.ata, float, intensity.check_threshold),
    "aqa": Entry(intensity.aqa, float, intensity.check_quantile),
    "bca": Entry(intensity.bca, needs_mask=True),
    "ica": Entry(intensity.ica, needs_mask=True),
    "qfr": Entry(intensity.qfr, needs_mask=True),
    "mor": Entry(spatial.mor),
    "eds": Entry(spatial.eds, float, spatial.check_edge_tau, spatial.DEFAULT_EDGE_TAU),
    "ent": Entry(spatial.ent, int, spatial.check_entropy_bins,
                 spatial.DEFAULT_ENTROPY_BINS),
}


@dataclass(frozen=True)
class Strategy:
    """One parsed aggregation strategy: canonical key plus a callable."""

    key: str
    requires_mask: bool
    _fn: Callable
    _args: tuple = ()

    def __call__(self, u, mask=None) -> float:
        """Score one map; ``u`` may be a MapPass that carries the mask and
        the intermediates shared with the other strategies of its map."""
        p = as_pass(u, mask)
        if self.requires_mask:
            if p.mask is None:
                raise MaskRequired(f"strategy {self.key!r} needs a segmentation mask")
            return self._fn(p, p.mask, *self._args)
        return self._fn(p, *self._args)


def parse_strategy(token: str) -> Strategy:
    """Parse one identifier into a Strategy; raises on malformed tokens."""
    token = token.strip()
    name, sep, arg = token.partition(":")
    if name == "gmm":
        raise InvalidParam(f"{token!r}: mixture scores come from 'uqagg gmm-score'")
    entry = TABLE.get(name)
    if entry is None:
        raise UnknownStrategy(f"unknown strategy {token!r}")
    if entry.parse is None:
        if sep:
            raise InvalidParam(f"strategy {name!r} takes no parameter, got {token!r}")
        return Strategy(name, entry.needs_mask, entry.kernel)
    if not sep and entry.default is None:
        raise InvalidParam(f"strategy {name!r} needs a parameter: {name}:<value>")
    try:
        value = entry.parse(arg) if sep else entry.default
    except ValueError:
        expected = "an integer" if entry.parse is int else "a number"
        raise InvalidParam(f"{name}: expected {expected}, got {arg!r}") from None
    # "+ 0" folds -0.0 into 0.0, and repr is the shortest spelling that parses
    # back to the same value, so a strategy has one key and it re-parses.
    value = entry.check(value) + 0
    key = name if value == entry.default else f"{name}:{value!r}"
    return Strategy(key, entry.needs_mask, entry.kernel, (value,))


def parse_strategy_list(spec: str | Sequence[str]) -> list[Strategy]:
    """Parse a comma-separated string or sequence of identifiers.

    Canonical keys must be unique; duplicates raise DuplicateStrategy.
    """
    tokens = spec.split(",") if isinstance(spec, str) else list(spec)
    tokens = [t for t in (str(t).strip() for t in tokens) if t]
    if not tokens:
        raise UnknownStrategy("empty strategy list")
    parsed = [parse_strategy(t) for t in tokens]
    seen: set[str] = set()
    for s in parsed:
        if s.key in seen:
            raise DuplicateStrategy(f"strategy {s.key!r} listed twice")
        seen.add(s.key)
    return parsed


def score_map(p: MapPass, strategies: Sequence[Strategy]
              ) -> tuple[np.ndarray, list[tuple[str, Exception]]]:
    """Score one map pass with every strategy, in order.

    Returns the row of scores and its notes, ``(key, note)`` pairs in
    strategy order. Every note and every error from a strategy is re-made as
    the same type with its message prefixed by ``strategy '<key>': ``. A
    NoForeground leaves the strategy's cell NaN and is a note; so is each
    warning the strategy raises (e.g. a RuntimeWarning for the mass ratio of
    an all-zero map), which is recorded, not shown. Any other UqaggError is
    raised. The recording swaps the process-wide warning state, so two
    threads must not call this at once.
    """
    row = np.empty(len(strategies))
    notes = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for j, strat in enumerate(strategies):
            seen = len(caught)
            try:
                row[j] = strat(p)
            except UqaggError as exc:
                named = type(exc)(f"strategy {strat.key!r}: {exc}")
                if not isinstance(exc, NoForeground):
                    raise named from exc
                row[j] = math.nan
                notes.append((strat.key, named))
            notes += [(strat.key, w.category(f"strategy {strat.key!r}: {w.message}"))
                      for w in caught[seen:]]
    return row, notes


def compute_features(maps, strategies: Sequence[Strategy], masks=None) -> FeatureMatrix:
    """Aggregate every map with every strategy into a feature matrix.

    Each map is scored through one MapPass, so its strategies share the
    intermediates they have in common. ``masks`` must be given (one per map)
    when any strategy needs one.
    Per-sample errors (e.g. NoForeground) propagate and warnings are issued
    again, each named by strategy; callers that want to tolerate NoForeground
    should call :func:`score_map`.
    """
    strategies = list(strategies)
    maps = [validate_map(u) for u in maps]
    if masks is None:
        needy = [s.key for s in strategies if s.requires_mask]
        if needy:
            raise MaskRequired(f"strategies {needy} need masks")
        masks = [None] * len(maps)
    elif len(masks) != len(maps):
        raise InvalidParam(f"{len(maps)} maps but {len(masks)} masks")
    rows = np.empty((len(maps), len(strategies)), dtype=np.float64)
    for i, (u, m) in enumerate(zip(maps, masks)):
        rows[i], notes = score_map(MapPass(u, m), strategies)
        for _, note in notes:
            if isinstance(note, Warning):
                warnings.warn(note, stacklevel=2)
        for _, note in notes:
            if isinstance(note, UqaggError):
                raise note
    return FeatureMatrix(tuple(s.key for s in strategies), rows)
