"""Aggregation strategy identifiers and dispatch.

Canonical identifier grammar (used in CLI arguments and CSV headers):

    avg                 global mean
    plm:<patch>         best patch mean, integer patch edge
    ata:<T>             above-threshold average, T in (0, 1)
    aqa:<q>             above-quantile average, q in (0, 1)
    bca                 class-balanced average (needs mask)
    ica                 area-weighted class average (needs mask)
    qfr                 foreground-sized top fraction (needs mask)
    mor                 Moran mass ratio; spatial
    eds[:<tau>]         edge-density mass ratio, default tau 0.2
    ent[:<bins>]        local-entropy mass ratio, default 4 bins
    gmm:<model-path>    negative log-likelihood under a stored mixture model

Parameters are spelled minimally (``plm:20``, ``ata:0.5``); ``eds``/``ent``
without a parameter mean their defaults and canonicalize to the bare name.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import intensity, spatial
from .core import FeatureMatrix, validate_map
from .errors import (
    DuplicateStrategy,
    InvalidParam,
    InvalidQuantile,
    InvalidThreshold,
    MaskRequired,
    UnknownStrategy,
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

_BARE = {
    "avg": (intensity.avg, False),
    "bca": (intensity.bca, True),
    "ica": (intensity.ica, True),
    "qfr": (intensity.qfr, True),
    "mor": (spatial.mor, False),
}


@dataclass(frozen=True)
class Strategy:
    """One parsed aggregation strategy: canonical key plus a callable."""

    key: str
    requires_mask: bool
    _fn: Callable

    def __call__(self, u, mask=None) -> float:
        if self.requires_mask and mask is None:
            raise MaskRequired(f"strategy {self.key!r} needs a segmentation mask")
        if self.requires_mask:
            return self._fn(u, mask)
        return self._fn(u)


def _fmt(value: float) -> str:
    # The shortest spelling that parses back to the same float, so a key
    # re-parses to the strategy it names.
    return repr(float(value))


def _parse_float(kind: str, text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise InvalidParam(f"{kind}: expected a number, got {text!r}") from None


def _parse_int(kind: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise InvalidParam(f"{kind}: expected an integer, got {text!r}") from None


def parse_strategy(token: str) -> Strategy:
    """Parse one identifier into a Strategy; raises on malformed tokens."""
    token = token.strip()
    name, sep, arg = token.partition(":")
    if name in _BARE:
        if sep:
            raise InvalidParam(f"strategy {name!r} takes no parameter, got {token!r}")
        fn, needs_mask = _BARE[name]
        return Strategy(name, needs_mask, fn)
    if name == "plm":
        if not sep:
            raise InvalidParam("plm needs a patch size, e.g. plm:20")
        patch = _parse_int("plm", arg)
        if patch < 1:
            raise InvalidParam(f"plm patch must be >= 1, got {patch}")
        return Strategy(f"plm:{patch}", False, lambda u, p=patch: intensity.plm(u, p))
    if name == "ata":
        if not sep:
            raise InvalidParam("ata needs a threshold, e.g. ata:0.5")
        t = _parse_float("ata", arg)
        if not (0.0 < t < 1.0):
            raise InvalidThreshold(f"ata threshold must lie in (0, 1), got {t!r}")
        return Strategy(f"ata:{_fmt(t)}", False, lambda u, t=t: intensity.ata(u, t))
    if name == "aqa":
        if not sep:
            raise InvalidParam("aqa needs a quantile, e.g. aqa:0.75")
        q = _parse_float("aqa", arg)
        if not (0.0 < q < 1.0):
            raise InvalidQuantile(f"aqa quantile must lie in (0, 1), got {q!r}")
        return Strategy(f"aqa:{_fmt(q)}", False, lambda u, q=q: intensity.aqa(u, q))
    if name == "eds":
        tau = _parse_float("eds", arg) if sep else spatial.DEFAULT_EDGE_TAU
        if not (0.0 < tau < 1.0):
            raise InvalidParam(f"eds threshold must lie in (0, 1), got {tau!r}")
        key = "eds" if tau == spatial.DEFAULT_EDGE_TAU else f"eds:{_fmt(tau)}"
        return Strategy(key, False, lambda u, t=tau: spatial.eds(u, t))
    if name == "ent":
        bins = _parse_int("ent", arg) if sep else spatial.DEFAULT_ENTROPY_BINS
        if bins < 2:
            raise InvalidParam(f"ent bin count must be >= 2, got {bins}")
        key = "ent" if bins == spatial.DEFAULT_ENTROPY_BINS else f"ent:{bins}"
        return Strategy(key, False, lambda u, b=bins: spatial.ent(u, b))
    if name == "gmm":
        if not sep or not arg:
            raise InvalidParam("gmm needs a model path, e.g. gmm:model.json")
        return _gmm_strategy(arg)
    raise UnknownStrategy(f"unknown strategy {token!r}")


def _gmm_strategy(path: str) -> Strategy:
    from . import meta  # local import; meta depends on this module's sets

    model = meta.load_model(path)
    subs = [parse_strategy(s) for s in model.feature_spec.strategies]
    needs_mask = any(s.requires_mask for s in subs)

    def score(u, mask=None):
        values = [s(u, mask) if s.requires_mask else s(u) for s in subs]
        return meta.meta_score(model, np.asarray(values))

    return Strategy(f"gmm:{path}", needs_mask, score)


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


def compute_features(maps, strategies: Sequence[Strategy], masks=None) -> FeatureMatrix:
    """Aggregate every map with every strategy into a feature matrix.

    ``masks`` must be given (one per map) when any strategy needs one.
    Per-sample errors (e.g. NoForeground) propagate; callers that want to
    tolerate them should loop themselves.
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
        for j, strat in enumerate(strategies):
            rows[i, j] = strat(u, m)
    return FeatureMatrix(tuple(s.key for s in strategies), rows)
