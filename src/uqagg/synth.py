"""Synthetic uncertainty-map benchmarks with known structure.

Patterns (all values clipped to [0, 1]):

    constant       level
    noise          uniform in [mean - amp, mean + amp]
    blob           disk of ``inside`` on an ``outside`` background
    ring           annulus of ``inside`` between two radii
    checkerboard   alternating ``high``/``low`` tiles of edge ``period``

``gen_benchmark`` builds labeled in-distribution / out-of-distribution
populations with per-sample parameter jitter, optional analytic mean matching,
optional masks, and synthetic risks. A perturbation ladder yields one
population per intensity step; out-of-distribution maps follow per-sample
trajectories interpolating from an in-distribution base toward their pattern,
so scores can be tracked sample-by-sample across steps.

Every sample is drawn from its own random stream, so samples can be drawn
one at a time: ``gen_benchmark`` collects them into memory, and
``uqagg synth`` writes each one before it draws the next, whatever the
population sizes. Each map-sized array is made once: a map or mask is
rendered into a fresh array that the grid takes over without a copy, a
blend is summed and clipped in place, and a sample's arrays are freed
before the next sample is drawn. A perturbed sample holds its base, its
pattern, their two masks and one blended map at a time.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from .core import SegmentationMask, UncertaintyMap
from .errors import InvalidSpec
from .rng import stream

_PATTERN_PARAMS = {
    "constant": {"level"},
    "noise": {"mean", "amp"},
    "blob": {"inside", "outside", "radius", "row", "col"},
    "ring": {"inside", "outside", "radius_inner", "radius_outer", "row", "col"},
    "checkerboard": {"high", "low", "period"},
}

# The (foreground, background) level parameters of each pattern. Mean
# matching moves the background level; constant and noise have no shape, so
# their one level is the background.
_LEVELS = {
    "constant": (None, "level"),
    "noise": (None, "mean"),
    "blob": ("inside", "outside"),
    "ring": ("inside", "outside"),
    "checkerboard": ("high", "low"),
}

# Tile indices are int64 pixel coordinates floor-divided by the period.
_PERIOD_MAX = np.iinfo(np.int64).max

_LANE_IID = 1
_LANE_OOD_BASE = 2
_LANE_OOD_PATTERN = 3
_LANE_RISK = 4

DEFAULT_RISK_SLOPE = 0.6
DEFAULT_RISK_NOISE = 0.05


@dataclass(frozen=True)
class SynthSpec:
    """Pattern name, grid size, parameters, and a seed."""

    pattern: str
    size: tuple[int, int]
    params: Mapping[str, float]
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.pattern, str) or self.pattern not in _PATTERN_PARAMS:
            raise InvalidSpec(
                f"unknown pattern {self.pattern!r}; pick from "
                f"{sorted(_PATTERN_PARAMS)}"
            )
        try:
            size = tuple(operator.index(s) for s in self.size)
        except TypeError:  # not a sequence of integers
            size = ()
        if len(size) != 2 or size[0] < 1 or size[1] < 1:
            raise InvalidSpec(f"size must be two positive integers, got {self.size!r}")
        try:
            seed = operator.index(self.seed)
        except TypeError:
            raise InvalidSpec(f"seed must be an integer, got {self.seed!r}") from None
        if not isinstance(self.params, Mapping):
            raise InvalidSpec(f"params must be a mapping, got {self.params!r}")
        params = dict(self.params)
        allowed = _PATTERN_PARAMS[self.pattern]
        for key, value in params.items():
            jitter = isinstance(key, str) and key.endswith("_jitter")
            base = key[: -len("_jitter")] if jitter else key
            if base not in allowed:
                raise InvalidSpec(
                    f"pattern {self.pattern!r} does not take parameter {key!r}"
                )
            try:
                finite = math.isfinite(float(value))
            except (TypeError, ValueError):
                raise InvalidSpec(
                    f"parameter {key!r} must be a number, got {value!r}"
                ) from None
            if not finite:
                raise InvalidSpec(f"parameter {key!r} must be finite")
        if self.pattern == "checkerboard" and "period" in params:
            period = int(float(params["period"]))
            if period < 1:
                raise InvalidSpec(f"checkerboard period must be >= 1, got {period}")
            if period > _PERIOD_MAX:
                raise InvalidSpec(
                    f"checkerboard period must be <= {_PERIOD_MAX}, "
                    f"got {params['period']!r}"
                )
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "seed", seed)

    def param(self, name: str, default=None) -> float:
        if name in self.params:
            return float(self.params[name])
        if default is None:
            raise InvalidSpec(f"pattern {self.pattern!r} needs parameter {name!r}")
        return float(default)


def _uniform(rng: np.random.Generator, low: float, high: float, what: str, size=None):
    """``rng.uniform(low, high, size)``; InvalidSpec naming ``what`` if the span
    ``high - low`` is not finite."""
    if not math.isfinite(high - low):
        raise InvalidSpec(f"{what} gives a uniform draw over [{low!r}, {high!r}], "
                          "whose span is not finite")
    return rng.uniform(low, high, size=size)


def _disk(size, row, col, radius) -> np.ndarray:
    rr, cc = np.ogrid[: size[0], : size[1]]
    return (rr - row) ** 2 + (cc - col) ** 2 <= radius**2


def _shape(spec: SynthSpec) -> np.ndarray | None:
    """The pattern's foreground as a boolean grid: the disk of a blob, the
    annulus of a ring, the high tiles of a checkerboard; None for constant
    and noise, which have no shape."""
    m, n = spec.size
    if spec.pattern in ("blob", "ring"):
        row = spec.param("row", (m - 1) / 2.0)
        col = spec.param("col", (n - 1) / 2.0)
        if spec.pattern == "blob":
            return _disk(spec.size, row, col, spec.param("radius"))
        return _disk(spec.size, row, col, spec.param("radius_outer")) & ~_disk(
            spec.size, row, col, spec.param("radius_inner")
        )
    if spec.pattern == "checkerboard":
        period = int(spec.param("period"))
        rr, cc = np.ogrid[:m, :n]
        return (rr // period + cc // period) % 2 == 0
    return None


def _render(spec: SynthSpec, rng: np.random.Generator) -> np.ndarray:
    on, off = _LEVELS[spec.pattern]
    if spec.pattern == "noise":
        mean, amp = spec.param("mean"), spec.param("amp")
        vals = _uniform(rng, mean - amp, mean + amp, "parameter 'amp'", spec.size)
    elif on is None:
        vals = np.full(spec.size, spec.param(off))
    else:
        vals = np.where(_shape(spec), spec.param(on), spec.param(off))
    # each branch gives a fresh float64 grid, so it is clipped in place
    return np.clip(vals, 0.0, 1.0, out=vals)


def generate(spec: SynthSpec) -> UncertaintyMap:
    """Render the spec deterministically (same spec, same map)."""
    return UncertaintyMap(_render(spec, stream(spec.seed)), True)


def pattern_mask(spec: SynthSpec) -> SegmentationMask:
    """Foreground geometry of the pattern as a two-class mask.

    blob/ring use their own geometry; checkerboard marks the high tiles;
    constant/noise have no geometry, so a centered disk of radius
    min(m, n) / 4 stands in as a plausible foreground.
    """
    fg = _shape(spec)
    if fg is None:
        m, n = spec.size
        fg = _disk(spec.size, (m - 1) / 2.0, (n - 1) / 2.0, min(m, n) / 4.0)
    return SegmentationMask(fg.astype(np.int64), True)


def expected_mean(spec: SynthSpec) -> float:
    """Expected map mean under the base parameters (jitter excluded)."""
    on, off = _LEVELS[spec.pattern]
    if on is None:
        return spec.param(off)
    f = float(_shape(spec).mean())
    return f * spec.param(on) + (1.0 - f) * spec.param(off)


def _jittered(spec: SynthSpec, rng: np.random.Generator) -> SynthSpec:
    """Apply the spec's ``<name>_jitter`` entries with one uniform draw each.

    Jitter draws happen in sorted parameter order before any rendering draw,
    so the stream layout is stable.
    """
    params = dict(spec.params)
    jitters = sorted(k for k in params if k.endswith("_jitter"))
    for key in jitters:
        base = key[: -len("_jitter")]
        width = float(params.pop(key))
        params[base] = spec.param(base) + _uniform(rng, -width, width,
                                                   f"parameter {key!r}")
    return replace(spec, params=params)


def _match_background(ood_spec: SynthSpec, target_mean: float) -> SynthSpec:
    """Adjust the pattern's background parameter to hit ``target_mean``.

    Solves the linear expected-mean identity for the background level; raises
    InvalidSpec when no value in [0, 1] can reach the target.
    """
    name = _LEVELS[ood_spec.pattern][1]
    params = dict(ood_spec.params)
    params[name] = 0.0
    at_zero = expected_mean(replace(ood_spec, params=params))
    params[name] = 1.0
    at_one = expected_mean(replace(ood_spec, params=params))
    span = at_one - at_zero
    if span <= 0.0:
        raise InvalidSpec(
            f"pattern {ood_spec.pattern!r} gives the background no area to adjust"
        )
    level = (target_mean - at_zero) / span
    if not (0.0 <= level <= 1.0):
        raise InvalidSpec(
            f"cannot match mean {target_mean:.4f}: background level "
            f"{level:.4f} escapes [0, 1]"
        )
    params[name] = level
    return replace(ood_spec, params=params)


@dataclass(frozen=True, eq=False)
class BenchmarkSample:
    sample_id: str
    map: UncertaintyMap
    mask: SegmentationMask | None
    ood_label: int
    risk: float


@dataclass(frozen=True, eq=False)
class Benchmark:
    """One labeled population at a fixed perturbation intensity."""

    samples: tuple[BenchmarkSample, ...]
    intensity: float

    def maps(self) -> list[UncertaintyMap]:
        return [s.map for s in self.samples]

    def labels(self) -> np.ndarray:
        return np.array([s.ood_label for s in self.samples])


def gen_benchmark(n_iid: int, n_ood: int, iid_spec: SynthSpec, ood_spec: SynthSpec,
                  *, perturb_ladder: Sequence[float] | None = None, seed: int = 0,
                  match_means: bool = False, with_masks: bool = False,
                  risk_slope: float = DEFAULT_RISK_SLOPE,
                  risk_noise: float = DEFAULT_RISK_NOISE) -> list[Benchmark]:
    """Generate labeled populations of synthetic uncertainty maps.

    Returns one Benchmark per ladder step (a single step of intensity 1.0
    when no ladder is given). In-distribution samples come from ``iid_spec``
    with per-sample jitter. Out-of-distribution sample j at intensity i is
    clip((1 - i) * base_j + i * pattern_j) where base_j follows ``iid_spec``
    and pattern_j follows ``ood_spec``; both stay fixed across steps so each
    sample traces a trajectory. Risk is clip(slope * intensity + jitter) for
    perturbed samples and clip(jitter) otherwise.

    ``match_means`` adjusts the out-of-distribution background level so both
    populations share the expected map mean. ``with_masks`` attaches each
    sample's pattern geometry as a mask. Every draw comes from ``seed``; the
    specs' own seeds are not read.

    The result holds every map of every step in memory; ``uqagg synth``
    draws the same samples one at a time and writes each before the next.
    """
    steps, samples = _samples(
        n_iid, n_ood, iid_spec, ood_spec, perturb_ladder=perturb_ladder, seed=seed,
        match_means=match_means, with_masks=with_masks, risk_slope=risk_slope,
        risk_noise=risk_noise)
    populations = [[] for _ in steps]
    for t, sample in samples:
        populations[t].append(sample)
    return [Benchmark(tuple(p), intensity) for p, intensity in zip(populations, steps)]


def _samples(n_iid, n_ood, iid_spec, ood_spec, *, perturb_ladder, seed, match_means,
             with_masks, risk_slope, risk_noise):
    """Check ``gen_benchmark``'s arguments; return its step intensities and an
    iterator over its ``(step, sample)`` pairs.

    The iterator holds one sample at a time: each in-distribution sample is
    yielded once per step, and each perturbed sample's base and pattern are
    rendered once and blended into one map per step. Every population lists
    its in-distribution samples first.
    """
    if n_iid < 1:
        raise InvalidSpec(f"need at least one in-distribution sample, got {n_iid}")
    if n_ood < 1:
        raise InvalidSpec(f"need at least one perturbed sample, got {n_ood}")
    if iid_spec.size != ood_spec.size:
        raise InvalidSpec(f"sizes differ: {iid_spec.size} vs {ood_spec.size}")
    steps = [1.0] if perturb_ladder is None else [float(s) for s in perturb_ladder]
    if not steps or any(not (0.0 <= s <= 1.0) for s in steps):
        raise InvalidSpec(f"ladder intensities must lie in [0, 1], got {steps!r}")
    for name, value in (("risk_slope", risk_slope), ("risk_noise", risk_noise)):
        if not math.isfinite(value):
            raise InvalidSpec(f"{name} must be finite, got {value!r}")
    if match_means:
        ood_spec = _match_background(ood_spec, expected_mean(iid_spec))

    width = max(4, len(str(max(n_iid, n_ood))))

    def risk(index: int, level: float) -> float:
        noise = _uniform(stream(seed, _LANE_RISK, index), -risk_noise, risk_noise,
                         "risk_noise")
        return float(np.clip(level + noise, 0.0, 1.0))

    # The suspended generator holds only what its locals name, so each
    # sample's arrays are unbound once yielded: a consumer that drops a
    # sample before asking for the next frees it before the next is drawn.
    def draw():
        for j in range(n_iid):
            rng = stream(seed, _LANE_IID, j)
            spec_j = _jittered(iid_spec, rng)
            sample = BenchmarkSample(
                f"iid-{j:0{width}d}", UncertaintyMap(_render(spec_j, rng), True),
                pattern_mask(spec_j) if with_masks else None, 0, risk(j, 0.0))
            for t in range(len(steps)):
                yield t, sample
            del sample

        for j in range(n_ood):
            base_rng = stream(seed, _LANE_OOD_BASE, j)
            base_spec = _jittered(iid_spec, base_rng)
            base = _render(base_spec, base_rng)
            pat_rng = stream(seed, _LANE_OOD_PATTERN, j)
            pat_spec = _jittered(ood_spec, pat_rng)
            pattern = _render(pat_spec, pat_rng)
            if with_masks:
                # The mask follows the dominant component of the blend.
                masks_j = (pattern_mask(base_spec), pattern_mask(pat_spec))
            else:
                masks_j = (None, None)
            for t, intensity in enumerate(steps):
                # (1 - i) * base + i * pattern, summed into the first product
                vals = (1.0 - intensity) * base
                vals += intensity * pattern
                yield t, BenchmarkSample(
                    f"ood-{j:0{width}d}",
                    UncertaintyMap(np.clip(vals, 0.0, 1.0, out=vals), True),
                    masks_j[1] if intensity > 0.5 else masks_j[0], 1,
                    risk(((t + 1) << 24) | j, risk_slope * intensity),
                )
                del vals
            del base, pattern, masks_j

    return steps, draw()
