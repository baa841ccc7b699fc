import math
import warnings

import numpy as np
import pytest

from uqagg import (
    WeightMap,
    eds,
    ent,
    mor,
    smr,
    spatial_decompose,
    spatial_weight_map,
    validate_map,
)
from uqagg.errors import InvalidParam, ShapeMismatch


# ---------------------------------------------------------------------------
# nested-loop oracles, deliberately slow and literal


def _pad_replicate(vals, width):
    m, n = vals.shape
    out = np.empty((m + 2 * width, n + 2 * width))
    for i in range(-width, m + width):
        for j in range(-width, n + width):
            out[i + width, j + width] = vals[
                min(max(i, 0), m - 1), min(max(j, 0), n - 1)
            ]
    return out


def _moran_oracle(vals):
    p = _pad_replicate(vals, 1)
    m, n = vals.shape
    out = np.empty((m, n))
    for i in range(m):
        for j in range(n):
            cells = [(a, b) for a in range(3) for b in range(3)]
            w = [p[i + a, j + b] for a, b in cells]
            if all(v == w[0] for v in w):
                out[i, j] = 1.0
                continue
            mean = sum(w) / 9.0
            z = [v - mean for v in w]
            num = 0.0
            for x, (a, b) in enumerate(cells):
                for y, (c, d) in enumerate(cells):
                    if x != y and max(abs(a - c), abs(b - d)) == 1:
                        num += z[x] * z[y]
            denom = sum(v * v for v in z)
            if denom <= 0.0:
                out[i, j] = 1.0
            else:
                out[i, j] = min(max((9.0 / 40.0) * num / denom, 0.0), 1.0)
    return out


def _sobel_oracle(vals):
    p = _pad_replicate(vals, 1)
    m, n = vals.shape
    out = np.empty((m, n))
    for i in range(m):
        for j in range(n):
            win = p[i : i + 3, j : j + 3]
            gx = (
                win[0, 2] + 2 * win[1, 2] + win[2, 2]
                - win[0, 0] - 2 * win[1, 0] - win[2, 0]
            ) / 4.0
            gy = (
                win[2, 0] + 2 * win[2, 1] + win[2, 2]
                - win[0, 0] - 2 * win[0, 1] - win[0, 2]
            ) / 4.0
            out[i, j] = math.hypot(gx, gy)
    return out


def _eds_oracle(vals, tau):
    # gradients live on the replicate-extended lattice (one ring beyond the
    # map), so ring pixels get genuine Sobel responses before the 3x3 sweep
    m, n = vals.shape
    big = _pad_replicate(vals, 2)
    edges = np.empty((m + 2, n + 2))
    for i in range(m + 2):
        for j in range(n + 2):
            win = big[i : i + 3, j : j + 3]
            gx = (
                win[0, 2] + 2 * win[1, 2] + win[2, 2]
                - win[0, 0] - 2 * win[1, 0] - win[2, 0]
            ) / 4.0
            gy = (
                win[2, 0] + 2 * win[2, 1] + win[2, 2]
                - win[0, 0] - 2 * win[0, 1] - win[0, 2]
            ) / 4.0
            edges[i, j] = 1.0 if math.hypot(gx, gy) > tau else 0.0
    out = np.empty((m, n))
    for i in range(m):
        for j in range(n):
            out[i, j] = edges[i : i + 3, j : j + 3].mean()
    return out


def _entropy_oracle(vals, bins):
    p = _pad_replicate(vals, 1)
    m, n = vals.shape
    out = np.empty((m, n))
    for i in range(m):
        for j in range(n):
            win = p[i : i + 3, j : j + 3].ravel()
            counts = [0] * bins
            for v in win:
                counts[min(int(v * bins), bins - 1)] += 1
            h = 0.0
            for c in counts:
                if c:
                    q = c / 9.0
                    h -= q * math.log(q)
            out[i, j] = min(max(h / math.log(bins), 0.0), 1.0)
    return out


# ---------------------------------------------------------------------------
# weight maps against the oracles


def test_moran_matches_bruteforce():
    for seed in range(15):
        rng = np.random.default_rng(seed)
        vals = rng.random((int(rng.integers(2, 8)), int(rng.integers(2, 8))))
        got = spatial_weight_map(vals, "moran").weights
        np.testing.assert_allclose(got, _moran_oracle(vals), atol=1e-12)


def test_eds_matches_bruteforce():
    for seed in range(15):
        rng = np.random.default_rng(seed + 50)
        vals = rng.random((int(rng.integers(2, 8)), int(rng.integers(2, 8))))
        tau = float(rng.uniform(0.05, 0.6))
        got = spatial_weight_map(vals, "eds", tau=tau).weights
        np.testing.assert_allclose(got, _eds_oracle(vals, tau), atol=1e-12)


def test_entropy_matches_bruteforce():
    for seed in range(15):
        rng = np.random.default_rng(seed + 100)
        vals = rng.random((int(rng.integers(2, 8)), int(rng.integers(2, 8))))
        bins = int(rng.integers(2, 7))
        got = spatial_weight_map(vals, "entropy", bins=bins).weights
        np.testing.assert_allclose(got, _entropy_oracle(vals, bins), atol=1e-12)


def _blocky_map():
    # 40x64: a 4x4 grid of constant 10x16 blocks on a few levels, with one
    # noisy patch across four of them
    rng = np.random.default_rng(77)
    levels = rng.choice([0.0, 0.1, 0.2, 0.35, 0.4, 0.7, 0.9, 1.0], size=(4, 4))
    vals = np.kron(levels, np.ones((10, 16)))
    vals[14:27, 20:45] = rng.random((13, 25))
    return vals


def _constant_windows(vals, reach):
    # pixels whose (2 * reach + 1)^2 edge-replicated neighbourhood is constant
    p = _pad_replicate(vals, reach)
    m, n = vals.shape
    side = 2 * reach + 1
    out = np.zeros((m, n), dtype=bool)
    for i in range(m):
        for j in range(n):
            win = p[i : i + side, j : j + side]
            out[i, j] = bool((win == win[0, 0]).all())
    return out


def test_blocky_non_square_map_matches_oracles():
    vals = _blocky_map()
    u = validate_map(vals)
    for measure, oracle in (
        ("moran", _moran_oracle(vals)),
        ("eds", _eds_oracle(vals, 0.2)),
        ("entropy", _entropy_oracle(vals, 4)),
    ):
        got = spatial_weight_map(vals, measure).weights
        np.testing.assert_allclose(got, oracle, rtol=0, atol=1e-12)
        want = float((vals * oracle).sum() / vals.sum())
        score = {"moran": mor, "eds": eds, "entropy": ent}[measure](u)
        assert score == pytest.approx(want, abs=1e-12)


def test_blocky_map_constant_windows_are_exact():
    vals = _blocky_map()
    flat3 = _constant_windows(vals, 1)
    # eds reads the Sobel response of each window pixel, so its window
    # reaches two pixels out
    flat5 = _constant_windows(vals, 2)
    assert flat3.sum() > 1000 and flat5.sum() > 500
    assert (spatial_weight_map(vals, "moran").weights[flat3] == 1.0).all()
    assert (spatial_weight_map(vals, "entropy").weights[flat3] == 0.0).all()
    assert (spatial_weight_map(vals, "eds").weights[flat5] == 0.0).all()


# ---------------------------------------------------------------------------
# analytic anchors


def test_sobel_unit_step_magnitude_is_one():
    # vertical step from 0 to 1: interior gradient magnitude exactly 1
    vals = np.zeros((5, 6))
    vals[:, 3:] = 1.0
    grad = _sobel_oracle(vals)
    np.testing.assert_allclose(grad[:, 2:4].max(), 1.0, atol=1e-12)
    # far from the step there is no gradient
    assert grad[:, 0].max() == 0.0 and grad[:, 5].max() == 0.0


def test_constant_map_weights():
    for level in (0.0, 0.3, 1.0):
        vals = np.full((6, 6), level)
        np.testing.assert_array_equal(
            spatial_weight_map(vals, "moran").weights, np.ones((6, 6))
        )
        np.testing.assert_array_equal(
            spatial_weight_map(vals, "eds").weights, np.zeros((6, 6))
        )
        np.testing.assert_array_equal(
            spatial_weight_map(vals, "entropy").weights, np.zeros((6, 6))
        )


def test_checkerboard_is_perfectly_dispersed():
    # alternating extremes anti-correlate with every neighbour: raw Moran is
    # negative and clamps to 0
    vals = np.indices((8, 8)).sum(axis=0) % 2 * 1.0
    w = spatial_weight_map(vals, "moran").weights
    # interior pixels see a perfect checkerboard window
    assert w[2:-2, 2:-2].max() == 0.0


def test_checkerboard_entropy_uses_two_bins():
    vals = np.indices((8, 8)).sum(axis=0) % 2 * 1.0
    w = spatial_weight_map(vals, "entropy", bins=4).weights
    # 9 cells split 5/4 (or 4/5) across two of four bins, normalized by ln 4
    h = -(5 / 9 * math.log(5 / 9) + 4 / 9 * math.log(4 / 9)) / math.log(4)
    np.testing.assert_allclose(w, h, atol=1e-12)


def test_entropy_last_bin_is_closed():
    # values exactly 1.0 must land in the top bin, not overflow past it
    w = spatial_weight_map(np.ones((4, 4)), "entropy", bins=4).weights
    np.testing.assert_array_equal(w, np.zeros((4, 4)))


def test_unknown_measure_and_bad_params():
    vals = np.full((4, 4), 0.5)
    with pytest.raises(InvalidParam):
        spatial_weight_map(vals, "sobel")
    with pytest.raises(InvalidParam):
        spatial_weight_map(vals, "eds", tau=0.0)
    with pytest.raises(InvalidParam):
        spatial_weight_map(vals, "entropy", bins=1)


# ---------------------------------------------------------------------------
# decomposition and mass ratio


def test_decompose_identity():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        vals = rng.random((6, 6))
        for measure in ("moran", "eds", "entropy"):
            w = spatial_weight_map(vals, measure)
            hot, cold = spatial_decompose(vals, w)
            np.testing.assert_allclose(
                hot.values + cold.values, vals, atol=1e-12
            )
            assert hot.values.min() >= 0.0 and cold.values.min() >= 0.0


def test_smr_is_weighted_mass_fraction():
    for seed in range(20):
        rng = np.random.default_rng(seed + 30)
        vals = rng.random((5, 7))
        w = spatial_weight_map(vals, "entropy")
        want = float((vals * w.weights).sum() / vals.sum())
        assert smr(vals, w) == pytest.approx(want, abs=1e-12)


def test_smr_zero_mass_warns_and_returns_zero():
    vals = np.zeros((4, 4))
    w = spatial_weight_map(vals, "moran")
    with pytest.warns(RuntimeWarning):
        assert smr(vals, w) == 0.0


def test_smr_shape_mismatch():
    w = spatial_weight_map(np.zeros((3, 3)), "moran")
    with pytest.raises(ShapeMismatch):
        smr(np.zeros((4, 4)), w)


def test_weight_map_validation():
    with pytest.raises(InvalidParam):
        WeightMap(np.full((2, 2), 1.5), "moran")
    with pytest.raises(ShapeMismatch):
        WeightMap(np.zeros(4), "moran")


# ---------------------------------------------------------------------------
# composed scores


def test_composed_scores_are_smr_of_their_measure():
    rng = np.random.default_rng(9)
    vals = rng.random((8, 8))
    u = validate_map(vals)
    assert mor(u) == pytest.approx(
        smr(u, spatial_weight_map(vals, "moran")), abs=1e-15
    )
    assert eds(u, 0.3) == pytest.approx(
        smr(u, spatial_weight_map(vals, "eds", tau=0.3)), abs=1e-15
    )
    assert ent(u, 8) == pytest.approx(
        smr(u, spatial_weight_map(vals, "entropy", bins=8)), abs=1e-15
    )


def test_constant_map_score_identities():
    # constant nonzero map: all mass is "clustered", none is edge or entropy
    u = validate_map(np.full((6, 6), 0.4))
    assert mor(u) == 1.0
    assert eds(u) == 0.0
    assert ent(u) == 0.0


def test_zero_map_scores_zero_with_warning():
    u = validate_map(np.zeros((6, 6)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert mor(u) == 0.0
        assert eds(u) == 0.0
        assert ent(u) == 0.0


def test_scores_bounded_unit_interval():
    for seed in range(25):
        rng = np.random.default_rng(seed)
        u = validate_map(rng.random((7, 7)))
        for score in (mor(u), eds(u), ent(u)):
            assert 0.0 <= score <= 1.0
