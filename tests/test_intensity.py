import math

import numpy as np
import pytest

from uqagg import (
    NoForeground,
    PatchTooLarge,
    ShapeMismatch,
    aqa,
    ata,
    avg,
    bca,
    ica,
    plm,
    qfr,
    validate_map,
)
from uqagg import core
from uqagg.core import SegmentationMask
from uqagg.errors import InvalidParam


def _rand_map(rng, shape=None):
    if shape is None:
        shape = (rng.integers(1, 12), rng.integers(1, 12))
    return validate_map(rng.random(shape))


# ---------------------------------------------------------------------------
# oracles: tiny, obviously-correct reference versions


def _plm_oracle(vals, p):
    m, n = vals.shape
    best = -1.0
    for i in range(m - p + 1):
        for j in range(n - p + 1):
            best = max(best, vals[i : i + p, j : j + p].mean())
    return best


def _plm_direct(vals, p):
    # every window sum taken from its own p * p values, one shifted slice each
    m, n = vals.shape
    sums = np.zeros((m - p + 1, n - p + 1))
    for a in range(p):
        for b in range(p):
            sums += vals[a : a + m - p + 1, b : b + n - p + 1]
    return float((sums / (p * p)).max())


def _topk_mean_oracle(vals, k):
    return float(np.sort(vals.ravel())[::-1][:k].mean())


# ---------------------------------------------------------------------------
# avg


def test_avg_is_plain_mean():
    u = validate_map([[0.0, 0.5], [1.0, 0.5]])
    assert avg(u) == pytest.approx(0.5, abs=1e-15)


def test_avg_matches_numpy_on_random_maps():
    for seed in range(30):
        rng = np.random.default_rng(seed)
        u = _rand_map(rng)
        assert avg(u) == pytest.approx(float(u.values.mean()), abs=1e-15)


# ---------------------------------------------------------------------------
# plm


def test_plm_frozen_example():
    u = validate_map([[0.1, 0.9, 0.9, 0.1]])
    assert plm(u, 1) == pytest.approx(0.9, abs=1e-15)
    # the only 1x4 window is the whole row; patch=2 must pick the 0.9 pair...
    # except patch windows are square, so a 2-patch cannot fit a 1-row map
    with pytest.raises(PatchTooLarge):
        plm(u, 2)


def test_plm_square_window_frozen():
    u = validate_map(
        [
            [0.1, 0.9, 0.9, 0.1],
            [0.1, 0.9, 0.9, 0.1],
        ]
    )
    assert plm(u, 2) == pytest.approx(0.9, abs=1e-15)
    assert plm(u, 1) == pytest.approx(0.9, abs=1e-15)


def test_plm_patch_equal_to_map_is_avg():
    rng = np.random.default_rng(0)
    u = _rand_map(rng, (5, 5))
    assert plm(u, 5) == pytest.approx(avg(u), abs=1e-12)


def test_plm_matches_bruteforce():
    for seed in range(40):
        rng = np.random.default_rng(seed)
        m, n = rng.integers(2, 10, size=2)
        u = _rand_map(rng, (int(m), int(n)))
        p = int(rng.integers(1, min(m, n) + 1))
        assert plm(u, p) == pytest.approx(_plm_oracle(u.values, p), abs=1e-12)


def test_plm_large_map_matches_direct_window_sums():
    # running sums over 1024 rows and columns of values near 1 are where
    # cancellation would show; the separable sums must stay within 1e-12
    rng = np.random.default_rng(2024)
    u = validate_map(rng.uniform(0.9, 1.0, size=(1024, 1024)))
    for p in (1, 2, 3, 10):
        assert plm(u, p) == pytest.approx(_plm_direct(u.values, p), abs=1e-12)


def test_plm_saturated_block_stays_at_one():
    # blocks of exact 1.0 on a non-dyadic background: differences of running
    # sums may round past P * P, yet the score must read exactly 1.0
    rng = np.random.default_rng(0)
    vals = rng.uniform(0.05, 0.3, size=(512, 512))
    vals[300:320, 100:120] = 1.0
    vals[200:220, 200:220] = 1.0
    u = validate_map(vals)
    for p in (1, 10):
        assert plm(u, p) == 1.0


@pytest.mark.parametrize("rows", [1, 2, 5])
def test_plm_windows_across_strip_seams(rows, monkeypatch):
    # a budget of `rows` map rows per strip spreads the window rows over many
    # strips; the best window straddles the first seam
    rng = np.random.default_rng(rows)
    m, n = 23, 17
    vals = rng.uniform(0.0, 0.5, (m, n))
    vals[rows - 1 : rows + 3, 4:8] = rng.uniform(0.8, 1.0, (4, 4))
    patches = (1, 2, 3, 4, 7, n)
    whole = [plm(vals, p) for p in patches]
    monkeypatch.setattr(core, "_STRIP_PIXELS", rows * n)
    for p, before in zip(patches, whole):
        got = plm(vals, p)
        assert got == pytest.approx(_plm_oracle(vals, p), abs=1e-12)
        assert got == before  # the same float in any strips


def test_plm_rejects_bad_patch():
    u = validate_map(np.zeros((4, 4)))
    with pytest.raises(PatchTooLarge):
        plm(u, 5)
    with pytest.raises(InvalidParam):
        plm(u, 0)


# ---------------------------------------------------------------------------
# ata


def test_ata_strict_inequality_counterexample():
    # one hot pixel at 0.8 among eight at 0.6: T=0.7 keeps only the hot pixel
    vals = np.full((3, 3), 0.6)
    vals[1, 1] = 0.8
    u = validate_map(vals)
    assert ata(u, 0.7) == pytest.approx(0.8, abs=1e-15)
    # raising every pixel by 0.15 admits the background into the average,
    # so the score *drops* even though the map got strictly more uncertain
    u2 = validate_map(vals + 0.15)
    expected = (8 * 0.75 + 0.95) / 9.0
    assert ata(u2, 0.7) == pytest.approx(expected, abs=1e-12)
    assert ata(u2, 0.7) < ata(u, 0.7)


def test_ata_empty_selection_scores_zero():
    u = validate_map(np.full((3, 3), 0.2))
    assert ata(u, 0.5) == 0.0
    assert ata(u, 0.2) == 0.0  # strict: pixels equal to T are excluded


def test_ata_matches_bruteforce():
    for seed in range(40):
        rng = np.random.default_rng(seed)
        u = _rand_map(rng)
        t = float(rng.random())
        kept = u.values[u.values > t]
        want = float(kept.mean()) if kept.size else 0.0
        assert ata(u, t) == pytest.approx(want, abs=1e-12)


def test_ata_threshold_domain():
    u = validate_map(np.full((2, 2), 0.5))
    assert ata(u, 0.0) == 0.5
    assert ata(u, 1.0) == 0.0
    for bad in (-0.01, 1.01, math.nan):
        with pytest.raises(InvalidParam):
            ata(u, bad)


# ---------------------------------------------------------------------------
# aqa


def test_aqa_frozen_example():
    u = validate_map([[0.1, 0.2], [0.3, 0.4]])
    # q=0.5 keeps ceil(0.5*4)=2 pixels: (0.4+0.3)/2
    assert aqa(u, 0.5) == pytest.approx(0.35, abs=1e-15)


def test_aqa_keeps_ceil_count():
    u = validate_map([[0.1, 0.2, 0.3]])
    # q=0.5 on 3 pixels keeps ceil(1.5)=2
    assert aqa(u, 0.5) == pytest.approx(0.25, abs=1e-15)
    # q=2/3 keeps ceil(1.0)=1 despite 3*(1/3) being float-fuzzy
    assert aqa(u, 2.0 / 3.0) == pytest.approx(0.3, abs=1e-15)


def test_aqa_zero_quantile_is_avg_and_extremes():
    rng = np.random.default_rng(1)
    u = _rand_map(rng, (6, 7))
    assert aqa(u, 0.0) == pytest.approx(avg(u), abs=1e-12)
    # q -> 1 keeps at least one pixel: the max
    assert aqa(u, 1.0) == pytest.approx(float(u.values.max()), abs=1e-12)


def test_aqa_matches_bruteforce():
    for seed in range(40):
        rng = np.random.default_rng(seed)
        u = _rand_map(rng)
        q = float(rng.random())
        total = u.values.size
        k = min(max(math.ceil((1.0 - q) * total - 1e-9), 1), total)
        assert aqa(u, q) == pytest.approx(_topk_mean_oracle(u.values, k), abs=1e-12)


def test_aqa_quantile_domain():
    u = validate_map(np.full((2, 2), 0.5))
    for bad in (-0.1, 1.1, math.nan):
        with pytest.raises(InvalidParam):
            aqa(u, bad)


# ---------------------------------------------------------------------------
# class-conditional aggregators


def _two_class_fixture():
    # class 1: three pixels at .1/.2/.3 (alpha .2); class 2: one pixel at .8
    u = validate_map([[0.1, 0.2], [0.3, 0.8]])
    mask = SegmentationMask(np.array([[1, 1], [1, 2]]))
    return u, mask


def test_bca_equal_weights():
    u, mask = _two_class_fixture()
    assert bca(u, mask) == pytest.approx(0.5, abs=1e-12)
    # one class alone is its own mean, whatever its area
    assert bca(u, SegmentationMask(np.array([[1, 1], [1, 0]]))) == pytest.approx(
        0.2, abs=1e-12)
    assert bca(u, SegmentationMask(np.array([[0, 0], [0, 2]]))) == 0.8


def test_ica_area_weights_frozen():
    u, mask = _two_class_fixture()
    # (3*.2 + 1*.8)/4 = 0.35
    assert ica(u, mask) == pytest.approx(0.35, abs=1e-12)


def test_background_is_excluded():
    u = validate_map([[0.9, 0.1], [0.9, 0.1]])
    mask = SegmentationMask(np.array([[0, 1], [0, 1]]))
    assert bca(u, mask) == pytest.approx(0.1, abs=1e-12)
    assert ica(u, mask) == pytest.approx(0.1, abs=1e-12)


def test_no_foreground_raises():
    u = validate_map(np.full((2, 2), 0.5))
    mask = SegmentationMask(np.zeros((2, 2), dtype=int))
    for fn in (bca, ica, qfr):
        with pytest.raises(NoForeground):
            fn(u, mask)


def test_mask_shape_must_match():
    u = validate_map(np.full((2, 2), 0.5))
    mask = SegmentationMask(np.ones((3, 2), dtype=int))
    with pytest.raises(ShapeMismatch):
        bca(u, mask)


def test_qfr_takes_top_k_of_whole_map():
    # foreground covers 2 pixels -> mean of the 2 largest values anywhere,
    # regardless of where the foreground sits
    u = validate_map([[0.9, 0.1], [0.8, 0.2]])
    mask = SegmentationMask(np.array([[0, 1], [0, 1]]))  # foreground on the low side
    assert qfr(u, mask) == pytest.approx(0.85, abs=1e-12)


def test_qfr_matches_bruteforce():
    for seed in range(30):
        rng = np.random.default_rng(seed)
        m, n = (int(v) for v in rng.integers(2, 9, size=2))
        u = _rand_map(rng, (m, n))
        labels = rng.integers(0, 3, size=(m, n))
        if not labels.any():
            labels[0, 0] = 1
        mask = SegmentationMask(labels)
        k = int((labels != 0).sum())
        assert qfr(u, mask) == pytest.approx(_topk_mean_oracle(u.values, k), abs=1e-12)


def test_ica_equals_mean_over_foreground():
    # area-proportional class weights make ica the foreground-pixel mean
    for seed in range(30):
        rng = np.random.default_rng(seed + 100)
        m, n = (int(v) for v in rng.integers(2, 9, size=2))
        u = _rand_map(rng, (m, n))
        labels = rng.integers(0, 4, size=(m, n))
        if not labels.any():
            labels[0, 0] = 1
        mask = SegmentationMask(labels)
        fg = u.values[labels != 0]
        assert ica(u, mask) == pytest.approx(float(fg.mean()), abs=1e-12)
