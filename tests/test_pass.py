"""One map's scoring pass: shared intermediates and row-strip spatial kernels.

The strip tests shrink the strip budget so that small maps span many strips
and check the weights against the brute-force oracles of test_spatial.
"""

import tracemalloc

import numpy as np
import pytest

from test_spatial import (
    _blocky_map,
    _constant_windows,
    _entropy_oracle,
    _eds_oracle,
    _moran_oracle,
)
from uqagg import FULL_SET, SegmentationMask, parse_strategy_list, spatial_weight_map
from uqagg import core
from uqagg.core import MapPass, as_mask, as_pass, validate_map
from uqagg.strategies import score_map
from uqagg.errors import InvalidParam, MaskRequired, ShapeMismatch


def _noisy_map():
    return np.random.default_rng(41).random((37, 23))


def _strip_rows(vals, rows, monkeypatch):
    """Set the strip budget to ``rows`` rows of the map's width."""
    m, n = vals.shape
    monkeypatch.setattr(core, "_STRIP_PIXELS", rows * n)
    assert -(-m // rows) >= 3  # the map spans several strips


# ---------------------------------------------------------------------------
# row strips


@pytest.mark.parametrize("rows", [1, 3])
@pytest.mark.parametrize("make", [_blocky_map, _noisy_map], ids=["blocky", "noisy"])
def test_strip_weights_match_oracles(make, rows, monkeypatch):
    vals = make()
    cases = (
        ("moran", {}, _moran_oracle(vals)),
        ("eds", {}, _eds_oracle(vals, 0.2)),
        ("entropy", {}, _entropy_oracle(vals, 4)),
        ("entropy", {"bins": 9}, _entropy_oracle(vals, 9)),
    )
    whole = [spatial_weight_map(vals, m, **kw).weights for m, kw, _ in cases]
    _strip_rows(vals, rows, monkeypatch)
    for (measure, kw, oracle), before in zip(cases, whole):
        got = spatial_weight_map(vals, measure, **kw).weights
        np.testing.assert_allclose(got, oracle, rtol=0, atol=1e-12)
        # halo rows give every pixel its whole-map window and arithmetic
        assert np.array_equal(got, before)


@pytest.mark.parametrize("rows", [1, 3])
def test_strip_constant_windows_are_exact(rows, monkeypatch):
    vals = _blocky_map()
    _strip_rows(vals, rows, monkeypatch)
    flat3 = _constant_windows(vals, 1)
    flat5 = _constant_windows(vals, 2)
    assert (spatial_weight_map(vals, "moran").weights[flat3] == 1.0).all()
    assert (spatial_weight_map(vals, "entropy").weights[flat3] == 0.0).all()
    assert (spatial_weight_map(vals, "eds").weights[flat5] == 0.0).all()


# ---------------------------------------------------------------------------
# shared intermediates


def _map_and_mask():
    # 150x130 spans two strips at the default budget
    rng = np.random.default_rng(12)
    vals = np.clip(rng.normal(0.4, 0.15, (150, 130)), 0.0, 1.0)
    vals[40:90, 30:80] = rng.uniform(0.7, 1.0, (50, 50))
    labels = (vals > 0.6).astype(int) + (vals > 0.9).astype(int)
    return vals, SegmentationMask(labels)


@pytest.mark.parametrize("order", [1, -1], ids=["forward", "reverse"])
def test_one_pass_scores_equal_fresh_calls(order):
    vals, mask = _map_and_mask()
    bank = parse_strategy_list(FULL_SET)[::order]
    p = MapPass(vals, mask)
    shared = [strat(p) for strat in bank]
    fresh = [strat(vals.copy(), mask) for strat in bank]
    assert shared == fresh


def test_intermediates_are_built_once_and_read_only():
    vals, mask = _map_and_mask()
    p = MapPass(vals, mask)
    for build in (p.sorted_values, p.column_sums, p.padded):
        first = build()
        assert build() is first
        assert not first.flags.writeable
    assert p.class_tally() is p.class_tally()
    assert np.array_equal(p.padded()[1:-1, 1:-1], np.pad(vals, 1, mode="edge"))
    assert p.total() == vals.sum()


def test_class_tally_equals_bincount_bitwise():
    # many labels in random order and values over many magnitudes, so any
    # other summation order would move the sums' last bits
    rng = np.random.default_rng(13)
    vals = rng.random((150, 130)) ** 8
    for top in (1, 2, 51):
        labels = rng.integers(0, top + 1, vals.shape)
        sums, counts = MapPass(vals, SegmentationMask(labels)).class_tally()
        assert sums.tobytes() == np.bincount(labels.ravel(), vals.ravel()).tobytes()
        assert counts.tobytes() == np.bincount(labels.ravel()).tobytes()


def test_pass_carries_its_mask():
    vals, mask = _map_and_mask()
    bca = parse_strategy_list("bca")[0]
    with pytest.raises(MaskRequired):
        bca(MapPass(vals))
    p = MapPass(vals, mask)
    assert as_pass(p) is p and as_pass(p, mask) is p
    with pytest.raises(InvalidParam):
        bca(p, SegmentationMask(mask.labels.copy()))


def test_failed_intermediate_is_not_kept():
    vals, _ = _map_and_mask()
    p = MapPass(vals, SegmentationMask(np.ones((4, 4), dtype=int)))
    bca, qfr = parse_strategy_list("bca,qfr")
    for strat in (bca, qfr):
        with pytest.raises(ShapeMismatch):
            strat(p)


# ---------------------------------------------------------------------------
# memory


def test_scoring_pass_peaks_at_few_map_sized_blocks(monkeypatch):
    # Handed over as aggregate hands over what io.read_npy reads, a 256x256
    # map and its int64 mask are kept without a copy. Over 8-row strips the
    # kernels' strip temporaries are small, so the peak counts map-sized
    # blocks: the sort, the column sums, the two-ring pad (1.03), a spatial
    # weight map that the mass ratio multiplies by the map in place, and
    # about 0.4 of Moran's strip temporaries; 4.43 measured. One more
    # map-sized copy or product array takes it to 5.43.
    rng = np.random.default_rng(3)
    vals = np.clip(rng.normal(0.4, 0.15, (256, 256)), 0.0, 1.0)
    vals[60:160, 50:150] = rng.uniform(0.7, 1.0, (100, 100))
    labels = (vals > 0.6).astype(np.int64)
    _strip_rows(vals, 8, monkeypatch)
    bank = parse_strategy_list(FULL_SET)
    tracemalloc.start()
    try:
        p = MapPass(validate_map(vals, owned=True), as_mask(labels, owned=True))
        score_map(p, bank)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert p.values is vals and p.mask.labels is labels
    assert peak <= 5.0 * vals.nbytes
