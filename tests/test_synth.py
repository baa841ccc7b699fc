import numpy as np
import pytest

from uqagg import (
    InvalidSpec,
    SynthSpec,
    expected_mean,
    gen_benchmark,
    generate,
    pattern_mask,
)
from uqagg.synth import _match_background
from uqagg.rng import stream


def _noise(seed=0, size=(16, 16), **params):
    params = {"mean": 0.3, "amp": 0.1, **params}
    return SynthSpec("noise", size, params, seed)


def _blob(seed=0, size=(16, 16), **params):
    params = {"inside": 0.8, "outside": 0.2, "radius": 4.0, **params}
    return SynthSpec("blob", size, params, seed)


# ---------------------------------------------------------------------------
# specs and rendering


def test_spec_validation():
    with pytest.raises(InvalidSpec):
        SynthSpec("spiral", (8, 8), {})
    with pytest.raises(InvalidSpec):
        SynthSpec("noise", (0, 8), {"mean": 0.5, "amp": 0.1})
    with pytest.raises(InvalidSpec):
        SynthSpec("noise", (8, 8), {"mean": 0.5, "amp": 0.1, "radius": 3.0})
    with pytest.raises(InvalidSpec):
        SynthSpec("noise", (8, 8), {"mean": float("nan"), "amp": 0.1})
    # jitter keys attach to real parameters only
    SynthSpec("noise", (8, 8), {"mean": 0.5, "amp": 0.1, "mean_jitter": 0.05})
    with pytest.raises(InvalidSpec):
        SynthSpec("noise", (8, 8), {"mean": 0.5, "amp": 0.1, "level_jitter": 0.05})
    # a checkerboard needs tiles of at least one pixel, whatever reads the spec
    board = {"high": 0.9, "low": 0.1, "period": 0}
    for use in (generate, pattern_mask, expected_mean):
        with pytest.raises(InvalidSpec, match="period must be >= 1, got 0"):
            use(SynthSpec("checkerboard", (4, 4), board))


@pytest.mark.parametrize("pattern, size, params, key", [
    ("noise", (8, 8), {"mean": "x", "amp": 0.1}, "mean"),
    ("noise", ("a", 8), {"mean": 0.5, "amp": 0.1}, "size"),
    ("noise", 8, {"mean": 0.5, "amp": 0.1}, "size"),
    ("checkerboard", (8, 8), {"high": 0.9, "low": 0.1, "period": "p"}, "period"),
    ("noise", (8, 8), {"mean": None, "amp": 0.1}, "mean"),
])
def test_wrong_typed_spec_value_is_invalid_spec(pattern, size, params, key):
    with pytest.raises(InvalidSpec, match=key):
        SynthSpec(pattern, size, params)


@pytest.mark.parametrize("pattern, params, seed, key", [
    (["blob"], {"inside": 0.8, "outside": 0.2, "radius": 4.0}, 0, "pattern"),
    ("noise", [1, 2], 0, "params"),
    ("noise", {"mean": 0.5, "amp": 0.1}, "x", "seed"),
    ("noise", {"mean": 0.5, "amp": 0.1}, 1.5, "seed"),
    ("checkerboard", {"high": 0.9, "low": 0.1, "period": 1e300}, 0, "period"),
])
def test_mistyped_spec_field_is_invalid_spec(pattern, params, seed, key):
    with pytest.raises(InvalidSpec, match=key):
        SynthSpec(pattern, (8, 8), params, seed)


def test_jittered_checkerboard_period_is_checked():
    iid = _noise()
    board = SynthSpec("checkerboard", (16, 16),
                      {"high": 0.9, "low": 0.1, "period": 1, "period_jitter": 0.9})
    with pytest.raises(InvalidSpec, match="period must be >= 1"):
        gen_benchmark(2, 20, iid, board, seed=0)


def test_generate_deterministic():
    spec = _noise(seed=9)
    a = generate(spec)
    b = generate(spec)
    np.testing.assert_array_equal(a.values, b.values)
    c = generate(_noise(seed=10))
    assert not np.array_equal(a.values, c.values)


def test_constant_pattern():
    u = generate(SynthSpec("constant", (4, 6), {"level": 0.35}, 0))
    np.testing.assert_array_equal(u.values, np.full((4, 6), 0.35))


def test_noise_pattern_bounds_and_mean():
    spec = _noise(seed=1, size=(64, 64), mean=0.4, amp=0.2)
    u = generate(spec)
    assert u.values.min() >= 0.2 and u.values.max() <= 0.6
    assert float(u.values.mean()) == pytest.approx(0.4, abs=0.02)


def test_blob_pattern_geometry():
    spec = _blob(size=(17, 17), radius=5.0)
    u = generate(spec)
    assert u.values[8, 8] == 0.8    # centre inside the disk
    assert u.values[0, 0] == 0.2    # corner outside
    inside = pattern_mask(spec).labels == 1
    np.testing.assert_array_equal(u.values == 0.8, inside)


def test_ring_pattern_annulus():
    spec = SynthSpec(
        "ring", (21, 21),
        {"inside": 0.9, "outside": 0.1, "radius_inner": 3.0, "radius_outer": 6.0}, 0,
    )
    u = generate(spec)
    assert u.values[10, 10] == 0.1          # hole
    assert u.values[10, 10 + 5] == 0.9      # annulus
    assert u.values[0, 0] == 0.1            # far outside
    fg = pattern_mask(spec).labels == 1
    np.testing.assert_array_equal(u.values == 0.9, fg)


def test_checkerboard_pattern_tiles():
    spec = SynthSpec("checkerboard", (8, 8), {"high": 0.9, "low": 0.1, "period": 2}, 0)
    u = generate(spec)
    assert u.values[0, 0] == 0.9 and u.values[0, 2] == 0.1
    assert u.values[2, 0] == 0.1 and u.values[2, 2] == 0.9
    mask = pattern_mask(spec).labels
    np.testing.assert_array_equal(mask == 1, u.values == 0.9)


def test_render_clips_to_unit_interval():
    u = generate(SynthSpec("noise", (32, 32), {"mean": 0.95, "amp": 0.2}, 3))
    assert u.values.max() <= 1.0
    u2 = generate(SynthSpec("noise", (32, 32), {"mean": 0.05, "amp": 0.2}, 3))
    assert u2.values.min() >= 0.0


# ---------------------------------------------------------------------------
# expected means and matching


def test_expected_mean_analytic():
    assert expected_mean(SynthSpec("constant", (5, 5), {"level": 0.4}, 0)) == 0.4
    assert expected_mean(_noise(mean=0.35)) == 0.35
    blob = _blob(size=(16, 16), inside=1.0, outside=0.0, radius=4.0)
    frac = float((pattern_mask(blob).labels == 1).mean())
    assert expected_mean(blob) == pytest.approx(frac, abs=1e-12)
    board = SynthSpec("checkerboard", (8, 8), {"high": 1.0, "low": 0.0, "period": 2}, 0)
    assert expected_mean(board) == pytest.approx(0.5, abs=1e-12)


def test_expected_mean_matches_empirical_noise():
    for seed in range(5):
        spec = _noise(seed=seed, size=(128, 128), mean=0.45, amp=0.15)
        got = float(generate(spec).values.mean())
        assert got == pytest.approx(expected_mean(spec), abs=0.01)


def test_match_background_hits_target():
    blob = _blob(size=(32, 32), inside=0.9, radius=6.0)
    matched = _match_background(blob, 0.3)
    assert expected_mean(matched) == pytest.approx(0.3, abs=1e-12)
    assert matched.params["inside"] == 0.9  # only the background moves


def test_match_background_infeasible():
    # a dominant low-valued blob caps the reachable mean well below 0.99
    blob = _blob(size=(64, 64), inside=0.1, outside=0.5, radius=30.0)
    with pytest.raises(InvalidSpec):
        _match_background(blob, 0.99)
    # a blob covering the whole map leaves the background no area at all
    full = _blob(size=(16, 16), radius=50.0)
    with pytest.raises(InvalidSpec):
        _match_background(full, 0.5)


# ---------------------------------------------------------------------------
# jitter convention


def test_jitter_draw_order_is_sorted_and_pre_render():
    # two specs with the same jitter keys but different insertion order must
    # produce identical maps for the same seed
    a = SynthSpec(
        "blob", (16, 16),
        {"inside": 0.8, "outside": 0.2, "radius": 4.0,
         "radius_jitter": 1.0, "inside_jitter": 0.05}, 5,
    )
    b = SynthSpec(
        "blob", (16, 16),
        {"inside_jitter": 0.05, "radius_jitter": 1.0,
         "radius": 4.0, "outside": 0.2, "inside": 0.8}, 5,
    )
    np.testing.assert_array_equal(generate(a).values, generate(b).values)


def test_jitter_varies_across_samples_within_benchmark():
    spec = _noise(mean=0.4, amp=0.05, mean_jitter=0.05)
    bench = gen_benchmark(6, 1, spec, _blob(), seed=2)[0]
    iid_means = [float(s.map.values.mean()) for s in bench.samples if not s.ood_label]
    assert np.std(iid_means) > 1e-3  # jitter actually moved the means


def test_jitter_respects_width_bound():
    spec = _blob(size=(16, 16), radius=4.0, radius_jitter=1.0)
    for j in range(20):
        rng = stream(11, 1, j)
        from uqagg.synth import _jittered

        got = _jittered(spec, rng)
        assert abs(got.params["radius"] - 4.0) <= 1.0
        assert "radius_jitter" not in got.params


# ---------------------------------------------------------------------------
# benchmarks


def test_benchmark_counts_labels_ids():
    bench = gen_benchmark(7, 4, _noise(), _blob(), seed=0)[0]
    assert len(bench.samples) == 11
    assert bench.labels().sum() == 4
    ids = [s.sample_id for s in bench.samples]
    assert ids[0] == "iid-0000" and ids[-1] == "ood-0003"
    assert len(set(ids)) == len(ids)


def test_benchmark_deterministic():
    a = gen_benchmark(4, 4, _noise(), _blob(), seed=3)[0]
    b = gen_benchmark(4, 4, _noise(), _blob(), seed=3)[0]
    for sa, sb in zip(a.samples, b.samples):
        np.testing.assert_array_equal(sa.map.values, sb.map.values)
        assert sa.risk == sb.risk
    c = gen_benchmark(4, 4, _noise(), _blob(), seed=4)[0]
    assert not np.array_equal(a.samples[0].map.values, c.samples[0].map.values)


def test_benchmark_does_not_read_the_specs_seeds():
    # every draw comes from gen_benchmark's own seed
    def bench(spec_seed):
        return gen_benchmark(3, 3, _noise(spec_seed), _blob(spec_seed), seed=3,
                             perturb_ladder=[0.5, 1.0], with_masks=True)

    for a, b in zip(bench(1), bench(99)):
        for sa, sb in zip(a.samples, b.samples):
            assert sa.map.values.tobytes() == sb.map.values.tobytes()
            assert sa.mask.labels.tobytes() == sb.mask.labels.tobytes()
            assert (sa.sample_id, sa.ood_label, sa.risk) == (
                sb.sample_id, sb.ood_label, sb.risk)


def test_benchmark_iid_unaffected_by_ood_count():
    # adding perturbed samples must not shift the in-distribution draws
    small = gen_benchmark(3, 1, _noise(), _blob(), seed=6)[0]
    big = gen_benchmark(3, 9, _noise(), _blob(), seed=6)[0]
    for sa, sb in zip(small.samples[:3], big.samples[:3]):
        np.testing.assert_array_equal(sa.map.values, sb.map.values)


def test_benchmark_match_means():
    iid = _noise(mean=0.3, amp=0.1)
    ood = _blob(size=(16, 16), inside=0.9, radius=4.0)
    bench = gen_benchmark(40, 40, iid, ood, seed=1, match_means=True)[0]
    iid_mean = np.mean(
        [s.map.values.mean() for s in bench.samples if s.ood_label == 0]
    )
    ood_mean = np.mean(
        [s.map.values.mean() for s in bench.samples if s.ood_label == 1]
    )
    assert abs(iid_mean - ood_mean) < 0.02


def test_benchmark_risks_track_intensity():
    ladder = [0.0, 0.5, 1.0]
    benches = gen_benchmark(
        2, 12, _noise(), _blob(), perturb_ladder=ladder, seed=4,
        risk_slope=0.6, risk_noise=0.05,
    )
    for bench, intensity in zip(benches, ladder):
        risks = [s.risk for s in bench.samples if s.ood_label == 1]
        lo = max(0.0, 0.6 * intensity - 0.05)
        hi = min(1.0, 0.6 * intensity + 0.05)
        assert all(lo <= r <= hi for r in risks)
        iid_risks = [s.risk for s in bench.samples if s.ood_label == 0]
        assert all(0.0 <= r <= 0.05 for r in iid_risks)


def test_ladder_blend_is_smooth_per_sample():
    # each perturbed sample's trajectory interpolates its own fixed base and
    # pattern, so the map at intensity 0.5 is the midpoint of the endpoints
    benches = gen_benchmark(
        1, 5, _noise(), _blob(), perturb_ladder=[0.0, 0.5, 1.0], seed=9,
    )
    for j in range(5):
        v0 = benches[0].samples[1 + j].map.values
        v1 = benches[1].samples[1 + j].map.values
        v2 = benches[2].samples[1 + j].map.values
        np.testing.assert_allclose(v1, np.clip(0.5 * (v0 + v2), 0.0, 1.0), atol=1e-12)


def test_ladder_masks_follow_dominant_component():
    # blob radius 6 so the pattern geometry differs from the radius-4 disk
    # that stands in for the structureless noise base
    benches = gen_benchmark(
        1, 3, _noise(), _blob(radius=6.0), perturb_ladder=[0.2, 0.8], seed=9,
        with_masks=True,
    )
    low, high = benches
    stand_in = (pattern_mask(_noise()).labels == 1).sum()
    pattern_fg = (pattern_mask(_blob(radius=6.0)).labels == 1).sum()
    assert stand_in != pattern_fg
    for j in range(3):
        # low intensity keeps the base geometry; high adopts the pattern's
        assert (low.samples[1 + j].mask.labels == 1).sum() == stand_in
        assert (high.samples[1 + j].mask.labels == 1).sum() == pattern_fg


def test_benchmark_validation():
    with pytest.raises(InvalidSpec):
        gen_benchmark(0, 1, _noise(), _blob())
    with pytest.raises(InvalidSpec):
        gen_benchmark(1, 0, _noise(), _blob())
    with pytest.raises(InvalidSpec):
        gen_benchmark(1, 1, _noise(size=(8, 8)), _blob(size=(9, 9)))
    with pytest.raises(InvalidSpec):
        gen_benchmark(1, 1, _noise(), _blob(), perturb_ladder=[0.5, 1.5])
    with pytest.raises(InvalidSpec):
        gen_benchmark(1, 1, _noise(), _blob(), perturb_ladder=[])


@pytest.mark.parametrize("kwargs, words", [
    ({"risk_slope": float("nan")}, "risk_slope must be finite"),
    ({"risk_slope": float("inf")}, "risk_slope must be finite"),
    ({"risk_noise": float("-inf")}, "risk_noise must be finite"),
    ({"risk_noise": 1e308}, "risk_noise gives a uniform draw"),
    ({"iid_spec": _noise(amp=1e308)}, "parameter 'amp' gives a uniform draw"),
    ({"iid_spec": _noise(amp=-1e308)}, "parameter 'amp' gives a uniform draw"),
    ({"ood_spec": _blob(inside_jitter=1e308)}, "parameter 'inside_jitter' gives"),
])
def test_benchmark_refuses_a_draw_or_risk_that_is_not_finite(kwargs, words):
    # a risk of NaN, or a uniform draw over an infinite span, is refused
    # before anything is drawn from it
    args = {"iid_spec": _noise(), "ood_spec": _blob(), **kwargs}
    with pytest.raises(InvalidSpec, match=words):
        gen_benchmark(2, 2, perturb_ladder=[0.0, 1.0], **args)


def test_benchmark_takes_large_finite_risk_values():
    benches = gen_benchmark(2, 2, _noise(), _blob(), perturb_ladder=[0.0, 1.0],
                            risk_slope=1e300, risk_noise=8e307)
    assert all(0.0 <= s.risk <= 1.0 for b in benches for s in b.samples)


def test_stream_lanes_do_not_collide():
    a = stream(0, 1, 0).random(8)
    b = stream(0, 2, 0).random(8)
    c = stream(0, 1, 1).random(8)
    d = stream(1, 1, 0).random(8)
    vecs = [a, b, c, d]
    for i in range(len(vecs)):
        for j in range(i + 1, len(vecs)):
            assert not np.array_equal(vecs[i], vecs[j])
