"""End-to-end acceptance checks for the aggregation toolkit.

Each test certifies one headline guarantee of the package with explicit
tolerances; ``pytest -v`` prints one pass/fail line per criterion. The
heavier tests also enforce a wall-clock budget so the suite stays quick.
"""

import itertools
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

from uqagg import (
    FULL_SET,
    SPATIAL_SET,
    FeatureSetSpec,
    SegmentationMask,
    SynthSpec,
    UncertaintyMap,
    WeightMap,
    aqa,
    ata,
    aurc,
    auroc,
    avg,
    bca,
    bic,
    compute_features,
    eaurc,
    eds,
    em_fit,
    ent,
    fit_meta,
    gen_benchmark,
    generate,
    ica,
    load_model,
    meta_score_matrix,
    model_from_json,
    model_to_json,
    mor,
    parse_strategy_list,
    plm,
    qfr,
    read_npy,
    risk_coverage,
    save_model,
    smr,
    spatial_decompose,
    stream,
    wilcoxon_one_sided,
    write_npy,
)


def _run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "uqagg.cli", *args],
        capture_output=True,
        text=True,
    )


def test_criterion_1_aggregators_monotone_under_pixelwise_increase():
    """avg/plm/aqa/bca/ica/qfr never drop when pixels only rise.

    1000 seeded map pairs u <= v elementwise, slack 1e-12. The
    above-threshold average is the deliberate exception: adding 0.15 to a
    3x3 map of eight 0.6s and one 0.8 at threshold 0.7 lowers it by at
    least 0.02. Budget: 10 s.
    """
    start = time.monotonic()
    rng = np.random.default_rng(20260814)
    for _ in range(1000):
        shape = (int(rng.integers(4, 13)), int(rng.integers(4, 13)))
        low = rng.random(shape)
        high = np.clip(low + (1.0 - low) * rng.random(shape), 0.0, 1.0)
        mask_vals = (rng.random(shape) < 0.5).astype(np.int64)
        mask_vals.flat[int(rng.integers(mask_vals.size))] = 1
        u, v = UncertaintyMap(low), UncertaintyMap(high)
        mask = SegmentationMask(mask_vals)
        pairs = [
            ("avg", avg(u), avg(v)),
            ("plm:4", plm(u, 4), plm(v, 4)),
            ("aqa:0.75", aqa(u, 0.75), aqa(v, 0.75)),
            ("bca", bca(u, mask), bca(v, mask)),
            ("ica", ica(u, mask), ica(v, mask)),
            ("qfr", qfr(u, mask), qfr(v, mask)),
        ]
        for name, before, after in pairs:
            assert after >= before - 1e-12, (
                f"{name} decreased on a raised map: {before} -> {after}"
            )

    counter = np.full((3, 3), 0.6)
    counter[1, 1] = 0.8
    before = ata(UncertaintyMap(counter), 0.7)
    after = ata(UncertaintyMap(np.clip(counter + 0.15, 0.0, 1.0)), 0.7)
    assert before == pytest.approx(0.8, abs=1e-15)
    assert before - after >= 0.02, f"expected a strict drop, got {before - after}"

    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"monotonicity sweep took {elapsed:.1f}s"
    print(f"criterion 1 OK: 1000 pairs x 6 aggregators monotone, "
          f"ata drop {before - after:.4f}, {elapsed:.1f}s")


def test_criterion_2_background_proportion_invariance():
    """Padding with low-uncertainty background moves ata/plm by < 1e-12
    while avg and aqa strictly decrease (gap > 1e-9).

    An 8x8 block of values in [0.7, 0.95] is embedded into a 16x16 map
    whose remaining pixels sit at 0.1; only the share of easy background
    changes, not the interesting region.
    """
    rng = np.random.default_rng(7)
    block = 0.7 + 0.25 * rng.random((8, 8))
    padded = np.full((16, 16), 0.1)
    padded[:8, :8] = block
    small, big = UncertaintyMap(block), UncertaintyMap(padded)

    assert abs(ata(small, 0.5) - ata(big, 0.5)) < 1e-12
    assert abs(plm(small, 4) - plm(big, 4)) < 1e-12
    assert avg(small) - avg(big) > 1e-9
    assert aqa(small, 0.75) - aqa(big, 0.75) > 1e-9
    print(f"criterion 2 OK: ata shift {abs(ata(small, 0.5) - ata(big, 0.5)):.2e}, "
          f"avg drop {avg(small) - avg(big):.3f}, "
          f"aqa drop {aqa(small, 0.75) - aqa(big, 0.75):.3f}")


def test_criterion_3_spatial_mass_identities():
    """Mass-ratio identities over 1000 random (map, weight) pairs.

    The hot/cold split returns the original map within 1e-12 elementwise;
    every mass ratio lies in [0, 1]; constant maps score ent = eds = 0;
    the all-zero map scores 0 and warns about the empty mass.
    """
    rng = np.random.default_rng(99)
    for _ in range(1000):
        shape = (int(rng.integers(1, 11)), int(rng.integers(1, 11)))
        u = UncertaintyMap(rng.random(shape))
        w = WeightMap(rng.random(shape), "custom")
        ratio = smr(u, w)
        assert 0.0 <= ratio <= 1.0
        hot, cold = spatial_decompose(u, w)
        assert np.max(np.abs(hot.values + cold.values - u.values)) <= 1e-12

    for level in (0.37, 1.0):
        flat = UncertaintyMap(np.full((6, 9), level))
        assert ent(flat) == 0.0
        assert eds(flat) == 0.0

    # The all-zero map is a constant map with no mass: still 0, plus a warning.
    zero = UncertaintyMap(np.zeros((5, 7)))
    with pytest.warns(RuntimeWarning):
        assert ent(zero) == 0.0
    with pytest.warns(RuntimeWarning):
        assert eds(zero) == 0.0
    with pytest.warns(RuntimeWarning):
        assert smr(zero, WeightMap(np.ones((5, 7)), "custom")) == 0.0
    print("criterion 3 OK: 1000 decompositions exact, ratios in [0,1], "
          "constant and zero maps behave")


def test_criterion_4_matched_mean_benchmark_separation():
    """Mean-matched structure shift: averaging is blind, clustering sees it.

    50 in-distribution noise maps vs 50 blob maps, 64x64, seed 0, with the
    blob background level solved so both populations share the expected
    map mean. avg must score AUROC in [0.4, 0.6]; mor must exceed 0.95.
    Budget: 30 s.
    """
    start = time.monotonic()
    iid_spec = SynthSpec(
        "noise", (64, 64), {"mean": 0.3, "amp": 0.12, "mean_jitter": 0.02}
    )
    ood_spec = SynthSpec(
        "blob", (64, 64),
        {"inside": 0.85, "inside_jitter": 0.05, "radius": 12.0,
         "radius_jitter": 2.0, "outside": 0.25},
    )
    bench = gen_benchmark(50, 50, iid_spec, ood_spec, seed=0, match_means=True)[0]
    labels = bench.labels()
    avg_scores = np.array([avg(m) for m in bench.maps()])
    mor_scores = np.array([mor(m) for m in bench.maps()])
    avg_auroc = auroc(avg_scores, labels)
    mor_auroc = auroc(mor_scores, labels)

    assert 0.4 <= avg_auroc <= 0.6, f"avg AUROC {avg_auroc}"
    assert mor_auroc > 0.95, f"mor AUROC {mor_auroc}"
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"benchmark took {elapsed:.1f}s"
    print(f"criterion 4 OK: avg AUROC {avg_auroc:.3f}, "
          f"mor AUROC {mor_auroc:.3f}, {elapsed:.1f}s")


def test_criterion_5_mixture_recovery_and_monotone_em():
    """A known two-bump population is recovered by the selection loop.

    2000 seeded draws from 0.5*N(-2,1) + 0.5*N(+2,1): the information
    criterion picks K=2 out of 1..5, the recovered means land within 0.15
    of the truth, and every fit's log-likelihood history is non-decreasing
    (slack 1e-8 * max(1, |previous|)). Budget: 20 s.
    """
    start = time.monotonic()
    rng = np.random.default_rng(42)
    component = rng.integers(0, 2, 2000)
    x = (rng.normal(0.0, 1.0, 2000) + np.where(component == 0, -2.0, 2.0))[:, None]

    scores = {}
    fits = {}
    for k in range(1, 6):
        res = em_fit(x, k, seed=5)
        fits[k] = res
        scores[k] = bic(res.loglik, k, 1, 2000)
        for prev, cur in itertools.pairwise(res.history):
            assert cur >= prev - 1e-8 * max(1.0, abs(prev)), (
                f"k={k}: log-likelihood fell {prev} -> {cur}"
            )

    best = min(scores, key=lambda k: (scores[k], k))
    assert best == 2, f"selected K={best}, BICs={scores}"
    means = np.sort(fits[2].means.ravel())
    assert abs(means[0] + 2.0) <= 0.15, f"low mean {means[0]}"
    assert abs(means[1] - 2.0) <= 0.15, f"high mean {means[1]}"
    elapsed = time.monotonic() - start
    assert elapsed < 20.0, f"recovery took {elapsed:.1f}s"
    print(f"criterion 5 OK: K=2 selected, means {means.round(3)}, {elapsed:.1f}s")


def _blend_sample(seed, lane, idx, t):
    # Per-sample noise base and blob pattern, mixed at weight t and clipped.
    base = generate(SynthSpec(
        "noise", (32, 32), {"mean": 0.3, "amp": 0.12, "mean_jitter": 0.02},
        seed=int(stream(seed, lane, idx).integers(2 ** 31)),
    )).values
    pattern = generate(SynthSpec(
        "blob", (32, 32),
        {"inside": 0.85, "inside_jitter": 0.05, "radius": 6.0,
         "radius_jitter": 1.0, "outside": 0.25},
        seed=int(stream(seed, lane + 1, idx).integers(2 ** 31)),
    )).values
    return UncertaintyMap(np.clip((1.0 - t) * base + t * pattern, 0.0, 1.0))


def test_criterion_6_joint_feature_separation():
    """A mixture over joint spatial features separates what no feature can.

    In-distribution maps blend noise and a blob at weights near 0.15 or
    0.85 (two modes); the shifted population blends at 0.5, which is new
    territory jointly but unremarkable per coordinate. Fitting on 200
    in-distribution feature vectors, the negative log-likelihood must rank
    60 held-out in-distribution maps against 60 shifted maps with
    AUROC > 0.9 while every single spatial feature stays within
    [0.2, 0.8] AUROC on its own.
    """
    seed = 0
    rng_t = np.random.default_rng(stream(seed, 91, 0).integers(2 ** 63))

    def in_dist_weight(i):
        center = 0.15 if i % 2 == 0 else 0.85
        return center + float(rng_t.uniform(-0.04, 0.04))

    train = [_blend_sample(seed, 10, i, in_dist_weight(i)) for i in range(200)]
    held = [_blend_sample(seed, 50, i, in_dist_weight(i)) for i in range(60)]
    shifted = [
        _blend_sample(seed, 30, i, 0.5 + float(rng_t.uniform(-0.04, 0.04)))
        for i in range(60)
    ]

    spec = FeatureSetSpec(SPATIAL_SET)
    strategies = parse_strategy_list(list(spec.strategies))
    feats_train = compute_features(train, strategies)
    feats_held = compute_features(held, strategies)
    feats_shift = compute_features(shifted, strategies)

    model = fit_meta(feats_train, spec, k_max=4, seed=seed)
    scores = np.concatenate([
        meta_score_matrix(model, feats_held),
        meta_score_matrix(model, feats_shift),
    ])
    labels = np.array([0] * len(held) + [1] * len(shifted))
    joint_auroc = auroc(scores, labels)
    assert joint_auroc > 0.9, f"joint NLL AUROC {joint_auroc}"

    worst = {}
    for j, name in enumerate(spec.strategies):
        column = np.concatenate([feats_held[:, j], feats_shift[:, j]])
        a = auroc(column, labels)
        worst[name] = max(a, 1.0 - a)
        assert worst[name] <= 0.8, f"{name} alone reaches AUROC {worst[name]}"
    print(f"criterion 6 OK: joint AUROC {joint_auroc:.3f}, "
          f"strongest single feature {max(worst.values()):.3f}")


def _auroc_pairwise(scores, labels):
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    total = 0.0
    for p in pos:
        for n in neg:
            total += 1.0 if p > n else (0.5 if p == n else 0.0)
    return total / (pos.size * neg.size)


def _wilcoxon_enumerated(diffs):
    # Exact null: every sign pattern on the absolute-value ranks is equally
    # likely; p is the share of patterns with a positive-rank sum >= observed.
    d = np.asarray(diffs, dtype=np.float64)
    d = d[d != 0.0]
    n = d.size
    order = np.argsort(np.abs(d), kind="stable")
    sorted_abs = np.abs(d)[order]
    ranks = np.empty(n)
    i = 0
    while i < n:
        j = i
        while j + 1 < n and sorted_abs[j + 1] == sorted_abs[i]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    observed = ranks[d > 0.0].sum()
    hits = 0
    for bits in range(1 << n):
        w = 0.0
        for idx in range(n):
            if bits >> idx & 1:
                w += ranks[idx]
        if w >= observed:
            hits += 1
    return hits / (1 << n)


def test_criterion_7_metric_oracles():
    """Rank metrics agree with brute-force oracles.

    AUROC matches the exhaustive pairwise count within 1e-12 for every
    n <= 50; the three-sample risk/confidence worked example integrates to
    0.2/3 within 1e-9; excess area is exactly 0 for the oracle ordering and
    never negative for distinct confidences; the signed-rank test matches
    full sign enumeration within 1e-12 for n <= 12 and returns exactly
    0.03125 for five positive differences.
    """
    rng = np.random.default_rng(1234)
    for n in range(2, 51):
        scores = np.round(rng.random(n), 1)  # one decimal forces ties
        labels = rng.integers(0, 2, n)
        labels[0], labels[1] = 0, 1  # guarantee both classes
        fast = auroc(scores, labels)
        slow = _auroc_pairwise(scores, labels)
        assert abs(fast - slow) <= 1e-12, f"n={n}: {fast} vs {slow}"

    worked = aurc(risk_coverage([0.0, 0.2, 0.4], [3.0, 2.0, 1.0]))
    assert abs(worked - 0.2 / 3.0) <= 1e-9

    for trial in range(40):
        n = int(rng.integers(2, 41))
        risks = rng.random(n)
        confidences = rng.permutation(n).astype(np.float64)  # distinct
        assert eaurc(risks, confidences) >= 0.0
    distinct_risks = rng.permutation(12).astype(np.float64) / 12.0
    assert eaurc(distinct_risks, -distinct_risks) == 0.0

    for trial in range(30):
        n = int(rng.integers(1, 13))
        diffs = (rng.integers(0, 12, n) + 1) * 0.5 * rng.choice([-1.0, 1.0], n)
        fast = wilcoxon_one_sided(diffs)
        slow = _wilcoxon_enumerated(diffs)
        assert abs(fast - slow) <= 1e-12, f"{diffs}: {fast} vs {slow}"
    assert wilcoxon_one_sided([0.5, 1.0, 1.5, 2.0, 2.5]) == 0.03125
    print("criterion 7 OK: auroc/aurc/eaurc/signed-rank match their oracles")


def test_criterion_8_determinism_and_formats(tmp_path):
    """Round trips are bit-identical and parallelism never changes bytes.

    Array files survive write/read/write with identical bytes and agree
    with the reference loader; model JSON re-serializes byte-identically,
    in memory and through files; the command-line aggregate step produces
    byte-identical tables for --jobs 1 and --jobs 4 and across reruns.
    """
    rng = np.random.default_rng(8)
    for arr in (rng.random((5, 7)), rng.integers(-9, 9, (4, 6))):
        first = tmp_path / "a.npy"
        write_npy(first, arr)
        back = read_npy(first)
        assert back.tobytes() == np.ascontiguousarray(arr, back.dtype).tobytes()
        assert np.load(first).tobytes() == back.tobytes()
        second = tmp_path / "b.npy"
        write_npy(second, back)
        assert first.read_bytes() == second.read_bytes()

    maps = [UncertaintyMap(rng.random((8, 8))) for _ in range(20)]
    spec = FeatureSetSpec(["avg", "ent"])
    feats = compute_features(maps, parse_strategy_list(list(spec.strategies)))
    model = fit_meta(feats, spec, k_max=2, seed=1)
    text = model_to_json(model)
    assert model_to_json(model_from_json(text)) == text
    save_model(model, tmp_path / "m1.json")
    save_model(load_model(tmp_path / "m1.json"), tmp_path / "m2.json")
    assert (tmp_path / "m1.json").read_bytes() == (tmp_path / "m2.json").read_bytes()

    bench = tmp_path / "bench"
    res = _run_cli("synth", "--out-dir", str(bench), "--n-iid", "6",
                   "--n-ood", "6", "--size", "16", "16", "--seed", "3",
                   "--with-masks")
    assert res.returncode == 0, res.stderr
    outputs = []
    for tag, jobs in (("j1", "1"), ("j4", "4"), ("j4b", "4")):
        out = tmp_path / f"scores_{tag}.csv"
        res = _run_cli("aggregate", "--manifest", str(bench / "manifest.csv"),
                       "--strategies", "avg,mor,bca", "--jobs", jobs,
                       "--out", str(out))
        assert res.returncode == 0, res.stderr
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]
    print("criterion 8 OK: array files, model JSON, and parallel CLI runs "
          "are byte-stable")


def test_criterion_9_gradual_shift_raises_surprise():
    """Scores track a graded structural shift, not just its presence.

    A five-step ladder blends each perturbed sample toward its blob pattern
    at weights 0.1/0.3/0.5/0.7/0.9. Fitting the full 16-feature mixture on
    the in-distribution samples, at least 80% of consecutive-step
    comparisons must raise the per-sample negative log-likelihood, and the
    population mean must rise at every step.
    """
    ladder = [0.1, 0.3, 0.5, 0.7, 0.9]
    iid_spec = SynthSpec(
        "noise", (64, 64), {"mean": 0.3, "amp": 0.12, "mean_jitter": 0.02}
    )
    ood_spec = SynthSpec(
        "blob", (64, 64),
        {"inside": 0.85, "inside_jitter": 0.05, "radius": 12.0,
         "radius_jitter": 2.0, "outside": 0.25},
    )
    benches = gen_benchmark(40, 25, iid_spec, ood_spec, perturb_ladder=ladder,
                            seed=0, match_means=True, with_masks=True)
    spec = FeatureSetSpec(FULL_SET)
    strategies = parse_strategy_list(list(spec.strategies))
    in_dist = [s for s in benches[0].samples if s.ood_label == 0]
    feats_fit = compute_features(
        [s.map for s in in_dist], strategies, masks=[s.mask for s in in_dist]
    )
    # The threshold features sit at their fallback on every training map,
    # so the standardizer reports the constant columns.
    with pytest.warns(RuntimeWarning, match="constant"):
        model = fit_meta(feats_fit, spec, k_max=4, seed=0)

    per_step = []
    for bench in benches:
        shifted = [s for s in bench.samples if s.ood_label == 1]
        feats = compute_features(
            [s.map for s in shifted], strategies, masks=[s.mask for s in shifted]
        )
        per_step.append(meta_score_matrix(model, feats))
    nll = np.stack(per_step)  # (steps, samples)

    increases = nll[1:] > nll[:-1]
    fraction = float(increases.mean())
    assert fraction >= 0.8, f"only {fraction:.2%} of step transitions rose"
    means = nll.mean(axis=1)
    assert np.all(np.diff(means) > 0.0), f"population means {means}"
    print(f"criterion 9 OK: {fraction:.2%} of per-sample transitions rose, "
          f"mean NLL {means.round(1)}")
