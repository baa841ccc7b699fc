import collections
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uqagg import (
    auroc,
    aurc,
    bootstrap_table,
    dice,
    eaurc,
    mean_rank,
    risk_coverage,
    significance_matrix,
    wilcoxon_one_sided,
)
from uqagg import evaluation
from uqagg.evaluation import _codes, _rankdata
from uqagg.rng import stream
from uqagg.errors import (
    AllZeroDifferences,
    EmptyInput,
    InvalidParam,
    LengthMismatch,
    NonFinite,
    ShapeMismatch,
    SingleClass,
    StrategySetMismatch,
)


# ---------------------------------------------------------------------------
# AUROC


def _auroc_oracle(scores, labels):
    pos = [s for s, l in zip(scores, labels) if l == 1]
    neg = [s for s, l in zip(scores, labels) if l == 0]
    total = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (len(pos) * len(neg))


def test_auroc_frozen_with_tie():
    scores = np.array([0.1, 0.1, 0.2, 0.3])
    labels = np.array([0, 1, 0, 1])
    assert auroc(scores, labels) == pytest.approx(0.625, abs=1e-15)


def test_auroc_perfect_and_inverted():
    labels = np.array([0, 0, 1, 1])
    assert auroc(np.array([0.1, 0.2, 0.8, 0.9]), labels) == 1.0
    assert auroc(np.array([0.9, 0.8, 0.2, 0.1]), labels) == 0.0
    assert auroc(np.array([0.5, 0.5, 0.5, 0.5]), labels) == 0.5


def test_auroc_matches_pairwise_oracle():
    for seed in range(30):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 50))
        labels = rng.integers(0, 2, size=n)
        if labels.all() or not labels.any():
            labels[0] = 1 - labels[0]
        # grid snap forces plenty of ties
        scores = np.round(rng.random(n), 1)
        assert auroc(scores, labels) == pytest.approx(
            _auroc_oracle(scores, labels), abs=1e-12
        )


def test_auroc_complement_under_negation():
    for seed in range(20):
        rng = np.random.default_rng(seed + 200)
        n = int(rng.integers(4, 30))
        labels = rng.integers(0, 2, size=n)
        if labels.all() or not labels.any():
            labels[0] = 1 - labels[0]
        scores = rng.random(n)
        assert auroc(-scores, labels) == pytest.approx(
            1.0 - auroc(scores, labels), abs=1e-12
        )


def test_auroc_validation():
    with pytest.raises(SingleClass):
        auroc(np.array([0.1, 0.2]), np.array([1, 1]))
    with pytest.raises(LengthMismatch):
        auroc(np.array([0.1]), np.array([1, 0]))
    with pytest.raises(InvalidParam):
        auroc(np.array([0.1, 0.2]), np.array([1, 2]))
    with pytest.raises(InvalidParam):
        auroc(np.zeros((2, 2, 2)), np.array([0, 1]))
    with pytest.raises(LengthMismatch):
        auroc(np.zeros((3, 2)), np.array([0, 1, 1]))


# ---------------------------------------------------------------------------
# tie-averaged ranks


def _rankdata_loop(x):
    # The former per-sample loop, kept as the bit-level reference.
    order = np.argsort(x, kind="stable")
    ranks = np.empty(len(x), dtype=np.float64)
    ranks[order] = np.arange(1, len(x) + 1)
    sx = x[order]
    i = 0
    while i < len(sx):
        j = i
        while j + 1 < len(sx) and sx[j + 1] == sx[i]:
            j += 1
        if j > i:
            ranks[order[i : j + 1]] = 0.5 * (i + 1 + j + 1)
        i = j + 1
    return ranks


def _rank_oracle(row):
    # rank = #less + (#equal + 1) / 2, the equal count including the value itself
    return np.array([(row < v).sum() + ((row == v).sum() + 1) / 2.0 for v in row])


def _rank_cases():
    rng = np.random.default_rng(17)
    yield rng.integers(0, 3, size=(6, 40))           # tie-heavy integers
    yield np.full((3, 9), 0.25)                      # every row all equal
    yield rng.random((4, 1))                         # length-1 rows
    yield rng.random((5, 257))                       # distinct floats
    yield np.round(rng.normal(size=(7, 64)), 1)      # mixed ties and singletons


def test_rankdata_matches_brute_force_oracle():
    for block in _rank_cases():
        ranks = _rankdata(block)
        assert ranks.dtype == np.float64 and ranks.shape == block.shape
        for row, got in zip(block, ranks):
            np.testing.assert_array_equal(_rankdata(row), _rank_oracle(row))
            np.testing.assert_array_equal(got, _rank_oracle(row))


def test_rankdata_bit_identical_to_loop():
    # NaN never equals itself, so each NaN is its own group, in input order.
    with_nan = np.array([[0.5, np.nan, 0.5, 0.1, np.nan, 0.1, 0.1]])
    for block in [*_rank_cases(), with_nan]:
        for row in block:
            assert _rankdata(row).tobytes() == _rankdata_loop(row).tobytes()


# ---------------------------------------------------------------------------
# Dice


def test_dice_frozen_example():
    gt = np.array([[1, 1], [2, 0]])
    pred = np.array([[1, 0], [2, 2]])
    assert dice(pred, gt, "micro") == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert dice(pred, gt, "macro") == pytest.approx(2.0 / 3.0, abs=1e-15)


def test_dice_identical_masks():
    rng = np.random.default_rng(2)
    m = rng.integers(0, 4, size=(6, 6))
    assert dice(m, m, "micro") == 1.0
    assert dice(m, m, "macro") == 1.0


def test_dice_disjoint_foreground_is_zero():
    a = np.array([[1, 0], [0, 0]])
    b = np.array([[0, 0], [0, 1]])
    assert dice(a, b, "micro") == 0.0
    assert dice(a, b, "macro") == 0.0


def test_dice_both_empty_is_one():
    z = np.zeros((3, 3), dtype=int)
    assert dice(z, z, "micro") == 1.0
    assert dice(z, z, "macro") == 1.0


def test_dice_background_never_counts():
    # prediction nails the background but misses the single foreground pixel
    gt = np.array([[1, 0], [0, 0]])
    pred = np.zeros((2, 2), dtype=int)
    assert dice(pred, gt, "micro") == 0.0


def test_dice_micro_pools_macro_averages():
    # class 1: perfect on 8 pixels; class 2: complete miss on 2 pixels
    gt = np.array([[1] * 8 + [2] * 2])
    pred = np.array([[1] * 8 + [0] * 2])
    micro = dice(pred, gt, "micro")  # 2*8 / (8 + 10)
    macro = dice(pred, gt, "macro")  # (1 + 0) / 2
    assert micro == pytest.approx(16.0 / 18.0, abs=1e-15)
    assert macro == pytest.approx(0.5, abs=1e-15)


def test_dice_validation():
    with pytest.raises(ShapeMismatch):
        dice(np.zeros((2, 2), dtype=int), np.zeros((3, 3), dtype=int))
    with pytest.raises(InvalidParam):
        dice(np.zeros((2, 2), dtype=int), np.zeros((2, 2), dtype=int), "weighted")


# ---------------------------------------------------------------------------
# risk--coverage


def test_risk_coverage_frozen_three_points():
    curve = risk_coverage(np.array([0.0, 0.2, 0.4]), np.array([3.0, 2.0, 1.0]))
    np.testing.assert_allclose(curve.coverages, [1.0, 2.0 / 3.0, 1.0 / 3.0])
    np.testing.assert_allclose(curve.risks, [0.2, 0.1, 0.0])
    assert aurc(curve) == pytest.approx(0.06666666666666667, abs=1e-9)


def test_risk_coverage_ties_grouped():
    # two samples share the middle confidence: they enter or leave together
    risks = np.array([0.0, 0.5, 0.5, 1.0])
    conf = np.array([4.0, 2.0, 2.0, 1.0])
    curve = risk_coverage(risks, conf)
    np.testing.assert_allclose(curve.coverages, [1.0, 0.75, 0.25])
    np.testing.assert_allclose(curve.risks, [0.5, 1.0 / 3.0, 0.0])


def test_risk_coverage_full_coverage_first():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 40))
        risks = rng.random(n)
        conf = rng.random(n)
        curve = risk_coverage(risks, conf)
        assert curve.coverages[0] == 1.0
        assert curve.risks[0] == pytest.approx(float(risks.mean()), abs=1e-12)
        assert (np.diff(curve.coverages) < 0).all()


def test_aurc_single_point_is_zero():
    curve = risk_coverage(np.array([0.3]), np.array([1.0]))
    assert aurc(curve) == 0.0


def test_eaurc_frozen_and_oracle_is_floor():
    risks = np.array([0.0, 0.2, 0.4])
    # descending risk order = worst ordering; oracle ordering = best
    assert eaurc(risks, np.array([3.0, 2.0, 1.0])) == pytest.approx(0.0, abs=1e-12)
    worst = eaurc(risks, np.array([1.0, 2.0, 3.0]))
    assert worst == pytest.approx(
        (0.4 + 0.3) / 2 / 3 + (0.3 + 0.2) / 2 / 3 - 0.06666666666666667, abs=1e-9
    )


def test_eaurc_nonnegative_for_distinct_confidences():
    for seed in range(40):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 60))
        risks = rng.random(n)
        conf = rng.permutation(n).astype(float)  # distinct by construction
        assert eaurc(risks, conf) >= 0.0


def test_eaurc_tied_confidences_can_go_negative():
    # a fully tied ranking collapses the curve to one point (AURC 0) while the
    # oracle still pays for its bad half: the documented tie caveat
    assert eaurc(np.array([0.0, 1.0]), np.array([0.5, 0.5])) == pytest.approx(
        -0.125, abs=1e-12
    )


def test_auroc_and_eaurc_blocks_equal_row_calls():
    rng = np.random.default_rng(23)
    n = 300
    labels = rng.integers(0, 2, size=n)
    risks = np.round(rng.random(n), 2)
    block = np.vstack([
        rng.integers(0, 4, size=n).astype(float),   # heavily tied confidences
        np.full(n, 0.5),                            # one working point: zero area
        np.round(rng.random(n), 2),
        rng.random(n),
        -risks,                                     # the oracle ordering itself
    ])
    got = auroc(block, labels)
    assert got.shape == (len(block),)
    assert got.tobytes() == np.array([auroc(row, labels) for row in block]).tobytes()
    got = eaurc(risks, block)
    assert got.shape == (len(block),)
    assert got.tobytes() == np.array([eaurc(risks, row) for row in block]).tobytes()
    assert got[4] == 0.0


def test_eaurc_block_clamps_float_noise():
    # The first row orders the samples differently from the oracle but with
    # the same area; its raw excess is about -1.4e-17 and is reported as 0.
    risks = np.array([0.3, 0.1, 0.2, 0.2])
    block = np.array([[2.0, 0.0, 0.0, 2.0], [0.5, 0.5, 0.5, 0.5]])
    raw = aurc(risk_coverage(risks, block[0])) - aurc(risk_coverage(risks, -risks))
    assert -1e-12 < raw < 0.0
    got = eaurc(risks, block)
    assert got[0] == 0.0 and eaurc(risks, block[0]) == 0.0
    assert got.tobytes() == np.array([eaurc(risks, row) for row in block]).tobytes()
    assert isinstance(eaurc(risks, block[1]), float)


# ---------------------------------------------------------------------------
# Wilcoxon signed-rank


def _wilcoxon_oracle(diffs):
    # exact tail probability over all sign assignments of the averaged ranks
    d = [x for x in diffs if x != 0.0]
    mags = sorted(abs(x) for x in d)
    ranks = {}
    i = 0
    while i < len(mags):
        j = i
        while j + 1 < len(mags) and mags[j + 1] == mags[i]:
            j += 1
        for k in range(i, j + 1):
            ranks.setdefault(mags[i], []).append(k + 1)
        i = j + 1
    avg_rank = {m: sum(r) / len(r) for m, r in ranks.items()}
    rs = [avg_rank[abs(x)] for x in d]
    observed = sum(r for r, x in zip(rs, d) if x > 0)
    count = 0
    for signs in itertools.product((0, 1), repeat=len(d)):
        w = sum(r for r, s in zip(rs, signs) if s)
        if w >= observed - 1e-12:
            count += 1
    return count / 2 ** len(d)


def test_wilcoxon_frozen_small_cases():
    # five positive differences: only the all-positive assignment reaches W+
    assert wilcoxon_one_sided(np.array([1.0, 2.0, 3.0, 4.0, 5.0])) == pytest.approx(
        1.0 / 32.0, abs=1e-15
    )
    # a single nonzero difference: p = 1/2
    assert wilcoxon_one_sided(np.array([0.7])) == pytest.approx(0.5, abs=1e-15)


def test_wilcoxon_matches_enumeration():
    for seed in range(40):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 13))
        # half-integer grid makes magnitude ties common
        d = np.round(rng.normal(0.3, 1.0, size=n) * 2) / 2.0
        if (d == 0.0).all():
            d[0] = 0.5
        assert wilcoxon_one_sided(d) == pytest.approx(_wilcoxon_oracle(d), abs=1e-12)


def test_wilcoxon_zero_handling():
    with pytest.raises(AllZeroDifferences):
        wilcoxon_one_sided(np.zeros(5))
    with pytest.raises(EmptyInput):
        wilcoxon_one_sided(np.array([]))
    # zeros are dropped before ranking
    assert wilcoxon_one_sided(np.array([0.0, 1.0, 2.0])) == pytest.approx(
        wilcoxon_one_sided(np.array([1.0, 2.0])), abs=1e-15
    )


def test_wilcoxon_normal_tail_for_large_n():
    rng = np.random.default_rng(5)
    up = rng.random(60) + 0.5  # all positive -> tiny p
    p = wilcoxon_one_sided(up)
    assert 0.0 < p < 1e-6
    down = -up
    assert wilcoxon_one_sided(down) > 0.999


def test_wilcoxon_exact_normal_agree_near_boundary():
    # the two regimes should roughly agree for symmetric-ish data at n = 25/26
    rng = np.random.default_rng(9)
    d25 = rng.normal(0.4, 1.0, size=25)
    d26 = np.append(d25, 1e-9)  # nudges into the approximate regime
    p_exact = wilcoxon_one_sided(d25)
    p_approx = wilcoxon_one_sided(d26)
    assert abs(p_exact - p_approx) < 0.02


# ---------------------------------------------------------------------------
# bootstrap


def _make_block(n=24, seed=0):
    """Scores of "good" (row 0) and "anti" = -good (row 1), labels, risks."""
    rng = np.random.default_rng(seed)
    labels = np.array([int(i < n // 2) for i in range(n)])
    base = np.array([rng.normal(1.2 if lab else 0.0, 0.6) for lab in labels])
    risks = np.clip(0.5 + 0.25 * base, 0.0, 1.0)
    return np.vstack([base, -base]), labels, risks


def test_bootstrap_deterministic():
    scores, labels, _ = _make_block()
    t1 = bootstrap_table(scores, labels, "auroc", b=64, seed=7)
    t2 = bootstrap_table(scores, labels, "auroc", b=64, seed=7)
    assert t1.shape == (64, 2)
    np.testing.assert_array_equal(t1, t2)
    t3 = bootstrap_table(scores[:1], labels, "auroc", b=64, seed=8)
    assert not np.array_equal(t1[:, 0], t3[:, 0])


def test_bootstrap_resamples_shared_across_strategies():
    # anti = -good, so per-iteration AUROCs must be exact complements
    scores, labels, _ = _make_block()
    table = bootstrap_table(scores, labels, "auroc", b=80, seed=3)
    np.testing.assert_allclose(table[:, 0] + table[:, 1], 1.0, atol=1e-12)


def test_bootstrap_single_strategy_order_independent():
    # dropping a strategy must not change another strategy's vector
    scores, labels, _ = _make_block()
    both = bootstrap_table(scores, labels, "auroc", b=32, seed=11)
    alone = bootstrap_table(scores[:1], labels, "auroc", b=32, seed=11)
    assert alone.shape == (32, 1)
    np.testing.assert_array_equal(both[:, 0], alone[:, 0])
    assert 0.8 < alone[:, 0].mean() <= 1.0


def test_bootstrap_eaurc_uses_negated_scores_as_confidence():
    scores, _, risks = _make_block()
    table = bootstrap_table(scores, risks, "eaurc", b=50, seed=2)
    # "good" tracks risk, so -good ranks risky samples last: near-zero excess
    assert table[:, 0].mean() < table[:, 1].mean()


def test_bootstrap_all_one_class_raises():
    scores = np.arange(6.0)[None]
    with pytest.raises(SingleClass):
        bootstrap_table(scores, np.ones(6, dtype=int), "auroc", b=10, seed=0)


def test_bootstrap_table_validation():
    scores, labels, _ = _make_block(n=6)
    with pytest.raises(InvalidParam):
        bootstrap_table(scores, labels, "dice", b=5)
    with pytest.raises(InvalidParam):
        bootstrap_table(scores, labels, "auroc", b=0)
    with pytest.raises(InvalidParam):
        bootstrap_table(scores[0], labels, "auroc", b=5)
    with pytest.raises(LengthMismatch):
        bootstrap_table(scores, labels[:-1], "auroc", b=5)
    with pytest.raises(EmptyInput):
        bootstrap_table(np.empty((2, 0)), [], "eaurc", b=5)


def _bootstrap_reference(scores, target, metric, b, seed):
    # One resample per iteration from stream(seed, 21, i), redrawn while it
    # holds a single class, then the public 1-D metric row by row.
    n = len(target)
    out = np.empty((b, len(scores)))
    redraws = 0
    for i in range(b):
        rng = stream(seed, 21, i)
        idx = rng.integers(0, n, size=n)
        if metric == "auroc":
            while target[idx].min() == target[idx].max():
                redraws += 1
                idx = rng.integers(0, n, size=n)
            out[i] = [auroc(row[idx], target[idx]) for row in scores]
        else:
            out[i] = [eaurc(target[idx], -row[idx]) for row in scores]
    return out, redraws


def test_bootstrap_table_equals_reference_loop():
    rng = np.random.default_rng(31)
    # Rows "tied", "fine" and "flat", drawn per sample in that order.
    scores = np.array([
        [float(rng.integers(0, 3)), rng.random(), 0.5]
        + [float(np.round(rng.random(), 1))]
        for _ in range(9)
    ])
    risks = scores[:, 3]
    scores = scores[:, :3].T
    labels = (np.arange(9) == 0).astype(int)   # one positive: many redraws
    for metric, target in (("auroc", labels), ("eaurc", risks)):
        table = bootstrap_table(scores, target, metric, b=40, seed=5)
        ref, redraws = _bootstrap_reference(scores, target, metric, 40, 5)
        if metric == "auroc":
            assert redraws > 0
        assert table.tobytes() == ref.tobytes()


def _bootstrap_float_loop(scores, target, metric, b, seed):
    # The per-resample float path that the rank codes replaced, kept as the
    # bit-level reference: AUROC from the tie-averaged float ranks of each
    # resampled block, E-AURC from a float sort of its negated scores.
    n = len(target)
    out = np.empty((b, len(scores)))
    redraws = 0
    for i in range(b):
        rng = stream(seed, 21, i)
        idx = rng.integers(0, n, size=n)
        if metric == "eaurc":
            out[i] = eaurc(target[idx], -scores[:, idx])
            continue
        while target[idx].min() == target[idx].max():
            redraws += 1
            idx = rng.integers(0, n, size=n)
        pos = target[idx] == 1
        n_pos = int(pos.sum())
        rank_sums = _rankdata(scores[:, idx])[:, pos].sum(axis=1)
        out[i] = (rank_sums - n_pos * (n_pos + 1) / 2.0) / (n_pos * (n - n_pos))
    return out, redraws


def _assert_same_bits(got, want):
    np.testing.assert_array_equal(got, want)
    assert got.tobytes() == want.tobytes()   # also tells -0.0 from 0.0


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_bootstrap_table_equals_float_loop_on_tied_blocks(data):
    s = data.draw(st.integers(1, 4))
    n = data.draw(st.integers(2, 40))
    levels = data.draw(st.integers(1, 4))
    # A few levels per block, signed, so ties are the rule.
    cell = st.integers(-levels, levels).map(lambda v: v / levels)
    row = st.lists(cell, min_size=n, max_size=n)
    scores = np.array(data.draw(st.lists(row, min_size=s, max_size=s)))
    labels = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    labels[:2] = [1, 0]
    risks = np.abs(np.array(data.draw(row)))
    seed = data.draw(st.integers(0, 2**32))
    for metric, target in (("auroc", labels), ("eaurc", risks)):
        want, _ = _bootstrap_float_loop(scores, target, metric, 8, seed)
        _assert_same_bits(bootstrap_table(scores, target, metric, b=8, seed=seed), want)


def test_bootstrap_table_equals_float_loop_with_redraws():
    rng = np.random.default_rng(41)
    scores = np.round(rng.random((3, 8)), 1)
    labels = (np.arange(8) == 3).astype(int)   # one positive in eight
    want, redraws = _bootstrap_float_loop(scores, labels, "auroc", 50, 9)
    assert redraws > 0
    _assert_same_bits(bootstrap_table(scores, labels, "auroc", b=50, seed=9), want)


def test_bootstrap_table_equals_float_loop_beyond_16_bit_codes():
    rng = np.random.default_rng(42)
    n = 70_000
    scores = np.round(rng.random((1, n)), 3)
    assert _codes(scores).dtype == np.intp
    assert _codes(scores[:, :65_536]).dtype == np.uint16
    labels = (rng.random(n) < 0.5).astype(int)
    risks = np.round(rng.random(n), 2)
    for metric, target in (("auroc", labels), ("eaurc", risks)):
        want, _ = _bootstrap_float_loop(scores, target, metric, 2, 3)
        _assert_same_bits(bootstrap_table(scores, target, metric, b=2, seed=3), want)


def test_codes_keep_order_and_ties():
    x = np.array([[0.5, -0.0, 0.5, np.inf, 0.0, -2.0, np.nan, np.nan]])
    np.testing.assert_array_equal(_codes(x), [[2, 1, 2, 3, 1, 0, 4, 5]])
    ints = np.array([7, -3, 7, 10**12])
    np.testing.assert_array_equal(_codes(ints), [1, 0, 1, 2])


def test_auroc_integer_scores_match_float_scores():
    rng = np.random.default_rng(43)
    labels = rng.integers(0, 2, size=50)
    labels[:2] = [1, 0]
    for scores in (rng.integers(0, 50, size=(3, 50)),       # usable as codes
                   rng.integers(-5, 5, size=(3, 50)),       # negative
                   rng.integers(0, 10**15, size=(3, 50))):  # beyond n
        got = auroc(scores, labels)
        assert got.tobytes() == auroc(scores.astype(float), labels).tobytes()


def test_bootstrap_table_refuses_nan_scores():
    # Resampled twice, a NaN would tie with itself as a code but not as a float.
    with pytest.raises(NonFinite):
        bootstrap_table(np.array([[0.1, np.nan, 0.3]]), [0, 1, 1], "auroc", b=2)


def test_bootstrap_calls_stream_and_metric_once_per_resample(monkeypatch):
    # The benchmark's tracer times the metric and the stream through these
    # module globals, once per resample; a refactor that bypasses them
    # leaves its spans empty.
    calls = collections.Counter()

    def counting(name):
        fn = getattr(evaluation, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("auroc", "eaurc", "stream"):
        monkeypatch.setattr(evaluation, name, counting(name))
    scores = np.round(np.random.default_rng(44).random((2, 8)), 1)
    labels = (np.arange(8) == 0).astype(int)   # redraws reuse the iteration's stream
    bootstrap_table(scores, labels, "auroc", b=30, seed=1)
    assert calls == {"stream": 30, "auroc": 30}
    calls.clear()
    bootstrap_table(scores, np.linspace(0.0, 1.0, 8), "eaurc", b=30, seed=1)
    assert calls == {"stream": 30, "eaurc": 30}


# ---------------------------------------------------------------------------
# aggregation across datasets


def test_mean_rank_frozen():
    tables = {
        "d1": {"a": 0.9, "b": 0.8, "c": 0.7},
        "d2": {"a": 0.6, "b": 0.8, "c": 0.7},
    }
    ranks = mean_rank(tables, "higher")
    assert ranks["a"] == pytest.approx(2.0)   # 1st then 3rd
    assert ranks["b"] == pytest.approx(1.5)   # 2nd then 1st
    assert ranks["c"] == pytest.approx(2.5)   # 3rd then 2nd
    flipped = mean_rank(tables, "lower")
    assert flipped["a"] == pytest.approx(2.0)
    assert flipped["c"] == pytest.approx(1.5)


def test_mean_rank_ties_averaged():
    ranks = mean_rank({"d": {"a": 0.5, "b": 0.5, "c": 0.1}}, "higher")
    assert ranks["a"] == ranks["b"] == pytest.approx(1.5)
    assert ranks["c"] == pytest.approx(3.0)


def test_mean_rank_strategy_sets_must_match():
    with pytest.raises(StrategySetMismatch):
        mean_rank({"d1": {"a": 1.0}, "d2": {"b": 1.0}}, "higher")
    with pytest.raises(InvalidParam):
        mean_rank({"d1": {"a": 1.0}}, "sideways")


def test_significance_matrix_shape_and_diagonal():
    rng = np.random.default_rng(4)
    samples = {
        "strong": rng.random(100) + 1.0,
        "weak": rng.random(100),
    }
    names, mat = significance_matrix(samples, "higher")
    assert names == ["strong", "weak"]
    assert mat.shape == (2, 2)
    assert mat[0, 0] == 1.0 and mat[1, 1] == 1.0
    assert mat[0, 1] < 1e-6       # strong > weak: tiny p
    assert mat[1, 0] > 1.0 - 1e-6


def test_significance_matrix_direction_flips():
    rng = np.random.default_rng(6)
    samples = {"a": rng.random(50) + 1.0, "b": rng.random(50)}
    _, higher = significance_matrix(samples, "higher")
    _, lower = significance_matrix(samples, "lower")
    assert higher[0, 1] < 0.05 < lower[0, 1]


def test_significance_matrix_identical_strategies_warn():
    vec = np.arange(20.0)
    with pytest.warns(RuntimeWarning):
        names, mat = significance_matrix({"a": vec, "b": vec.copy()}, "higher")
    assert mat[0, 1] == 1.0 and mat[1, 0] == 1.0


def test_significance_matrix_no_warning_from_diagonal():
    rng = np.random.default_rng(8)
    samples = {"a": rng.random(30), "b": rng.random(30) + 0.2}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        significance_matrix(samples, "higher")
