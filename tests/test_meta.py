import dataclasses
import json
import math
import re
import warnings

import numpy as np
import pytest

from uqagg import (
    FeatureSetSpec,
    GmmModel,
    bic,
    compute_features,
    em_fit,
    fit_meta,
    load_model,
    meta_score_matrix,
    model_from_json,
    model_to_json,
    parse_strategy_list,
    save_model,
)
from uqagg.errors import (
    DuplicateStrategy,
    FeatureMismatch,
    InvalidParam,
    NonFinite,
    OutOfRange,
    ParseError,
    SingularCovariance,
    TooFewSamples,
    UnknownStrategy,
)
from uqagg.meta import (
    _LANE_RESTART,
    _MODEL_FIELDS,
    DEFAULT_EPSILON,
    DEFAULT_MAX_ITER,
    DEFAULT_RESTARTS,
    DEFAULT_RIDGE,
    DEFAULT_TOL,
    VARIANTS,
    _em_once,
    _kmeanspp_means,
    _log_components,
)
from uqagg.rng import stream

LOG_2PI = math.log(2.0 * math.pi)


# ---------------------------------------------------------------------------
# preprocessing


def _unit_gaussian(model):
    # the model's preprocessing under one standard-normal component, so a
    # row's NLL is d/2 ln(2 pi) + |z|^2 / 2 for its standardized features z
    return dataclasses.replace(
        model, weights=np.array([1.0]), means=np.zeros((1, model.d)),
        covariances=np.eye(model.d)[None])


def test_epsilon_rescale_fixed_points():
    # fit: the columns {0, 1} and {1, 0} rescale to {eps, 1 - eps}, whose
    # mean is 0.5 and population std 0.5 - eps
    eps = DEFAULT_EPSILON
    model = fit_meta(np.array([[0.0, 1.0], [1.0, 0.0]]), FeatureSetSpec(["avg", "mor"]),
                     k_max=1)
    assert model.epsilon == eps
    np.testing.assert_allclose(model.feat_mean, [0.5, 0.5], atol=1e-15)
    np.testing.assert_allclose(model.feat_std, [0.5 - eps, 0.5 - eps], atol=1e-15)
    # score: feat_std (1 - 2 eps) / 6 puts x = 0, 0.5, 1 at z = -3, 0, 3 only
    # if they rescale to eps, 0.5, 1 - eps
    for eps in (1e-3, 0.01, 0.25):
        got = meta_score_matrix(_unit_model(eps), np.array([[0.0], [0.5], [1.0]]))
        np.testing.assert_allclose(got, 0.5 * LOG_2PI + np.array([4.5, 0.0, 4.5]),
                                   rtol=1e-12)


def test_epsilon_rescale_is_affine_and_shrinks():
    rng = np.random.default_rng(0)
    x = rng.random((100, 2))
    model = fit_meta(x, FeatureSetSpec(["avg", "mor"]), k_max=1)
    shrink = 1.0 - 2.0 * DEFAULT_EPSILON
    np.testing.assert_allclose(model.feat_mean, shrink * (x.mean(axis=0) - 0.5) + 0.5,
                               rtol=1e-14)
    np.testing.assert_allclose(model.feat_std, shrink * x.std(axis=0), rtol=1e-12)


def test_standardize_population_moments():
    # population (divisor n) std of the rescaled {0.25, 0.75} is
    # 0.25 * (1 - 2 eps); the constant column snaps to 1
    x = np.array([[0.25, 0.75], [0.75, 0.75]])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        model = fit_meta(x, FeatureSetSpec(["avg", "mor"]), k_max=1)
    np.testing.assert_allclose(model.feat_mean, [0.5, 0.75 - 0.5 * DEFAULT_EPSILON])
    np.testing.assert_allclose(model.feat_std, [0.25 * (1.0 - 2.0 * DEFAULT_EPSILON), 1.0])
    # scoring standardizes with them: z = [[-1, 0], [1, 0]], so |z|^2 = 1
    np.testing.assert_allclose(meta_score_matrix(_unit_gaussian(model), x),
                               [LOG_2PI + 0.5, LOG_2PI + 0.5], rtol=1e-14)


def test_standardize_warns_on_constant_column():
    x = np.array([[0.25, 0.5, 1.0], [0.75, 0.5, 1.0]])
    with pytest.warns(RuntimeWarning,
                      match=r"^2 feature column\(s\) are constant; leaving them unscaled$"):
        model = fit_meta(x, FeatureSetSpec(["avg", "mor", "ent"]), k_max=1)
    np.testing.assert_allclose(model.feat_std[1:], [1.0, 1.0])


def test_standardize_needs_two_samples():
    with pytest.raises(TooFewSamples, match="^need at least 2 training samples, got 1$"):
        fit_meta(np.array([[0.25, 0.5]]), FeatureSetSpec(["avg", "mor"]))


@pytest.mark.parametrize("cell, error, words", [
    (math.nan, NonFinite, "features contain NaN or infinity"),
    (math.inf, NonFinite, "features contain NaN or infinity"),
    (1.5, OutOfRange, "features must lie in [0, 1] before rescaling"),
    (-0.25, OutOfRange, "features must lie in [0, 1] before rescaling"),
], ids=["nan", "inf", "1.5", "-0.25"])
def test_fit_and_score_refuse_one_bad_feature(cell, error, words):
    spec = FeatureSetSpec(["avg", "mor"])
    x = np.random.default_rng(1).random((20, 2))
    model = fit_meta(x, spec, k_max=1)
    x[7, 1] = cell
    for call in (lambda a: fit_meta(a, spec), lambda a: meta_score_matrix(model, a)):
        with pytest.raises(error, match=f"^{re.escape(words)}$"):
            call(x)
        # one bad row: fit_meta states the feature rule, not the two-sample one
        with pytest.raises(error, match=f"^{re.escape(words)}$"):
            call(x[7:8])


def test_fit_and_score_refuse_a_wrong_width():
    spec = FeatureSetSpec(["avg", "mor"])
    x = np.random.default_rng(2).random((20, 3))
    model = fit_meta(x[:, :2], spec, k_max=1)
    words = re.escape("expected shape (n, 2), got (20, 3)")
    with pytest.raises(FeatureMismatch, match=f"^{words}$"):
        fit_meta(x, spec)
    with pytest.raises(FeatureMismatch, match=f"^{words}$"):
        meta_score_matrix(model, x)


# ---------------------------------------------------------------------------
# EM at fixed K


def test_em_k1_closed_form():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(200, 3)) * [1.0, 2.0, 0.5] + [0.0, 5.0, -2.0]
    res = em_fit(x, 1, seed=0)
    mu = x.mean(axis=0)
    diff = x - mu
    sigma = diff.T @ diff / len(x) + DEFAULT_RIDGE * np.eye(3)
    np.testing.assert_allclose(res.means[0], mu, rtol=1e-12)
    np.testing.assert_allclose(res.covariances[0], sigma, rtol=1e-10)
    np.testing.assert_allclose(res.weights, [1.0], rtol=1e-15)
    # analytic Gaussian log-likelihood
    sign, logdet = np.linalg.slogdet(sigma)
    assert sign > 0
    maha = np.einsum("ij,jk,ik->i", diff, np.linalg.inv(sigma), diff)
    want = -0.5 * (len(x) * (3 * LOG_2PI + logdet) + maha.sum())
    assert res.loglik == pytest.approx(want, rel=1e-12)


def test_em_history_non_decreasing():
    rng = np.random.default_rng(5)
    x = np.vstack(
        [rng.normal(-2.0, 0.5, size=(120, 2)), rng.normal(2.0, 0.5, size=(120, 2))]
    )
    for k in (1, 2, 3):
        res = em_fit(x, k, seed=1)
        hist = np.array(res.history)
        assert len(hist) == res.n_iter
        assert (np.diff(hist) >= -1e-8 * np.maximum(1.0, np.abs(hist[:-1]))).all()


def test_em_deterministic_and_restart_best():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(80, 2))
    a = em_fit(x, 2, seed=42)
    b = em_fit(x, 2, seed=42)
    np.testing.assert_array_equal(a.means, b.means)
    np.testing.assert_array_equal(a.covariances, b.covariances)
    assert a.loglik == b.loglik
    # the kept fit is the first restart with the highest log-likelihood
    runs = [_em_once(x, 2, stream(42, _LANE_RESTART, r), DEFAULT_MAX_ITER, DEFAULT_TOL)
            for r in range(DEFAULT_RESTARTS)]
    best = max(run.loglik for run in runs)
    first = next(run for run in runs if run.loglik == best)
    assert a.loglik == best
    np.testing.assert_array_equal(a.means, first.means)
    np.testing.assert_array_equal(a.covariances, first.covariances)
    np.testing.assert_array_equal(a.weights, first.weights)


def _eigh_log_components(x, weights, means, covs):
    # log(weight) + log-density per component from an eigendecomposition,
    # independent of the Cholesky path.
    cols = []
    for w, mu, cov in zip(weights, means, covs):
        if w <= 0.0:
            cols.append(np.full(len(x), -np.inf))
            continue
        vals, vecs = np.linalg.eigh(cov)
        maha = ((((x - mu) @ vecs) ** 2) / vals).sum(axis=1)
        logdet = np.log(vals).sum()
        cols.append(math.log(w) - 0.5 * (x.shape[1] * LOG_2PI + logdet + maha))
    return np.stack(cols, axis=1)


def _spd(rng, d):
    a = rng.normal(size=(d, d))
    return a @ a.T + 0.1 * np.eye(d)


def test_log_components_match_eigh_density():
    rng = np.random.default_rng(13)
    d = 5
    x = rng.normal(size=(40, d))
    weights = np.array([0.3, 0.0, 0.7])
    means = rng.normal(size=(3, d))
    # The zero-weight component keeps a stale, indefinite covariance: it must
    # get a -inf column without being factored.
    covs = np.stack([_spd(rng, d), -np.eye(d), _spd(rng, d)])
    got = _log_components(x, weights, means, covs)
    want = _eigh_log_components(x, weights, means, covs)
    assert got.shape == (40, 3)
    assert (got[:, 1] == -np.inf).all()
    np.testing.assert_allclose(got[:, [0, 2]], want[:, [0, 2]], rtol=1e-12, atol=0)


def test_log_components_refuse_indefinite_live_covariance():
    rng = np.random.default_rng(14)
    covs = np.stack([_spd(rng, 3), np.diag([1.0, -1.0, 1.0]), _spd(rng, 3)])
    with pytest.raises(SingularCovariance):
        _log_components(rng.normal(size=(10, 3)), np.full(3, 1.0 / 3.0),
                        rng.normal(size=(3, 3)), covs)


def test_em_iterations_and_selected_k_frozen():
    # Three separated clusters in four features. A change that only rounds
    # the E-step differently must keep these iteration counts and K.
    rng = np.random.default_rng(12)
    centers = np.array([[0.2, 0.3, 0.7, 0.5], [0.7, 0.6, 0.2, 0.4], [0.5, 0.8, 0.5, 0.8]])
    x = np.vstack([np.clip(c + 0.06 * rng.normal(size=(60, 4)), 0, 1) for c in centers])
    z = (x - x.mean(axis=0)) / x.std(axis=0)
    assert [em_fit(z, k, seed=3).n_iter for k in range(1, 6)] == [3, 11, 7, 25, 19]
    spec = FeatureSetSpec(["avg", "mor", "eds", "ent"])
    assert fit_meta(x, spec, k_max=5, seed=3).k == 3


def _kmeanspp_before(x, k, rng):
    # the seeding as first written: each step measures every chosen centre
    n = x.shape[0]
    chosen = [int(rng.integers(n))]
    for _ in range(1, k):
        d2 = np.min(
            ((x[:, None, :] - x[chosen][None, :, :]) ** 2).sum(axis=2), axis=1
        )
        total = d2.sum()
        if total <= 0.0:
            chosen.append(int(rng.integers(n)))
            continue
        r = rng.random() * total
        chosen.append(int(np.searchsorted(np.cumsum(d2), r)))
    return x[chosen].copy()


@pytest.mark.parametrize("n", [4, 9, 64, 300])
def test_kmeanspp_seeding_equals_first_version(n):
    gen = np.random.default_rng(n)
    for d in (1, 3, 8, 9, 16, 17):
        x = gen.random((n, d))
        # duplicate rows make ties and, with all rows alike, a zero total
        tied = x.copy()
        tied[: n // 2] = tied[0]
        for data in (x, tied, np.repeat(x[:1], n, axis=0)):
            for k in (1, 2, 3, min(n, 10)):
                for seed in range(3):
                    want = _kmeanspp_before(data, k, np.random.default_rng(seed))
                    got = _kmeanspp_means(data, k, np.random.default_rng(seed))
                    assert got.tobytes() == want.tobytes(), (d, k, seed)


def test_em_validation():
    with pytest.raises(TooFewSamples):
        em_fit(np.zeros((2, 1)) + [[0.0], [1.0]], 3)
    with pytest.raises(NonFinite):
        em_fit(np.array([[0.0], [math.nan]]), 1)


# ---------------------------------------------------------------------------
# BIC and model selection


def test_bic_frozen_value():
    # p = (K-1) + K*d + K*d*(d+1)/2 = 0 + 2 + 3 = 5 for K=1, d=2
    # BIC = 5*ln(100) - 2*(-300)
    want = 5.0 * math.log(100.0) + 600.0
    assert bic(-300.0, 1, 2, 100) == pytest.approx(want, rel=1e-15)
    assert bic(-300.0, 1, 2, 100) == pytest.approx(623.0258509299405, abs=1e-10)


def test_bic_param_count_grows_with_k():
    # fixed data term: more components must pay a larger complexity penalty
    vals = [bic(0.0, k, 4, 50) for k in (1, 2, 3)]
    assert vals[0] < vals[1] < vals[2]


def test_fit_meta_selects_two_clusters():
    rng = np.random.default_rng(11)
    a = np.clip(rng.normal(0.25, 0.03, size=(150, 2)), 0, 1)
    b = np.clip(rng.normal(0.75, 0.03, size=(150, 2)), 0, 1)
    x = np.vstack([a, b])
    spec = FeatureSetSpec(["avg", "mor"])
    model = fit_meta(x, spec, k_max=5, seed=0)
    assert model.k == 2
    # component means live in standardized space; map them back
    raw_means = model.means * model.feat_std + model.feat_mean
    raw_means = (raw_means - 0.5) / (1.0 - 2.0 * model.epsilon) + 0.5
    lo, hi = sorted(float(m[0]) for m in raw_means)
    assert lo == pytest.approx(0.25, abs=0.05)
    assert hi == pytest.approx(0.75, abs=0.05)
    np.testing.assert_allclose(model.weights.sum(), 1.0, atol=1e-12)


def test_fit_meta_single_gaussian_prefers_k1():
    rng = np.random.default_rng(13)
    x = np.clip(rng.normal(0.5, 0.05, size=(300, 3)), 0, 1)
    model = fit_meta(x, FeatureSetSpec(["avg", "mor", "ent"]), k_max=4, seed=0)
    assert model.k == 1


def test_fit_meta_same_bits_for_any_memory_layout():
    # A column reduction over a Fortran-ordered array sums in another order
    # than over a C-ordered one; the fit and the scores must not see it.
    rng = np.random.default_rng(17)
    x = rng.random((300, 4))
    spec = FeatureSetSpec(["avg", "mor", "eds", "ent"])
    direct = fit_meta(x, spec, k_max=3, seed=3)
    wide = np.repeat(x, 2, axis=1)
    for other in (np.asfortranarray(x), wide[:, ::2]):
        model = fit_meta(other, spec, k_max=3, seed=3)
        assert model_to_json(model) == model_to_json(direct)
        assert meta_score_matrix(direct, other).tobytes() == (
            meta_score_matrix(direct, x).tobytes())
    with pytest.raises(FeatureMismatch):
        fit_meta(x[:, :3], spec)
    with pytest.raises(FeatureMismatch):
        meta_score_matrix(direct, x[0])


# ---------------------------------------------------------------------------
# scoring


def _unit_model(epsilon=0.25):
    # one standard-normal component; feat_std chosen so x=1.0 lands at z=3
    return GmmModel(
        feature_spec=FeatureSetSpec(["avg"]),
        epsilon=epsilon,
        feat_mean=np.array([0.5]),
        feat_std=np.array([(1.0 - 2.0 * epsilon) / 6.0]),
        weights=np.array([1.0]),
        means=np.array([[0.0]]),
        covariances=np.array([[[1.0]]]),
        seed=0,
        n_train=10,
        bic=0.0,
        loglik=0.0,
    )


def test_meta_score_standard_normal_anchors():
    model = _unit_model()
    # z = 0 -> NLL = 0.5*ln(2*pi); z = 3 adds 4.5
    np.testing.assert_allclose(
        meta_score_matrix(model, np.array([[0.5], [1.0]])),
        [0.5 * LOG_2PI, 0.5 * LOG_2PI + 4.5], rtol=1e-12)


def test_meta_score_matrix_matches_rowwise():
    rng = np.random.default_rng(23)
    x = np.clip(rng.random((50, 2)), 0, 1)
    model = fit_meta(x, FeatureSetSpec(["avg", "mor"]), k_max=3, seed=1)
    queries = np.clip(rng.random((7, 2)), 0, 1)
    batch = meta_score_matrix(model, queries)
    singles = [meta_score_matrix(model, q[None])[0] for q in queries]
    np.testing.assert_allclose(batch, singles, rtol=1e-14)


def test_meta_score_mixture_weights_enter_likelihood():
    # two far-apart unit components: near one of them the density is half a
    # standard normal, so the NLL gains exactly ln 2
    model = GmmModel(
        feature_spec=FeatureSetSpec(["avg"]),
        epsilon=0.25,
        feat_mean=np.array([0.5]),
        feat_std=np.array([1.0 / 12.0]),
        weights=np.array([0.5, 0.5]),
        means=np.array([[0.0], [100.0]]),
        covariances=np.array([[[1.0]], [[1.0]]]),
        seed=0,
        n_train=10,
        bic=0.0,
        loglik=0.0,
    )
    assert meta_score_matrix(model, np.array([[0.5]]))[0] == pytest.approx(
        0.5 * LOG_2PI + math.log(2.0), rel=1e-12
    )


# ---------------------------------------------------------------------------
# feature-set specs


def test_feature_set_spec_variants():
    assert len(FeatureSetSpec(VARIANTS["all"]).strategies) == 16
    assert len(FeatureSetSpec(VARIANTS["int"]).strategies) == 13
    assert FeatureSetSpec(VARIANTS["spa"]).strategies == ("mor", "eds", "ent")
    with pytest.raises(UnknownStrategy):
        FeatureSetSpec(["avg", "nope"])
    with pytest.raises(InvalidParam):
        FeatureSetSpec(["gmm:model.json"])  # no nesting
    # the parser's one empty-list check, however the emptiness is spelled
    for empty in ((), [], "", " , "):
        with pytest.raises(UnknownStrategy, match="^empty strategy list$"):
            FeatureSetSpec(empty)


def test_feature_set_spec_stores_canonical_keys():
    spec = FeatureSetSpec(["eds:0.2", "avg"])
    assert spec.strategies == ("eds", "avg")
    assert FeatureSetSpec("ent:4, ata:.50").strategies == ("ent", "ata:0.5")
    # The spec's keys parse back to the strategies whose columns
    # compute_features writes, in the spec's order.
    rng = np.random.default_rng(29)
    maps = [rng.random((16, 16)) for _ in range(12)]
    strategies = parse_strategy_list(list(spec.strategies))
    assert tuple(s.key for s in strategies) == spec.strategies
    feats = compute_features(maps, strategies)
    model = fit_meta(feats, spec, k_max=2, seed=0)
    assert model.feature_spec.strategies == ("eds", "avg")
    assert meta_score_matrix(model, feats).shape == (12,)


def test_feature_set_spec_named_variant_holds_its_set():
    # the name is the named set the keys are, in any order; anything else is
    # custom
    for name, keys in VARIANTS.items():
        assert FeatureSetSpec(keys[::-1]).variant == name
        assert FeatureSetSpec(keys[:-1]).variant == "custom"
    assert FeatureSetSpec("ent, eds:0.2, mor").variant == "spa"
    assert FeatureSetSpec(["avg"]).variant == "custom"
    assert FeatureSetSpec(["mor", "eds", "ent", "avg"]).variant == "custom"


def test_feature_set_spec_has_one_field():
    assert [f.name for f in dataclasses.fields(FeatureSetSpec)] == ["strategies"]


def test_feature_set_spec_refuses_a_key_twice():
    with pytest.raises(DuplicateStrategy):
        FeatureSetSpec(["avg", "avg"])
    with pytest.raises(DuplicateStrategy):
        FeatureSetSpec(["eds", "eds:0.2"])  # one canonical key


# ---------------------------------------------------------------------------
# serialization


def _small_model(seed=0):
    rng = np.random.default_rng(seed)
    x = np.clip(rng.random((40, 2)), 0, 1)
    return fit_meta(x, FeatureSetSpec(["avg", "mor"]), k_max=2, seed=seed)


def test_model_json_round_trip_is_byte_stable():
    model = _small_model()
    text = model_to_json(model)
    again = model_to_json(model_from_json(text))
    assert text == again
    assert text.endswith("\n")


def test_model_json_restores_scores_exactly():
    model = _small_model(3)
    clone = model_from_json(model_to_json(model))
    q = np.array([[0.3, 0.6]])
    assert meta_score_matrix(clone, q)[0] == meta_score_matrix(model, q)[0]


def test_model_file_round_trip(tmp_path):
    model = _small_model(5)
    path = tmp_path / "model.json"
    save_model(model, path)
    clone = load_model(path)
    assert model_to_json(clone) == model_to_json(model)


def test_model_json_keys_come_back_canonical():
    doc = json.loads(model_to_json(_small_model()))
    doc["feature_spec"]["strategies"] = ["avg", "eds:0.2"]
    model = model_from_json(json.dumps(doc))
    assert model.feature_spec.strategies == ("avg", "eds")
    doc["feature_spec"]["strategies"] = ["eds", "eds:0.2"]
    with pytest.raises(DuplicateStrategy):
        model_from_json(json.dumps(doc))


def test_model_table_names_every_field_once_in_file_order():
    # One table writes and reads the model file: a field written is read, and
    # a field read is written.
    keys = [key for key, _, _ in _MODEL_FIELDS]
    attrs = [attr for _, attr, _ in _MODEL_FIELDS]
    fields = [f.name for f in dataclasses.fields(GmmModel)]
    assert sorted(attrs) == sorted(set(fields) - {"feature_spec"} | {"k"})
    assert len(set(keys)) == len(keys) == len(attrs)
    doc = json.loads(model_to_json(_small_model()))
    assert list(doc) == ["version", "feature_spec", *keys]


@pytest.mark.parametrize("edit, words", [
    ({"epsilon": 0.7}, "epsilon must lie in (0, 0.5), got 0.7"),
    ({"feat_std": np.zeros(2)}, "GmmModel field 'feat_std' must be positive"),
    ({"feat_std": np.array([0.25, math.nan])}, "GmmModel field 'feat_std' must be positive"),
    ({"weights": np.array([0.0])},
     "GmmModel field 'weights' must be non-negative with a positive entry"),
    ({"n_train": 1}, "GmmModel field 'n_train' must be at least 2, got 1"),
    ({"means": np.zeros((1, 3))},
     "GmmModel field 'means' has shape (1, 3), not (1, 2) (K = 1, d = 2)"),
    ({"feature_spec": FeatureSetSpec(["avg", "mor", "eds"])},
     "GmmModel field 'feat_mean' has shape (2,), not (3,) (K = 1, d = 3)"),
], ids=["epsilon-0.7", "feat-std-zeros", "feat-std-nan", "weights-zero",
        "n-train-1", "means-wide", "three-strategies"])
def test_model_built_in_python_keeps_the_model_file_rules(edit, words):
    # without these rules, epsilon 0.7 scores [0.5, 0.5] at 1.8421 and a zero
    # feat_std scores it NaN
    model = _small_model()
    assert model.k == 1
    with pytest.raises(InvalidParam, match=f"^{re.escape(words)}$"):
        dataclasses.replace(model, **edit)


def test_model_json_names_its_first_bad_field_in_file_order():
    doc = json.loads(model_to_json(_small_model()))
    doc["K"] = "two"
    doc["epsilon"] = True
    with pytest.raises(ParseError, match="field 'epsilon' holds True"):
        model_from_json(json.dumps(doc))
    doc["epsilon"] = 1e-3
    with pytest.raises(ParseError, match="field 'K' holds 'two'"):
        model_from_json(json.dumps(doc))


def test_epsilon_rescale_validation(tmp_path):
    # a model file is where an epsilon enters from outside: it is refused on load
    doc = json.loads(model_to_json(_small_model()))
    path = tmp_path / "model.json"
    for epsilon in (0.7, -3.0, 0.0, 0.5):
        doc["epsilon"] = epsilon
        path.write_text(json.dumps(doc), encoding="ascii")
        words = re.escape(f"epsilon must lie in (0, 0.5), got {epsilon!r}")
        with pytest.raises(InvalidParam, match=f"^{words}$"):
            model_from_json(path.read_text(encoding="ascii"))
        with pytest.raises(InvalidParam, match=f"^{words}$"):
            load_model(path)


def test_model_json_parse_errors():
    model = _small_model()
    doc = json.loads(model_to_json(model))
    with pytest.raises(ParseError):
        model_from_json("not json at all {")
    broken = dict(doc)
    del broken["pi"]
    with pytest.raises(ParseError):
        model_from_json(json.dumps(broken))
    badshape = json.loads(model_to_json(model))
    badshape["mu"] = [[0.0]]  # K x d disagrees with pi/sigma
    with pytest.raises(ParseError):
        model_from_json(json.dumps(badshape))
    badver = json.loads(model_to_json(model))
    badver["version"] = "99"
    with pytest.raises(ParseError):
        model_from_json(json.dumps(badver))
