import json
import math
import warnings

import numpy as np
import pytest

from uqagg import (
    FeatureMatrix,
    FeatureSetSpec,
    GmmModel,
    bic,
    compute_features,
    em_fit,
    epsilon_rescale,
    fit_meta,
    load_model,
    meta_score,
    meta_score_matrix,
    model_from_json,
    model_to_json,
    parse_strategy_list,
    save_model,
    standardize_apply,
    standardize_fit,
)
from uqagg.errors import (
    DuplicateStrategy,
    EmptyFeatureSet,
    FeatureMismatch,
    InvalidEpsilon,
    InvalidParam,
    NonFinite,
    OutOfRange,
    ParseError,
    SingularCovariance,
    TooFewSamples,
    UnknownStrategy,
)
from uqagg.meta import VARIANTS, _log_components

LOG_2PI = math.log(2.0 * math.pi)


# ---------------------------------------------------------------------------
# preprocessing


def test_epsilon_rescale_fixed_points():
    out = epsilon_rescale(np.array([0.0, 0.5, 1.0]), 1e-3)
    np.testing.assert_allclose(out, [1e-3, 0.5, 1.0 - 1e-3], atol=1e-15)


def test_epsilon_rescale_is_affine_and_shrinks():
    rng = np.random.default_rng(0)
    x = rng.random(100)
    out = epsilon_rescale(x, 0.01)
    np.testing.assert_allclose(out, 0.98 * (x - 0.5) + 0.5, atol=1e-15)
    assert out.min() >= 0.01 - 1e-15 and out.max() <= 0.99 + 1e-15


def test_epsilon_rescale_validation():
    with pytest.raises(InvalidEpsilon):
        epsilon_rescale([0.5], 0.0)
    with pytest.raises(InvalidEpsilon):
        epsilon_rescale([0.5], 0.5)
    with pytest.raises(OutOfRange):
        epsilon_rescale([1.5], 0.01)
    with pytest.raises(NonFinite):
        epsilon_rescale([math.nan], 0.01)


def test_standardize_population_moments():
    x = np.array([[1.0, 10.0], [3.0, 10.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        mean, std = standardize_fit(x)
    np.testing.assert_allclose(mean, [2.0, 10.0])
    # population (divisor n) std of {1, 3} is 1; constant column snaps to 1
    np.testing.assert_allclose(std, [1.0, 1.0])
    z = standardize_apply(x, mean, std)
    np.testing.assert_allclose(z, [[-1.0, 0.0], [1.0, 0.0]])


def test_standardize_warns_on_constant_column():
    with pytest.warns(RuntimeWarning):
        standardize_fit(np.array([[1.0, 5.0], [2.0, 5.0]]))


def test_standardize_needs_two_samples():
    with pytest.raises(TooFewSamples):
        standardize_fit(np.array([[1.0, 2.0]]))


# ---------------------------------------------------------------------------
# EM at fixed K


def test_em_k1_closed_form():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(200, 3)) * [1.0, 2.0, 0.5] + [0.0, 5.0, -2.0]
    ridge = 1e-6
    res = em_fit(x, 1, seed=0, restarts=1, ridge=ridge)
    mu = x.mean(axis=0)
    diff = x - mu
    sigma = diff.T @ diff / len(x) + ridge * np.eye(3)
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
    # more restarts can only match or improve the kept log-likelihood
    worse = em_fit(x, 2, seed=42, restarts=1)
    assert a.loglik >= worse.loglik - 1e-9


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
    spec = FeatureSetSpec.custom(["avg", "mor", "eds", "ent"])
    assert fit_meta(x, spec, k_max=5, seed=3).k == 3


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
    spec = FeatureSetSpec.custom(["avg", "mor"])
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
    model = fit_meta(x, FeatureSetSpec.custom(["avg", "mor", "ent"]), k_max=4, seed=0)
    assert model.k == 1


def test_fit_meta_accepts_feature_matrix_any_column_order():
    rng = np.random.default_rng(17)
    x = rng.random((60, 2))
    spec = FeatureSetSpec.custom(["avg", "mor"])
    direct = fit_meta(x, spec, k_max=2, seed=3)
    swapped = FeatureMatrix(("mor", "avg"), x[:, ::-1])
    via_matrix = fit_meta(swapped, spec, k_max=2, seed=3)
    np.testing.assert_array_equal(direct.means, via_matrix.means)
    assert direct.bic == via_matrix.bic


# ---------------------------------------------------------------------------
# scoring


def _unit_model(epsilon=0.25):
    # one standard-normal component; feat_std chosen so x=1.0 lands at z=3
    return GmmModel(
        feature_spec=FeatureSetSpec.custom(["avg"]),
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
    assert meta_score(model, np.array([0.5])) == pytest.approx(
        0.5 * LOG_2PI, rel=1e-12
    )
    assert meta_score(model, np.array([1.0])) == pytest.approx(
        0.5 * LOG_2PI + 4.5, rel=1e-12
    )


def test_meta_score_name_matching_ignores_order():
    rng = np.random.default_rng(19)
    x = np.clip(rng.random((40, 2)), 0, 1)
    model = fit_meta(x, FeatureSetSpec.custom(["avg", "mor"]), k_max=2, seed=0)
    row = FeatureMatrix(("mor", "avg"), np.array([[0.7, 0.2]]))
    direct = meta_score(model, np.array([0.2, 0.7]))
    assert meta_score_matrix(model, row)[0] == pytest.approx(direct, rel=1e-15)
    with pytest.raises(FeatureMismatch):
        meta_score_matrix(model, FeatureMatrix(("avg", "ent"), np.array([[0.2, 0.7]])))


def test_meta_score_matrix_matches_rowwise():
    rng = np.random.default_rng(23)
    x = np.clip(rng.random((50, 2)), 0, 1)
    model = fit_meta(x, FeatureSetSpec.custom(["avg", "mor"]), k_max=3, seed=1)
    queries = np.clip(rng.random((7, 2)), 0, 1)
    batch = meta_score_matrix(model, queries)
    singles = [meta_score(model, q) for q in queries]
    np.testing.assert_allclose(batch, singles, rtol=1e-14)


def test_meta_score_mixture_weights_enter_likelihood():
    # two far-apart unit components: near one of them the density is half a
    # standard normal, so the NLL gains exactly ln 2
    model = GmmModel(
        feature_spec=FeatureSetSpec.custom(["avg"]),
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
    assert meta_score(model, np.array([0.5])) == pytest.approx(
        0.5 * LOG_2PI + math.log(2.0), rel=1e-12
    )


# ---------------------------------------------------------------------------
# feature-set specs


def test_feature_set_spec_variants():
    assert len(FeatureSetSpec.all().strategies) == 16
    assert len(FeatureSetSpec("int", VARIANTS["int"]).strategies) == 13
    assert FeatureSetSpec.spatial_only().strategies == ("mor", "eds", "ent")
    with pytest.raises(UnknownStrategy):
        FeatureSetSpec.custom(["avg", "nope"])
    with pytest.raises(InvalidParam):
        FeatureSetSpec.custom(["gmm:model.json"])  # no nesting
    with pytest.raises(EmptyFeatureSet):
        FeatureSetSpec.custom([])


def test_feature_set_spec_stores_canonical_keys():
    spec = FeatureSetSpec.custom(["eds:0.2", "avg"])
    assert spec.strategies == ("eds", "avg")
    assert FeatureSetSpec.custom("ent:4, ata:.50").strategies == ("ent", "ata:0.5")
    # The spec's keys are the column names compute_features writes.
    rng = np.random.default_rng(29)
    maps = [rng.random((16, 16)) for _ in range(12)]
    feats = compute_features(maps, parse_strategy_list("avg,eds"))
    model = fit_meta(feats, spec, k_max=2, seed=0)
    assert model.feature_spec.strategies == ("eds", "avg")
    np.testing.assert_array_equal(
        meta_score_matrix(model, feats),
        meta_score_matrix(model, np.ascontiguousarray(feats.values[:, ::-1])))


def test_feature_set_spec_refuses_a_key_twice():
    with pytest.raises(DuplicateStrategy):
        FeatureSetSpec.custom(["avg", "avg"])
    with pytest.raises(DuplicateStrategy):
        FeatureSetSpec.custom(["eds", "eds:0.2"])  # one canonical key


# ---------------------------------------------------------------------------
# serialization


def _small_model(seed=0):
    rng = np.random.default_rng(seed)
    x = np.clip(rng.random((40, 2)), 0, 1)
    return fit_meta(x, FeatureSetSpec.custom(["avg", "mor"]), k_max=2, seed=seed)


def test_model_json_round_trip_is_byte_stable():
    model = _small_model()
    text = model_to_json(model)
    again = model_to_json(model_from_json(text))
    assert text == again
    assert text.endswith("\n")


def test_model_json_restores_scores_exactly():
    model = _small_model(3)
    clone = model_from_json(model_to_json(model))
    q = np.array([0.3, 0.6])
    assert meta_score(clone, q) == meta_score(model, q)


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
