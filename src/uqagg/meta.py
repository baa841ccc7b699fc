"""Mixture-model meta-aggregation of feature vectors.

A bank of aggregation strategies turns each uncertainty map into a feature
vector in [0, 1]^d. This module fits a full-covariance Gaussian mixture to the
feature vectors of a reference (in-distribution) population and scores new
samples by negative log-likelihood: the farther a feature vector falls from
the reference density, the larger the score.

Preprocessing is part of the model: features are first pulled away from the
interval edges by an affine epsilon-rescale, then standardized with the
population mean and standard deviation recorded at fit time. The number of
components is selected by BIC over K = 1..K_max. Fitting is deterministic
given (data, seed, K_max, EM parameters).

A feature matrix is a plain ``(n, d)`` array whose column j holds the
feature set's key j; the CLI matches score-table columns to keys by name.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    FeatureMismatch,
    InvalidParam,
    NonFinite,
    OutOfRange,
    ParseError,
    SingularCovariance,
    TooFewSamples,
    UqaggError,
)
from .io import _fmt_float, read_json
from .rng import stream
from .strategies import FULL_SET, INTENSITY_SET, SPATIAL_SET, parse_strategy_list

DEFAULT_EPSILON = 1e-3
DEFAULT_K_MAX = 10
DEFAULT_RESTARTS = 5
DEFAULT_MAX_ITER = 500
DEFAULT_TOL = 1e-6
DEFAULT_RIDGE = 1e-6

# Slack for the per-iteration monotonicity check of the EM log-likelihood.
_MONOTONE_SLACK = 1e-8

_MODEL_VERSION = "1"
_LANE_RESTART = 11

# The named feature sets of the meta-aggregator; any other set is "custom".
VARIANTS = {"all": FULL_SET, "int": INTENSITY_SET, "spa": SPATIAL_SET}


@dataclass(frozen=True)
class FeatureSetSpec:
    """Selection of strategy identifiers, named by its keys.

    ``strategies`` is anything :func:`~uqagg.strategies.parse_strategy_list`
    takes, a comma-separated string or a sequence of identifiers, and is
    stored as the tuple of their canonical keys in the given order
    (``eds:0.2`` becomes ``eds``). A key listed twice raises
    DuplicateStrategy, and an empty list UnknownStrategy.
    """

    strategies: tuple[str, ...]

    def __post_init__(self):
        keys = tuple(s.key for s in parse_strategy_list(self.strategies))
        object.__setattr__(self, "strategies", keys)

    @property
    def variant(self) -> str:
        """The ``VARIANTS`` name whose set the keys are, in any order, else
        ``"custom"``."""
        keys = set(self.strategies)
        return next((name for name, named in VARIANTS.items() if set(named) == keys),
                    "custom")


def epsilon_rescale(values, epsilon: float = DEFAULT_EPSILON) -> np.ndarray:
    """Shrink [0, 1] features into [epsilon, 1 - epsilon].

    Applies f -> (1 - 2*epsilon) * (f - 0.5) + 0.5 so boundary values cannot
    pin a mixture component onto a degenerate edge.
    """
    if not (0.0 < epsilon < 0.5):
        raise InvalidParam(f"epsilon must lie in (0, 0.5), got {epsilon!r}")
    arr = np.asarray(values, dtype=np.float64)
    if not np.isfinite(arr).all():
        raise NonFinite("features contain NaN or infinity")
    if arr.size and (arr.min() < 0.0 or arr.max() > 1.0):
        raise OutOfRange("features must lie in [0, 1] before rescaling")
    return (1.0 - 2.0 * epsilon) * (arr - 0.5) + 0.5


def standardize_fit(values) -> tuple[np.ndarray, np.ndarray]:
    """Column means and population standard deviations (divisor n).

    Zero-variance columns get standard deviation 1 so they pass through
    unscaled; a degenerate-feature warning is emitted for them.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 2:
        raise FeatureMismatch(f"expected a 2-D matrix, got ndim={arr.ndim}")
    if arr.shape[0] < 2:
        raise TooFewSamples(f"standardization needs n >= 2, got {arr.shape[0]}")
    mean = arr.mean(axis=0)
    std = arr.std(axis=0)
    degenerate = std == 0.0
    if degenerate.any():
        warnings.warn(
            f"{int(degenerate.sum())} feature column(s) are constant; "
            "leaving them unscaled",
            RuntimeWarning,
            stacklevel=2,
        )
        std = np.where(degenerate, 1.0, std)
    return mean, std


def standardize_apply(values, mean, std) -> np.ndarray:
    return (np.asarray(values, dtype=np.float64) - mean) / std


@dataclass(frozen=True, eq=False)
class EmResult:
    """Parameters and diagnostics of one EM fit at fixed K."""

    weights: np.ndarray        # (K,)
    means: np.ndarray          # (K, d)
    covariances: np.ndarray    # (K, d, d)
    loglik: float              # total log-likelihood of the training data
    history: tuple[float, ...] # per-iteration log-likelihood, non-decreasing
    n_iter: int
    converged: bool


def _log_components(x, weights, means, covs) -> np.ndarray:
    """``log(weight) + log N(x | mean, cov)`` per row and component, ``(n, K)``.

    All components of positive weight go through one stacked Cholesky
    factorization; each factor is inverted once, and one stacked matmul
    whitens the differences. A zero-weight component gets a -inf column and
    its stale covariance is never factored.
    """
    n, d = x.shape
    logp = np.full((n, len(weights)), -np.inf)
    live = np.flatnonzero(weights > 0.0)
    try:
        chol = np.linalg.cholesky(covs[live])
    except np.linalg.LinAlgError:
        raise SingularCovariance("covariance not positive definite") from None
    logdet = 2.0 * np.log(np.diagonal(chol, axis1=1, axis2=2)).sum(axis=1)
    # Column i of white[j] is L_j^-1 (x_i - mean_j), so its squared norm is
    # the Mahalanobis distance under cov_j = L_j L_j^T.
    white = np.linalg.inv(chol) @ (x.T[None] - means[live][:, :, None])
    maha = (white * white).sum(axis=1)
    logp[:, live] = (np.log(weights[live])[:, None] - 0.5 * (
        d * math.log(2.0 * math.pi) + logdet[:, None] + maha)).T
    return logp


def _logsumexp_rows(logp: np.ndarray) -> np.ndarray:
    m = logp.max(axis=1, keepdims=True)
    return (m + np.log(np.exp(logp - m).sum(axis=1, keepdims=True)))[:, 0]


def _kmeanspp_means(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = x.shape[0]
    chosen = [int(rng.integers(n))]
    d2 = np.inf
    for _ in range(1, k):
        # squared distance to the nearest centre: only the newest one can
        # lower the running minimum
        d2 = np.minimum(d2, ((x - x[chosen[-1]]) ** 2).sum(axis=1))
        total = d2.sum()
        if total <= 0.0:
            chosen.append(int(rng.integers(n)))
            continue
        r = rng.random() * total
        chosen.append(int(np.searchsorted(np.cumsum(d2), r)))
    return x[chosen].copy()


def _em_once(x, k, rng, max_iter, tol) -> EmResult:
    n, d = x.shape
    load = DEFAULT_RIDGE * np.eye(d)  # diagonal load of every covariance
    base_cov = np.cov(x, rowvar=False, ddof=0).reshape(d, d) + load
    means = _kmeanspp_means(x, k, rng)
    covs = np.repeat(base_cov[None, :, :], k, axis=0)
    weights = np.full(k, 1.0 / k)

    history: list[float] = []
    prev = None
    converged = False
    snapshot = (weights.copy(), means.copy(), covs.copy())

    def decreased(ll):
        return history and ll < history[-1] - _MONOTONE_SLACK * max(
            1.0, abs(history[-1])
        )

    # max_iter M-steps, each after an E-step, then one last E-step that only
    # scores the final parameters.
    for it in range(max_iter + 1):
        logp = _log_components(x, weights, means, covs)
        lse = _logsumexp_rows(logp)
        ll = float(lse.sum())
        if decreased(ll):
            # The diagonal loading makes the M-step inexact, so a collapsed
            # component can push the log-likelihood down. Keep the peak.
            weights, means, covs = snapshot
            ll = history[-1]
            break
        history.append(ll)
        if it == max_iter:
            break
        if prev is not None and abs(ll - prev) < tol * max(1.0, abs(ll)):
            converged = True
            break
        prev = ll

        snapshot = (weights.copy(), means.copy(), covs.copy())
        resp = np.exp(logp - lse[:, None])
        nk = resp.sum(axis=0)
        weights = nk / n
        # Components that captured no mass keep their previous parameters;
        # with zero weight they no longer influence the likelihood.
        for j in range(k):
            if nk[j] <= 1e-12:
                continue
            mu = resp[:, j] @ x / nk[j]
            diff = x - mu
            cov = (resp[:, j, None] * diff).T @ diff / nk[j] + load
            means[j] = mu
            covs[j] = cov

    return EmResult(weights, means, covs, ll, tuple(history), len(history), converged)


def em_fit(values, k: int, *, seed: int = 0, max_iter: int = DEFAULT_MAX_ITER,
           tol: float = DEFAULT_TOL) -> EmResult:
    """Fit a K-component full-covariance Gaussian mixture by EM.

    Runs ``DEFAULT_RESTARTS`` independent fits seeded from (seed, restart
    index) with k-means++-style initial means and returns the one with the
    highest final log-likelihood (earliest restart wins ties). Every
    covariance carries a ``DEFAULT_RIDGE`` diagonal load. The per-iteration
    log-likelihood is checked to be non-decreasing up to a small slack.
    """
    x = np.asarray(values, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] < 1:
        raise FeatureMismatch(f"expected an (n, d) matrix, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise NonFinite("training data contains NaN or infinity")
    if not isinstance(k, (int, np.integer)) or k < 1:
        raise InvalidParam(f"component count must be a positive integer, got {k!r}")
    if x.shape[0] < k:
        raise TooFewSamples(f"{x.shape[0]} samples cannot support K={k}")
    if max_iter < 1:
        raise InvalidParam(f"max_iter must be at least 1, got {max_iter!r}")
    if not tol > 0.0:  # NaN fails too
        raise InvalidParam(f"tol must be positive, got {tol!r}")

    best = None
    for r in range(DEFAULT_RESTARTS):
        result = _em_once(x, k, stream(seed, _LANE_RESTART, r), max_iter, tol)
        if best is None or result.loglik > best.loglik:
            best = result
    return best


def bic(loglik: float, k: int, d: int, n: int) -> float:
    """Bayesian information criterion: p*ln(n) - 2*loglik.

    p counts free parameters of a K-component full-covariance mixture over d
    dimensions: (K - 1) mixing weights, K*d means, K*d*(d+1)/2 covariances.
    """
    if k < 1 or d < 1 or n < 1:
        raise InvalidParam("bic needs k >= 1, d >= 1, n >= 1")
    p = (k - 1) + k * d + k * (d * (d + 1)) // 2
    return p * math.log(n) - 2.0 * loglik


@dataclass(frozen=True, eq=False)
class GmmModel:
    """Fitted mixture plus the preprocessing recorded at fit time."""

    feature_spec: FeatureSetSpec
    epsilon: float
    feat_mean: np.ndarray      # (d,)
    feat_std: np.ndarray       # (d,)
    weights: np.ndarray        # (K,)
    means: np.ndarray          # (K, d)
    covariances: np.ndarray    # (K, d, d)
    seed: int
    n_train: int
    bic: float
    loglik: float

    @property
    def k(self) -> int:
        return len(self.weights)

    @property
    def d(self) -> int:
        return len(self.feat_mean)


def fit_meta(features, spec: FeatureSetSpec, *, k_max: int = DEFAULT_K_MAX,
             seed: int = 0, max_iter: int = DEFAULT_MAX_ITER,
             tol: float = DEFAULT_TOL) -> GmmModel:
    """Fit the meta-aggregator on reference feature vectors.

    ``features`` is an (n, d) array in the order of ``spec.strategies``, with
    values in [0, 1], which are rescaled with ``DEFAULT_EPSILON``. Candidate
    mixtures with K = 1..K_max components are fitted and the lowest BIC wins
    (smallest K on ties).
    """
    x = _match_matrix(features, spec)
    if x.shape[0] < 2:
        raise TooFewSamples(f"need at least 2 training samples, got {x.shape[0]}")
    if k_max < 1:
        raise InvalidParam(f"k_max must be >= 1, got {k_max}")

    rescaled = epsilon_rescale(x, DEFAULT_EPSILON)
    mean, std = standardize_fit(rescaled)
    z = standardize_apply(rescaled, mean, std)

    n, d = z.shape
    best = None
    for k in range(1, min(k_max, n) + 1):
        result = em_fit(z, k, seed=seed, max_iter=max_iter, tol=tol)
        score = bic(result.loglik, k, d, n)
        if best is None or score < best[0]:
            best = (score, result)
    score, result = best
    return GmmModel(
        feature_spec=spec,
        epsilon=DEFAULT_EPSILON,
        feat_mean=mean,
        feat_std=std,
        weights=result.weights,
        means=result.means,
        covariances=result.covariances,
        seed=int(seed),
        n_train=int(n),
        bic=float(score),
        loglik=float(result.loglik),
    )


def _match_matrix(features, spec: FeatureSetSpec) -> np.ndarray:
    arr = np.asarray(features, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != len(spec.strategies):
        raise FeatureMismatch(
            f"expected shape (n, {len(spec.strategies)}), got {arr.shape}"
        )
    # A reduction over a Fortran-ordered or strided array can sum in another
    # order than over a C-ordered copy, so every caller gets the same bits.
    return np.ascontiguousarray(arr)


def meta_score_matrix(model: GmmModel, features) -> np.ndarray:
    """Negative log-likelihood of each row of an (n, d) feature array, in the
    order of the model's keys, under the model. Higher scores mean farther
    from the reference population.
    """
    x = _match_matrix(features, model.feature_spec)
    z = _apply_preproc(model, x)
    logp = _log_components(z, model.weights, model.means, model.covariances)
    return -_logsumexp_rows(logp)


def _apply_preproc(model: GmmModel, x: np.ndarray) -> np.ndarray:
    rescaled = epsilon_rescale(x, model.epsilon)
    return standardize_apply(rescaled, model.feat_mean, model.feat_std)


# ---------------------------------------------------------------------------
# serialization: JSON with floats at 17 significant digits, so byte-for-byte
# round trips hold for save -> load -> save


def _emit(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        if not math.isfinite(value):
            raise NonFinite("model fields must be finite for serialization")
        return _fmt_float(value)
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_emit(v) for v in value) + "]"
    if isinstance(value, np.ndarray):
        return _emit(value.tolist())
    if isinstance(value, dict):
        return (
            "{"
            + ", ".join(f"{json.dumps(str(k))}: {_emit(v)}" for k, v in value.items())
            + "}"
        )
    raise TypeError(f"cannot serialize {type(value).__name__}")


# The model file's fields after "feature_spec", in file order: (JSON key,
# GmmModel attribute, _json_field kind). "K" is GmmModel.k, the weights' count.
_MODEL_FIELDS = (
    ("epsilon", "epsilon", float), ("feat_mean", "feat_mean", np.ndarray),
    ("feat_std", "feat_std", np.ndarray), ("K", "k", int),
    ("pi", "weights", np.ndarray), ("mu", "means", np.ndarray),
    ("sigma", "covariances", np.ndarray), ("seed", "seed", int),
    ("n_train", "n_train", int), ("bic", "bic", float), ("loglik", "loglik", float),
)


def model_to_json(model: GmmModel) -> str:
    doc = {
        "version": _MODEL_VERSION,
        "feature_spec": {
            "variant": model.feature_spec.variant,
            "strategies": list(model.feature_spec.strategies),
        },
    }
    doc.update((key, getattr(model, attr)) for key, attr, _ in _MODEL_FIELDS)
    return _emit(doc) + "\n"


def save_model(model: GmmModel, path) -> None:
    text = model_to_json(model)
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write(text)


def model_from_json(text: str) -> GmmModel:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"model JSON is malformed: {exc}") from None
    return _model_from_doc(doc)


def _json_field(doc: dict, field: str, kind):
    """``doc[field]`` as ``kind``: int for a JSON integer, float for any finite
    JSON number, np.ndarray (float64) for nested lists of finite JSON numbers.
    A boolean is no number, and a fit writes no NaN or infinity."""
    value = doc[field]
    items = np.asarray(value, dtype=object).ravel() if kind is np.ndarray else [value]
    allowed = int if kind is int else (int, float)
    bad = [v for v in items if isinstance(v, bool) or not isinstance(v, allowed)]
    if bad:
        raise ParseError(f"model JSON field {field!r} holds {bad[0]!r}, not a JSON "
                         f"{'integer' if kind is int else 'number'}")
    if kind is int:
        return value
    value = np.asarray(value, dtype=np.float64)
    if not np.isfinite(value).all():
        raise ParseError(f"model JSON field {field!r} holds a non-finite value")
    return value if kind is np.ndarray else float(value)


def _model_from_doc(doc) -> GmmModel:
    if not isinstance(doc, dict):
        raise ParseError("model JSON must be an object")
    if doc.get("version") != _MODEL_VERSION:
        raise ParseError(f"unsupported model version {doc.get('version')!r}")
    try:
        stored = doc["feature_spec"]["variant"]
        spec = FeatureSetSpec(tuple(doc["feature_spec"]["strategies"]))
        fields = {attr: _json_field(doc, key, kind)
                  for key, attr, kind in _MODEL_FIELDS}
        k = fields.pop("k")
        model = GmmModel(feature_spec=spec, **fields)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"model JSON is missing or mistypes a field: {exc}") from None
    except ParseError:  # a field that holds no JSON number where one belongs
        raise
    except UqaggError as exc:  # a strategy key FeatureSetSpec refuses
        raise type(exc)(f"model JSON field 'feature_spec': {exc}") from None
    if model.n_train < 2:  # fit_meta needs two samples
        raise ParseError(f"model JSON field 'n_train' must be at least 2, got "
                         f"{model.n_train}")
    if stored != spec.variant:
        raise ParseError(
            f"model JSON field 'feature_spec': variant {stored!r}, but its "
            f"strategies are named {spec.variant!r}"
        )
    d = model.d
    if model.means.shape != (k, d) or model.covariances.shape != (k, d, d) or (
        model.weights.shape != (k,) or model.feat_std.shape != (d,)
    ):
        raise ParseError("model JSON has inconsistent array shapes")
    # Refuse what a fit never writes: its standard deviations are positive
    # (standardize_fit gives a constant column 1) and its mixing weights
    # non-negative and not all zero.
    if (model.feat_std <= 0.0).any():
        raise ParseError("model JSON field 'feat_std' must be positive")
    if (model.weights < 0.0).any() or not (model.weights > 0.0).any():
        raise ParseError("model JSON field 'pi' must be non-negative with a "
                         "positive entry")
    return model


def load_model(path) -> GmmModel:
    return _model_from_doc(read_json(path, encoding="ascii"))
