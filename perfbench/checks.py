"""Checks of the pipeline's outputs, computed apart from uqagg.

Nothing here imports uqagg. Maps and masks are read with ``numpy.load``,
tables with ``csv``, and every expected value comes from a computation of its
own: the 16 default strategies from their definitions, the mixture
log-density from the model JSON, full-sample AUROC by pairwise comparison
and mean ranks by counting. The full-sample E-AURC follows the program's own
curve convention (see ``full_eaurc``). Each check returns a list of problem
strings; an empty list means the output passed.
"""

from __future__ import annotations

import csv
import json
import math
import os
import statistics

import numpy as np

BANK = (
    "avg", "plm:10", "plm:20", "plm:50", "ata:0.3", "ata:0.5", "ata:0.7",
    "aqa:0.6", "aqa:0.75", "aqa:0.9", "bca", "ica", "qfr", "mor", "eds", "ent",
)
EDGE_TAU = 0.2
ENTROPY_BINS = 4
# Agreement asked of a reference value: the two sides sum in different orders.
REL_TOL = 1e-9
# Bootstrap standard deviations allowed between a bootstrap mean and the
# full-sample metric.
BOOT_Z = 4.0
# Chance that the avg check fails on a correct mean-matched population.
NULL_ALPHA = 2e-5


# ---------------------------------------------------------------------------
# files


def read_table(path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def read_manifest(path) -> list[dict]:
    base = os.path.dirname(path)
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        row["map_file"] = os.path.join(base, row["map_path"])
        row["mask_file"] = os.path.join(base, row["mask_path"]) if row["mask_path"] else None
    return rows


def read_scores(path) -> tuple[list[str], list[str], np.ndarray]:
    header, rows = read_table(path)
    values = np.array([[float(c) if c else math.nan for c in r[1:]] for r in rows])
    return [r[0] for r in rows], header[1:], values.reshape(len(rows), len(header) - 1)


# ---------------------------------------------------------------------------
# the 16 strategies from their definitions


def _top_mean(u: np.ndarray, k: int) -> float:
    desc = np.sort(u, axis=None)[::-1]
    return float(np.cumsum(desc)[k - 1] / k)


def _top_count(x: float, total: int) -> int:
    # ceil with the documented 1e-9 snap, so (1 - 0.6) * 10 gives 4, not 5.
    return min(max(math.ceil(x - 1e-9), 1), total)


def best_patch_mean(u: np.ndarray, p: int) -> float:
    sat = np.zeros((u.shape[0] + 1, u.shape[1] + 1))
    sat[1:, 1:] = u.cumsum(axis=0).cumsum(axis=1)
    sums = sat[p:, p:] - sat[:-p, p:] - sat[p:, :-p] + sat[:-p, :-p]
    return float(sums.max() / (p * p))


def _views(u: np.ndarray, pad: int) -> list[np.ndarray]:
    """The nine 3x3-window neighbours of every pixel of an edge-padded grid."""
    p = np.pad(u, pad, mode="edge")
    m, n = p.shape[0] - 2, p.shape[1] - 2
    return [p[r:r + m, c:c + n] for r in range(3) for c in range(3)]


def moran_weights(u: np.ndarray) -> np.ndarray:
    v = _views(u, 1)
    mean = sum(v) / 9.0
    z = [x - mean for x in v]
    denom = sum(x * x for x in z)
    num = np.zeros_like(u)
    pairs = 0
    for a in range(9):
        for b in range(a + 1, 9):
            if max(abs(a // 3 - b // 3), abs(a % 3 - b % 3)) == 1:
                num += 2.0 * z[a] * z[b]
                pairs += 2
    constant = np.maximum.reduce(v) == np.minimum.reduce(v)
    with np.errstate(divide="ignore", invalid="ignore"):
        moran = 9.0 / pairs * num / denom
    moran = np.where(constant | (denom <= 0.0), 1.0, moran)
    return np.clip(moran, 0.0, 1.0)


def edge_weights(u: np.ndarray, tau: float) -> np.ndarray:
    v = _views(u, 2)
    # Sobel over the ring-2 padding; 1/4 scaling gives a unit step magnitude 1.
    gx = (v[2] + 2.0 * v[5] + v[8] - v[0] - 2.0 * v[3] - v[6]) / 4.0
    gy = (v[6] + 2.0 * v[7] + v[8] - v[0] - 2.0 * v[1] - v[2]) / 4.0
    edges = (np.hypot(gx, gy) > tau).astype(np.float64)
    m, n = u.shape
    return sum(edges[r:r + m, c:c + n] for r in range(3) for c in range(3)) / 9.0


def entropy_weights(u: np.ndarray, bins: int) -> np.ndarray:
    v = _views(u, 1)
    idx = [np.minimum(np.floor(x * bins), bins - 1) for x in v]
    ent = np.zeros_like(u)
    for b in range(bins):
        prob = sum((i == b).astype(np.float64) for i in idx) / 9.0
        with np.errstate(divide="ignore", invalid="ignore"):
            ent -= np.where(prob > 0.0, prob * np.log(prob), 0.0)
    return np.clip(ent / math.log(bins), 0.0, 1.0)


def strategy_value(key: str, u: np.ndarray, mask: np.ndarray) -> float:
    name, _, arg = key.partition(":")
    fg = mask != 0
    if name == "avg":
        return float(u.mean())
    if name == "plm":
        return best_patch_mean(u, int(arg))
    if name == "ata":
        above = u[u > float(arg)]
        return float(above.mean()) if above.size else 0.0
    if name == "aqa":
        return _top_mean(u, _top_count((1.0 - float(arg)) * u.size, u.size))
    if name == "bca":
        return float(np.mean([u[mask == c].mean() for c in np.unique(mask[fg])]))
    if name == "ica":
        return float(u[fg].mean())
    if name == "qfr":
        return _top_mean(u, int(fg.sum()))
    weights = {
        "mor": moran_weights,
        "eds": lambda x: edge_weights(x, EDGE_TAU),
        "ent": lambda x: entropy_weights(x, ENTROPY_BINS),
    }[name](u)
    return float((u * weights).sum() / u.sum())


def check_strategies(manifest_rows, scores_path, row_ids) -> list[str]:
    """Reference values of all 16 strategies on the named rows, and ranges."""
    problems = []
    ids, names, values = read_scores(scores_path)
    if ids != [r["sample_id"] for r in manifest_rows]:
        return [f"{scores_path}: rows differ from the manifest"]
    if [n for n in names if n in BANK] != list(BANK):
        return [f"{scores_path}: columns {names} lack the default bank"]
    cols = [names.index(k) for k in BANK]
    bank = values[:, cols]
    if not np.isfinite(bank).all():
        problems.append(f"{scores_path}: {int((~np.isfinite(bank)).sum())} empty cells")
    elif bank.min() < 0.0 or bank.max() > 1.0:
        problems.append(f"{scores_path}: scores outside [0, 1]")
    by_id = {r["sample_id"]: r for r in manifest_rows}
    for sid in row_ids:
        row = by_id[sid]
        u = np.load(row["map_file"], allow_pickle=False)
        mask = np.load(row["mask_file"], allow_pickle=False)
        for key, got in zip(BANK, bank[ids.index(sid)]):
            want = strategy_value(key, u, mask)
            if not abs(got - want) <= REL_TOL * max(1.0, abs(want)):
                problems.append(
                    f"{scores_path}: {sid} {key} = {float(got)!r}, reference {want!r}")
    return problems


# ---------------------------------------------------------------------------
# mixture


def mixture_nll(model: dict, x: np.ndarray) -> np.ndarray:
    """Negative log-likelihood of raw feature rows under a model JSON document."""
    eps = model["epsilon"]
    z = ((1.0 - 2.0 * eps) * (x - 0.5) + 0.5 - np.array(model["feat_mean"])) / np.array(
        model["feat_std"])
    d = z.shape[1]
    logs = []
    for pi, mu, sigma in zip(model["pi"], model["mu"], model["sigma"]):
        if pi <= 0.0:
            continue
        lam, vec = np.linalg.eigh(np.array(sigma))
        proj = (z - np.array(mu)) @ vec
        maha = (proj * proj / lam).sum(axis=1)
        logs.append(math.log(pi) - 0.5 * (d * math.log(2.0 * math.pi) + np.log(lam).sum() + maha))
    logs = np.array(logs)
    top = logs.max(axis=0)
    return -(top + np.log(np.exp(logs - top).sum(axis=0)))


def check_gmm(model_path, scores_gmm_path, labels) -> list[str]:
    """The gmm column against the model's own density; its AUROC above 0.5."""
    with open(model_path, encoding="ascii") as fh:
        model = json.load(fh)
    ids, names, values = read_scores(scores_gmm_path)
    column = f"gmm:{model['feature_spec']['variant']}"
    if names[-1] != column:
        return [f"{scores_gmm_path}: last column is {names[-1]!r}, not {column!r}"]
    feats = values[:, [names.index(s) for s in model["feature_spec"]["strategies"]]]
    want = mixture_nll(model, feats)
    got = values[:, -1]
    problems = []
    bad = ~(np.abs(got - want) <= 1e-6 * np.maximum(1.0, np.abs(want)))
    if bad.any():
        i = int(np.argmax(bad))
        problems.append(
            f"{scores_gmm_path}: {int(bad.sum())} gmm cells disagree with the model "
            f"density, first {ids[i]} {float(got[i])!r} vs {float(want[i])!r}")
    a = full_auroc(got, labels)
    if not a > 0.5:
        problems.append(f"{scores_gmm_path}: gmm AUROC {a} is not above 0.5")
    return problems


# ---------------------------------------------------------------------------
# evaluation


def full_auroc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Share of (positive, negative) pairs ordered correctly, ties worth 0.5."""
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    diff = pos[:, None] - neg[None, :]
    return float(((diff > 0).sum() + 0.5 * (diff == 0).sum()) / diff.size)


def _aurc(risks: np.ndarray, conf: np.ndarray) -> float:
    # One working point per distinct confidence t: keep samples with conf >= t.
    thresholds = np.unique(conf)
    kept = conf[None, :] >= thresholds[:, None]
    coverage = kept.mean(axis=1)
    risk = (kept * risks[None, :]).sum(axis=1) / kept.sum(axis=1)
    return float(((coverage[:-1] - coverage[1:]) * 0.5 * (risk[:-1] + risk[1:])).sum())


def full_eaurc(risks: np.ndarray, conf: np.ndarray) -> float:
    """E-AURC under the program's convention, not the textbook curve.

    Like ``evaluation.aurc`` it integrates trapezoids between working points
    and stops at the most confident one, without the segment down to
    coverage 0, and clamps float noise above -1e-12 to 0. So it shares the
    program's under-count when many samples tie at the top confidence (a
    FOUND line in CHANGES.md): the bootstrap check below cannot detect that
    fault, and a fix of it will fail the check until this reference follows.
    """
    value = _aurc(risks, conf) - _aurc(risks, -risks)
    return 0.0 if -1e-12 < value < 0.0 else value


def check_eval(prefix, scores_gmm_path, manifest_rows, task, b) -> list[str]:
    """Samples and summary of one eval call against full-sample metrics."""
    problems = []
    ids, names, values = read_scores(scores_gmm_path)
    by_id = {r["sample_id"]: r for r in manifest_rows}
    labels = np.array([int(by_id[s]["ood_label"]) for s in ids])
    risks = np.array([float(by_id[s]["risk"]) for s in ids])
    header, rows = read_table(f"{prefix}.samples.csv")
    samples = np.array([[float(c) for c in r] for r in rows])
    if header != names or samples.shape != (b, len(names)):
        return [f"{prefix}.samples.csv: shape {samples.shape}, header {header}"]
    if task == "ood" and not ((samples >= 0.0) & (samples <= 1.0)).all():
        problems.append(f"{prefix}.samples.csv: AUROC samples outside [0, 1]")
    # E-AURC samples are not required to be >= 0: evaluation.eaurc documents
    # negative values under tied confidences, and every bootstrap resample
    # repeats samples (see README.md, "Checks").
    _, summary = read_table(f"{prefix}.summary.csv")
    for j, (name, row) in enumerate(zip(names, summary)):
        col = samples[:, j]
        mean, std = float(row[3]), float(row[4])
        if row[0] != name or not (abs(mean - col.mean()) <= 1e-12 and
                                  abs(std - col.std()) <= 1e-12):
            problems.append(f"{prefix}.summary.csv: row {row} disagrees with the samples")
        full = (full_auroc(values[:, j], labels) if task == "ood"
                else full_eaurc(risks, -values[:, j]))
        if not abs(mean - full) <= BOOT_Z * std + 1e-12:
            problems.append(f"{prefix}: {name} bootstrap mean {mean:.6g} is "
                            f"{abs(mean - full) / max(std, 1e-300):.1f} std from the "
                            f"full-sample value {full:.6g}")
    return problems


def check_null_avg(scores_path, manifest_rows) -> list[str]:
    """On a mean-matched population the global mean cannot separate.

    The band is where the AUROC of two samples from one distribution falls
    with probability 1 - NULL_ALPHA: 0.5 plus or minus z standard errors,
    from the normal approximation of the Mann-Whitney U.
    """
    ids, names, values = read_scores(scores_path)
    by_id = {r["sample_id"]: r for r in manifest_rows}
    labels = np.array([int(by_id[s]["ood_label"]) for s in ids])
    n_pos, n_neg = int(labels.sum()), int((labels == 0).sum())
    a = full_auroc(values[:, names.index("avg")], labels)
    z = statistics.NormalDist().inv_cdf(1.0 - NULL_ALPHA / 2.0)
    half = z * math.sqrt((n_pos + n_neg + 1) / (12.0 * n_pos * n_neg))
    if not abs(a - 0.5) < half:
        return [f"{scores_path}: avg AUROC {a:.4f} falls outside 0.5 +- {half:.4f}, "
                f"which holds with probability 1 - {NULL_ALPHA:g} on a mean-matched population"]
    return []


def average_ranks(values: np.ndarray, higher_better: bool) -> np.ndarray:
    """Rank 1 is best; tied values share the mean of their ranks."""
    keyed = -values if higher_better else values
    better = (keyed[None, :] < keyed[:, None]).sum(axis=1)
    tied = (keyed[None, :] == keyed[:, None]).sum(axis=1)
    return better + (tied + 1) / 2.0


def check_rank(prefix, samples_path, higher_better) -> list[str]:
    """Mean ranks from the dataset's sample means; p-values in [0, 1]."""
    problems = []
    header, rows = read_table(samples_path)
    means = np.array([[float(c) for c in r] for r in rows]).mean(axis=0)
    want = dict(zip(header, average_ranks(means, higher_better)))
    _, rows = read_table(f"{prefix}.ranks.csv")
    got = {r[0]: float(r[1]) for r in rows}
    if got.keys() != want.keys():
        problems.append(f"{prefix}.ranks.csv: strategies {sorted(got)}")
    else:
        for name, w in want.items():
            if abs(got[name] - w) > 1e-9:
                problems.append(f"{prefix}.ranks.csv: {name} mean rank {got[name]!r}, "
                                f"expected {w!r}")
    header, rows = read_table(f"{prefix}.pvalues.csv")
    p = np.array([[float(c) for c in r[1:]] for r in rows])
    if header[1:] != [r[0] for r in rows] or sorted(header[1:]) != sorted(want):
        problems.append(f"{prefix}.pvalues.csv: labels do not match the strategies")
    elif not ((p >= 0.0) & (p <= 1.0)).all() or not (np.diag(p) == 1.0).all():
        problems.append(f"{prefix}.pvalues.csv: p-values outside [0, 1] or diagonal not 1")
    return problems


def check_synth(manifest_rows, n_iid, n_ood, size) -> list[str]:
    labels = [r["ood_label"] for r in manifest_rows]
    if labels.count("0") != n_iid or labels.count("1") != n_ood:
        return [f"manifest has {labels.count('0')} + {labels.count('1')} rows, "
                f"expected {n_iid} + {n_ood}"]
    problems = []
    for r in manifest_rows[:: max(1, len(manifest_rows) // 8)]:
        u = np.load(r["map_file"], allow_pickle=False)
        mask = np.load(r["mask_file"], allow_pickle=False)
        if u.shape != (size, size) or mask.shape != u.shape:
            problems.append(f"{r['map_file']}: shape {u.shape}, mask {mask.shape}")
        elif not (np.isfinite(u).all() and u.min() >= 0.0 and u.max() <= 1.0):
            problems.append(f"{r['map_file']}: values outside [0, 1]")
        elif not (mask != 0).any():
            problems.append(f"{r['mask_file']}: no foreground")
    return problems
