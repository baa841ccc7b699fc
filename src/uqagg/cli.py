"""Command-line front end.

Subcommands: aggregate (maps -> score table), gmm-fit / gmm-score (mixture
meta-aggregator), eval (scores -> bootstrapped metrics), rank (mean ranks and
paired significance across datasets), synth (generate benchmark data).

Exit codes: 0 success, 2 usage errors, 3 missing or unreadable files,
4 invalid data (malformed formats, failed validation).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import evaluation, io, meta, synth
from .core import MapPass, SegmentationMask, validate_map
from .errors import (
    MaskRequired,
    MissingColumn,
    MissingFile,
    NoForeground,
    ParseError,
    UqaggError,
)
from .evaluation import DEFAULT_BOOTSTRAP
from .meta import (
    DEFAULT_EPSILON,
    DEFAULT_K_MAX,
    DEFAULT_MAX_ITER,
    DEFAULT_RESTARTS,
    DEFAULT_RIDGE,
    DEFAULT_TOL,
    FeatureSetSpec,
)
from .strategies import parse_strategy_list

_EXIT_IO = 3
_EXIT_DATA = 4


class _CliFailure(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uqagg",
        description="Aggregate segmentation uncertainty maps into scalar scores "
        "and evaluate them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    fmt = argparse.ArgumentDefaultsHelpFormatter

    p = sub.add_parser(
        "aggregate", formatter_class=fmt,
        help="score every map in a manifest with a list of strategies",
    )
    p.add_argument("--manifest", required=True, help="sample manifest CSV")
    p.add_argument(
        "--strategies", required=True,
        help="comma-separated identifiers, e.g. avg,plm:20,ata:0.5,mor,"
        "gmm:model.json",
    )
    p.add_argument("--out", required=True, help="output score table CSV")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker threads; output is identical for any value")
    p.set_defaults(func=_cmd_aggregate)

    p = sub.add_parser(
        "gmm-fit", formatter_class=fmt,
        help="fit the mixture meta-aggregator on reference feature vectors",
    )
    p.add_argument("--features", required=True, help="score table CSV to fit on")
    p.add_argument("--variant", default="all", choices=["all", "int", "spa", "custom"],
                   help="feature set: 16 defaults, 13 intensity, 3 spatial, or custom")
    p.add_argument("--strategies", default=None,
                   help="comma-separated identifiers (required for --variant custom)")
    p.add_argument("--k-max", type=int, default=DEFAULT_K_MAX,
                   help="largest component count tried by BIC selection")
    p.add_argument("--seed", type=int, default=0, help="fit seed")
    p.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON,
                   help="edge-shrink rescale amount")
    p.add_argument("--restarts", type=int, default=DEFAULT_RESTARTS,
                   help="EM restarts per component count")
    p.add_argument("--max-iter", type=int, default=DEFAULT_MAX_ITER,
                   help="EM iteration cap")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL,
                   help="EM relative log-likelihood convergence tolerance")
    p.add_argument("--ridge", type=float, default=DEFAULT_RIDGE,
                   help="diagonal loading added to every covariance")
    p.add_argument("--out", required=True, help="output model JSON")
    p.set_defaults(func=_cmd_gmm_fit)

    p = sub.add_parser(
        "gmm-score", formatter_class=fmt,
        help="append the model's negative log-likelihood column to a score table",
    )
    p.add_argument("--model", required=True, help="model JSON from gmm-fit")
    p.add_argument("--features", required=True, help="score table CSV to score")
    p.add_argument("--out", required=True, help="output score table CSV")
    p.set_defaults(func=_cmd_gmm_score)

    p = sub.add_parser(
        "eval", formatter_class=fmt,
        help="bootstrap a separation or failure-detection metric per strategy",
    )
    p.add_argument("--scores", required=True, help="score table CSV")
    p.add_argument("--manifest", required=True,
                   help="manifest CSV carrying ood_label / risk")
    p.add_argument("--task", required=True, choices=["ood", "fd"],
                   help="ood: AUROC of scores; fd: excess AURC of -score confidence")
    p.add_argument("--bootstrap", type=int, default=DEFAULT_BOOTSTRAP,
                   help="bootstrap resample count")
    p.add_argument("--seed", type=int, default=0, help="bootstrap seed")
    p.add_argument("--dataset", default=None,
                   help="dataset label in the summary (default: manifest stem)")
    p.add_argument("--out-prefix", required=True,
                   help="writes <prefix>.summary.csv and <prefix>.samples.csv")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser(
        "rank", formatter_class=fmt,
        help="mean ranks and paired Wilcoxon p-values across datasets",
    )
    p.add_argument("--inputs", required=True, nargs="+",
                   help="per-dataset samples CSVs from eval")
    p.add_argument("--metric", required=True, choices=["auroc", "eaurc"],
                   help="metric the inputs hold (sets the ranking direction)")
    p.add_argument("--alpha", type=float, default=0.05,
                   help="significance level for the printed pair list")
    p.add_argument("--out-prefix", required=True,
                   help="writes <prefix>.ranks.csv and <prefix>.pvalues.csv")
    p.set_defaults(func=_cmd_rank)

    p = sub.add_parser(
        "synth", formatter_class=fmt,
        help="generate a synthetic benchmark (maps, manifest, optional masks)",
    )
    p.add_argument("--out-dir", required=True, help="output directory")
    p.add_argument("--spec", default=None,
                   help="benchmark spec JSON; omit for the matched-mean "
                   "blob-vs-noise preset")
    p.add_argument("--n-iid", type=int, default=50,
                   help="in-distribution sample count (preset only)")
    p.add_argument("--n-ood", type=int, default=50,
                   help="perturbed sample count (preset only)")
    p.add_argument("--size", type=int, nargs=2, default=[64, 64],
                   metavar=("ROWS", "COLS"), help="map size (preset only)")
    p.add_argument("--seed", type=int, default=0, help="generation seed")
    p.add_argument("--with-masks", action="store_true",
                   help="also write pattern-geometry masks (preset only)")
    p.set_defaults(func=_cmd_synth)

    return parser


# ---------------------------------------------------------------------------
# aggregate


def _sample_failure(row: io.ManifestRow, path: str, exc: UqaggError) -> _CliFailure:
    """The error of one sample's file, naming the sample and the file."""
    code = _EXIT_IO if isinstance(exc, MissingFile) else _EXIT_DATA
    return _CliFailure(code, f"sample {row.sample_id!r} ({path}): {exc}")


def _load_map(manifest: io.Manifest, row: io.ManifestRow):
    path = manifest.resolve(row.map_path)
    try:
        return validate_map(io.read_npy(path))
    except UqaggError as exc:
        raise _sample_failure(row, path, exc) from None


def _load_mask(manifest: io.Manifest, row: io.ManifestRow):
    if row.mask_path is None:
        return None
    path = manifest.resolve(row.mask_path)
    try:
        return SegmentationMask(io.read_npy(path))
    except UqaggError as exc:
        raise _sample_failure(row, path, exc) from None


def _cmd_aggregate(args) -> int:
    strategies = parse_strategy_list(args.strategies)
    manifest = io.read_manifest(args.manifest)
    if not manifest.rows:
        raise _CliFailure(_EXIT_DATA, f"{args.manifest}: manifest has no samples")
    needy = [s.key for s in strategies if s.requires_mask]
    if needy:
        for row in manifest.rows:
            if row.mask_path is None:
                raise MaskRequired(
                    f"sample {row.sample_id!r}: strategies {needy} need masks "
                    "but the manifest has no mask_path for it"
                )

    def score_row(row: io.ManifestRow):
        p = MapPass(_load_map(manifest, row), _load_mask(manifest, row))
        values = np.empty(len(strategies))
        notes = []
        for j, strat in enumerate(strategies):
            try:
                values[j] = strat(p)
            except NoForeground as exc:
                values[j] = math.nan
                notes.append(f"sample {row.sample_id!r}, strategy {strat.key!r}: {exc}")
            except UqaggError as exc:
                raise _CliFailure(
                    _EXIT_DATA,
                    f"sample {row.sample_id!r}, strategy {strat.key!r}: {exc}",
                )
        return values, notes

    jobs = max(1, args.jobs)
    if jobs == 1:
        results = [score_row(row) for row in manifest.rows]
    else:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(score_row, manifest.rows))

    warning_count = 0
    for _, notes in results:
        for note in notes:
            warning_count += 1
            print(f"warning: {note}", file=sys.stderr)
    matrix = np.vstack([values for values, _ in results])
    io.write_scores(
        args.out,
        [row.sample_id for row in manifest.rows],
        [s.key for s in strategies],
        matrix,
    )
    print(
        f"aggregated {len(manifest.rows)} samples x {len(strategies)} strategies, "
        f"{warning_count} warnings",
        file=sys.stderr,
    )
    return 0


# ---------------------------------------------------------------------------
# gmm commands


def _spec_from_args(args) -> FeatureSetSpec:
    if args.variant == "all":
        return FeatureSetSpec.all()
    if args.variant == "int":
        return FeatureSetSpec.intensity_only()
    if args.variant == "spa":
        return FeatureSetSpec.spatial_only()
    if not args.strategies:
        raise _CliFailure(_EXIT_DATA, "--variant custom needs --strategies")
    keys = [s.key for s in parse_strategy_list(args.strategies)]
    return FeatureSetSpec.custom(keys)


def _complete_rows(ids, names, matrix, wanted, note) -> tuple[np.ndarray, np.ndarray]:
    """The ``wanted`` columns of a score table and the mask of its complete rows.

    A row is complete when none of its wanted cells is empty; each other row
    gets one warning that ends with ``note``.
    """
    missing = [w for w in wanted if w not in names]
    if missing:
        raise MissingColumn(f"score table lacks strategy columns {missing}")
    sub = matrix[:, [names.index(w) for w in wanted]]
    keep = ~np.isnan(sub).any(axis=1)
    for sid, ok in zip(ids, keep):
        if not ok:
            print(
                f"warning: sample {sid!r} has an empty cell in a used column; "
                f"{note}",
                file=sys.stderr,
            )
    return sub, keep


def _cmd_gmm_fit(args) -> int:
    spec = _spec_from_args(args)
    ids, names, matrix = io.read_scores(args.features)
    x, keep = _complete_rows(ids, names, matrix, spec.strategies, "skipping it")
    if not keep.any():
        raise _CliFailure(_EXIT_DATA, "no complete feature rows to fit on")
    model = meta.fit_meta(
        x[keep],
        spec,
        k_max=args.k_max,
        seed=args.seed,
        epsilon=args.epsilon,
        restarts=args.restarts,
        max_iter=args.max_iter,
        tol=args.tol,
        ridge=args.ridge,
    )
    meta.save_model(model, args.out)
    print(
        f"fitted {spec.variant} ({len(spec.strategies)} features) on "
        f"{model.n_train} samples: K={model.k} bic={io._fmt_float(model.bic)} "
        f"loglik={io._fmt_float(model.loglik)}"
    )
    return 0


def _cmd_gmm_score(args) -> int:
    model = meta.load_model(args.model)
    ids, names, matrix = io.read_scores(args.features)
    column = f"gmm:{model.feature_spec.variant}"
    if column in names:
        raise _CliFailure(_EXIT_DATA, f"score table already has a {column!r} column")
    x, keep = _complete_rows(
        ids, names, matrix, model.feature_spec.strategies, "leaving its NLL empty"
    )
    nll = np.full(len(ids), math.nan)
    if keep.any():
        nll[keep] = meta.meta_score_matrix(model, x[keep])
    io.write_scores(args.out, ids, names + [column], np.column_stack([matrix, nll]))
    return 0


# ---------------------------------------------------------------------------
# eval and rank


def _cmd_eval(args) -> int:
    ids, names, matrix = io.read_scores(args.scores)
    if not names:
        raise _CliFailure(_EXIT_DATA, f"{args.scores}: no strategy columns")
    manifest = io.read_manifest(args.manifest, check_files=False)
    by_id = {row.sample_id: row for row in manifest.rows}
    for sid in ids:
        if sid not in by_id:
            raise _CliFailure(
                _EXIT_DATA, f"sample {sid!r} is scored but missing from the manifest"
            )
    metric, field = ("auroc", "ood_label") if args.task == "ood" else ("eaurc", "risk")

    x, keep = _complete_rows(ids, names, matrix, names, "skipping it")
    kept = [by_id[sid] for sid, ok in zip(ids, keep) if ok]
    if not kept:
        raise _CliFailure(_EXIT_DATA, "no complete score rows to evaluate")
    for row in kept:
        if getattr(row, field) is None:
            raise _CliFailure(
                _EXIT_DATA,
                f"sample {row.sample_id!r}: task {args.task} needs {field} "
                "in the manifest",
            )
    target = np.array([getattr(row, field) for row in kept])

    table = evaluation.bootstrap_table(
        x[keep].T, target, metric, b=args.bootstrap, seed=args.seed
    )
    dataset = args.dataset or os.path.splitext(os.path.basename(args.manifest))[0]

    with open(f"{args.out_prefix}.summary.csv", "w", encoding="utf-8",
              newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["strategy", "dataset", "metric", "mean", "std"])
        for j, name in enumerate(names):
            # Mean and std of a contiguous copy: a strided or 2-D reduction
            # can sum in a different order.
            samples = table[:, j].copy()
            writer.writerow([
                name, dataset, metric,
                io._fmt_float(samples.mean()), io._fmt_float(samples.std()),
            ])
    with open(f"{args.out_prefix}.samples.csv", "w", encoding="utf-8",
              newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        for row in table:
            writer.writerow([io._fmt_float(v) for v in row])
    print(
        f"evaluated {metric} for {len(names)} strategies on {len(kept)} samples "
        f"({args.bootstrap} bootstrap resamples)",
        file=sys.stderr,
    )
    return 0


def _read_samples_csv(path) -> dict[str, np.ndarray]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise MissingColumn(f"{path}: empty samples table") from None
        rows = []
        for i, rec in enumerate(reader, start=2):
            if len(rec) != len(header):
                raise ParseError(
                    f"{path} row {i}: expected {len(header)} cells, got {len(rec)}"
                )
            try:
                rows.append([float(c) for c in rec])
            except ValueError as exc:
                raise ParseError(f"{path} row {i}: {exc}") from None
    if not rows:
        raise ParseError(f"{path}: no sample rows")
    matrix = np.array(rows)
    return {name: matrix[:, j] for j, name in enumerate(header)}


def _cmd_rank(args) -> int:
    direction = "higher" if args.metric == "auroc" else "lower"
    datasets: dict[str, str] = {}
    for path in args.inputs:
        dataset = os.path.splitext(os.path.basename(path))[0]
        if dataset in datasets:
            raise _CliFailure(
                _EXIT_DATA,
                f"{datasets[dataset]} and {path} share the dataset name "
                f"{dataset!r}; rename one of them",
            )
        datasets[dataset] = path
    tables = {}
    pooled: dict[str, list[np.ndarray]] = {}
    for dataset, path in datasets.items():
        samples = _read_samples_csv(path)
        tables[dataset] = {name: float(v.mean()) for name, v in samples.items()}
        for name, v in samples.items():
            pooled.setdefault(name, []).append(v)

    ranks = evaluation.mean_rank(tables, direction)
    merged = {name: np.concatenate(chunks) for name, chunks in pooled.items()}
    names, pvals = evaluation.significance_matrix(merged, direction)

    with open(f"{args.out_prefix}.ranks.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["strategy", "mean_rank"])
        for name in sorted(ranks, key=lambda n: (ranks[n], n)):
            writer.writerow([name, io._fmt_float(ranks[name])])
    with open(f"{args.out_prefix}.pvalues.csv", "w", encoding="utf-8",
              newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["strategy", *names])
        for i, name in enumerate(names):
            writer.writerow([name, *(io._fmt_float(p) for p in pvals[i])])

    for i, a in enumerate(names):
        for j, b in enumerate(names):
            if i != j and pvals[i, j] < args.alpha:
                print(f"{a} beats {b} (p={pvals[i, j]:.4g})")
    return 0


# ---------------------------------------------------------------------------
# synth


def _preset(size: tuple[int, int]) -> dict:
    """Matched-mean blob-vs-noise benchmark, geometry scaled to the map size."""
    radius = 0.1875 * min(size)
    return {
        "iid": {
            "pattern": "noise",
            "params": {"mean": 0.3, "amp": 0.12, "mean_jitter": 0.02},
        },
        "ood": {
            "pattern": "blob",
            "params": {
                "inside": 0.85,
                "inside_jitter": 0.05,
                "radius": radius,
                "radius_jitter": radius / 6.0,
                "outside": 0.25,
            },
        },
        "match_means": True,
    }


def _benchmark_from_spec(doc, args) -> tuple[list[synth.Benchmark], bool]:
    def spec_of(entry, seed):
        return synth.SynthSpec(
            entry["pattern"], tuple(doc.get("size", [64, 64])),
            entry.get("params", {}), seed,
        )

    seed = int(doc.get("seed", 0))
    with_masks = bool(doc.get("with_masks", False))
    benches = synth.gen_benchmark(
        int(doc.get("n_iid", 50)),
        int(doc.get("n_ood", 50)),
        spec_of(doc["iid"], seed),
        spec_of(doc["ood"], seed),
        perturb_ladder=doc.get("ladder"),
        seed=seed,
        match_means=bool(doc.get("match_means", False)),
        with_masks=with_masks,
        risk_slope=float(doc.get("risk_slope", 0.6)),
        risk_noise=float(doc.get("risk_noise", 0.05)),
    )
    return benches, with_masks


def _cmd_synth(args) -> int:
    if args.spec is not None:
        with open(args.spec, "r", encoding="utf-8") as fh:
            try:
                doc = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ParseError(f"{args.spec}: {exc}") from None
        if "iid" not in doc or "ood" not in doc:
            raise _CliFailure(
                _EXIT_DATA, f"{args.spec}: spec needs 'iid' and 'ood' entries"
            )
    else:
        doc = _preset(tuple(args.size))
        doc.update(
            {
                "n_iid": args.n_iid,
                "n_ood": args.n_ood,
                "size": list(args.size),
                "seed": args.seed,
                "with_masks": args.with_masks,
            }
        )
    benches, with_masks = _benchmark_from_spec(doc, args)

    os.makedirs(args.out_dir, exist_ok=True)
    multi = len(benches) > 1
    for t, bench in enumerate(benches):
        sub = f"step{t:02d}" if multi else ""
        map_dir = os.path.join(args.out_dir, sub, "maps")
        os.makedirs(map_dir, exist_ok=True)
        if with_masks:
            os.makedirs(os.path.join(args.out_dir, sub, "masks"), exist_ok=True)
        rows = []
        for sample in bench.samples:
            rel_map = os.path.join(sub, "maps", f"{sample.sample_id}.npy")
            io.write_npy(os.path.join(args.out_dir, rel_map), sample.map.values)
            rel_mask = None
            if sample.mask is not None:
                rel_mask = os.path.join(sub, "masks", f"{sample.sample_id}.npy")
                io.write_npy(os.path.join(args.out_dir, rel_mask), sample.mask.labels)
            rows.append(
                io.ManifestRow(
                    sample_id=sample.sample_id,
                    map_path=rel_map,
                    mask_path=rel_mask,
                    ood_label=sample.ood_label,
                    risk=sample.risk,
                )
            )
        name = f"manifest_step{t:02d}.csv" if multi else "manifest.csv"
        io.write_manifest(os.path.join(args.out_dir, name), rows)
        print(
            f"wrote {len(rows)} samples to {os.path.join(args.out_dir, name)} "
            f"(intensity {bench.intensity:g})",
            file=sys.stderr,
        )
    return 0


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _CliFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (MissingFile, FileNotFoundError, PermissionError, IsADirectoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_IO
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_IO
    except UqaggError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_DATA


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
