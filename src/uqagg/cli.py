"""Command-line front end.

Subcommands: aggregate (maps -> score table), gmm-fit / gmm-score (mixture
meta-aggregator), eval (scores -> bootstrapped metrics), rank (mean ranks and
paired significance across datasets), synth (generate benchmark data).

Every failure is one ``error:`` line on stderr. The exit code is 2 for a
usage error (argparse), the ``exit_code`` of the error's class for a
:class:`~uqagg.errors.UqaggError` (3 for a missing file, 4 for malformed or
invalid data) and 3 for any other operating-system failure: a file that
cannot be read or written, or an ``aggregate`` worker process that died.
Every warning is one ``warning:`` line on stderr.
"""

from __future__ import annotations

import argparse
import math
import multiprocessing
import os
import sys
import warnings

import numpy as np

from . import evaluation, io, meta, synth
from .core import MapPass, as_mask, validate_map
from .errors import (
    DuplicateColumn,
    DuplicateId,
    EmptyInput,
    InvalidParam,
    InvalidSpec,
    MaskRequired,
    MissingColumn,
    MissingFile,
    OutOfRange,
    UqaggError,
)
from .evaluation import DEFAULT_BOOTSTRAP
from .meta import DEFAULT_K_MAX, DEFAULT_MAX_ITER, DEFAULT_TOL, FeatureSetSpec
from .strategies import parse_strategy_list, score_map


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
        help="comma-separated identifiers, e.g. avg,plm:20,ata:0.5,mor",
    )
    p.add_argument("--out", required=True, help="output score table CSV")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes (fork), at most one per allowed CPU, "
                   "each pinned to its own CPU and pulling pieces of the "
                   "manifest from a shared cursor; output is identical for "
                   "any value")
    p.set_defaults(func=_cmd_aggregate)

    p = sub.add_parser(
        "gmm-fit", formatter_class=fmt,
        help="fit the mixture meta-aggregator on reference feature vectors",
    )
    p.add_argument("--features", required=True, help="score table CSV to fit on")
    # --variant defaults to absent, so one given with --strategies is seen
    # and refused; with neither, the feature set is all.
    p.add_argument("--variant", default=argparse.SUPPRESS, choices=meta.VARIANTS,
                   help="named feature set: " + ", ".join(
                       f"{name} ({len(keys)} strategies)"
                       for name, keys in meta.VARIANTS.items())
                   + "; default all, unless --strategies is given")
    p.add_argument("--strategies", default=None,
                   help="comma-separated identifiers, instead of --variant")
    p.add_argument("--k-max", type=int, default=DEFAULT_K_MAX,
                   help="largest component count tried by BIC selection")
    p.add_argument("--seed", type=int, default=0, help="fit seed")
    p.add_argument("--max-iter", type=int, default=DEFAULT_MAX_ITER,
                   help="EM iteration cap")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL,
                   help="EM relative log-likelihood convergence tolerance")
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
                   help="benchmark spec JSON, which sets every value itself "
                   "(the preset-only options are refused with it); omit for the "
                   "matched-mean blob-vs-noise preset")
    # The preset-only options default to absent, so one given with --spec is
    # seen and refused; _preset fills in the defaults of _SPEC_KEYS.
    absent = argparse.SUPPRESS
    p.add_argument("--n-iid", type=int, default=absent,
                   help="in-distribution sample count (preset only; default "
                   f"{_SPEC_KEYS['n_iid'][1]})")
    p.add_argument("--n-ood", type=int, default=absent,
                   help=f"perturbed sample count (preset only; default "
                   f"{_SPEC_KEYS['n_ood'][1]})")
    p.add_argument("--size", type=int, nargs=2, default=absent,
                   metavar=("ROWS", "COLS"), help="map size (preset only; default "
                   f"{' '.join(map(str, _SPEC_KEYS['size'][1]))})")
    p.add_argument("--seed", type=int, default=absent,
                   help=f"generation seed (preset only; default "
                   f"{_SPEC_KEYS['seed'][1]})")
    p.add_argument("--with-masks", action="store_true", default=absent,
                   help="also write pattern-geometry masks (preset only)")
    p.set_defaults(func=_cmd_synth)

    return parser


# ---------------------------------------------------------------------------
# aggregate


def _load(manifest: io.Manifest, row: io.ManifestRow, rel: str, make):
    """``make`` applied to the array in one of a sample's files, which it owns
    (``owned=True``): no one else holds the array ``io.read_npy`` returns. An
    error is re-raised as the same type behind ``sample '<id>' (<path>): ``."""
    path = manifest.resolve(rel)
    try:
        return make(io.read_npy(path), owned=True)
    except UqaggError as exc:
        raise type(exc)(f"sample {row.sample_id!r} ({path}): {exc}") from None


def _cmd_aggregate(args) -> int:
    if args.jobs < 1:
        raise InvalidParam(f"--jobs must be at least 1, got {args.jobs}")
    if args.jobs > 1 and "fork" not in multiprocessing.get_all_start_methods():
        raise InvalidParam(
            f"--jobs {args.jobs} needs the 'fork' start method, which this "
            "platform lacks; use --jobs 1"
        )
    strategies = parse_strategy_list(args.strategies)
    manifest = io.read_manifest(args.manifest)
    if not manifest.rows:
        raise EmptyInput(f"{args.manifest}: manifest has no samples")
    needy = [s.key for s in strategies if s.requires_mask]
    if needy:
        for row in manifest.rows:
            if row.mask_path is None:
                raise MaskRequired(
                    f"sample {row.sample_id!r}: strategies {needy} need masks "
                    "but the manifest has no mask_path for it"
                )

    def score_slice(rows: list) -> tuple[np.ndarray, list[str]]:
        """The score block of consecutive manifest rows and their notes."""
        block = np.empty((len(rows), len(strategies)))
        notes = []
        for i, row in enumerate(rows):
            u = _load(manifest, row, row.map_path, validate_map)
            mask = _load(manifest, row, row.mask_path, as_mask) if needy else None
            try:
                block[i], row_notes = score_map(MapPass(u, mask), strategies)
            except UqaggError as exc:
                raise type(exc)(f"sample {row.sample_id!r}, {exc}") from None
            notes += [f"sample {row.sample_id!r}, {note}" for note in row_notes]
        return block, notes

    blocks = _in_slices(score_slice, manifest.rows, args.jobs)
    notes = [note for _, slice_notes in blocks for note in slice_notes]
    for note in notes:
        print(f"warning: {note}", file=sys.stderr)
    io.write_scores(
        args.out,
        [row.sample_id for row in manifest.rows],
        [s.key for s in strategies],
        np.vstack([block for block, _ in blocks]),
    )
    print(
        f"aggregated {len(manifest.rows)} samples x {len(strategies)} strategies, "
        f"{len(notes)} warnings",
        file=sys.stderr,
    )
    return 0


def _in_slices(work, items: list, jobs: int) -> list:
    """``work`` of contiguous pieces of ``items``: one result per piece, in
    item order.

    The workers are this process and ``n - 1`` forked children, where ``n``
    is ``min(jobs, len(items))`` capped at the CPUs this process may run on;
    with ``n == 1`` ``work(items)`` runs here, alone. This process pins each
    child and then itself to a CPU of its own, where the platform allows, and
    restores its own CPU set before it returns. Every worker claims the next
    ``ceil(remaining / (2 n))`` items from one shared cursor until none are
    left, so pieces shrink as the work runs out and a slow worker takes fewer.

    A child prints nothing: it sends back, once, each of its pieces' result
    or first error and the warnings it showed. After an error no worker
    claims a new piece, and since claims only move forward, every piece
    before the failing one still finishes. The warnings are shown in piece
    order up to the first error, which is raised: the error one pass over
    ``items`` would meet first. No child outlives the call: each is joined,
    and on any failure terminated first.
    """
    # The CPUs this process may run on; os.cpu_count() of them where the
    # platform cannot say which.
    own = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
    cpus = sorted(own) if own else list(range(os.cpu_count() or 1))
    n = min(jobs, len(items), len(cpus))
    if n == 1:
        return [work(items)]
    # fork, not spawn: a spawned child imports numpy and uqagg again, which
    # takes longer than scoring a hundred 64x64 maps. A forked child calls no
    # BLAS routine, so no thread pool numpy inherited from this process runs.
    ctx = multiprocessing.get_context("fork")
    cursor = ctx.Value("q", 0)   # the first item no worker has claimed
    pin = getattr(os, "sched_setaffinity", None)
    # A child flushes its copy of these buffers when it exits.
    sys.stdout.flush()
    sys.stderr.flush()
    children = []
    try:
        for cpu in cpus[1:n]:
            recv, send = ctx.Pipe(duplex=False)
            child = ctx.Process(target=_work_in_child,
                                args=(work, items, cursor, n, send))
            child.start()
            send.close()
            children.append((child, recv))
            # Pinned by this process: a child that pinned itself would first
            # wait for a turn on this process's CPU.
            _pin(pin, child.pid, {cpu})
        _pin(pin, 0, {cpus[0]})
        pieces = _work_pieces(work, items, cursor, n)
        for child, recv in children:
            try:
                pieces += recv.recv()
            except EOFError:
                child.join()
                raise ChildProcessError(
                    f"a worker process exited with code {child.exitcode} "
                    "before it sent its scores"
                ) from None
    except BaseException:
        for child, _ in children:
            child.terminate()
        raise
    finally:
        for child, recv in children:
            recv.close()
            child.join()
        _pin(pin, 0, own)
    results = []
    for _, ok, payload, shown in sorted(pieces, key=lambda piece: piece[0]):
        for message in shown:
            warnings.showwarning(*message)
        if not ok:
            raise payload
        results.append(payload)
    return results


def _pin(pin, pid: int, cpus) -> None:
    """Best effort: ``pin(pid, cpus)`` where the platform has ``pin`` and
    allows the call. Where a process stays unpinned it is only slower."""
    if pin is not None:
        try:
            pin(pid, cpus)
        except OSError:
            pass


def _work_pieces(work, items: list, cursor, n: int) -> list:
    """The pieces one worker of :func:`_in_slices` claims from ``cursor`` and
    works: ``(start, ok, result or error, warnings shown)`` each."""
    done = []
    while True:
        with cursor.get_lock():
            start = cursor.value
            stop = start + -(-(len(items) - start) // (2 * n))
            cursor.value = stop
        if start == stop:
            return done
        with warnings.catch_warnings(record=True) as shown:
            try:
                reply = (True, work(items[start:stop]))
            except BaseException as exc:  # every error travels back as data
                reply = (False, exc)
        done.append((start, *reply, [(w.message, w.category, w.filename, w.lineno)
                                     for w in shown]))
        if not reply[0]:
            with cursor.get_lock():
                cursor.value = len(items)   # no worker claims another piece
            return done


def _work_in_child(work, items: list, cursor, n: int, conn) -> None:
    """Body of a worker process of :func:`_in_slices`: sends its pieces once
    and writes to no stream."""
    pieces = _work_pieces(work, items, cursor, n)
    try:
        conn.send(pieces)
    except Exception:  # unpicklable: the parent reports the exit code
        os._exit(1)


# ---------------------------------------------------------------------------
# gmm commands


def _spec_from_args(args) -> FeatureSetSpec:
    variant = getattr(args, "variant", None)
    if args.strategies is None:
        return FeatureSetSpec(meta.VARIANTS[variant or "all"])
    if variant is not None:
        raise InvalidParam(
            f"--variant {variant} and --strategies both name a feature set; "
            "give one of them"
        )
    return FeatureSetSpec(args.strategies)


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


def _mixture_features(ids, names, matrix, wanted, note
                      ) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_complete_rows` for a mixture's features.

    A complete row with a cell outside [0, 1], which ``meta.epsilon_rescale``
    refuses, fails here first with the first such cell's sample and column.
    """
    x, keep = _complete_rows(ids, names, matrix, wanted, note)
    outside = keep[:, None] & ((x < 0.0) | (x > 1.0))
    if outside.any():
        i, j = np.argwhere(outside)[0]
        raise OutOfRange(
            f"sample {ids[i]!r}, column {wanted[j]!r}: feature {float(x[i, j])!r} "
            "must lie in [0, 1] before rescaling"
        )
    return x, keep


def _cmd_gmm_fit(args) -> int:
    spec = _spec_from_args(args)
    ids, names, matrix = io.read_scores(args.features)
    x, keep = _mixture_features(ids, names, matrix, spec.strategies, "skipping it")
    if not keep.any():
        raise EmptyInput("no complete feature rows to fit on")
    model = meta.fit_meta(x[keep], spec, k_max=args.k_max, seed=args.seed,
                          max_iter=args.max_iter, tol=args.tol)
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
        raise DuplicateColumn(f"score table already has a {column!r} column")
    x, keep = _mixture_features(
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
        raise MissingColumn(f"{args.scores}: no strategy columns")
    manifest = io.read_manifest(args.manifest, check_files=False)
    by_id = {row.sample_id: row for row in manifest.rows}
    for sid in ids:
        if sid not in by_id:
            raise MissingColumn(f"sample {sid!r} is scored but missing from the manifest")
    metric, field = ("auroc", "ood_label") if args.task == "ood" else ("eaurc", "risk")

    x, keep = _complete_rows(ids, names, matrix, names, "skipping it")
    kept = [by_id[sid] for sid, ok in zip(ids, keep) if ok]
    if not kept:
        raise EmptyInput("no complete score rows to evaluate")
    for row in kept:
        if getattr(row, field) is None:
            raise MissingColumn(
                f"sample {row.sample_id!r}: task {args.task} needs {field} "
                "in the manifest"
            )
    target = np.array([getattr(row, field) for row in kept])

    table = evaluation.bootstrap_table(
        x[keep].T, target, metric, b=args.bootstrap, seed=args.seed
    )
    dataset = args.dataset or os.path.splitext(os.path.basename(args.manifest))[0]

    # Mean and std of a contiguous copy of each column: a strided or 2-D
    # reduction can sum in a different order.
    io.write_table(
        f"{args.out_prefix}.summary.csv",
        ["strategy", "dataset", "metric", "mean", "std"],
        ([name, dataset, metric, io._fmt_float(col.mean()), io._fmt_float(col.std())]
         for name, col in zip(names, table.T.copy())),
    )
    io.write_table(f"{args.out_prefix}.samples.csv", names,
                   ([io._fmt_float(v) for v in row] for row in table.tolist()))
    print(
        f"evaluated {metric} for {len(names)} strategies on {len(kept)} samples "
        f"({args.bootstrap} bootstrap resamples)",
        file=sys.stderr,
    )
    return 0


def _cmd_rank(args) -> int:
    if not 0.0 < args.alpha < 1.0:  # NaN fails too
        raise InvalidParam(f"--alpha must lie in (0, 1), got {args.alpha!r}")
    direction = "higher" if args.metric == "auroc" else "lower"
    datasets: dict[str, str] = {}
    for path in args.inputs:
        dataset = os.path.splitext(os.path.basename(path))[0]
        if dataset in datasets:
            raise DuplicateId(
                f"{datasets[dataset]} and {path} share the dataset name "
                f"{dataset!r}; rename one of them"
            )
        datasets[dataset] = path
    tables = {}
    pooled: dict[str, list[np.ndarray]] = {}
    for dataset, path in datasets.items():
        samples = io.read_samples(path)
        tables[dataset] = {name: float(v.mean()) for name, v in samples.items()}
        for name, v in samples.items():
            pooled.setdefault(name, []).append(v)

    ranks = evaluation.mean_rank(tables, direction)
    merged = {name: np.concatenate(chunks) for name, chunks in pooled.items()}
    names, pvals = evaluation.significance_matrix(merged, direction)

    io.write_table(f"{args.out_prefix}.ranks.csv", ["strategy", "mean_rank"],
                   ([name, io._fmt_float(ranks[name])]
                    for name in sorted(ranks, key=lambda n: (ranks[n], n))))
    io.write_table(f"{args.out_prefix}.pvalues.csv", ["strategy", *names],
                   ([name, *(io._fmt_float(p) for p in row)]
                    for name, row in zip(names, pvals)))

    for i, a in enumerate(names):
        for j, b in enumerate(names):
            if i != j and pvals[i, j] < args.alpha:
                print(f"{a} beats {b} (p={pvals[i, j]:.4g})")
    return 0


# ---------------------------------------------------------------------------
# synth


_REQUIRED = object()
_ENTRY_KEYS = {"pattern": (str, _REQUIRED), "params": ((dict, float), {})}

# Every key of a synth spec document: the JSON type of its value and its
# default. A pair (container, t) holds values of type t, a number may be an
# integer, and the "iid" and "ood" entries hold the keys of _ENTRY_KEYS. The
# synth options take their defaults from here too.
_SPEC_KEYS = {
    "iid": (_ENTRY_KEYS, _REQUIRED), "ood": (_ENTRY_KEYS, _REQUIRED),
    "n_iid": (int, 50), "n_ood": (int, 50), "size": ((list, int), [64, 64]),
    "seed": (int, 0), "with_masks": (bool, False), "match_means": (bool, False),
    "ladder": ((list, float), None), "risk_slope": (float, synth.DEFAULT_RISK_SLOPE),
    "risk_noise": (float, synth.DEFAULT_RISK_NOISE),
}
_JSON_NAMES = {dict: "object", list: "list", str: "string", int: "integer",
               float: "number", bool: "boolean"}


def _is(kind, value) -> bool:
    """Whether a JSON value has the type ``kind`` of ``_SPEC_KEYS``."""
    if isinstance(kind, tuple):
        box, item = kind
        items = value.values() if isinstance(value, dict) else value
        return isinstance(value, box) and all(_is(item, v) for v in items)
    if isinstance(value, bool) or kind is bool:
        return isinstance(value, bool) and kind is bool
    return isinstance(value, (int, float) if kind is float else kind)


def _spec_document(doc, keys: dict, where: str) -> dict:
    """``doc`` with every key checked against ``keys`` and every absent key
    at its default; a null stands for a null default."""
    if not isinstance(doc, dict):
        raise InvalidSpec(f"{where} must be a JSON object, got {type(doc).__name__}")
    required = [key for key, (_, default) in keys.items() if default is _REQUIRED]
    if any(key not in doc for key in required):
        raise InvalidSpec(f"{where} needs {' and '.join(map(repr, required))} entries")
    out = {key: default for key, (_, default) in keys.items()}
    for key, value in doc.items():
        if key not in keys:
            raise InvalidSpec(f"{where} has unknown key {key!r}; pick from {sorted(keys)}")
        kind, default = keys[key]
        if isinstance(kind, dict):
            value = _spec_document(value, kind, f"{where} {key!r}")
        elif not _is(kind, value) and not (value is None and default is None):
            name = (f"{_JSON_NAMES[kind[0]]} of {_JSON_NAMES[kind[1]]}s"
                    if isinstance(kind, tuple) else _JSON_NAMES[kind])
            raise InvalidSpec(f"{where} key {key!r} must be a JSON {name}, got {value!r}")
        out[key] = value
    return out


# The spec keys that synth's preset-only options set: --n-iid sets n_iid.
_PRESET_KEYS = ("n_iid", "n_ood", "size", "seed", "with_masks")


def _preset(args) -> dict:
    """Matched-mean blob-vs-noise benchmark, geometry scaled to the map size."""
    doc = {key: vars(args).get(key, _SPEC_KEYS[key][1]) for key in _PRESET_KEYS}
    radius = 0.1875 * min(doc["size"])
    return {
        "iid": {"pattern": "noise",
                "params": {"mean": 0.3, "amp": 0.12, "mean_jitter": 0.02}},
        "ood": {"pattern": "blob",
                "params": {"inside": 0.85, "inside_jitter": 0.05, "radius": radius,
                           "radius_jitter": radius / 6.0, "outside": 0.25}},
        "match_means": True, **doc,
    }


def _benchmark_from_spec(doc: dict) -> list[synth.Benchmark]:
    def spec_of(entry):
        return synth.SynthSpec(
            entry["pattern"], tuple(doc["size"]), entry["params"], doc["seed"]
        )

    return synth.gen_benchmark(
        doc["n_iid"], doc["n_ood"], spec_of(doc["iid"]), spec_of(doc["ood"]),
        perturb_ladder=doc["ladder"], seed=doc["seed"], match_means=doc["match_means"],
        with_masks=doc["with_masks"], risk_slope=doc["risk_slope"],
        risk_noise=doc["risk_noise"],
    )


def _cmd_synth(args) -> int:
    if args.spec is not None:
        given = ["--" + key.replace("_", "-") for key in _PRESET_KEYS if key in vars(args)]
        if given:
            raise InvalidParam(
                f"--spec sets every benchmark value from its file; drop "
                f"{', '.join(given)}, which only the preset takes"
            )
        doc = _spec_document(io.read_json(args.spec), _SPEC_KEYS, f"{args.spec}: spec")
    else:
        doc = _spec_document(_preset(args), _SPEC_KEYS, "preset spec")
    benches = _benchmark_from_spec(doc)

    multi = len(benches) > 1
    for t, bench in enumerate(benches):
        sub = f"step{t:02d}" if multi else ""
        for kind in ("maps", "masks") if doc["with_masks"] else ("maps",):
            os.makedirs(os.path.join(args.out_dir, sub, kind), exist_ok=True)
        rows = []
        for sample in bench.samples:
            rel_map = os.path.join(sub, "maps", f"{sample.sample_id}.npy")
            io.write_npy(os.path.join(args.out_dir, rel_map), sample.map.values)
            rel_mask = None
            if sample.mask is not None:
                rel_mask = os.path.join(sub, "masks", f"{sample.sample_id}.npy")
                io.write_npy(os.path.join(args.out_dir, rel_mask), sample.mask.labels)
            rows.append(io.ManifestRow(sample.sample_id, rel_map, rel_mask,
                                       sample.ood_label, sample.risk))
        name = f"manifest_step{t:02d}.csv" if multi else "manifest.csv"
        io.write_manifest(os.path.join(args.out_dir, name), rows)
        print(
            f"wrote {len(rows)} samples to {os.path.join(args.out_dir, name)} "
            f"(intensity {bench.intensity:g})",
            file=sys.stderr,
        )
    return 0


# ---------------------------------------------------------------------------


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    with warnings.catch_warnings():
        warnings.showwarning = _show_warning  # one line, no source location
        try:
            return args.func(args)
        except UqaggError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return exc.exit_code
        except OSError as exc:  # a file that cannot be read or written, a dead worker
            print(f"error: {exc}", file=sys.stderr)
            return MissingFile.exit_code


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
