"""Benchmark of the uqagg pipeline on synthetic workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the six CLI stages in-process through ``uqagg.cli.main`` on the maps of
one workload, checks every output (checks.py) and prints one JSON object as
the last line of standard output. With ``--trace 0`` it holds the end-to-end
metrics; with ``--trace 1`` the per-layer metrics of traced passes
(tracing.py). README.md next to this file describes workloads and metrics.
"""

import os

# One BLAS thread per process, fixed before numpy loads: the box has 2 cores
# and numpy's OpenBLAS would otherwise start its own pool.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import types  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "_work")
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import checks  # noqa: E402
from tracing import Tracer, self_times, strategy_layer, summarize  # noqa: E402

# EM settings of every gmm-fit call. Left to converge, EM takes a different
# number of iterations for every seed (2 to 98 at K <= 10 on 300 rows), and
# so does the fit's time. A cap of 6 with a tolerance no fit reaches stops
# every restart at the same iteration. K runs up to gmm-fit's default,
# min(10, reference rows).
MAX_ITER = 6
TOL = 1e-12
# Per-K EM metrics are reported for K = 1..EM_KS, the component counts every
# workload fits: bank-512 has four reference rows.
EM_KS = 4
MANIFEST_COLUMNS = ("sample_id", "map_path", "mask_path", "ood_label", "risk")
CHECKED_ROWS = 2    # reference and perturbed rows given reference values
SETUP_REPEATS = 2   # set-ups per round, besides the run's first


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    size: int                # maps are size x size
    n_iid: int               # reference (in-distribution) maps
    n_ood: int               # perturbed maps
    chunk: int = 0           # maps per aggregate call; 0 means the whole dataset
    bootstrap: int = 100     # eval --bootstrap
    fit_repeats: int = 1     # extra gmm-fit calls per round
    eval_repeats: int = 1    # extra sets of eval calls per round


WORKLOADS = {
    w.name: w
    for w in (
        Workload("bank-512", size=512, n_iid=4, n_ood=4, chunk=2, bootstrap=200,
                 fit_repeats=16, eval_repeats=6),
        Workload("rows-64", size=64, n_iid=300, n_ood=300, chunk=100, bootstrap=100,
                 fit_repeats=4, eval_repeats=2),
    )
}

END_TO_END = {
    "setup_s": "s",
    "pipeline_s": "s",
    "aggregate_maps_per_s": "maps/s",
    "aggregate_j2_maps_per_s": "maps/s",
    "fit_eval_s": "s",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict:
    units = {f"{strategy_layer(k)}_ms": "ms" for k in checks.BANK}
    units.update({
        "io.read_npy_ms": "ms", "io.read_manifest_ms": "ms", "io.write_scores_ms": "ms",
        "io.read_scores_ms": "ms", "core.validate_map_ms": "ms", "strategies.bank_ms": "ms",
        "cli.aggregate_glue_ms": "ms", "io.bytes_read": "bytes",
        "meta.fit_meta_s": "s",
    })
    units.update({f"meta.em_k{k}_ms": "ms" for k in range(1, EM_KS + 1)})
    units.update({f"meta.em_k{k}_iters": "count" for k in range(1, EM_KS + 1)})
    units.update({
        "meta.selected_k": "count", "meta.score_matrix_ms": "ms", "meta.model_io_ms": "ms",
        "evaluation.auroc_ms": "ms", "evaluation.eaurc_ms": "ms",
        "evaluation.bootstrap_ood_resample_ms": "ms",
        "evaluation.bootstrap_fd_resample_ms": "ms", "rng.stream_us": "us",
        "evaluation.resamples": "count", "evaluation.wilcoxon_ms": "ms",
        "evaluation.significance_matrix_s": "s", "evaluation.mean_rank_ms": "ms",
        "cli.rank_s": "s", "cli.gmm_score_s": "s", "cli.gmm_fit_s": "s", "cli.eval_s": "s",
        "synth.gen_benchmark_s": "s",
        "synth.write_s": "s", "cli.maps_scored": "count", "cli.empty_cells": "count",
        "trace.overhead_s": "s",
    })
    return units


def spec_doc(w: Workload, seed: int) -> dict:
    """Matched-mean blob-vs-noise population, as the CLI preset builds it."""
    radius = 0.1875 * w.size
    return {
        "n_iid": w.n_iid, "n_ood": w.n_ood, "size": [w.size, w.size], "seed": seed,
        "with_masks": True, "match_means": True,
        "iid": {"pattern": "noise", "params": {"mean": 0.3, "amp": 0.12, "mean_jitter": 0.02}},
        "ood": {"pattern": "blob", "params": {
            "inside": 0.85, "inside_jitter": 0.05, "radius": radius,
            "radius_jitter": radius / 6.0, "outside": 0.25}},
    }


def import_uqagg() -> types.SimpleNamespace:
    """Import uqagg afresh from the checkout's src/ and return its modules."""
    for name in [m for m in sys.modules if m == "uqagg" or m.startswith("uqagg.")]:
        del sys.modules[name]
    pkg = importlib.import_module("uqagg")
    if not os.path.abspath(pkg.__file__).startswith(os.path.join(SRC, "uqagg") + os.sep):
        raise SystemExit(f"uqagg was imported from {pkg.__file__}, not from {SRC}")
    names = ("cli", "io", "core", "strategies", "intensity", "spatial", "meta",
             "evaluation", "rng", "synth")
    return types.SimpleNamespace(
        **{n: importlib.import_module(f"uqagg.{n}") for n in names})


def digest(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def median(values) -> float:
    return float(statistics.median(values))


def write_manifest(path: str, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(MANIFEST_COLUMNS)
        for r in rows:
            writer.writerow([r[k] for k in MANIFEST_COLUMNS])


def write_reference(scores_path: str, ref_ids: set, out_path: str) -> None:
    """The score table restricted to the reference rows, bytes unchanged."""
    with open(scores_path, newline="", encoding="utf-8") as fh:
        lines = fh.read().splitlines(keepends=True)
    kept = [lines[0]] + [ln for ln in lines[1:] if ln.split(",", 1)[0] in ref_ids]
    with open(out_path, "w", newline="", encoding="utf-8") as fh:
        fh.writelines(kept)


def concatenate_scores(parts: list, out_path: str) -> None:
    """One score table from the tables of consecutive manifest chunks."""
    with open(out_path, "w", newline="", encoding="utf-8") as out:
        for i, part in enumerate(parts):
            with open(part, newline="", encoding="utf-8") as fh:
                lines = fh.read().splitlines(keepends=True)
            out.writelines(lines if i == 0 else lines[1:])


@dataclasses.dataclass
class Dataset:
    manifest: str
    rows: list                 # manifest rows as checks.read_manifest gives them
    chunks: list = dataclasses.field(default_factory=list)  # (manifest, maps) per call

    def split(self, chunk: int) -> None:
        """Write one manifest per ``chunk`` rows next to the dataset's manifest."""
        if not chunk or chunk >= len(self.rows):
            self.chunks = [(self.manifest, len(self.rows))]
            return
        stem = self.manifest[: -len(".csv")]
        self.chunks = []
        for i in range(0, len(self.rows), chunk):
            path = f"{stem}_part{i // chunk:03d}.csv"
            write_manifest(path, self.rows[i:i + chunk])
            self.chunks.append((path, len(self.rows[i:i + chunk])))


class Runner:
    """Runs CLI stages, records their times and checks their outputs."""

    def __init__(self, w: Workload, seed: int, work: str):
        self.w = w
        self.seed = seed
        self.work = work
        self.spec = os.path.join(work, "spec.json")   # synth's population spec
        self.cpus = sorted(os.sched_getaffinity(0))
        self.jobs2 = min(2, len(self.cpus))
        self.turns: dict[str, int] = {}      # stage -> calls placed so far
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.expected: dict[str, str] = {}   # output key -> sha256 of checked bytes
        self.written = None    # (path, key) of the outputs of the pass to check
        self.samples: dict[str, dict] = {}   # stage -> call key -> [seconds]
        self.tracer = None
        self.uq = None
        self.peak_rss_kb = 0
        self.setup_s: list[float] = []      # seconds of each timed set-up

    # -- one CLI call ------------------------------------------------------

    def place(self, stage: str) -> None:
        """Pin the process to the stage's next CPU in turn; free it for --jobs 2.

        A one-thread process left to the scheduler can stay on one CPU for a
        whole run, and on a shared host each CPU has slow and quiet spells of
        its own, so the run would measure one CPU's spells. Taken in turn,
        the CPUs each get an equal share of a stage's calls.
        """
        if stage == "aggregate_j2" or len(self.cpus) < 2:
            cpus = self.cpus
        else:
            n = self.turns.get(stage, 0)
            self.turns[stage] = n + 1
            cpus = [self.cpus[n % len(self.cpus)]]
        os.sched_setaffinity(0, cpus)

    def call(self, stage: str, argv: list, outputs=(), key: str = "") -> None:
        """Run one stage and record its wall time under ``stage`` and ``key``.

        ``outputs`` lists (path, key) pairs; once a key has checked bytes,
        every later output under that key must repeat them.
        """
        out, err = io.StringIO(), io.StringIO()
        span = self.tracer.stage_span(stage) if self.tracer else contextlib.nullcontext()
        self.place(stage)
        t0 = time.perf_counter()
        try:
            with span, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.uq.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash is a failed operation; keep measuring the rest
            code = -1
            err.write(traceback.format_exc())
        elapsed = time.perf_counter() - t0
        self.attempted += 1
        if code != 0:
            self.failed += 1
            print(f"operation failed ({code}): uqagg {' '.join(argv)}\n{err.getvalue()}",
                  file=sys.stderr)
            return
        self.samples.setdefault(stage, {}).setdefault(key, []).append(elapsed)
        if self.written is not None:
            self.written += outputs
        for path, out_key in outputs:
            if out_key in self.expected and digest(path) != self.expected[out_key]:
                self.fail_op(stage, [f"{path}: bytes differ from the checked {out_key} output"])
                break

    def fail_op(self, operation: str, messages: list) -> None:
        """Count one operation whose outputs failed a check."""
        self.failed += 1
        self.problems += messages
        for message in messages:
            print(f"check failed ({operation}): {message}", file=sys.stderr)

    # -- set-up --------------------------------------------------------------

    def setup(self):
        """One timed set-up: import, synth, reference rows. Returns the dataset.

        Each set-up writes a fresh directory, kept until the run ends:
        deleting hundreds of files slows the disk's next writes for seconds.
        """
        out_dir = os.path.join(self.work, f"data{len(self.setup_s)}")
        self.place("setup")   # the import on the CPU that synth gets next
        t0 = time.perf_counter()
        self.uq = import_uqagg()
        self.call("synth", ["synth", "--spec", self.spec, "--out-dir", out_dir])
        path = os.path.join(out_dir, "manifest.csv")
        ds = Dataset(path, checks.read_manifest(path))
        ref_ids = {r["sample_id"] for r in ds.rows if r["ood_label"] == "0"}
        self.setup_s.append(time.perf_counter() - t0)
        return ds, ref_ids

    # -- stages --------------------------------------------------------------

    def aggregate(self, ds, out: str, jobs: int, between=None) -> None:
        """Score every chunk of the dataset; join the chunks' tables.

        ``between``, if given, is called after every chunk.
        """
        stage = "aggregate" if jobs == 1 else "aggregate_j2"
        part_dir = os.path.join(out, "parts")
        os.makedirs(part_dir, exist_ok=True)
        parts = []
        for i, (manifest, n) in enumerate(ds.chunks):
            path = os.path.join(part_dir, f"{i:03d}.scores.csv")
            self.call(stage, [
                "aggregate", "--manifest", manifest, "--strategies",
                ",".join(checks.BANK), "--out", path, "--jobs", str(jobs),
            ], [(path, f"part:{i}")], key=str(i))
            parts.append(path)
            if between is not None:
                between()
        concatenate_scores(parts, os.path.join(out, "scores.csv"))

    def pipeline(self, ds, ref_ids, out: str, between=None) -> None:
        """aggregate, gmm-fit, gmm-score, eval ood/fd and rank."""
        self.aggregate(ds, out, jobs=1, between=between)
        write_reference(os.path.join(out, "scores.csv"), ref_ids,
                        os.path.join(out, "ref.scores.csv"))
        self.gmm_fit(out, out)
        path = os.path.join(out, "scores_gmm.csv")
        self.call("gmm_score", [
            "gmm-score", "--model", os.path.join(out, "model.json"), "--features",
            os.path.join(out, "scores.csv"), "--out", path,
        ], [(path, "gmm")])
        self.eval_set(ds, out, out)
        for task, metric in (("ood", "auroc"), ("fd", "eaurc")):
            prefix = os.path.join(out, f"rank_{task}")
            self.call(f"rank_{task}", [
                "rank", "--inputs", os.path.join(out, f"{task}.samples.csv"),
                "--metric", metric, "--out-prefix", prefix,
            ], [(f"{prefix}.ranks.csv", f"ranks:{task}"),
                (f"{prefix}.pvalues.csv", f"pvalues:{task}")])

    def gmm_fit(self, src: str, out: str) -> None:
        model = os.path.join(out, "model.json")
        self.call("gmm_fit", [
            "gmm-fit", "--features", os.path.join(src, "ref.scores.csv"), "--variant",
            "all", "--max-iter", str(MAX_ITER), "--tol", str(TOL),
            "--seed", str(self.seed), "--out", model,
        ], [(model, "model")])

    def eval_set(self, ds, src: str, out: str) -> None:
        for task in ("ood", "fd"):
            prefix = os.path.join(out, task)
            self.call(f"eval_{task}", [
                "eval", "--scores", os.path.join(src, "scores_gmm.csv"),
                "--manifest", ds.manifest, "--task", task, "--bootstrap",
                str(self.w.bootstrap), "--seed", str(self.seed), "--out-prefix", prefix,
            ], [(f"{prefix}.summary.csv", f"summary:{task}"),
                (f"{prefix}.samples.csv", f"samples:{task}")])

    # -- checks --------------------------------------------------------------

    def check_pass(self, ds, out: str) -> None:
        """Check every output of one pass and record its bytes."""
        w = self.w
        iid = [r["sample_id"] for r in ds.rows if r["ood_label"] == "0"]
        ood = [r["sample_id"] for r in ds.rows if r["ood_label"] == "1"]
        scores = os.path.join(out, "scores.csv")
        gmm = os.path.join(out, "scores_gmm.csv")
        labels = np.array([int(r["ood_label"]) for r in ds.rows])
        found = {   # operation -> problems with its outputs
            "synth": checks.check_synth(ds.rows, w.n_iid, w.n_ood, w.size),
            "aggregate": (
                checks.check_strategies(ds.rows, scores, iid[:CHECKED_ROWS] + ood[:CHECKED_ROWS])
                + checks.check_null_avg(scores, ds.rows)),
            "gmm-score": checks.check_gmm(os.path.join(out, "model.json"), gmm, labels),
        }
        for task, higher in (("ood", True), ("fd", False)):
            found[f"eval {task}"] = checks.check_eval(
                os.path.join(out, task), gmm, ds.rows, task, w.bootstrap)
            found[f"rank {task}"] = checks.check_rank(
                os.path.join(out, f"rank_{task}"), os.path.join(out, f"{task}.samples.csv"),
                higher)
        for operation, problems in found.items():
            if problems:
                self.fail_op(operation, problems)
        self.expected = {key: digest(path) for path, key in self.written}
        self.written = None


# ---------------------------------------------------------------------------
# end-to-end metrics from stage times


def stage_time(samples: dict, stage: str) -> float:
    """Sum over the stage's distinct calls of each call's median repeat."""
    return sum(median(times) for times in samples[stage].values())


PASS_STAGES = ("aggregate", "gmm_fit", "gmm_score", "eval_ood", "eval_fd",
               "rank_ood", "rank_fd")


def pass_time(samples: dict) -> float:
    """Seconds of one pass through the six stages, from each call's median repeat.

    Built from the calls rather than timed whole: a pass is one sample of
    several seconds, while each of its calls repeats in every round.
    """
    return sum(stage_time(samples, stage) for stage in PASS_STAGES)


def e2e_metrics(samples: dict, n_maps: int, setup_s: list, peak_rss_kb: int) -> dict:
    return {
        "setup_s": median(setup_s),
        "pipeline_s": pass_time(samples),
        "aggregate_maps_per_s": n_maps / stage_time(samples, "aggregate"),
        "aggregate_j2_maps_per_s": n_maps / stage_time(samples, "aggregate_j2"),
        "fit_eval_s": sum(stage_time(samples, stage)
                          for stage in ("gmm_fit", "eval_ood", "eval_fd")),
        "peak_rss_mb": peak_rss_kb / 1024.0,
    }


# ---------------------------------------------------------------------------
# per-layer metrics from spans


def layer_metrics(passes: list, bank_ms: list) -> dict:
    """Per-layer metrics of traced rounds; each is (spans, extras)."""
    calls: dict[str, list] = {}
    per_pass: dict[str, list] = {}
    for spans, extra in passes:
        totals: dict[str, float] = {}
        for s in spans:
            key = s.name
            if key.startswith(("intensity.", "spatial.", "io.read_npy", "core.validate_map")):
                if s.stage != "aggregate":   # single-thread aggregate only
                    continue
            calls.setdefault(key, []).append(s.duration)
            totals[key] = totals.get(key, 0.0) + s.duration
            if key == "meta.em_fit":
                k, iters = s.extra
                calls.setdefault(f"em_k{k}", []).append(s.duration)
                per_pass.setdefault(f"meta.em_k{k}_iters", []).append(iters)
            if key == "evaluation.bootstrap_table":
                metric, b = s.extra
                task = "ood" if metric == "auroc" else "fd"
                totals[f"resample_{task}"] = totals.get(f"resample_{task}", 0.0) + s.duration
                totals[f"resamples_{task}"] = totals.get(f"resamples_{task}", 0) + b
            if key == "meta.fit_meta":
                per_pass.setdefault("meta.selected_k", []).append(s.extra)
        for name, value in extra.items():
            per_pass.setdefault(name, []).append(value)
        for name in ("meta.fit_meta", "evaluation.significance_matrix", "synth.gen_benchmark"):
            per_pass.setdefault(name, []).append(totals.get(name, 0.0))
        per_pass.setdefault("cli.rank", []).append(
            totals.get("cli.rank_ood", 0.0) + totals.get("cli.rank_fd", 0.0))
        per_pass.setdefault("cli.gmm_score", []).append(totals.get("cli.gmm_score", 0.0))
        per_pass.setdefault("cli.gmm_fit", []).append(totals.get("cli.gmm_fit", 0.0))
        per_pass.setdefault("cli.eval", []).append(
            totals.get("cli.eval_ood", 0.0) + totals.get("cli.eval_fd", 0.0))
        for task in ("ood", "fd"):
            per_pass.setdefault(f"resample_{task}", []).append(
                totals[f"resample_{task}"] / totals[f"resamples_{task}"])
        per_pass.setdefault("evaluation.resamples", []).append(
            totals["resamples_ood"] + totals["resamples_fd"])

    def per_call_ms(name):
        return median(calls[name]) * 1e3

    m = {f"{strategy_layer(k)}_ms": per_call_ms(strategy_layer(k)) for k in checks.BANK}
    m.update({
        "io.read_npy_ms": per_call_ms("io.read_npy"),
        "io.read_manifest_ms": per_call_ms("io.read_manifest"),
        "io.write_scores_ms": per_call_ms("io.write_scores"),
        "io.read_scores_ms": per_call_ms("io.read_scores"),
        "core.validate_map_ms": per_call_ms("core.validate_map"),
        "strategies.bank_ms": median(bank_ms) * 1e3,
        "cli.aggregate_glue_ms": median(per_pass["glue_s"]) * 1e3,
        "io.bytes_read": per_pass["bytes_read"][-1],
        "meta.fit_meta_s": median(per_pass["meta.fit_meta"]),
    })
    for k in range(1, EM_KS + 1):
        m[f"meta.em_k{k}_ms"] = per_call_ms(f"em_k{k}")
    for k in range(1, EM_KS + 1):
        m[f"meta.em_k{k}_iters"] = per_pass[f"meta.em_k{k}_iters"][-1]
    m.update({
        "meta.selected_k": per_pass["meta.selected_k"][-1],
        "meta.score_matrix_ms": per_call_ms("meta.score_matrix"),
        "meta.model_io_ms": per_call_ms("meta.model_io"),
        "evaluation.auroc_ms": per_call_ms("evaluation.auroc"),
        "evaluation.eaurc_ms": per_call_ms("evaluation.eaurc"),
        "evaluation.bootstrap_ood_resample_ms": median(per_pass["resample_ood"]) * 1e3,
        "evaluation.bootstrap_fd_resample_ms": median(per_pass["resample_fd"]) * 1e3,
        "rng.stream_us": per_call_ms("rng.stream") * 1e3,
        "evaluation.resamples": per_pass["evaluation.resamples"][-1],
        "evaluation.wilcoxon_ms": per_call_ms("evaluation.wilcoxon"),
        "evaluation.significance_matrix_s": median(per_pass["evaluation.significance_matrix"]),
        "evaluation.mean_rank_ms": per_call_ms("evaluation.mean_rank"),
        "cli.rank_s": median(per_pass["cli.rank"]),
        "cli.gmm_score_s": median(per_pass["cli.gmm_score"]),
        "cli.gmm_fit_s": median(per_pass["cli.gmm_fit"]),
        "cli.eval_s": median(per_pass["cli.eval"]),
        "synth.gen_benchmark_s": median(per_pass["synth.gen_benchmark"]),
        "synth.write_s": median(per_pass["synth_write_s"]),
        "cli.maps_scored": per_pass["maps_scored"][-1],
        "cli.empty_cells": per_pass["empty_cells"][-1],
    })
    return m


# ---------------------------------------------------------------------------


def run(w: Workload, seed: int, seconds: float, trace: bool, work: str) -> dict:
    """One run of a workload; the result object the benchmark prints."""
    cpus = os.sched_getaffinity(0)
    try:
        return measure(w, seed, seconds, trace, work)
    finally:
        os.sched_setaffinity(0, cpus)   # Runner.place pins the process


def measure(w: Workload, seed: int, seconds: float, trace: bool, work: str) -> dict:
    os.makedirs(work, exist_ok=True)
    runner = Runner(w, seed, work)
    with open(runner.spec, "w", encoding="utf-8") as fh:
        json.dump(spec_doc(w, seed), fh)

    # The run's dataset; more set-ups are spread through the rounds.
    ds, ref_ids = runner.setup()
    ds.split(w.chunk)

    # Untimed warm-up: each stage once on two reference and two perturbed rows.
    warm_rows = ([r for r in ds.rows if r["ood_label"] == "0"][:2]
                 + [r for r in ds.rows if r["ood_label"] == "1"][:2])
    warm_manifest = os.path.join(os.path.dirname(ds.manifest), "manifest_warm.csv")
    write_manifest(warm_manifest, warm_rows)
    warm = Dataset(warm_manifest, warm_rows)
    warm.split(0)
    warm_dir = os.path.join(work, "warm")
    os.makedirs(warm_dir)
    runner.pipeline(warm, {r["sample_id"] for r in warm_rows[:2]}, warm_dir)

    out = os.path.join(work, "out")
    os.makedirs(out)
    untraced = {}
    traced = []          # (spans, extras) per traced round
    bank_ms = []
    start = time.perf_counter()
    index = 0
    while True:
        if trace and index % 2 == 1:
            traced.append(traced_round(runner, ds, ref_ids, out, bank_ms))
        else:
            runner.samples = untraced
            if index == 0:
                runner.written = []
            untraced_round(runner, ds, ref_ids, out, first=index == 0)
        index += 1
        elapsed = time.perf_counter() - start
        # Start another round only if it should end within --seconds.
        if elapsed * (index + 1) / index > seconds and (not trace or traced):
            break

    if not trace:
        metrics = e2e_metrics(untraced, len(ds.rows), runner.setup_s, runner.peak_rss_kb)
        units = END_TO_END
    else:
        metrics = layer_metrics(traced, bank_ms)
        metrics["trace.overhead_s"] = (
            median(extra["pipeline_s"] for _, extra in traced) - pass_time(untraced))
        units = per_layer_units()
        write_trace(w, seed, traced, metrics, os.path.dirname(work))
    return {
        "correct": not runner.problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }


class Repeats:
    """The round's extra gmm-fit, eval and set-up calls, spread over its aggregate calls.

    Slow spells of the host last seconds; repeats run back to back would all
    land in the same spell, while spread out they sample the whole round.
    """

    def __init__(self, runner, ds, out: str, slots: int):
        rep_dir = os.path.join(out, "rep")
        os.makedirs(rep_dir, exist_ok=True)
        w = runner.w
        kinds = (
            (w.fit_repeats, lambda: runner.gmm_fit(out, rep_dir)),
            (w.eval_repeats, lambda: runner.eval_set(ds, out, rep_dir)),
            (SETUP_REPEATS, runner.setup),
        )
        # (position in the round, kind, call), each kind evenly spaced
        order = sorted(((i + 0.5) / n, k, call)
                       for k, (n, call) in enumerate(kinds) for i in range(n))
        self.calls = [call for _, _, call in order]
        self.slots = slots
        self.slot = 0
        self.done = 0

    def __call__(self) -> None:
        """End of one slot: run the calls that fall before its end."""
        self.slot += 1
        self._run_until(len(self.calls) * self.slot // self.slots)

    def finish(self) -> None:
        self._run_until(len(self.calls))

    def _run_until(self, upto: int) -> None:
        while self.done < min(upto, len(self.calls)):
            self.calls[self.done]()
            self.done += 1


def untraced_round(runner, ds, ref_ids, out, first: bool) -> None:
    """The pass, the --jobs 2 aggregate and the repeats of the short stages.

    The repeats reuse the pass's outputs, so in the first round they wait for
    the pass and its checks; later they reuse the previous round's outputs,
    which have the same bytes.
    """
    chunks = len(ds.chunks)
    repeats = Repeats(runner, ds, out, chunks if first else 2 * chunks)
    runner.pipeline(ds, ref_ids, out, between=None if first else repeats)
    if first:
        # Peak RSS of set-up and the --jobs 1 pass: the --jobs 2 peak
        # depends on how the two threads' temporaries overlap.
        runner.peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        runner.check_pass(ds, out)
    runner.aggregate(ds, os.path.join(out, "j2"), jobs=runner.jobs2, between=repeats)
    repeats.finish()


def traced_round(runner, ds, ref_ids, out, bank_ms) -> tuple:
    """One pipeline pass, the --jobs 2 aggregate and a synth call, all traced."""
    uq = runner.uq
    tracer = Tracer()
    runner.tracer = tracer
    runner.samples = {}
    extras = {}
    try:
        with tracer.installed(uq):
            runner.pipeline(ds, ref_ids, out)
            extras["pipeline_s"] = pass_time(runner.samples)
            pass_spans = list(tracer.spans)
            runner.aggregate(ds, os.path.join(out, "j2"), jobs=runner.jobs2)
            synth_dir = os.path.join(runner.work, "synth_traced")
            runner.call("synth", ["synth", "--spec", runner.spec, "--out-dir", synth_dir])
            shutil.rmtree(synth_dir, ignore_errors=True)
            # The whole bank on one in-memory map, for a few maps.
            runner.tracer = None
            bank = uq.strategies.parse_strategy_list(checks.BANK)
            for row in ds.rows[:3]:
                u = uq.core.validate_map(uq.io.read_npy(row["map_file"]))
                mask = uq.core.SegmentationMask(uq.io.read_npy(row["mask_file"]))
                with tracer.span("strategies.bank") as span:
                    for strat in bank:
                        strat(u, mask)
                bank_ms.append(span.duration)
    finally:
        runner.tracer = None
    selfs = self_times(pass_spans)
    maps_scored = sum(1 for s in pass_spans
                      if s.name == "core.validate_map" and s.stage == "aggregate")
    extras["glue_s"] = sum(selfs[s.sid] for s in pass_spans
                           if s.name == "cli.aggregate") / maps_scored
    extras["maps_scored"] = maps_scored
    extras["bytes_read"] = sum(
        os.path.getsize(s.extra) for s in pass_spans
        if s.name in ("io.read_npy", "io.read_manifest", "io.read_scores"))
    extras["empty_cells"] = int(
        np.isnan(checks.read_scores(os.path.join(out, "scores.csv"))[2]).sum())
    extras["synth_write_s"] = sum(s.duration for s in tracer.spans
                                  if s.stage == "synth" and s.name.startswith("io.write_"))
    return tracer.spans, extras


def write_trace(w, seed, traced, metrics, directory: str) -> None:
    spans = [s for spans, _ in traced for s in spans]
    origin = min(s.t0 for s in spans)
    doc = {
        "workload": w.name,
        "seed": seed,
        "notes": {"io.bytes_read": "computed from the sizes of the files read"},
        "metrics": metrics,
        "summary": summarize(spans),
        "spans_columns": ["id", "name", "parent", "stage", "start_s", "end_s", "extra"],
        "spans": [s.as_row(origin) for s in spans],
    }
    with open(os.path.join(directory, f"trace-{w.name}.json"), "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "uqagg")):
        print(f"error: no uqagg sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    work = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
