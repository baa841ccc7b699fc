import argparse
import csv
import json
import math
import multiprocessing
import os
import re
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

from uqagg import FULL_SET, bootstrap_table, read_scores, write_npy, write_scores
from uqagg.io import ManifestRow, _fmt_float, read_manifest, write_manifest


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "uqagg.cli", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


@pytest.fixture(scope="module")
def bench_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench")
    res = run_cli(
        "synth", "--out-dir", str(out), "--n-iid", "10", "--n-ood", "10",
        "--size", "24", "24", "--seed", "11", "--with-masks",
    )
    assert res.returncode == 0, res.stderr
    return out


def _read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_synth_writes_manifest_and_arrays(bench_dir):
    rows = _read_rows(bench_dir / "manifest.csv")
    assert rows[0] == ["sample_id", "map_path", "mask_path", "ood_label", "risk"]
    assert len(rows) == 21
    from uqagg import read_npy

    arr = read_npy(bench_dir / rows[1][1])
    assert arr.shape == (24, 24)
    mask = read_npy(bench_dir / rows[1][2])
    assert mask.dtype == np.int64


def test_synth_deterministic(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out in (a, b):
        res = run_cli(
            "synth", "--out-dir", str(out), "--n-iid", "3", "--n-ood", "3",
            "--size", "16", "16", "--seed", "4",
        )
        assert res.returncode == 0, res.stderr
    assert (a / "manifest.csv").read_bytes() == (b / "manifest.csv").read_bytes()
    for rel in ("maps/iid-0000.npy", "maps/ood-0002.npy"):
        assert (a / rel).read_bytes() == (b / rel).read_bytes()


def test_synth_spec_file_with_ladder(tmp_path):
    spec = {
        "n_iid": 3,
        "n_ood": 3,
        "seed": 2,
        "size": [16, 16],
        "iid": {"pattern": "noise", "params": {"mean": 0.3, "amp": 0.1}},
        "ood": {"pattern": "blob",
                "params": {"inside": 0.8, "outside": 0.2, "radius": 4.0}},
        "ladder": [0.0, 1.0],
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    out = tmp_path / "ladder"
    res = run_cli("synth", "--out-dir", str(out), "--spec", str(spec_path))
    assert res.returncode == 0, res.stderr
    assert (out / "manifest_step00.csv").exists()
    assert (out / "manifest_step01.csv").exists()
    assert (out / "step01" / "maps" / "ood-0000.npy").exists()


def test_aggregate_and_jobs_identical(bench_dir, tmp_path):
    outs = []
    for jobs in ("1", "4"):
        out = tmp_path / f"scores_{jobs}.csv"
        res = run_cli(
            "aggregate", "--manifest", str(bench_dir / "manifest.csv"),
            "--strategies", "avg,plm:10,ata:0.5,aqa:0.75,bca,ica,qfr,mor,eds,ent",
            "--out", str(out), "--jobs", jobs,
        )
        assert res.returncode == 0, res.stderr
        assert "0 warnings" in res.stderr
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    rows = _read_rows(tmp_path / "scores_1.csv")
    assert rows[0][0] == "sample_id" and len(rows) == 21


@pytest.fixture(scope="module")
def scores_csv(bench_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("scores") / "scores.csv"
    res = run_cli(
        "aggregate", "--manifest", str(bench_dir / "manifest.csv"),
        "--strategies", ",".join(
            ["avg", "plm:10", "ata:0.5", "aqa:0.75", "bca", "ica", "qfr",
             "mor", "eds", "ent"]
        ),
        "--out", str(out),
    )
    assert res.returncode == 0, res.stderr
    return out


def test_gmm_fit_score_eval_rank(bench_dir, scores_csv, tmp_path):
    model = tmp_path / "model.json"
    res = run_cli(
        "gmm-fit", "--features", str(scores_csv),
        "--strategies", "avg,mor,eds,ent", "--k-max", "3", "--seed", "0",
        "--out", str(model),
    )
    assert res.returncode == 0, res.stderr
    assert "K=" in res.stdout

    scored = tmp_path / "scored.csv"
    res = run_cli(
        "gmm-score", "--model", str(model), "--features", str(scores_csv),
        "--out", str(scored),
    )
    assert res.returncode == 0, res.stderr
    rows = _read_rows(scored)
    assert rows[0][-1] == "gmm:custom"
    assert len(rows) == 21

    prefix = tmp_path / "ood"
    res = run_cli(
        "eval", "--scores", str(scored), "--manifest",
        str(bench_dir / "manifest.csv"), "--task", "ood",
        "--bootstrap", "25", "--seed", "3", "--out-prefix", str(prefix),
    )
    assert res.returncode == 0, res.stderr
    summary = _read_rows(tmp_path / "ood.summary.csv")
    assert summary[0] == ["strategy", "dataset", "metric", "mean", "std"]
    assert len(summary) == 12  # 11 strategies
    samples = _read_rows(tmp_path / "ood.samples.csv")
    assert len(samples) == 26  # header + B rows

    prefix_fd = tmp_path / "fd"
    res = run_cli(
        "eval", "--scores", str(scored), "--manifest",
        str(bench_dir / "manifest.csv"), "--task", "fd",
        "--bootstrap", "25", "--seed", "3", "--out-prefix", str(prefix_fd),
    )
    assert res.returncode == 0, res.stderr

    res = run_cli(
        "rank", "--inputs", str(tmp_path / "ood.samples.csv"),
        "--metric", "auroc", "--out-prefix", str(tmp_path / "rk"),
    )
    assert res.returncode == 0, res.stderr
    ranks = _read_rows(tmp_path / "rk.ranks.csv")
    assert ranks[0] == ["strategy", "mean_rank"]
    assert len(ranks) == 12
    pvals = _read_rows(tmp_path / "rk.pvalues.csv")
    assert len(pvals) == 12 and len(pvals[0]) == 12


def test_rank_rejects_inputs_sharing_a_dataset_name(tmp_path):
    paths = []
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
        path = tmp_path / sub / "x.samples.csv"
        path.write_text("avg,mor\n0.5,0.75\n0.25,0.5\n", encoding="utf-8")
        paths.append(str(path))
    res = run_cli(
        "rank", "--inputs", *paths, "--metric", "auroc",
        "--out-prefix", str(tmp_path / "rk"),
    )
    assert res.returncode == 4
    assert paths[0] in res.stderr and paths[1] in res.stderr
    assert not (tmp_path / "rk.ranks.csv").exists()


def test_eval_deterministic(bench_dir, scores_csv, tmp_path):
    for tag in ("x", "y"):
        res = run_cli(
            "eval", "--scores", str(scores_csv), "--manifest",
            str(bench_dir / "manifest.csv"), "--task", "ood",
            "--bootstrap", "30", "--seed", "9",
            "--out-prefix", str(tmp_path / tag),
        )
        assert res.returncode == 0, res.stderr
    assert (tmp_path / "x.samples.csv").read_bytes() == (
        tmp_path / "y.samples.csv"
    ).read_bytes()


def test_strategies_help_examples_parse():
    from uqagg.cli import _build_parser
    from uqagg.strategies import parse_strategy_list

    sub = next(a for a in _build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    examples = [
        example
        for command in sub.choices.values()
        for action in command._actions if "--strategies" in action.option_strings
        for example in re.findall(r"e\.g\. ([^\s)]+)", action.help)
    ]
    assert examples
    for example in examples:
        parse_strategy_list(example)


def test_exit_code_usage():
    assert run_cli("aggregate").returncode == 2
    assert run_cli("no-such-command").returncode == 2
    assert run_cli("eval", "--task", "nope").returncode == 2


def test_exit_code_io(tmp_path):
    res = run_cli(
        "aggregate", "--manifest", str(tmp_path / "absent.csv"),
        "--strategies", "avg", "--out", str(tmp_path / "x.csv"),
    )
    assert res.returncode == 3
    assert "error:" in res.stderr


def test_exit_code_data(bench_dir, tmp_path):
    res = run_cli(
        "aggregate", "--manifest", str(bench_dir / "manifest.csv"),
        "--strategies", "bogus", "--out", str(tmp_path / "x.csv"),
    )
    assert res.returncode == 4


def test_aggregate_mask_required_without_masks(tmp_path):
    write_npy(tmp_path / "u.npy", np.full((8, 8), 0.5))
    write_manifest(
        tmp_path / "m.csv", [ManifestRow("a", "u.npy", None, None, None)]
    )
    res = run_cli(
        "aggregate", "--manifest", str(tmp_path / "m.csv"),
        "--strategies", "avg,bca", "--out", str(tmp_path / "s.csv"),
    )
    assert res.returncode == 4
    assert "bca" in res.stderr and "'a'" in res.stderr


def test_aggregate_invalid_map_or_mask_names_sample_and_file(tmp_path):
    bad_map = np.full((8, 8), 0.5)
    bad_map[3, 4] = 1.5
    write_npy(tmp_path / "ok.npy", np.full((8, 8), 0.5))
    write_npy(tmp_path / "bad.npy", bad_map)
    write_npy(tmp_path / "mask.npy", np.ones((8, 8), dtype=np.int64))
    write_npy(tmp_path / "bad_mask.npy", -np.ones((8, 8), dtype=np.int64))
    cases = [
        (ManifestRow("broken", "bad.npy", "mask.npy", None, None), "bad.npy"),
        (ManifestRow("unmasked", "ok.npy", "bad_mask.npy", None, None),
         "bad_mask.npy"),
    ]
    for row, culprit in cases:
        write_manifest(
            tmp_path / "m.csv",
            [ManifestRow("fine", "ok.npy", "mask.npy", None, None), row],
        )
        out = tmp_path / "s.csv"
        res = run_cli(
            "aggregate", "--manifest", str(tmp_path / "m.csv"),
            "--strategies", "avg,bca", "--out", str(out),
        )
        assert res.returncode == 4
        assert repr(row.sample_id) in res.stderr
        assert str(tmp_path / culprit) in res.stderr
        assert not out.exists()


def test_aggregate_reads_masks_only_for_strategies_that_need_them(tmp_path):
    rng = np.random.default_rng(3)
    for name in ("a", "b"):
        write_npy(tmp_path / f"{name}.npy", rng.random((8, 8)))
    write_npy(tmp_path / "mask.npy", np.ones((8, 8), dtype=np.int64))
    (tmp_path / "corrupt.npy").write_bytes(b"not an array")
    write_manifest(tmp_path / "masked.csv", [
        ManifestRow("a", "a.npy", "mask.npy", None, None),
        ManifestRow("b", "b.npy", "corrupt.npy", None, None),
    ])
    write_manifest(tmp_path / "bare.csv", [
        ManifestRow("a", "a.npy", None, None, None),
        ManifestRow("b", "b.npy", None, None, None),
    ])
    for manifest in ("masked", "bare"):
        res = run_cli(
            "aggregate", "--manifest", str(tmp_path / f"{manifest}.csv"),
            "--strategies", "avg,mor",
            "--out", str(tmp_path / f"{manifest}.scores.csv"),
        )
        assert (res.returncode, _warnings(res.stderr)) == (0, []), res.stderr
    assert (tmp_path / "masked.scores.csv").read_bytes() == (
        tmp_path / "bare.scores.csv").read_bytes()

    res = run_cli(
        "aggregate", "--manifest", str(tmp_path / "masked.csv"),
        "--strategies", "avg,bca", "--out", str(tmp_path / "s.csv"),
    )
    assert res.returncode == 4
    assert "'b'" in res.stderr and str(tmp_path / "corrupt.npy") in res.stderr
    assert not (tmp_path / "s.csv").exists()


def test_aggregate_no_foreground_warns_and_leaves_cell_empty(tmp_path):
    write_npy(tmp_path / "u.npy", np.full((8, 8), 0.5))
    write_npy(tmp_path / "empty_mask.npy", np.zeros((8, 8), dtype=np.int64))
    write_manifest(
        tmp_path / "m.csv",
        [ManifestRow("lonely", "u.npy", "empty_mask.npy", None, None)],
    )
    res = run_cli(
        "aggregate", "--manifest", str(tmp_path / "m.csv"),
        "--strategies", "avg,qfr", "--out", str(tmp_path / "s.csv"),
    )
    assert res.returncode == 0, res.stderr
    assert "1 warnings" in res.stderr
    assert "lonely" in res.stderr and "qfr" in res.stderr
    rows = _read_rows(tmp_path / "s.csv")
    assert rows[1][1] != "" and rows[1][2] == ""


def test_gmm_fit_names_the_feature_set_by_its_keys(scores_csv, tmp_path):
    model = tmp_path / "spa.json"
    res = run_cli("gmm-fit", "--features", str(scores_csv), "--strategies",
                  "ent,mor,eds", "--k-max", "2", "--out", str(model))
    assert res.returncode == 0, res.stderr
    assert res.stdout.startswith("fitted spa (3 features)")
    assert json.loads(model.read_text())["feature_spec"] == {
        "variant": "spa", "strategies": ["ent", "mor", "eds"]}
    scored = tmp_path / "scored.csv"
    res = run_cli("gmm-score", "--model", str(model), "--features", str(scores_csv),
                  "--out", str(scored))
    assert res.returncode == 0, res.stderr
    assert _read_rows(scored)[0][-1] == "gmm:spa"

    model = tmp_path / "custom.json"
    res = run_cli("gmm-fit", "--features", str(scores_csv), "--strategies", "avg,mor",
                  "--k-max", "2", "--out", str(model))
    assert res.returncode == 0, res.stderr
    assert json.loads(model.read_text())["feature_spec"]["variant"] == "custom"

    # With neither option the set is all, which this table only partly holds.
    res = run_cli("gmm-fit", "--features", str(scores_csv), "--out",
                  str(tmp_path / "all.json"))
    missing = [k for k in FULL_SET if k not in _read_rows(scores_csv)[0]]
    assert (res.returncode, res.stderr) == (
        4, f"error: score table lacks strategy columns {missing}\n")

    # --variant names a fixed set only
    res = run_cli("gmm-fit", "--features", str(scores_csv), "--variant", "custom",
                  "--strategies", "avg,mor", "--out", str(tmp_path / "m.json"))
    assert res.returncode == 2
    assert not (tmp_path / "all.json").exists() and not (tmp_path / "m.json").exists()


def test_gmm_score_refuses_column_collision(bench_dir, scores_csv, tmp_path):
    model = tmp_path / "model.json"
    res = run_cli(
        "gmm-fit", "--features", str(scores_csv),
        "--strategies", "avg,mor", "--k-max", "2", "--out", str(model),
    )
    assert res.returncode == 0, res.stderr
    scored = tmp_path / "scored.csv"
    res = run_cli(
        "gmm-score", "--model", str(model), "--features", str(scores_csv),
        "--out", str(scored),
    )
    assert res.returncode == 0, res.stderr
    res = run_cli(
        "gmm-score", "--model", str(model), "--features", str(scored),
        "--out", str(tmp_path / "again.csv"),
    )
    assert res.returncode == 4


def test_eval_missing_labels_is_data_error(tmp_path):
    write_npy(tmp_path / "u.npy", np.full((8, 8), 0.5))
    write_manifest(
        tmp_path / "m.csv", [ManifestRow("a", "u.npy", None, None, None)]
    )
    res = run_cli(
        "aggregate", "--manifest", str(tmp_path / "m.csv"),
        "--strategies", "avg", "--out", str(tmp_path / "s.csv"),
    )
    assert res.returncode == 0, res.stderr
    res = run_cli(
        "eval", "--scores", str(tmp_path / "s.csv"), "--manifest",
        str(tmp_path / "m.csv"), "--task", "ood", "--bootstrap", "5",
        "--out-prefix", str(tmp_path / "e"),
    )
    assert res.returncode == 4
    assert "ood_label" in res.stderr


# ---------------------------------------------------------------------------
# complete rows: gmm-fit, gmm-score and eval read only rows with every used cell


def _table_with_gaps(tmp_path, n=24, gaps=(("s003", 1), ("s017", 0)), risk=True):
    """A score table over avg and mor with one empty cell per listed row."""
    rng = np.random.default_rng(5)
    ids = [f"s{i:03d}" for i in range(n)]
    labels = [int(i % 2) for i in range(n)]
    values = np.column_stack([
        0.3 + 0.1 * np.array(labels) + 0.05 * rng.random(n),
        0.2 + 0.6 * rng.random(n),
    ])
    for sid, j in gaps:
        values[ids.index(sid), j] = np.nan
    write_scores(tmp_path / "scores.csv", ids, ["avg", "mor"], values)
    write_manifest(tmp_path / "m.csv", [
        ManifestRow(sid, f"{sid}.npy", None, lab,
                    round(float(rng.random()), 2) if risk else None)
        for sid, lab in zip(ids, labels)
    ])
    return ids, values


def _warnings(stderr):
    return [line for line in stderr.splitlines() if line.startswith("warning:")]


@pytest.mark.parametrize("task", ["ood", "fd"])
def test_eval_skips_incomplete_row_with_one_warning(tmp_path, task):
    ids, values = _table_with_gaps(tmp_path, gaps=(("s003", 1),))
    res = run_cli(
        "eval", "--scores", str(tmp_path / "scores.csv"), "--manifest",
        str(tmp_path / "m.csv"), "--task", task, "--bootstrap", "20",
        "--seed", "4", "--out-prefix", str(tmp_path / "e"),
    )
    assert res.returncode == 0, res.stderr
    warned = _warnings(res.stderr)
    assert len(warned) == 1 and "'s003'" in warned[0]
    assert "on 23 samples" in res.stderr

    keep = ~np.isnan(values).any(axis=1)
    rows = read_manifest(tmp_path / "m.csv", check_files=False).rows
    field = "ood_label" if task == "ood" else "risk"
    target = np.array([getattr(r, field) for r, ok in zip(rows, keep) if ok])
    metric = "auroc" if task == "ood" else "eaurc"
    table = bootstrap_table(values[keep].T, target, metric, b=20, seed=4)
    expected = [["avg", "mor"]] + [[_fmt_float(v) for v in row] for row in table]
    assert _read_rows(tmp_path / "e.samples.csv") == expected


def test_eval_scored_sample_missing_from_manifest_exits_4(tmp_path):
    _table_with_gaps(tmp_path, gaps=())
    write_manifest(tmp_path / "m.csv", [
        ManifestRow(r.sample_id, r.map_path, None, r.ood_label, r.risk)
        for r in read_manifest(tmp_path / "m.csv", check_files=False).rows
        if r.sample_id != "s010"
    ])
    res = run_cli(
        "eval", "--scores", str(tmp_path / "scores.csv"), "--manifest",
        str(tmp_path / "m.csv"), "--task", "ood", "--bootstrap", "5",
        "--out-prefix", str(tmp_path / "e"),
    )
    assert res.returncode == 4
    assert "'s010'" in res.stderr and "manifest" in res.stderr
    assert not (tmp_path / "e.samples.csv").exists()


def test_eval_fd_without_risk_exits_4(tmp_path):
    _table_with_gaps(tmp_path, gaps=(), risk=False)
    res = run_cli(
        "eval", "--scores", str(tmp_path / "scores.csv"), "--manifest",
        str(tmp_path / "m.csv"), "--task", "fd", "--bootstrap", "5",
        "--out-prefix", str(tmp_path / "e"),
    )
    assert res.returncode == 4
    assert "risk" in res.stderr
    assert not (tmp_path / "e.samples.csv").exists()


def test_eval_ood_on_one_class_names_the_cause(tmp_path):
    _table_with_gaps(tmp_path, gaps=())
    write_manifest(tmp_path / "m.csv", [
        ManifestRow(r.sample_id, r.map_path, None, 0, r.risk)
        for r in read_manifest(tmp_path / "m.csv", check_files=False).rows
    ])
    res = run_cli(
        "eval", "--scores", str(tmp_path / "scores.csv"), "--manifest",
        str(tmp_path / "m.csv"), "--task", "ood", "--bootstrap", "5",
        "--out-prefix", str(tmp_path / "e"),
    )
    assert res.returncode == 4
    assert res.stderr == "error: need both classes, got 0 positives of 24\n"
    assert not (tmp_path / "e.samples.csv").exists()


def test_gmm_fit_skips_incomplete_rows(tmp_path):
    _table_with_gaps(tmp_path)
    res = run_cli(
        "gmm-fit", "--features", str(tmp_path / "scores.csv"),
        "--strategies", "avg,mor", "--k-max", "2",
        "--out", str(tmp_path / "model.json"),
    )
    assert res.returncode == 0, res.stderr
    assert "on 22 samples" in res.stdout
    assert json.loads((tmp_path / "model.json").read_text())["n_train"] == 22
    warned = _warnings(res.stderr)
    assert len(warned) == 2
    assert "'s003'" in warned[0] and "'s017'" in warned[1]

    # A row whose only empty cell lies outside the features is fitted.
    res = run_cli(
        "gmm-fit", "--features", str(tmp_path / "scores.csv"),
        "--strategies", "avg", "--k-max", "2",
        "--out", str(tmp_path / "model_avg.json"),
    )
    assert res.returncode == 0, res.stderr
    assert "on 23 samples" in res.stdout


def test_gmm_score_leaves_incomplete_rows_empty_and_warns(tmp_path):
    ids, _ = _table_with_gaps(tmp_path)
    model = tmp_path / "model.json"
    res = run_cli(
        "gmm-fit", "--features", str(tmp_path / "scores.csv"),
        "--strategies", "mor", "--k-max", "2", "--out", str(model),
    )
    assert res.returncode == 0, res.stderr
    res = run_cli(
        "gmm-score", "--model", str(model), "--features",
        str(tmp_path / "scores.csv"), "--out", str(tmp_path / "scored.csv"),
    )
    assert res.returncode == 0, res.stderr
    warned = _warnings(res.stderr)
    assert len(warned) == 1 and "'s003'" in warned[0]
    rows = _read_rows(tmp_path / "scored.csv")
    assert rows[0] == ["sample_id", "avg", "mor", "gmm:custom"]
    empty = [row[0] for row in rows[1:] if row[-1] == ""]
    assert empty == ["s003"]  # s017 lacks avg, which the model does not use


def test_missing_feature_column_exits_4_and_names_it(tmp_path):
    _table_with_gaps(tmp_path, gaps=())
    res = run_cli(
        "gmm-fit", "--features", str(tmp_path / "scores.csv"),
        "--strategies", "avg,eds", "--out", str(tmp_path / "m.json"),
    )
    assert res.returncode == 4
    assert "'eds'" in res.stderr
    assert not (tmp_path / "m.json").exists()

    model = tmp_path / "model.json"
    res = run_cli(
        "gmm-fit", "--features", str(tmp_path / "scores.csv"),
        "--strategies", "avg,mor", "--k-max", "2", "--out", str(model),
    )
    assert res.returncode == 0, res.stderr
    ids, names, matrix = read_scores(tmp_path / "scores.csv")
    write_scores(tmp_path / "avg_only.csv", ids, ["avg"], matrix[:, :1])
    res = run_cli(
        "gmm-score", "--model", str(model), "--features",
        str(tmp_path / "avg_only.csv"), "--out", str(tmp_path / "scored.csv"),
    )
    assert res.returncode == 4
    assert "'mor'" in res.stderr
    assert not (tmp_path / "scored.csv").exists()


@pytest.mark.parametrize("edit, words", [
    ({"cell": 1.5},
     "sample 's003', column 'mor': feature 1.5 must lie in [0, 1] before rescaling"),
    ({"cell": -0.25},
     "sample 's003', column 'mor': feature -0.25 must lie in [0, 1] before rescaling"),
    ({"epsilon": 0.7}, "epsilon must lie in (0, 0.5), got 0.7"),
    ({"epsilon": -3.0}, "epsilon must lie in (0, 0.5), got -3.0"),
], ids=["cell-1.5", "cell--0.25", "epsilon-0.7", "epsilon--3"])
def test_gmm_score_refuses_what_gmm_fit_refuses(tmp_path, edit, words):
    ids, values = _table_with_gaps(tmp_path, gaps=())
    model = tmp_path / "model.json"
    res = run_cli(
        "gmm-fit", "--features", str(tmp_path / "scores.csv"),
        "--strategies", "avg,mor", "--k-max", "2", "--out", str(model),
    )
    assert res.returncode == 0, res.stderr
    if "cell" in edit:
        values[3, 1] = edit["cell"]
        write_scores(tmp_path / "scores.csv", ids, ["avg", "mor"], values)
        res = run_cli(
            "gmm-fit", "--features", str(tmp_path / "scores.csv"),
            "--strategies", "avg,mor", "--out", str(tmp_path / "m2.json"),
        )
        assert (res.returncode, res.stderr) == (4, f"error: {words}\n")
    else:
        doc = json.loads(model.read_text())
        doc["epsilon"] = edit["epsilon"]
        model.write_text(json.dumps(doc))
    res = run_cli(
        "gmm-score", "--model", str(model), "--features",
        str(tmp_path / "scores.csv"), "--out", str(tmp_path / "scored.csv"),
    )
    assert res.returncode == 4
    assert res.stderr == f"error: {words}\n"
    assert not (tmp_path / "scored.csv").exists()


@pytest.mark.parametrize("argv, words", [
    (["rank", "--alpha", "7"], "--alpha must lie in (0, 1), got 7.0"),
    (["rank", "--alpha", "1"], "--alpha must lie in (0, 1), got 1.0"),
    (["rank", "--alpha", "0"], "--alpha must lie in (0, 1), got 0.0"),
    (["rank", "--alpha", "nan"], "--alpha must lie in (0, 1), got nan"),
    (["aggregate", "--jobs", "0"], "--jobs must be at least 1, got 0"),
    (["aggregate", "--jobs", "-3"], "--jobs must be at least 1, got -3"),
    (["gmm-fit", "--tol", "nan"], "tol must be positive, got nan"),
    (["gmm-fit", "--tol", "0"], "tol must be positive, got 0.0"),
    (["gmm-fit", "--max-iter", "0"], "max_iter must be at least 1, got 0"),
], ids=["alpha-7", "alpha-1", "alpha-0", "alpha-nan", "jobs-0", "jobs--3",
        "tol-nan", "tol-0", "max-iter-0"])
def test_out_of_domain_number_is_refused(tmp_path, argv, words):
    _table_with_gaps(tmp_path, gaps=())
    (tmp_path / "ds.samples.csv").write_text("avg,mor\n0.5,0.75\n0.25,0.5\n")
    inputs = {
        "rank": ["--inputs", str(tmp_path / "ds.samples.csv"), "--metric", "auroc",
                 "--out-prefix", str(tmp_path / "out")],
        "aggregate": ["--manifest", str(tmp_path / "m.csv"), "--strategies", "avg",
                      "--out", str(tmp_path / "out.csv")],
        "gmm-fit": ["--features", str(tmp_path / "scores.csv"), "--strategies",
                    "avg,mor", "--out", str(tmp_path / "out.json")],
    }[argv[0]]
    before = sorted(tmp_path.iterdir())
    res = run_cli(*argv, *inputs)
    assert res.returncode == 4
    assert res.stderr == f"error: {words}\n"
    assert sorted(tmp_path.iterdir()) == before


def test_eval_rejects_a_repeated_score_column(tmp_path):
    _table_with_gaps(tmp_path, gaps=())
    rows = _read_rows(tmp_path / "scores.csv")
    with open(tmp_path / "dup.csv", "w", newline="") as fh:
        csv.writer(fh).writerows(
            [["sample_id", "avg", "avg"]]
            + [[row[0], row[1], row[2]] for row in rows[1:]]
        )
    res = run_cli(
        "eval", "--scores", str(tmp_path / "dup.csv"), "--manifest",
        str(tmp_path / "m.csv"), "--task", "ood", "--bootstrap", "5",
        "--out-prefix", str(tmp_path / "e"),
    )
    assert res.returncode == 4
    assert "'avg'" in res.stderr and "twice" in res.stderr
    assert not (tmp_path / "e.samples.csv").exists()


def test_rank_warns_once_for_all_tied_pairs(tmp_path):
    path = tmp_path / "ds.samples.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["a", "b", "c", "d"])
        for i in range(12):
            v = _fmt_float(0.5 + 0.01 * i)
            writer.writerow([v, v, v, _fmt_float(0.4 + 0.02 * (i % 5))])
    res = run_cli(
        "rank", "--inputs", str(path), "--metric", "auroc",
        "--out-prefix", str(tmp_path / "rk"),
    )
    assert res.returncode == 0, res.stderr
    # one warning: line with no source location
    assert res.stderr == "".join(line + "\n" for line in _warnings(res.stderr))
    warned = _warnings(res.stderr)
    assert len(warned) == 1
    # a, b and c tie in 6 ordered pairs; d differs from each of them
    assert "6 ordered pairs" in warned[0] and "'a' vs 'b'" in warned[0]


def test_aggregate_jobs_identical_on_multi_strip_maps(tmp_path):
    # 300x200 maps span several row strips of the spatial kernels
    bench = tmp_path / "bench"
    res = run_cli(
        "synth", "--out-dir", str(bench), "--n-iid", "3", "--n-ood", "3",
        "--size", "300", "200", "--seed", "5", "--with-masks",
    )
    assert res.returncode == 0, res.stderr
    outs = []
    for jobs in ("1", "2"):
        out = tmp_path / f"scores_{jobs}.csv"
        res = run_cli(
            "aggregate", "--manifest", str(bench / "manifest.csv"),
            "--strategies", ",".join(FULL_SET), "--out", str(out), "--jobs", jobs,
        )
        assert res.returncode == 0, res.stderr
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    assert len(_read_rows(tmp_path / "scores_1.csv")) == 7


def test_rank_rejects_a_repeated_samples_column(tmp_path):
    path = tmp_path / "ds.samples.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["a", "b", "a"])
        for i in range(3):
            writer.writerow([_fmt_float(0.8 + 0.01 * i), _fmt_float(0.47),
                             _fmt_float(0.2 - 0.01 * i)])
    res = run_cli(
        "rank", "--inputs", str(path), "--metric", "auroc",
        "--out-prefix", str(tmp_path / "rk"),
    )
    assert res.returncode == 4
    assert "'a'" in res.stderr and "twice" in res.stderr
    assert not (tmp_path / "rk.ranks.csv").exists()


def test_aggregate_strategy_error_names_sample_and_strategy(tmp_path):
    write_npy(tmp_path / "u.npy", np.full((8, 8), 0.5))
    write_manifest(tmp_path / "m.csv", [ManifestRow("small", "u.npy")])
    out = tmp_path / "s.csv"
    res = run_cli(
        "aggregate", "--manifest", str(tmp_path / "m.csv"),
        "--strategies", "avg,plm:20", "--out", str(out),
    )
    assert res.returncode == 4
    assert res.stderr == (
        "error: sample 'small', strategy 'plm:20': "
        "patch 20 exceeds map extent 8x8\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("cell", ["", "nan"])
def test_rank_rejects_a_samples_cell_without_a_number(tmp_path, cell):
    path = tmp_path / "ds.samples.csv"
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows([["a", "b"], ["0.8", "0.4"], ["0.7", cell]])
    res = run_cli(
        "rank", "--inputs", str(path), "--metric", "auroc",
        "--out-prefix", str(tmp_path / "rk"),
    )
    assert res.returncode == 4
    assert str(path) in res.stderr
    assert not (tmp_path / "rk.ranks.csv").exists()


# ---------------------------------------------------------------------------
# malformed input: one error line and the class's exit code, never a traceback

_ENTRY = {"pattern": "noise", "params": {"mean": 0.3, "amp": 0.1}}
# Each synth spec case with the start of its message after the file name.
_SPECS = {
    "spec-root-list": ([_ENTRY, _ENTRY], "spec must be a JSON object, got list"),
    "spec-entry-without-pattern": ({"iid": {"params": {"mean": 0.3}}, "ood": _ENTRY},
                                   "spec 'iid' needs 'pattern'"),
    "spec-n-iid-text": ({"iid": _ENTRY, "ood": _ENTRY, "n_iid": "abc"},
                        "spec key 'n_iid' must be a JSON integer, got 'abc'"),
    "spec-ladder-number": ({"iid": _ENTRY, "ood": _ENTRY, "ladder": 5},
                           "spec key 'ladder' must be a JSON list of numbers, got 5"),
    "spec-size-text": ({"iid": _ENTRY, "ood": _ENTRY, "size": "ab"},
                       "spec key 'size' must be a JSON list of integers, got 'ab'"),
    "spec-unknown-key": ({"iid": _ENTRY, "ood": _ENTRY, "ladders": [0.5]},
                         "spec has unknown key 'ladders'"),
}
# Synth spec cases of the right JSON types whose values no uniform draw or
# risk can take; each message names the key.
_BLOB = {"inside": 0.85, "outside": 0.25, "radius": 10.0}
_SPEC_VALUES = {
    "spec-noise-amp-huge": (
        {"iid": {"pattern": "noise", "params": {"mean": 0.3, "amp": 1e308}},
         "ood": _ENTRY}, "parameter 'amp' gives a uniform draw over"),
    "spec-mean-jitter-huge": (
        {"iid": {"pattern": "noise", "params": {"mean": 0.3, "amp": 0.1,
                                                "mean_jitter": 1e308}},
         "ood": _ENTRY}, "parameter 'mean_jitter' gives a uniform draw over"),
    "spec-radius-jitter-huge": (
        {"iid": _ENTRY, "ood": {"pattern": "blob",
                                "params": {**_BLOB, "radius_jitter": 1e308}}},
        "parameter 'radius_jitter' gives a uniform draw over"),
    **{f"spec-risk-noise-{tag}": ({"iid": _ENTRY, "ood": _ENTRY, "risk_noise": value},
                                  words)
       for tag, value, words in (
           ("nan", math.nan, "risk_noise must be finite, got nan"),
           ("inf", math.inf, "risk_noise must be finite, got inf"),
           ("huge", 1e308, "risk_noise gives a uniform draw over"))},
    **{f"spec-risk-slope-{tag}": ({"iid": _ENTRY, "ood": _ENTRY, "risk_slope": value},
                                  f"risk_slope must be finite, got {value}")
       for tag, value in (("nan", math.nan), ("inf", math.inf))},
}
# A valid model of two features; each case of _MODELS edits it into one that
# save_model never writes.
_MODEL = {
    "version": "1", "feature_spec": {"variant": "custom", "strategies": ["avg", "mor"]},
    "epsilon": 0.001, "feat_mean": [0.5, 0.5], "feat_std": [0.25, 0.25], "K": 1,
    "pi": [1.0], "mu": [[0.0, 0.0]], "sigma": [[[1.0, 0.0], [0.0, 1.0]]],
    "seed": 0, "n_train": 2, "bic": 0.0, "loglik": 0.0,
}
_MODELS = {
    "model-feat-std-zero": ({"feat_std": [0.0, 0.0]},
                            "model JSON field 'feat_std' must be positive"),
    "model-feat-std-negative": ({"feat_std": [-1.0, 1.0]},
                                "model JSON field 'feat_std' must be positive"),
    "model-feat-mean-nan": ({"feat_mean": [math.nan, 0.5]},
                            "model JSON field 'feat_mean' holds a non-finite value"),
    "model-sigma-inf": ({"sigma": [[[math.inf, 0.0], [0.0, 1.0]]]},
                        "model JSON field 'sigma' holds a non-finite value"),
    "model-pi-nan": ({"pi": [math.nan]}, "model JSON field 'pi' holds a non-finite value"),
    "model-pi-zero": ({"pi": [0.0]}, "model JSON field 'pi' must be non-negative "
                      "with a positive entry"),
    "model-pi-negative": ({"K": 2, "pi": [1.5, -0.5], "mu": [[0.0, 0.0]] * 2,
                           "sigma": [[[1.0, 0.0], [0.0, 1.0]]] * 2},
                          "model JSON field 'pi' must be non-negative"),
    # a stored name other than the one its keys give would score into a
    # misnamed column
    "model-variant-int-other-strategies": (
        {"feature_spec": {"variant": "int", "strategies": ["mor", "eds", "ent"]}},
        "model JSON field 'feature_spec': variant 'int', but its strategies are "
        "named 'spa'"),
    "model-unknown-strategy": (
        {"feature_spec": {"variant": "custom", "strategies": ["avg", "nope"]}},
        "model JSON field 'feature_spec': unknown strategy 'nope'"),
    "model-custom-named-set": (
        {"feature_spec": {"variant": "custom", "strategies": ["mor", "eds", "ent"]}},
        "model JSON field 'feature_spec': variant 'custom', but its strategies are "
        "named 'spa'"),
    # a number where a JSON number belongs, an integer where an integer does
    **{f"model-{field}-{tag}": ({field: value}, f"model JSON field {field!r} holds "
                                f"{value!r}, not a JSON {kind}")
       for field, tag, value, kind in (
           ("epsilon", "string", "0.001", "number"),
           ("bic", "string", "1e3", "number"),
           ("loglik", "bool", False, "number"),
           ("K", "string", "1", "integer"),
           ("seed", "string", "7", "integer"),
           ("seed", "fraction", 1.5, "integer"),
           ("seed", "bool", True, "integer"),
           ("n_train", "fraction", 2.9, "integer"))},
    "model-n_train-negative": ({"n_train": -4},
                               "model JSON field 'n_train' must be at least 2, got -4"),
    # a fit writes no NaN or infinity, in any number field
    **{f"model-{field}-{tag}": ({field: value}, f"model JSON field {field!r} holds "
                                "a non-finite value")
       for field, tag, value in (("bic", "nan", math.nan), ("loglik", "inf", math.inf),
                                 ("epsilon", "nan", math.nan))},
    "model-epsilon-huge-integer": ({"epsilon": 10**400}, "model JSON is missing or "
                                   "mistypes a field: int too large to convert"),
    **{f"model-{field}-{tag}": ({field: value}, f"model JSON field {field!r} holds "
                                f"{value[0]!r}, not a JSON number")
       for field, tag, value in (("feat_mean", "strings", ["0.5", "0.5"]),
                                 ("pi", "strings", ["1.0"]),
                                 ("feat_std", "bools", [True, True]))},
}
# Each case: its command line and the start of its error message.
_MALFORMED = {
    "manifest-not-utf8-aggregate": (
        ["aggregate", "--manifest", "{d}/latin1.csv", "--strategies", "avg",
         "--out", "{d}/out.csv"], "{d}/latin1.csv: 'utf-8' codec can't decode"),
    "manifest-not-utf8-eval": (
        ["eval", "--scores", "{d}/scores.csv", "--manifest", "{d}/latin1.csv",
         "--task", "ood", "--bootstrap", "5", "--out-prefix", "{d}/out"],
        "{d}/latin1.csv: 'utf-8' codec can't decode"),
    "scores-not-utf8-gmm-fit": (
        ["gmm-fit", "--features", "{d}/latin1_scores.csv",
         "--strategies", "avg", "--out", "{d}/out.json"],
        "{d}/latin1_scores.csv: 'utf-8' codec can't decode"),
    "samples-not-utf8-rank": (
        ["rank", "--inputs", "{d}/latin1.samples.csv", "--metric", "auroc",
         "--out-prefix", "{d}/out"], "{d}/latin1.samples.csv: 'utf-8' codec can't decode"),
    # eval writes finite samples; two infinities in one row would difference to NaN
    "samples-inf-rank": (
        ["rank", "--inputs", "{d}/inf.samples.csv", "--metric", "auroc",
         "--out-prefix", "{d}/out"],
        "{d}/inf.samples.csv: a samples table needs a finite number in every cell"),
    "model-not-ascii-gmm-score": (
        ["gmm-score", "--model", "{d}/model.json", "--features", "{d}/scores.csv",
         "--out", "{d}/out.csv"], "{d}/model.json: 'ascii' codec can't decode"),
    "gmm-token-aggregate": (
        ["aggregate", "--manifest", "{d}/m.csv", "--strategies", "avg,gmm:{d}/model.json",
         "--out", "{d}/out.csv"],
        "'gmm:{d}/model.json': mixture scores come from 'uqagg gmm-score'"),
    "manifest-repeats-map-path": (
        ["aggregate", "--manifest", "{d}/twice.csv", "--strategies", "avg",
         "--out", "{d}/out.csv"], "{d}/twice.csv: column 'map_path' appears twice"),
    **{name: (["synth", "--spec", f"{{d}}/{name}.json", "--out-dir", "{d}/out"],
              f"{{d}}/{name}.json: {words}")
       for name, (_, words) in _SPECS.items()},
    **{name: (["synth", "--spec", f"{{d}}/{name}.json", "--out-dir", "{d}/out"], words)
       for name, (_, words) in _SPEC_VALUES.items()},
    **{name: (["gmm-score", "--model", f"{{d}}/{name}.json", "--features",
               "{d}/pair.csv", "--out", "{d}/out.csv"], words)
       for name, (_, words) in _MODELS.items()},
    "spec-with-preset-options": (
        ["synth", "--spec", "{d}/spec.json", "--out-dir", "{d}/out", "--seed", "9",
         "--n-iid", "7", "--size", "32", "32", "--with-masks"],
        "--spec sets every benchmark value from its file; drop --n-iid, --size, "
        "--seed, --with-masks, which only the preset takes"),
    **{f"gmm-fit-{variant}-with-strategies": (
        ["gmm-fit", "--features", "{d}/pair.csv", "--variant", variant,
         "--strategies", "avg,mor", "--out", "{d}/out.csv"],
        f"--variant {variant} and --strategies both name a feature set; give one "
        "of them") for variant in ("all", "int", "spa")},
    "spec-with-default-seed": (
        ["synth", "--spec", "{d}/spec.json", "--out-dir", "{d}/out", "--seed", "0"],
        "--spec sets every benchmark value from its file; drop --seed, which only "
        "the preset takes"),
    # a seed outside [0, 2**64) would share its random streams with another
    "synth-seed-negative": (["synth", "--seed", "-1", "--out-dir", "{d}/out"],
                            "seed must lie in [0, 2**64), got -1"),
    "gmm-fit-seed-negative": (
        ["gmm-fit", "--features", "{d}/two.csv", "--strategies", "avg,mor",
         "--seed", "-1", "--out", "{d}/out.csv"], "seed must lie in [0, 2**64), got -1"),
    "eval-seed-2-64": (
        ["eval", "--scores", "{d}/scores.csv", "--manifest", "{d}/m.csv", "--task", "fd",
         "--bootstrap", "5", "--seed", str(2**64), "--out-prefix", "{d}/out"],
        f"seed must lie in [0, 2**64), got {2**64}"),
}


@pytest.mark.parametrize("case", list(_MALFORMED))
def test_malformed_input_is_one_error_line_and_exit_4(tmp_path, case):
    write_npy(tmp_path / "u.npy", np.full((8, 8), 0.5))
    write_manifest(tmp_path / "m.csv", [ManifestRow("s1", "u.npy", None, 1, 0.5)])
    write_scores(tmp_path / "scores.csv", ["s1"], ["avg"], np.array([[0.5]]))
    (tmp_path / "latin1.csv").write_bytes(b"sample_id,map_path\nm\xe9,u.npy\n")
    (tmp_path / "latin1_scores.csv").write_bytes(b"sample_id,avg\ns\xe9,0.5\n")
    (tmp_path / "latin1.samples.csv").write_bytes(b"avg,mor\n0.5,0.25\n\xe9,0.5\n")
    (tmp_path / "inf.samples.csv").write_text("avg,mor\ninf,inf\n0.5,0.25\n")
    (tmp_path / "model.json").write_text('{"version": "café"}', encoding="utf-8")
    (tmp_path / "twice.csv").write_text("sample_id,map_path,map_path\ns1,u.npy,u.npy\n")
    for name, (doc, _) in {**_SPECS, **_SPEC_VALUES}.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    (tmp_path / "spec.json").write_text(json.dumps({"iid": _ENTRY, "ood": _ENTRY}))
    write_scores(tmp_path / "pair.csv", ["s1"], ["avg", "mor"], np.array([[0.5, 0.25]]))
    write_scores(tmp_path / "two.csv", ["s1", "s2"], ["avg", "mor"],
                 np.array([[0.5, 0.25], [0.4, 0.3]]))
    for name, (edit, _) in _MODELS.items():
        (tmp_path / f"{name}.json").write_text(json.dumps({**_MODEL, **edit}))

    argv, words = _MALFORMED[case]
    res = run_cli(*(arg.format(d=tmp_path) for arg in argv))
    assert res.returncode == 4, res.stderr
    assert "Traceback" not in res.stderr
    errors = [line for line in res.stderr.splitlines() if line.startswith("error:")]
    assert len(errors) == 1, res.stderr
    assert errors[0].startswith("error: " + words.format(d=tmp_path))
    assert not list(tmp_path.glob("out*"))   # no output file or directory


def test_unedited_model_of_the_malformed_cases_scores(tmp_path):
    (tmp_path / "model.json").write_text(json.dumps(_MODEL))
    write_scores(tmp_path / "pair.csv", ["s1"], ["avg", "mor"], np.array([[0.5, 0.25]]))
    res = run_cli("gmm-score", "--model", str(tmp_path / "model.json"), "--features",
                  str(tmp_path / "pair.csv"), "--out", str(tmp_path / "out.csv"))
    assert (res.returncode, res.stderr) == (0, "")
    ids, names, matrix = read_scores(tmp_path / "out.csv")
    assert names == ["avg", "mor", "gmm:custom"] and np.isfinite(matrix).all()


def test_spec_defaults_match_the_preset(tmp_path):
    """A spec holding only the preset's entries gives the preset's files."""
    res = run_cli("synth", "--out-dir", str(tmp_path / "preset"))
    assert res.returncode == 0, res.stderr
    radius = 0.1875 * 64
    spec = {
        "match_means": True,
        "iid": {"pattern": "noise",
                "params": {"mean": 0.3, "amp": 0.12, "mean_jitter": 0.02}},
        "ood": {"pattern": "blob",
                "params": {"inside": 0.85, "inside_jitter": 0.05, "radius": radius,
                           "radius_jitter": radius / 6.0, "outside": 0.25}},
        "ladder": None,
    }
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    res = run_cli("synth", "--spec", str(tmp_path / "spec.json"),
                  "--out-dir", str(tmp_path / "spec"))
    assert res.returncode == 0, res.stderr
    for rel in ("manifest.csv", "maps/iid-0049.npy", "maps/ood-0049.npy"):
        assert (tmp_path / "preset" / rel).read_bytes() == (
            tmp_path / "spec" / rel
        ).read_bytes()


def test_exit_code_policy_is_carried_by_the_error_classes():
    import uqagg

    classes = [obj for obj in (getattr(uqagg, name) for name in uqagg.__all__)
               if isinstance(obj, type) and issubclass(obj, uqagg.UqaggError)]
    assert len(classes) > 20 and uqagg.UqaggError in classes
    assert {cls.__name__: cls.exit_code for cls in classes} == {
        cls.__name__: 3 if cls is uqagg.MissingFile else 4 for cls in classes
    }


# ---------------------------------------------------------------------------
# aggregate --jobs: forked worker processes


@pytest.fixture
def cpus(monkeypatch):
    """``cpus(k)`` makes ``os.sched_getaffinity`` report k CPUs: the allowed
    ones first, then numbers past them, to which pinning may fail, as it may
    fail anywhere. The real CPU set is restored after the test."""
    if not hasattr(os, "sched_getaffinity"):
        pytest.skip("the platform cannot say which CPUs a process may run on")
    real = os.sched_getaffinity(0)
    restore = os.sched_setaffinity

    def use(k):
        listed = sorted(real) + list(range(max(real) + 1, max(real) + 1 + k))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(listed[:k]))

    yield use
    restore(0, real)


def _aggregate_in_process(capsys, manifest, strategies, out, jobs):
    """(exit code, stderr, table bytes or None) of one in-process aggregate
    call; no worker process may outlive it."""
    from uqagg import cli

    code = cli.main([
        "aggregate", "--manifest", str(manifest), "--strategies", strategies,
        "--out", str(out), "--jobs", str(jobs),
    ])
    assert multiprocessing.active_children() == []
    table = out.read_bytes() if out.exists() else None
    return code, capsys.readouterr().err, table


def _map_manifest(tmp_path, n, zero=(), background=()):
    """n 8x8 maps with masks: all-zero maps at ``zero``, masks with no
    foreground at ``background``."""
    rows = []
    for i in range(n):
        u = np.zeros((8, 8)) if i in zero else np.full((8, 8), 0.05 * (i + 1))
        u[i % 8, :] *= 0.5
        mask = np.zeros((8, 8), dtype=np.int64)
        if i not in background:
            mask[2:5, 3:7] = 1
        write_npy(tmp_path / f"u{i}.npy", u)
        write_npy(tmp_path / f"k{i}.npy", mask)
        rows.append(ManifestRow(f"s{i}", f"u{i}.npy", f"k{i}.npy", None, None))
    write_manifest(tmp_path / "m.csv", rows)
    return tmp_path / "m.csv"


def _warn_on_read(monkeypatch, message):
    """Make every map read by aggregate first warn ``message(map array)``."""
    from uqagg import cli

    check = cli.validate_map

    def validate_and_warn(u, **kwargs):
        warnings.warn(message(u), UserWarning)
        return check(u, **kwargs)

    monkeypatch.setattr(cli, "validate_map", validate_and_warn)


def test_aggregate_more_jobs_than_rows_gives_the_bytes_of_one_job(tmp_path, capsys):
    manifest = _map_manifest(tmp_path, 3)
    one = _aggregate_in_process(capsys, manifest, "avg,plm:2,bca,mor,ent",
                                tmp_path / "s1.csv", 1)
    eight = _aggregate_in_process(capsys, manifest, "avg,plm:2,bca,mor,ent",
                                  tmp_path / "s8.csv", 8)
    assert one[0] == 0 and one[2] is not None
    assert eight == one


def test_aggregate_jobs_give_the_bytes_of_one_job_for_any_row_count(
        tmp_path, capsys, monkeypatch, cpus):
    """Every split of 1-13 rows among up to 4 workers: the same table, notes
    and warnings as one pass."""
    cpus(4)
    _warn_on_read(monkeypatch, lambda u: f"map of mean {u.mean():.4f} read")
    for rows in range(1, 14):
        d = tmp_path / f"r{rows}"
        d.mkdir()
        manifest = _map_manifest(d, rows, zero=(rows // 2,), background=(rows - 1,))
        one = _aggregate_in_process(capsys, manifest, "avg,qfr,mor", d / "s1.csv", 1)
        assert one[0] == 0 and len(_warnings(one[1])) == rows + 2
        for jobs in (2, 3, 4):
            assert _aggregate_in_process(capsys, manifest, "avg,qfr,mor",
                                         d / f"s{jobs}.csv", jobs) == one, (rows, jobs)


# Every row of 9 starts a piece at some worker count from 1 to 4.
@pytest.mark.parametrize("fault, row, code", [
    ("out-of-range", 8, 4),
    ("missing", 4, 3),        # removed after the manifest check
    ("out-of-range", 1, 4),
    *(("out-of-range", row, 4) for row in (0, 2, 3, 4, 5, 6, 7)),
    *(("missing", row, 3) for row in (0, 5, 8)),
], ids=["out-of-range-last", "missing-middle", "out-of-range-first",
        *(f"out-of-range-{row}" for row in (0, 2, 3, 4, 5, 6, 7)),
        *(f"missing-{row}" for row in (0, 5, 8))])
def test_aggregate_jobs_fail_like_one_job(tmp_path, capsys, monkeypatch, cpus,
                                          fault, row, code):
    from uqagg import io as uqagg_io

    cpus(4)
    _warn_on_read(monkeypatch, lambda u: f"map of mean {u.mean():.4f} read")
    manifest = _map_manifest(tmp_path, 9)
    if fault == "out-of-range":
        write_npy(tmp_path / f"u{row}.npy", np.full((8, 8), 1.5))
        if row + 3 < 9:   # a later row fails too; its error must not show
            write_npy(tmp_path / f"u{row + 3}.npy", np.full((8, 8), -1.0))
    else:
        read_manifest_checked = uqagg_io.read_manifest

        def read_then_remove(path, **kw):
            m = read_manifest_checked(path, **kw)
            (tmp_path / f"u{row}.npy").unlink(missing_ok=True)
            return m

        monkeypatch.setattr(uqagg_io, "read_manifest", read_then_remove)
    runs = []
    for jobs in (1, 2, 3, 4):
        if fault == "missing":
            write_npy(tmp_path / f"u{row}.npy", np.full((8, 8), 0.5))
        runs.append(_aggregate_in_process(capsys, manifest, "avg,mor",
                                          tmp_path / f"s{jobs}.csv", jobs))
    assert runs[1:] == runs[:1] * 3
    exit_code, stderr, table = runs[0]
    assert (exit_code, table) == (code, None)
    # the warnings of the maps read before the failure, then the error
    *warned, error = stderr.splitlines()
    assert len(warned) == row + (fault == "out-of-range")
    assert warned == _warnings(stderr)
    assert error.startswith(f"error: sample 's{row}' (")


def test_aggregate_jobs_report_notes_like_one_job(tmp_path, capsys, cpus):
    cpus(3)
    manifest = _map_manifest(tmp_path, 9, zero=(0, 4, 8), background=(2, 5))
    one = _aggregate_in_process(capsys, manifest, "avg,qfr,mor,eds",
                                tmp_path / "s1.csv", 1)
    three = _aggregate_in_process(capsys, manifest, "avg,qfr,mor,eds",
                                  tmp_path / "s3.csv", 3)
    assert three == one
    code, stderr, _ = one
    warned = _warnings(stderr)
    assert code == 0 and len(warned) == 3 * 2 + 2
    assert warned[0] == ("warning: sample 's0', strategy 'mor': "
                         "spatial mass ratio of an all-zero map is defined as 0.0")
    assert warned[2] == ("warning: sample 's2', strategy 'qfr': "
                         "mask contains only background pixels")
    assert stderr.endswith("aggregated 9 samples x 4 strategies, 8 warnings\n")
    assert stderr.count("\n") == len(warned) + 1


def test_aggregate_workers_send_other_warnings_back(tmp_path, capsys, monkeypatch,
                                                    cpus):
    cpus(3)
    _warn_on_read(monkeypatch, lambda u: f"map of mean {u.mean():.2f} read")
    manifest = _map_manifest(tmp_path, 6, zero=(4,))
    one = _aggregate_in_process(capsys, manifest, "avg,mor", tmp_path / "s1.csv", 1)
    three = _aggregate_in_process(capsys, manifest, "avg,mor", tmp_path / "s3.csv", 3)
    assert three == one
    warned = _warnings(one[1])
    assert len(warned) == 7 and warned[0] == "warning: map of mean 0.05 read"
    assert warned[6].startswith("warning: sample 's4', strategy 'mor': ")


def test_aggregate_jobs_pin_each_worker_to_its_own_cpu(tmp_path, capsys, monkeypatch):
    allowed = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
    if len(allowed) < 2 or not hasattr(os, "sched_setaffinity"):
        pytest.skip("needs two allowed CPUs and a way to pin a process")

    def report_cpus(u):
        # A child is pinned just after it starts: wait for that, then let the
        # other worker take a piece too.
        deadline = time.monotonic() + 10
        while len(os.sched_getaffinity(0)) > 1 and time.monotonic() < deadline:
            time.sleep(0.001)
        time.sleep(0.005)
        return f"on CPUs {sorted(os.sched_getaffinity(0))}"

    _warn_on_read(monkeypatch, report_cpus)
    manifest = _map_manifest(tmp_path, 16)
    code, stderr, _ = _aggregate_in_process(capsys, manifest, "avg",
                                            tmp_path / "s.csv", 2)
    assert code == 0
    assert set(_warnings(stderr)) == {f"warning: on CPUs [{cpu}]" for cpu in allowed[:2]}
    assert os.sched_getaffinity(0) == set(allowed)


@pytest.mark.parametrize("fault", [False, True], ids=["success", "error"])
def test_aggregate_jobs_restore_the_cpu_set(tmp_path, capsys, fault):
    if not hasattr(os, "sched_getaffinity"):
        pytest.skip("the platform cannot say which CPUs a process may run on")
    before = os.sched_getaffinity(0)
    manifest = _map_manifest(tmp_path, 6)
    if fault:
        write_npy(tmp_path / "u5.npy", np.full((8, 8), 1.5))
    code, _, _ = _aggregate_in_process(capsys, manifest, "avg", tmp_path / "s.csv", 2)
    assert code == (4 if fault else 0)
    assert os.sched_getaffinity(0) == before


def test_aggregate_jobs_without_pinning_give_the_bytes_of_one_job(
        tmp_path, capsys, monkeypatch, cpus):
    cpus(2)
    monkeypatch.delattr(os, "sched_setaffinity", raising=False)
    manifest = _map_manifest(tmp_path, 7, zero=(3,))
    one = _aggregate_in_process(capsys, manifest, "avg,mor", tmp_path / "s1.csv", 1)
    two = _aggregate_in_process(capsys, manifest, "avg,mor", tmp_path / "s2.csv", 2)
    assert one[0] == 0 and two == one


@pytest.mark.parametrize("jobs, allowed, forks", [(1, 2, 0), (8, 1, 0), (8, 2, 1)])
def test_aggregate_jobs_fork_one_worker_per_allowed_cpu_at_most(
        tmp_path, capsys, monkeypatch, cpus, jobs, allowed, forks):
    """No more workers than CPUs to run them; one worker neither forks nor
    pins."""
    cpus(allowed)
    started, pinned = [], []
    start = multiprocessing.process.BaseProcess.start
    pin = getattr(os, "sched_setaffinity", None)

    def count_start(self):
        started.append(self)
        start(self)

    def count_pin(pid, cpu_set):
        pinned.append(pid)
        pin(pid, cpu_set)

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", count_start)
    if pin is not None:
        monkeypatch.setattr(os, "sched_setaffinity", count_pin)
    manifest = _map_manifest(tmp_path, 8)
    code, _, _ = _aggregate_in_process(capsys, manifest, "avg", tmp_path / "s.csv", jobs)
    assert code == 0 and len(started) == forks
    assert bool(pinned) == (forks > 0 and pin is not None)


def test_aggregate_reports_a_worker_that_dies(tmp_path, capsys, monkeypatch, cpus):
    from uqagg import cli

    cpus(2)
    parent = os.getpid()
    score = cli.score_map

    def die_in_child(p, strategies):
        if os.getpid() != parent:
            os._exit(9)
        # This process holds its first piece until the child has claimed one
        # of the others and died on it.
        deadline = time.monotonic() + 60
        while multiprocessing.active_children() and time.monotonic() < deadline:
            time.sleep(0.005)
        return score(p, strategies)

    monkeypatch.setattr(cli, "score_map", die_in_child)
    manifest = _map_manifest(tmp_path, 4)
    code, stderr, table = _aggregate_in_process(capsys, manifest, "avg",
                                                tmp_path / "s.csv", 2)
    assert (code, table) == (3, None)
    assert stderr == ("error: a worker process exited with code 9 "
                      "before it sent its scores\n")


def test_aggregate_jobs_need_fork(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    manifest = _map_manifest(tmp_path, 2)
    code, stderr, table = _aggregate_in_process(capsys, manifest, "avg",
                                                tmp_path / "s.csv", 2)
    assert (code, table) == (4, None)
    assert stderr == ("error: --jobs 2 needs the 'fork' start method, which "
                      "this platform lacks; use --jobs 1\n")
