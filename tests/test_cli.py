import csv
import json
import subprocess
import sys

import numpy as np
import pytest

from uqagg import write_npy
from uqagg.io import write_manifest, ManifestRow


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
        "gmm-fit", "--features", str(scores_csv), "--variant", "custom",
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

    res = run_cli(
        "gmm-fit", "--features", str(bench_dir / "manifest.csv"),
        "--variant", "custom", "--out", str(tmp_path / "m.json"),
    )
    assert res.returncode == 4  # custom without --strategies


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


def test_gmm_score_refuses_column_collision(bench_dir, scores_csv, tmp_path):
    model = tmp_path / "model.json"
    res = run_cli(
        "gmm-fit", "--features", str(scores_csv), "--variant", "custom",
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
