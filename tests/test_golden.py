"""Golden bytes: the score table of a fixed masked dataset over FULL_SET.

The digest was taken with the literal kernels: ``plm`` over the whole map,
``eds`` flags from ``np.hypot``, ``ent`` bins from an integer cast, and a
``read_npy`` that copied the whole file. A kernel change that moves any score
by one bit fails here. The maps are 150x130, so at the default strip budget
the spatial kernels run over two strips; the 7-row budget puts every kernel,
``plm:50`` included, over many strips, and the bytes must not move.
"""

import hashlib
import json

import pytest

from uqagg import FULL_SET, core
from uqagg.cli import main

_RADIUS = 0.1875 * 130
_SPEC = {
    "n_iid": 2,
    "n_ood": 2,
    "size": [150, 130],
    "seed": 5,
    "with_masks": True,
    "match_means": True,
    "iid": {"pattern": "noise", "params": {"mean": 0.3, "amp": 0.12, "mean_jitter": 0.02}},
    "ood": {"pattern": "blob",
            "params": {"inside": 0.85, "inside_jitter": 0.05, "radius": _RADIUS,
                       "radius_jitter": _RADIUS / 6.0, "outside": 0.25}},
}
_SHA256 = "50c34a29bbb4c7e92a890244800c82ddaa85c966955237043e9e556d47b5c031"


@pytest.mark.parametrize("strip_rows", [None, 7], ids=["default-strips", "7-row-strips"])
def test_full_set_score_table_bytes(tmp_path, monkeypatch, strip_rows):
    if strip_rows is not None:
        monkeypatch.setattr(core, "_STRIP_PIXELS", strip_rows * _SPEC["size"][1])
    (tmp_path / "spec.json").write_text(json.dumps(_SPEC))
    assert main(["synth", "--spec", str(tmp_path / "spec.json"),
                 "--out-dir", str(tmp_path / "data")]) == 0
    assert main(["aggregate", "--manifest", str(tmp_path / "data" / "manifest.csv"),
                 "--strategies", ",".join(FULL_SET),
                 "--out", str(tmp_path / "scores.csv")]) == 0
    table = (tmp_path / "scores.csv").read_bytes()
    assert hashlib.sha256(table).hexdigest() == _SHA256


# Golden bytes of the stages after aggregate, on a small masked preset. The
# digests were taken before the mixture's inputs became plain arrays in spec
# order; a change that moves any of these bytes on purpose updates its digest
# here and says why.
_STAGE_SHA256 = {
    "model.json":
        "872274eec72ed3608b6fac92ce10f29afc4eeb8d7a36315fc637687e739b8478",
    "scores_gmm.csv":
        "d54f938981ad062de7df3a1f5646e286165c81c6a68fc47ee1a620d66a3a08b5",
    "ood.summary.csv":
        "a2ac67aa616e7c6ffc60e3fe581d58bbc63c0478d677cc9abe03c4cec54afa9b",
    "ood.samples.csv":
        "111150f53300d59217bee665b30cd9a1aa8cb42ddcc6addddbc84645189da83b",
    "fd.summary.csv":
        "270ddb0e53318259c26c68f7fe0ec2870bad79fd28cf097a4b53c05d93a4095e",
    "fd.samples.csv":
        "75cf533f94c5cb7e0e34798047848b4983d756410d7fdc55940c9cd9e950a113",
    "rank_ood.ranks.csv":
        "3aab1d51672c1f4ac8832841ca75892729cdfea6bd5d9ae1e82f41808c37085b",
    "rank_ood.pvalues.csv":
        "35a59eee25c66250ceeb7f711e043bf29cd7d18f3ed440f1caef12aa0362cbec",
    "rank_fd.ranks.csv":
        "006f02a1d853d5d7342074ae1c4d333b527af0dba2b61db3ac16b6879c3958f9",
    "rank_fd.pvalues.csv":
        "ebc0f2db6f868dca86cd504a2ee2bb6497241f74e0c8bacaa1af83c1ecfe3158",
}


@pytest.fixture(scope="module")
def stage_outputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("stages")
    manifest = str(d / "data" / "manifest.csv")
    assert main(["synth", "--out-dir", str(d / "data"), "--n-iid", "12", "--n-ood", "12",
                 "--size", "32", "32", "--seed", "3", "--with-masks"]) == 0
    assert main(["aggregate", "--manifest", manifest,
                 "--strategies", "avg,plm:20,ata:0.5,aqa:0.75,bca,ica,qfr,mor,eds,ent",
                 "--out", str(d / "scores.csv")]) == 0
    lines = (d / "scores.csv").read_text().splitlines(keepends=True)
    (d / "ref.csv").write_text(lines[0] + "".join(
        line for line in lines[1:] if line.startswith("iid-")))
    assert main(["gmm-fit", "--features", str(d / "ref.csv"),
                 "--strategies", "avg,mor,eds,ent", "--out", str(d / "model.json")]) == 0
    assert main(["gmm-score", "--model", str(d / "model.json"), "--features",
                 str(d / "scores.csv"), "--out", str(d / "scores_gmm.csv")]) == 0
    for task, metric in (("ood", "auroc"), ("fd", "eaurc")):
        assert main(["eval", "--scores", str(d / "scores_gmm.csv"), "--manifest",
                     manifest, "--task", task, "--bootstrap", "50", "--seed", "0",
                     "--out-prefix", str(d / task)]) == 0
        assert main(["rank", "--inputs", str(d / f"{task}.samples.csv"), "--metric",
                     metric, "--out-prefix", str(d / f"rank_{task}")]) == 0
    return d


@pytest.mark.parametrize("name", list(_STAGE_SHA256))
def test_stage_output_bytes(stage_outputs, name):
    digest = hashlib.sha256((stage_outputs / name).read_bytes()).hexdigest()
    assert digest == _STAGE_SHA256[name]
