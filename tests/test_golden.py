"""Golden bytes: synth's own files, and the score table of a fixed masked
dataset over FULL_SET.

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


# synth's own files, for _SPEC and for a three-step ladder with masks whose
# perturbed masks switch from the base's geometry to the pattern's after 0.5.
# The digests were taken while synth still built every map of every step in
# memory before writing any; streaming must not move a byte.
_LADDER_SPEC = {
    "n_iid": 2,
    "n_ood": 2,
    "size": [12, 10],
    "seed": 8,
    "with_masks": True,
    "ladder": [0.25, 0.5, 0.75],
    "iid": {"pattern": "ring",
            "params": {"inside": 0.6, "outside": 0.2, "radius_inner": 1.5,
                       "radius_outer": 3.5, "radius_outer_jitter": 1.0,
                       "inside_jitter": 0.1}},
    "ood": {"pattern": "checkerboard",
            "params": {"high": 0.9, "low": 0.1, "period": 3, "period_jitter": 1.5}},
}
_SYNTH_SPECS = {"spec": _SPEC, "ladder": _LADDER_SPEC}
_SYNTH_SHA256 = {
    "spec": {
        "manifest.csv":
            "47322055890cad01e0375984b4b1ac432ecdd61e7809766f4b1c3e5ad9716061",
        "maps/iid-0000.npy":
            "5ee9c34afed72248548a5bba320834ccc8b20594e01b34a9d131b6fe90914e74",
        "maps/iid-0001.npy":
            "c22220b407c922c5c990d0df08b9fb0e8b69ae4b7b7862dc76191e1062d4a7eb",
        "maps/ood-0000.npy":
            "6bf84208ef37fea82d7c16795a5931f662d64ecf1770303e8907c2e18c3d014a",
        "maps/ood-0001.npy":
            "5b56411e710b812672dbe6ddadf4edc20dd46eea567b191964057914238f9181",
        "masks/iid-0000.npy":
            "c2e1faae6d42044647867edcb35e184bb4edd934041a5e151f9adbd70c16c660",
        "masks/iid-0001.npy":
            "c2e1faae6d42044647867edcb35e184bb4edd934041a5e151f9adbd70c16c660",
        "masks/ood-0000.npy":
            "377aa872dbcc3f6473934060cc205a4bd32fe80409dcdcf63e3df60a6c6a01d3",
        "masks/ood-0001.npy":
            "1abd74b5caa0d47231c2ca43728126ae446dd25f5b67cc0b85f5d437ae4bc96b",
    },
    "ladder": {
        "manifest_step00.csv":
            "bc69f0d5f166abe966b248b636aeeb8525576ffa5105729a7cbbf1dad44db8c2",
        "manifest_step01.csv":
            "0848ee6d080f450bd003b136dba8560dcfa00c4ca2b72b662bdbd005404f6128",
        "manifest_step02.csv":
            "16ce74eff16c011bbf41782386af0e5582f77847d4c80b0e589fd7743d912a6b",
        "step00/maps/iid-0000.npy":
            "c3db1d680b02040453071a9fc89fd36730d96cbb1b9d05635a446ea09797cc58",
        "step00/maps/iid-0001.npy":
            "f3a81779aa07b36e8dde22ea154ef510f6415624a8cd473542b110ebc09abbc3",
        "step00/maps/ood-0000.npy":
            "eb4788be074025b60fac505397f13f444bf6856b76af77ac6b5de9b8dd07e8fb",
        "step00/maps/ood-0001.npy":
            "e0152372185af7ee7e09d6c4be7f71a3a9b0bea0dc471c0ac5cafa03afbff3a9",
        "step00/masks/iid-0000.npy":
            "1f5ab20887ec184af662a1af8aaf1501228df09092abdc23a9fc43b21ecd5040",
        "step00/masks/iid-0001.npy":
            "1f5ab20887ec184af662a1af8aaf1501228df09092abdc23a9fc43b21ecd5040",
        "step00/masks/ood-0000.npy":
            "8fe26f17a4ad40420f59a25bb7030b70ad3af4348215a2f560e18dd8f4c466f2",
        "step00/masks/ood-0001.npy":
            "dce0b3087690c6be596f5436facdf5fe58ef5fa8b7c37bd18be6c45e78eb13de",
        "step01/maps/iid-0000.npy":
            "c3db1d680b02040453071a9fc89fd36730d96cbb1b9d05635a446ea09797cc58",
        "step01/maps/iid-0001.npy":
            "f3a81779aa07b36e8dde22ea154ef510f6415624a8cd473542b110ebc09abbc3",
        "step01/maps/ood-0000.npy":
            "f150eea40a7e1b060e9070e717c3c5b2d004618087af2d470aa02aae5726f4c8",
        "step01/maps/ood-0001.npy":
            "5f8955ebb01362817b26de9c106a053c8ac060f0fac5d3357d93807cfa54dfc0",
        "step01/masks/iid-0000.npy":
            "1f5ab20887ec184af662a1af8aaf1501228df09092abdc23a9fc43b21ecd5040",
        "step01/masks/iid-0001.npy":
            "1f5ab20887ec184af662a1af8aaf1501228df09092abdc23a9fc43b21ecd5040",
        "step01/masks/ood-0000.npy":
            "8fe26f17a4ad40420f59a25bb7030b70ad3af4348215a2f560e18dd8f4c466f2",
        "step01/masks/ood-0001.npy":
            "dce0b3087690c6be596f5436facdf5fe58ef5fa8b7c37bd18be6c45e78eb13de",
        "step02/maps/iid-0000.npy":
            "c3db1d680b02040453071a9fc89fd36730d96cbb1b9d05635a446ea09797cc58",
        "step02/maps/iid-0001.npy":
            "f3a81779aa07b36e8dde22ea154ef510f6415624a8cd473542b110ebc09abbc3",
        "step02/maps/ood-0000.npy":
            "106a31a40220b779044360ec22f931e0c2bca08930b7e7d58ec0f4f809f4aaf1",
        "step02/maps/ood-0001.npy":
            "4dd5bccd9e7c52c0df1b0d2175f26df28cdc4b8826cfaa9372a3b20be0c050e6",
        "step02/masks/iid-0000.npy":
            "1f5ab20887ec184af662a1af8aaf1501228df09092abdc23a9fc43b21ecd5040",
        "step02/masks/iid-0001.npy":
            "1f5ab20887ec184af662a1af8aaf1501228df09092abdc23a9fc43b21ecd5040",
        "step02/masks/ood-0000.npy":
            "f9c8f4f54c88ee6c22cd9df00a9c6b71cb0b9bcce8cba0e9e34e908640c2c93b",
        "step02/masks/ood-0001.npy":
            "fffeaf69d153fd540fc5d4c2767e20aa1db743e6be44c893742692f9a14ddfdb",
    },
}


@pytest.mark.parametrize("name", list(_SYNTH_SPECS))
def test_synth_file_bytes(tmp_path, name):
    (tmp_path / "spec.json").write_text(json.dumps(_SYNTH_SPECS[name]))
    data = tmp_path / "data"
    assert main(["synth", "--spec", str(tmp_path / "spec.json"),
                 "--out-dir", str(data)]) == 0
    digests = {path.relative_to(data).as_posix():
               hashlib.sha256(path.read_bytes()).hexdigest()
               for path in sorted(data.rglob("*")) if path.is_file()}
    assert digests == _SYNTH_SHA256[name]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data", "spec.json"]
