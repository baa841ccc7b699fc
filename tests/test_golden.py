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
