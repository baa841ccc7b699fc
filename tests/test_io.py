import io as stdio
import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uqagg import (
    Manifest,
    ManifestRow,
    read_manifest,
    read_npy,
    read_scores,
    write_manifest,
    write_npy,
    write_scores,
)
from uqagg.errors import (
    BadMagic,
    DuplicateColumn,
    DuplicateId,
    FortranOrderUnsupported,
    MissingColumn,
    MissingFile,
    NonTwoDimensional,
    ParseError,
    TruncatedPayload,
    UnsupportedDtype,
    UqaggError,
)
from uqagg.io import read_json


# ---------------------------------------------------------------------------
# NPY writer


def test_write_npy_numpy_reads_it_back(tmp_path):
    for seed in range(10):
        rng = np.random.default_rng(seed)
        shape = (int(rng.integers(1, 20)), int(rng.integers(1, 20)))
        arr = rng.random(shape)
        path = tmp_path / f"f{seed}.npy"
        write_npy(path, arr)
        back = np.load(path)
        assert back.dtype == np.float64
        np.testing.assert_array_equal(back, arr)


def test_write_npy_integer_grid(tmp_path):
    arr = np.array([[0, 1, 5], [2, 3, 4]], dtype=np.int32)
    path = tmp_path / "i.npy"
    write_npy(path, arr)
    back = np.load(path)
    assert back.dtype == np.int64
    np.testing.assert_array_equal(back, arr)


def test_write_npy_bool_promotes_to_int(tmp_path):
    path = tmp_path / "b.npy"
    write_npy(path, np.array([[True, False]]))
    back = np.load(path)
    assert back.dtype == np.int64
    np.testing.assert_array_equal(back, [[1, 0]])


def test_write_npy_header_layout(tmp_path):
    path = tmp_path / "h.npy"
    write_npy(path, np.zeros((3, 4)))
    raw = path.read_bytes()
    assert raw[:6] == b"\x93NUMPY"
    assert raw[6:8] == bytes((1, 0))
    (hlen,) = struct.unpack("<H", raw[8:10])
    total = 10 + hlen
    assert total % 64 == 0
    header = raw[10:total]
    assert header.endswith(b"\n")
    assert b"'descr': '<f8'" in header
    assert b"'fortran_order': False" in header
    assert b"'shape': (3, 4)" in header
    assert len(raw) == total + 3 * 4 * 8


def test_write_npy_rejects_bad_input(tmp_path):
    with pytest.raises(NonTwoDimensional):
        write_npy(tmp_path / "x.npy", np.zeros(4))
    with pytest.raises(NonTwoDimensional):
        write_npy(tmp_path / "x.npy", np.zeros((2, 2, 2)))
    with pytest.raises(UnsupportedDtype):
        write_npy(tmp_path / "x.npy", np.zeros((2, 2), dtype=complex))


def test_write_npy_preserves_exact_bits(tmp_path):
    vals = np.array([[0.1, 1e-300], [math.pi, 1.0 - 1e-16]])
    path = tmp_path / "bits.npy"
    write_npy(path, vals)
    back = read_npy(path)
    assert back.tobytes() == vals.tobytes()


@pytest.mark.parametrize("make", [
    np.asfortranarray,
    lambda a: a.astype(">f8"),
    lambda a: a.astype(np.float32),
], ids=["fortran", "big-endian", "float32"])
def test_write_npy_converts_only_what_it_must(tmp_path, make):
    # any grid goes through a C-ordered '<f8' copy, and the file cannot tell;
    # a grid that already is one is written from its own buffer
    grid = make(np.random.default_rng(5).random((48, 80)))
    copy = np.ascontiguousarray(grid, dtype="<f8")
    write_npy(tmp_path / "given.npy", grid)
    tracemalloc.start()
    try:
        write_npy(tmp_path / "copy.npy", copy)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (tmp_path / "given.npy").read_bytes() == (tmp_path / "copy.npy").read_bytes()
    assert peak < copy.nbytes / 4


# ---------------------------------------------------------------------------
# NPY reader


def test_read_npy_accepts_numpy_writer(tmp_path):
    for dtype in ("<f4", "<f8", "<i4", "<i8", "|u1"):
        arr = (np.arange(12).reshape(3, 4) % 200).astype(dtype)
        path = tmp_path / f"np_{dtype.strip('<|')}.npy"
        np.save(path, arr)
        back = read_npy(path)
        assert back.dtype == np.dtype(dtype)
        np.testing.assert_array_equal(back, arr)


def test_read_npy_fortran_input_rejected(tmp_path):
    arr = np.asfortranarray(np.arange(6.0).reshape(2, 3))
    path = tmp_path / "f.npy"
    np.save(path, arr)
    with pytest.raises(FortranOrderUnsupported):
        read_npy(path)


def test_read_npy_version_2_header(tmp_path):
    # same grammar, 4-byte header length
    arr = np.arange(6.0).reshape(2, 3)
    header = "{'descr': '<f8', 'fortran_order': False, 'shape': (2, 3), }"
    unpadded = 6 + 2 + 4 + len(header) + 1
    pad = (64 - unpadded % 64) % 64
    text = (header + " " * pad + "\n").encode("latin1")
    path = tmp_path / "v2.npy"
    path.write_bytes(
        b"\x93NUMPY" + bytes((2, 0)) + struct.pack("<I", len(text)) + text
        + arr.tobytes()
    )
    np.testing.assert_array_equal(read_npy(path), arr)


def test_read_npy_version_2_header_longer_than_a_read_buffer(tmp_path):
    arr = np.arange(6.0).reshape(2, 3)
    header = "{'descr': '<f8', 'fortran_order': False, 'shape': (2, 3), }"
    text = (header + " " * 70_000 + "\n").encode("latin1")
    path = tmp_path / "v2-long.npy"
    path.write_bytes(
        b"\x93NUMPY" + bytes((2, 0)) + struct.pack("<I", len(text)) + text
        + arr.tobytes()
    )
    np.testing.assert_array_equal(read_npy(path), arr)


def test_read_npy_payload_one_byte_off(tmp_path):
    good = tmp_path / "good.npy"
    write_npy(good, np.arange(6.0).reshape(2, 3))
    raw = good.read_bytes()
    for name, data, size in (("short", raw[:-1], 47), ("long", raw + b"\x00", 49)):
        path = tmp_path / f"{name}.npy"
        path.write_bytes(data)
        with pytest.raises(TruncatedPayload,
                           match=f"payload is {size} bytes, header implies 48"):
            read_npy(path)


def test_read_npy_huge_claim_allocates_nothing(tmp_path):
    # a forged shape fails on the file size before any array exists
    for shape, implied in (("1000000,1000000", 8 * 10**12), ("4000,4000", 128 * 10**6)):
        header = f"{{'descr':'<f8','fortran_order':False,'shape':({shape})}}".encode()
        data = b"\x93NUMPY" + bytes((1, 0)) + struct.pack("<H", len(header)) + header
        path = tmp_path / "forged.npy"
        path.write_bytes(data.ljust(100, b"\x00"))
        assert path.stat().st_size == 100
        tracemalloc.start()
        try:
            with pytest.raises(TruncatedPayload, match=f"header implies {implied}"):
                read_npy(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


def test_read_npy_error_taxonomy(tmp_path):
    good = tmp_path / "good.npy"
    write_npy(good, np.arange(6.0).reshape(2, 3))
    raw = good.read_bytes()

    bad_magic = tmp_path / "magic.npy"
    bad_magic.write_bytes(b"\x93NUMPZ" + raw[6:])
    with pytest.raises(BadMagic):
        read_npy(bad_magic)

    bad_version = tmp_path / "version.npy"
    bad_version.write_bytes(raw[:6] + bytes((9, 0)) + raw[8:])
    with pytest.raises(ParseError):
        read_npy(bad_version)

    short_payload = tmp_path / "short.npy"
    short_payload.write_bytes(raw[:-8])
    with pytest.raises(TruncatedPayload):
        read_npy(short_payload)

    long_payload = tmp_path / "long.npy"
    long_payload.write_bytes(raw + b"\x00" * 8)
    with pytest.raises(TruncatedPayload):
        read_npy(long_payload)

    short_header = tmp_path / "hdr.npy"
    short_header.write_bytes(raw[:20])
    with pytest.raises(TruncatedPayload):
        read_npy(short_header)

    with pytest.raises(MissingFile):
        read_npy(tmp_path / "absent.npy")


def _with_header(tmp_path, name, header_text, payload=b""):
    unpadded = 6 + 2 + 2 + len(header_text) + 1
    pad = (64 - unpadded % 64) % 64
    text = (header_text + " " * pad + "\n").encode("latin1")
    path = tmp_path / name
    path.write_bytes(
        b"\x93NUMPY" + bytes((1, 0)) + struct.pack("<H", len(text)) + text + payload
    )
    return path


def test_read_npy_header_grammar_rejections(tmp_path):
    payload = np.zeros((2, 2)).tobytes()
    cases = {
        "garbled.npy": "{'descr': '<f8' 'fortran_order': False, 'shape': (2, 2), }",
        "evil.npy": "{'descr': __import__('os'), 'fortran_order': False, "
        "'shape': (2, 2), }",
        "missing.npy": "{'descr': '<f8', 'shape': (2, 2), }",
        # A shape is ASCII-digit integers and commas, one trailing comma at most.
        "formfeed.npy": "{'descr': '<f8', 'fortran_order': False, 'shape': (4\x0c5, 6), }",
        "doubled-comma.npy": "{'descr': '<f8', 'fortran_order': False, 'shape': (4,,6), }",
        "leading-comma.npy": "{'descr': '<f8', 'fortran_order': False, 'shape': (,4,6), }",
        "trailing-commas.npy":
            "{'descr': '<f8', 'fortran_order': False, 'shape': (4, 6,,), }",
    }
    for name, header in cases.items():
        with pytest.raises(ParseError):
            read_npy(_with_header(tmp_path, name, header, payload))
    with pytest.raises(UnsupportedDtype):
        read_npy(
            _with_header(
                tmp_path,
                "bigendian.npy",
                "{'descr': '>f8', 'fortran_order': False, 'shape': (2, 2), }",
                payload,
            )
        )
    with pytest.raises(NonTwoDimensional):
        read_npy(
            _with_header(
                tmp_path,
                "oned.npy",
                "{'descr': '<f8', 'fortran_order': False, 'shape': (4,), }",
                payload,
            )
        )


def test_read_npy_result_is_writable_copy(tmp_path):
    path = tmp_path / "w.npy"
    write_npy(path, np.zeros((2, 2)))
    arr = read_npy(path)
    arr[0, 0] = 5.0  # must not raise


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_read_npy_fuzzed_bytes_fail_closed(tmp_path_factory, data):
    # mutated or truncated files must raise a typed error, never something
    # uncontrolled, and never hang
    base = np.arange(20.0).reshape(4, 5)
    buf = stdio.BytesIO()
    np.save(buf, base)
    raw = bytearray(buf.getvalue())
    mode = data.draw(st.sampled_from(["truncate", "flip", "both"]))
    if mode in ("truncate", "both"):
        raw = raw[: data.draw(st.integers(0, len(raw)))]
    if mode in ("flip", "both") and raw:
        pos = data.draw(st.integers(0, len(raw) - 1))
        raw[pos] ^= 1 << data.draw(st.integers(0, 7))
    tmp = tmp_path_factory.mktemp("fuzz") / "f.npy"
    tmp.write_bytes(bytes(raw))
    try:
        out = read_npy(tmp)
    except UqaggError:
        pass  # typed rejection is the contract
    else:
        assert out.shape == (4, 5)


# ---------------------------------------------------------------------------
# manifests


def _write_map_files(tmp_path, names):
    (tmp_path / "maps").mkdir(exist_ok=True)
    for name in names:
        write_npy(tmp_path / "maps" / f"{name}.npy", np.zeros((2, 2)))


def test_manifest_round_trip(tmp_path):
    _write_map_files(tmp_path, ["a", "b"])
    rows = [
        ManifestRow("a", "maps/a.npy", None, 0, 0.25),
        ManifestRow("b", "maps/b.npy", None, 1, 0.75),
    ]
    path = tmp_path / "manifest.csv"
    write_manifest(path, rows)
    got = read_manifest(path)
    assert [r.sample_id for r in got.rows] == ["a", "b"]
    assert [r.ood_label for r in got.rows] == [0, 1]
    assert [r.risk for r in got.rows] == [0.25, 0.75]
    assert all(r.mask_path is None for r in got.rows)
    # resolution is relative to the manifest's directory
    assert got.resolve(got.rows[0].map_path) == str(tmp_path / "maps" / "a.npy")


def test_manifest_optional_columns(tmp_path):
    _write_map_files(tmp_path, ["a"])
    path = tmp_path / "m.csv"
    path.write_text("sample_id,map_path\na,maps/a.npy\n")
    got = read_manifest(path)
    assert got.rows[0].mask_path is None
    assert got.rows[0].ood_label is None
    assert got.rows[0].risk is None


def test_manifest_missing_required_column(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("sample_id,ood_label\na,1\n")
    with pytest.raises(MissingColumn):
        read_manifest(path)


def test_manifest_duplicate_sample_id(tmp_path):
    _write_map_files(tmp_path, ["a"])
    path = tmp_path / "m.csv"
    path.write_text("sample_id,map_path\na,maps/a.npy\na,maps/a.npy\n")
    with pytest.raises(DuplicateId):
        read_manifest(path)


def test_manifest_bad_label_and_risk(tmp_path):
    _write_map_files(tmp_path, ["a"])
    for cell in ("2", "yes"):
        path = tmp_path / "m.csv"
        path.write_text(f"sample_id,map_path,ood_label\na,maps/a.npy,{cell}\n")
        with pytest.raises(ParseError):
            read_manifest(path)
    for cell in ("1.5", "-0.2", "nan", "abc"):
        path = tmp_path / "m.csv"
        path.write_text(f"sample_id,map_path,risk\na,maps/a.npy,{cell}\n")
        with pytest.raises(ParseError):
            read_manifest(path)


def test_manifest_missing_map_file(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("sample_id,map_path\na,maps/a.npy\n")
    with pytest.raises(MissingFile):
        read_manifest(path)
    got = read_manifest(path, check_files=False)
    assert got.rows[0].map_path == "maps/a.npy"


def test_manifest_cells_are_stripped(tmp_path):
    _write_map_files(tmp_path, ["a"])
    path = tmp_path / "m.csv"
    path.write_text("sample_id,map_path,ood_label\n a , maps/a.npy ,1 \n")
    row = read_manifest(path).rows[0]
    assert (row.sample_id, row.map_path, row.ood_label) == ("a", "maps/a.npy", 1)


@pytest.mark.parametrize("data, error, words", [
    (b"sample_id,map_path,map_path\na,maps/a.npy,maps/a.npy\n", DuplicateColumn,
     "'map_path' appears twice"),
    (b"sample_id,map_path\na,maps/a.npy,extra\n", ParseError, "row 2"),
    (b"sample_id,map_path\na\n", ParseError, "row 2"),
    (b"sample_id,map_path\n\na,maps/a.npy\n", ParseError, "row 2"),
    (b"sample_id,map_path\n\xff\xfe,maps/a.npy\n", ParseError, "utf-8"),
    (b"", MissingColumn, "empty manifest table"),
], ids=["repeated-header", "long-row", "short-row", "blank-line", "not-utf8",
        "empty-file"])
def test_manifest_follows_the_csv_rules(tmp_path, data, error, words):
    _write_map_files(tmp_path, ["a"])
    path = tmp_path / "m.csv"
    path.write_bytes(data)
    with pytest.raises(error, match=words) as info:
        read_manifest(path)
    assert str(path) in str(info.value)


def test_read_json_names_the_path(tmp_path):
    path = tmp_path / "doc.json"
    path.write_text('{"a": [1, 2.5]}')
    assert read_json(path) == {"a": [1, 2.5]}
    for data, encoding in ((b"{not json", "utf-8"), (b'{"a": "\xc3\xa9"}', "ascii"),
                           (b'{"a": "\xff"}', "utf-8")):
        path.write_bytes(data)
        with pytest.raises(ParseError) as info:
            read_json(path, encoding=encoding)
        assert str(info.value).startswith(f"{path}: ")


def test_manifest_constructor_is_plain_container(tmp_path):
    m = Manifest(rows=(ManifestRow("a", "x.npy", "y.npy", None, None),),
                 base_dir=str(tmp_path))
    assert m.rows[0].mask_path == "y.npy"


# ---------------------------------------------------------------------------
# score tables


def test_scores_round_trip_exact(tmp_path):
    rng = np.random.default_rng(0)
    ids = [f"s{i:03d}" for i in range(25)]
    names = ["avg", "plm:20", "gmm:all"]
    values = rng.random((25, 3)) * 100.0 - 50.0
    path = tmp_path / "scores.csv"
    write_scores(path, ids, names, values)
    got_ids, got_names, got_values = read_scores(path)
    assert got_ids == ids
    assert got_names == names
    # 17 significant digits repr makes the round trip bit-exact
    assert got_values.tobytes() == values.tobytes()


def test_scores_nan_is_empty_cell(tmp_path):
    path = tmp_path / "scores.csv"
    write_scores(path, ["a", "b"], ["x"], np.array([[math.nan], [1.5]]))
    text = path.read_text()
    assert "a,\n" in text.replace("\r", "")
    ids, names, values = read_scores(path)
    assert math.isnan(values[0, 0]) and values[1, 0] == 1.5


def test_scores_duplicate_id_rejected(tmp_path):
    path = tmp_path / "scores.csv"
    path.write_text("sample_id,avg\na,0.5\na,0.6\n")
    with pytest.raises(DuplicateId):
        read_scores(path)


def test_scores_duplicate_column_rejected_and_named(tmp_path):
    path = tmp_path / "scores.csv"
    path.write_text("sample_id,avg,mor,avg\na,0.5,0.1,0.6\n")
    with pytest.raises(DuplicateColumn, match="'avg'"):
        read_scores(path)
    path.write_text("sample_id,avg,sample_id\na,0.5,b\n")
    with pytest.raises(DuplicateColumn, match="'sample_id'"):
        read_scores(path)


def test_scores_bad_cell_and_header(tmp_path):
    path = tmp_path / "scores.csv"
    path.write_text("sample_id,avg\na,zero\n")
    with pytest.raises(ParseError):
        read_scores(path)
    path.write_text("id,avg\na,0.5\n")
    with pytest.raises(MissingColumn):
        read_scores(path)


def test_scores_special_floats(tmp_path):
    path = tmp_path / "scores.csv"
    vals = np.array([[1e-308], [1e308], [5e-324]])
    write_scores(path, ["a", "b", "c"], ["x"], vals)
    _, _, got = read_scores(path)
    assert got.tobytes() == vals.tobytes()
