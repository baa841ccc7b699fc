"""Bit-exact file formats: a restricted NPY subset and CSV tables.

The NPY support covers exactly what the pipeline needs: C-order 2-D arrays of
'<f4', '<f8', '<i4', '<i8', or '|u1'. The reader accepts format versions 1.0
and 2.0 and parses the header with a fixed grammar instead of evaluating it.
The writer always emits version 1.0 with '<f8' for floating grids and '<i8'
for integer grids, padding the header with spaces to a 64-byte multiple and
ending it with a newline, so identical arrays produce identical bytes.

CSV side: a sample manifest (sample_id, map_path, optional mask_path /
ood_label / risk, paths resolved against the manifest's directory) and score
tables (sample_id plus one column per canonical strategy identifier, floats
written with 17 significant digits so they round-trip exactly; empty cells
mean the strategy produced no score for that sample). One reader takes every
CSV input and refuses a repeated header name, a row of another width than the
header, a blank line and text that is not UTF-8; one reads every JSON file.
"""

from __future__ import annotations

import csv
import json
import math
import os
import re
import struct
from dataclasses import dataclass

import numpy as np

from .errors import (
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
)

_MAGIC = b"\x93NUMPY"
_READ_DTYPES = {"<f4", "<f8", "<i4", "<i8", "|u1"}

# Whitespace is ASCII whitespace, and a shape is ASCII-digit integers
# separated by commas, with at most one trailing comma.
_HEADER_RE = re.compile(
    r"\{\s*'descr'\s*:\s*'([^']*)'\s*,"
    r"\s*'fortran_order'\s*:\s*(True|False)\s*,"
    r"\s*'shape'\s*:\s*\(\s*((?:[0-9]+\s*,\s*)*(?:[0-9]+\s*)?)\)\s*,?\s*\}\s*",
    re.ASCII,
)


def write_npy(path, grid) -> None:
    """Write a 2-D array as NPY version 1.0.

    Floating grids are stored as '<f8', integer (or boolean) grids as '<i8'.
    A C-ordered grid of that dtype is written from its own buffer; any other
    grid is first converted into a C-ordered copy.
    """
    arr = np.asarray(grid)
    if arr.ndim != 2:
        raise NonTwoDimensional(f"can only write 2-D grids, got ndim={arr.ndim}")
    if np.issubdtype(arr.dtype, np.floating):
        descr = "<f8"
    elif np.issubdtype(arr.dtype, np.integer) or arr.dtype == np.bool_:
        descr = "<i8"
    else:
        raise UnsupportedDtype(f"cannot write dtype {arr.dtype}")
    arr = np.ascontiguousarray(arr, dtype=descr)
    header = (
        f"{{'descr': '{descr}', 'fortran_order': False, "
        f"'shape': ({arr.shape[0]}, {arr.shape[1]}), }}"
    )
    # magic(6) + version(2) + length field(2) + header text, padded so the
    # total is a multiple of 64 and the text ends with a newline
    unpadded = len(_MAGIC) + 2 + 2 + len(header) + 1
    pad = (64 - unpadded % 64) % 64
    header_bytes = (header + " " * pad + "\n").encode("latin1")
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(bytes((1, 0)))
        fh.write(struct.pack("<H", len(header_bytes)))
        fh.write(header_bytes)
        fh.write(arr.data)


def read_npy(path) -> np.ndarray:
    """Read a 2-D NPY file (versions 1.0/2.0, restricted dtype set).

    The header is checked before the payload is read, and the payload size
    against the file size before the array is allocated, so a header that
    claims more than the file holds costs no memory. The payload is read
    straight into the returned array, which the caller may write to.
    """
    try:
        fh = open(path, "rb")
    except FileNotFoundError:
        raise MissingFile(f"no such file: {path}") from None
    with fh:
        size = os.fstat(fh.fileno()).st_size
        lead = fh.read(len(_MAGIC) + 2)
        if len(lead) < len(_MAGIC) + 2 or lead[: len(_MAGIC)] != _MAGIC:
            raise BadMagic(f"{path}: not an NPY file")
        major, minor = lead[6], lead[7]
        if (major, minor) == (1, 0):
            len_size, len_fmt = 2, "<H"
        elif (major, minor) == (2, 0):
            len_size, len_fmt = 4, "<I"
        else:
            raise ParseError(f"{path}: unsupported NPY version {major}.{minor}")
        field = fh.read(len_size)
        if len(field) < len_size:
            raise TruncatedPayload(f"{path}: file ends inside the header length field")
        (header_len,) = struct.unpack(len_fmt, field)
        header_end = len(lead) + len_size + header_len
        if size < header_end:
            raise TruncatedPayload(f"{path}: file ends inside the header")
        header = fh.read(header_len).decode("latin1")  # decodes every byte
        match = _HEADER_RE.fullmatch(header)
        if match is None:
            raise ParseError(f"{path}: header does not match the restricted grammar")
        descr, fortran, shape_text = match.groups()
        if descr not in _READ_DTYPES:
            raise UnsupportedDtype(
                f"{path}: dtype {descr!r} outside {sorted(_READ_DTYPES)}"
            )
        if fortran == "True":
            raise FortranOrderUnsupported(f"{path}: column-major payloads unsupported")
        dims = [int(tok) for tok in re.findall("[0-9]+", shape_text)]
        if len(dims) != 2:
            raise NonTwoDimensional(f"{path}: expected a 2-D shape, got {tuple(dims)}")
        dtype = np.dtype(descr)
        expected = dims[0] * dims[1] * dtype.itemsize
        payload = size - header_end
        if payload == expected:
            arr = np.empty((dims[0], dims[1]), dtype=dtype)
            payload = fh.readinto(arr)  # fewer bytes if the file shrank meanwhile
        if payload != expected:
            raise TruncatedPayload(
                f"{path}: payload is {payload} bytes, header implies {expected}"
            )
    return arr


# ---------------------------------------------------------------------------
# CSV tables


@dataclass(frozen=True)
class ManifestRow:
    sample_id: str
    map_path: str
    mask_path: str | None = None
    ood_label: int | None = None
    risk: float | None = None


@dataclass(frozen=True)
class Manifest:
    rows: tuple[ManifestRow, ...]
    base_dir: str

    def resolve(self, rel_path: str) -> str:
        return os.path.normpath(os.path.join(self.base_dir, rel_path))


def _parse_label(text: str, row: int) -> int:
    if text not in ("0", "1"):
        raise ParseError(f"row {row}, column ood_label: expected 0 or 1, got {text!r}")
    return int(text)


def _parse_risk(text: str, row: int) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ParseError(
            f"row {row}, column risk: expected a number, got {text!r}"
        ) from None
    if not (0.0 <= value <= 1.0) or not math.isfinite(value):
        raise ParseError(f"row {row}, column risk: {value!r} outside [0, 1]")
    return value


def read_manifest(path, *, check_files: bool = True) -> Manifest:
    """Load a sample manifest; paths are kept relative to the manifest.

    Cells are read with surrounding blanks stripped, and an absent optional
    column reads as empty cells.
    """
    base_dir = os.path.dirname(os.path.abspath(path))
    header, records = _read_table(path, "manifest")
    for col in ("sample_id", "map_path"):
        if col not in header:
            raise MissingColumn(f"{path}: manifest lacks column {col!r}")
    index = {name: j for j, name in enumerate(header)}
    rows = []
    seen: set[str] = set()
    for i, rec in records:
        sid, map_path, mask_path, label_text, risk_text = (
            rec[index[col]].strip() if col in index else ""
            for col in ("sample_id", "map_path", "mask_path", "ood_label", "risk")
        )
        if not sid:
            raise ParseError(f"row {i}, column sample_id: empty")
        if sid in seen:
            raise DuplicateId(f"{path}: sample_id {sid!r} appears twice")
        seen.add(sid)
        if not map_path:
            raise ParseError(f"row {i}, column map_path: empty")
        rows.append(ManifestRow(
            sample_id=sid, map_path=map_path, mask_path=mask_path or None,
            ood_label=_parse_label(label_text, i) if label_text else None,
            risk=_parse_risk(risk_text, i) if risk_text else None,
        ))
    manifest = Manifest(tuple(rows), base_dir)
    if check_files:
        for row in manifest.rows:
            for rel in (row.map_path, row.mask_path):
                if rel is not None and not os.path.exists(manifest.resolve(rel)):
                    raise MissingFile(
                        f"{path}: sample {row.sample_id!r} references missing "
                        f"file {rel!r}"
                    )
    return manifest


def write_manifest(path, rows) -> None:
    write_table(path, ["sample_id", "map_path", "mask_path", "ood_label", "risk"], (
        [r.sample_id, r.map_path, r.mask_path or "",
         "" if r.ood_label is None else r.ood_label,
         "" if r.risk is None else _fmt_float(r.risk)]
        for r in rows
    ))


def _fmt_float(value: float) -> str:
    return format(float(value), ".17g")


def write_table(path, header, rows) -> None:
    """Write a CSV table: the header row, then each of ``rows``."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_scores(path, sample_ids, strategy_names, values) -> None:
    """Write a score table; NaN cells are written empty."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.shape != (len(sample_ids), len(strategy_names)):
        raise ParseError(
            f"score table shape {arr.shape} does not match "
            f"{len(sample_ids)} ids x {len(strategy_names)} strategies"
        )
    write_table(path, ["sample_id", *strategy_names], (
        [sid, *("" if math.isnan(v) else _fmt_float(v) for v in row)]
        for sid, row in zip(sample_ids, arr.tolist())
    ))


def _read_table(path, what) -> tuple[list[str], list[tuple[int, list[str]]]]:
    """Header and data rows of a CSV table, each row with its line number.

    Raises MissingColumn for an empty file, DuplicateColumn for a repeated
    header name and ParseError for a row of another width (a blank line has
    none) or for text that is not UTF-8 or not CSV."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise MissingColumn(f"{path}: empty {what} table") from None
            for j, name in enumerate(header):
                if name in header[:j]:
                    raise DuplicateColumn(f"{path}: column {name!r} appears twice")
            rows = []
            for i, rec in enumerate(reader, start=2):
                if len(rec) != len(header):
                    raise ParseError(
                        f"{path} row {i}: expected {len(header)} cells, got {len(rec)}"
                    )
                rows.append((i, rec))
    except (UnicodeDecodeError, csv.Error) as exc:
        raise ParseError(f"{path}: {exc}") from None
    return header, rows


def _parse_row(path, row: int, cells) -> list[float]:
    """The cells of one data row as floats; an empty cell is NaN."""
    try:
        return [float(cell) if cell else math.nan for cell in cells]
    except ValueError as exc:
        raise ParseError(f"{path} row {row}: {exc}") from None


def read_scores(path) -> tuple[list[str], list[str], np.ndarray]:
    """Read a score table back; empty cells become NaN.

    Raises DuplicateColumn when the header names a column twice.
    """
    header, rows = _read_table(path, "score")
    if not header or header[0] != "sample_id":
        raise MissingColumn(f"{path}: first column must be sample_id")
    names = header[1:]
    ids: list[str] = []
    values: list[list[float]] = []
    seen: set[str] = set()
    for i, rec in rows:
        sid = rec[0]
        if sid in seen:
            raise DuplicateId(f"{path}: sample_id {sid!r} appears twice")
        seen.add(sid)
        ids.append(sid)
        values.append(_parse_row(path, i, rec[1:]))
    matrix = np.array(values, dtype=np.float64).reshape(len(ids), len(names))
    return ids, names, matrix


def read_samples(path) -> dict[str, np.ndarray]:
    """Read a samples table of ``eval``: each column's values by its name.
    A cell without a finite number (empty, NaN or infinite) raises ParseError."""
    header, rows = _read_table(path, "samples")
    if not rows:
        raise ParseError(f"{path}: no sample rows")
    matrix = np.array([_parse_row(path, i, rec) for i, rec in rows])
    if not np.isfinite(matrix).all():
        raise ParseError(f"{path}: a samples table needs a finite number in every cell")
    return dict(zip(header, matrix.T))


def read_json(path, encoding: str = "utf-8"):
    """The JSON document in a file; text that does not decode or is not JSON
    raises ParseError naming the path."""
    try:
        with open(path, "r", encoding=encoding) as fh:
            return json.load(fh)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ParseError(f"{path}: {exc}") from None
