"""HSC container I/O, headerless band-sequential input and single-band export.

An HSC file is the magic ``HSC1\\n``, one UTF-8 header line
``m=<int> n=<int> B=<int> dtype=f32 order=bsq\\n``, then m*n*B little-endian
32-bit floats in band-sequential order. Mask files use ``dtype=u8`` and one
0/1 byte per voxel. Reads and writes are bit-exact over the format's domain;
cube values are widened to float64 in memory. A headerless band-sequential
file holds the same payload without magic or header, in any element type of
the dtype table.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .datacube import DataCube, MaskSet

__all__ = [
    "FormatError",
    "read_cube",
    "read_raw_cube",
    "write_cube",
    "read_mask",
    "write_mask",
    "export_band_pgm",
    "export_band_csv",
]

MAGIC = b"HSC1\n"
PGM_MAXVAL = 65535
# element type name -> little-endian payload dtype; HSC headers accept only
# f32 cubes and u8 masks, headerless files any of them
DTYPES = {"f32": np.dtype("<f4"), "f64": np.dtype("<f8"),
          "u16": np.dtype("<u2"), "u8": np.dtype("u1")}


class FormatError(ValueError):
    """Malformed HSC or mask file."""


def _parse_header(blob: bytes, path: Path) -> tuple[int, int, int, str, int]:
    if not blob.startswith(MAGIC):
        raise FormatError(f"{path}: missing HSC1 magic")
    end = blob.find(b"\n", len(MAGIC))
    if end < 0:
        raise FormatError(f"{path}: unterminated header line")
    try:
        line = blob[len(MAGIC) : end].decode("utf-8", "strict")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: header line is not UTF-8: {exc}") from exc
    fields = {}
    for token in line.split(" "):
        if "=" not in token:
            raise FormatError(f"{path}: bad header token {token!r}")
        key, val = token.split("=", 1)
        fields[key] = val
    expected = ("m", "n", "B", "dtype", "order")
    if tuple(fields) != expected:
        raise FormatError(f"{path}: header keys {tuple(fields)} != {expected}")
    try:
        m, n, B = int(fields["m"]), int(fields["n"]), int(fields["B"])
    except ValueError as exc:
        raise FormatError(f"{path}: non-integer dimension: {exc}") from exc
    if min(m, n, B) < 1:
        raise FormatError(f"{path}: non-positive dimensions m={m} n={n} B={B}")
    if fields["order"] != "bsq":
        raise FormatError(f"{path}: unsupported order {fields['order']!r}")
    return m, n, B, fields["dtype"], end + 1


def _write(path, values: np.ndarray, dtype: str) -> None:
    B, m, n = values.shape
    header = f"m={m} n={n} B={B} dtype={dtype} order=bsq\n".encode("ascii")
    payload = np.ascontiguousarray(values, dtype=DTYPES[dtype]).tobytes()
    Path(path).write_bytes(MAGIC + header + payload)


def _read(path: Path, dtype: str, kind: str) -> np.ndarray:
    """The (B, m, n) payload of an HSC file whose header names ``dtype``."""
    blob = path.read_bytes()
    m, n, B, got, off = _parse_header(blob, path)
    if got != dtype:
        raise FormatError(f"{path}: expected dtype={dtype} for a {kind}, got {got!r}")
    count = m * n * B
    size = count * DTYPES[dtype].itemsize
    if len(blob) - off != size:
        raise FormatError(f"{path}: payload is {len(blob) - off} bytes, expected {size}")
    return np.frombuffer(blob, dtype=DTYPES[dtype], count=count, offset=off).reshape(B, m, n)


def write_cube(path, cube: DataCube) -> None:
    """Write ``cube`` as an HSC file; a value past the float32 range raises
    ``OverflowError`` and nothing is written."""
    with np.errstate(over="ignore"):  # such a value casts to inf, checked below
        payload = cube.values.astype(DTYPES["f32"])
    if not np.isfinite(payload).all():
        raise OverflowError(f"{path}: cube values lie past the float32 range")
    _write(path, payload, "f32")


def _finite_cube(path: Path, values: np.ndarray) -> DataCube:
    """The payload as a cube, if every value is finite as the float32 that
    an HSC file stores."""
    with np.errstate(over="ignore"):  # a float64 past float32's range casts to inf
        stored = values.astype(DTYPES["f32"], copy=False)
    if not np.isfinite(stored).all():
        what = "values past the float32 range" if np.isfinite(values).all() else "non-finite values"
        raise FormatError(f"{path}: payload holds {what}")
    return DataCube(values.astype(np.float64))


def read_cube(path) -> DataCube:
    path = Path(path)
    return _finite_cube(path, _read(path, "f32", "cube"))


def read_raw_cube(path, m: int, n: int, B: int, dtype: str = "f32") -> DataCube:
    """Read a headerless band-sequential file of m*n*B ``dtype`` elements.

    A file whose size does not match the dimensions is a ``ValueError`` (the
    dimensions come from the caller); an element that is not finite as float32
    is a ``FormatError``.
    """
    path = Path(path)
    if min(m, n, B) < 1:
        raise ValueError(f"dimensions must be positive, got m={m} n={n} B={B}")
    blob = path.read_bytes()
    count = m * n * B
    held, stray = divmod(len(blob), DTYPES[dtype].itemsize)
    if held != count or stray:
        tail = f" and {stray} stray bytes" if stray else ""
        raise ValueError(f"{path}: file holds {held} {dtype} elements{tail}, dims imply {count}")
    return _finite_cube(path, np.frombuffer(blob, dtype=DTYPES[dtype]).reshape(B, m, n))


def write_mask(path, masks: MaskSet) -> None:
    _write(path, masks.masks, "u8")


def read_mask(path) -> MaskSet:
    path = Path(path)
    raw = _read(path, "u8", "mask")
    if raw.max(initial=0) > 1:
        raise FormatError(f"{path}: mask bytes must be 0 or 1")
    return MaskSet(raw.astype(bool))


def export_band_pgm(path, cube: DataCube, t: int) -> None:
    """Write band ``t`` (0-based) as a binary 16-bit PGM, min-max scaled.

    The scaling is recorded in a comment line; a constant band maps to
    mid-gray.
    """
    if not 0 <= t < cube.B:
        raise ValueError(f"band index must be in [0, {cube.B - 1}], got {t}")
    band = cube.band(t)
    lo, hi = float(band.min()), float(band.max())
    if hi > lo:
        pixels = np.rint((band - lo) / (hi - lo) * PGM_MAXVAL).astype(">u2")
    else:
        pixels = np.full(band.shape, (PGM_MAXVAL + 1) // 2, dtype=">u2")
    header = f"P5\n# scale min={lo!r} max={hi!r}\n{cube.n} {cube.m}\n{PGM_MAXVAL}\n"
    Path(path).write_bytes(header.encode("ascii") + pixels.tobytes())


def export_band_csv(path, cube: DataCube, t: int) -> None:
    """Write band ``t`` (0-based) as comma-separated rows."""
    if not 0 <= t < cube.B:
        raise ValueError(f"band index must be in [0, {cube.B - 1}], got {t}")
    np.savetxt(Path(path), cube.band(t), delimiter=",", fmt="%.17g")
