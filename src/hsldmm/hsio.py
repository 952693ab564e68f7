"""HSC container I/O and single-band export.

An HSC file is the magic ``HSC1\\n``, one UTF-8 header line
``m=<int> n=<int> B=<int> dtype=f32 order=bsq\\n``, then m*n*B little-endian
32-bit floats in band-sequential order. Mask files use ``dtype=u8`` and one
0/1 byte per voxel. Reads and writes are bit-exact over the format's domain;
cube values are widened to float64 in memory.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .datacube import DataCube, MaskSet

__all__ = [
    "FormatError",
    "read_cube",
    "write_cube",
    "read_mask",
    "write_mask",
    "export_band_pgm",
    "export_band_csv",
]

MAGIC = b"HSC1\n"
PGM_MAXVAL = 65535


class FormatError(ValueError):
    """Malformed HSC or mask file."""


def _header_line(m: int, n: int, B: int, dtype: str) -> bytes:
    return f"m={m} n={n} B={B} dtype={dtype} order=bsq\n".encode("ascii")


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


def write_cube(path, cube: DataCube) -> None:
    path = Path(path)
    payload = np.ascontiguousarray(cube.values, dtype="<f4").tobytes()
    path.write_bytes(MAGIC + _header_line(cube.m, cube.n, cube.B, "f32") + payload)


def read_cube(path) -> DataCube:
    path = Path(path)
    blob = path.read_bytes()
    m, n, B, dtype, off = _parse_header(blob, path)
    if dtype != "f32":
        raise FormatError(f"{path}: expected dtype=f32 for a cube, got {dtype!r}")
    count = m * n * B
    if len(blob) - off != count * 4:
        raise FormatError(f"{path}: payload is {len(blob) - off} bytes, expected {count * 4}")
    values = np.frombuffer(blob, dtype="<f4", count=count, offset=off)
    if not np.isfinite(values).all():
        raise FormatError(f"{path}: payload holds non-finite values")
    return DataCube(values.astype(np.float64).reshape(B, m, n))


def write_mask(path, masks: MaskSet) -> None:
    path = Path(path)
    payload = np.ascontiguousarray(masks.masks, dtype=np.uint8).tobytes()
    path.write_bytes(MAGIC + _header_line(masks.m, masks.n, masks.B, "u8") + payload)


def read_mask(path) -> MaskSet:
    path = Path(path)
    blob = path.read_bytes()
    m, n, B, dtype, off = _parse_header(blob, path)
    if dtype != "u8":
        raise FormatError(f"{path}: expected dtype=u8 for a mask, got {dtype!r}")
    count = m * n * B
    if len(blob) - off != count:
        raise FormatError(f"{path}: payload is {len(blob) - off} bytes, expected {count}")
    raw = np.frombuffer(blob, dtype=np.uint8, count=count, offset=off)
    if raw.max(initial=0) > 1:
        raise FormatError(f"{path}: mask bytes must be 0 or 1")
    return MaskSet(raw.reshape(B, m, n).astype(bool))


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
