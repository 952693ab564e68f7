"""Patch extraction and the periodic shift operators it is built from.

Shifts wrap around at the image border, so every component shift is a
permutation of the pixel grid and its adjoint is exactly its inverse. All of
them gather by ``shift_permutation``: the patch matrix's offset-i columns,
the i-th component and its adjoint here, and the shift-sum of
``graph.assemble_wtilde``. The patch matrix itself is never stored: a
``PatchMatrix`` holds a read-only view of the (m*n) x B unfolding it was
given, with no copy, and the window's gather, and makes rows on demand.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "PatchGeometry",
    "PatchMatrix",
    "shift_index",
    "shift_permutation",
    "extract_patches",
    "patch_component_apply",
    "patch_component_adjoint",
]

_MAX_PATCH_BYTES = 2 << 30  # the largest patch matrix extract_patches accepts


@dataclass(frozen=True)
class PatchGeometry:
    """Spatial patch window (s1 rows x s2 cols) over an m x n image.

    Window positions are enumerated row-major; component index i in
    [1, d_s] corresponds to spatial offset i-1 in that enumeration.
    """

    s1: int
    s2: int
    m: int
    n: int

    def __post_init__(self):
        if not (1 <= self.s1 <= self.m):
            raise ValueError(f"need 1 <= s1 <= m, got s1={self.s1}, m={self.m}")
        if not (1 <= self.s2 <= self.n):
            raise ValueError(f"need 1 <= s2 <= n, got s2={self.s2}, n={self.n}")

    @property
    def d_s(self) -> int:
        return self.s1 * self.s2

    @property
    def n_pixels(self) -> int:
        return self.m * self.n


def _offset(j: int, s2: int) -> tuple[int, int]:
    # j steps along the row-major window walk; negative j mirrors the
    # positive offset so that offset(-j) == -offset(j) and shifts invert.
    q, r = divmod(abs(j), s2)
    return (q, r) if j >= 0 else (-q, -r)


def shift_index(x: tuple[int, int], j: int, geom: PatchGeometry) -> tuple[int, int]:
    """Pixel j steps after x in the row-major patch walk, wrapping periodically."""
    if abs(j) >= geom.d_s:
        raise ValueError(f"|j| must be < d_s={geom.d_s}, got j={j}")
    dr, dc = _offset(j, geom.s2)
    return ((x[0] + dr) % geom.m, (x[1] + dc) % geom.n)


def shift_permutation(geom: PatchGeometry, j: int) -> np.ndarray:
    """Linear-index permutation: perm[p] is the pixel j steps after pixel p."""
    if abs(j) >= geom.d_s:
        raise ValueError(f"|j| must be < d_s={geom.d_s}, got j={j}")
    dr, dc = _offset(j, geom.s2)
    rows = (np.arange(geom.m)[:, None] + dr) % geom.m
    cols = (np.arange(geom.n)[None, :] + dc) % geom.n
    return (rows * geom.n + cols).reshape(-1)


@dataclass(frozen=True)
class PatchMatrix:
    """The (m*n) x (s1*s2*B) patch matrix, held as the (m*n) x B
    unfolding and the window's (m*n) x (s1*s2) gather of pixel indices.

    Row p of the matrix is the unfolding's rows ``gather[p]``, one after the
    other: offset outer, band inner. ``rows`` makes some rows and
    ``np.asarray`` the whole matrix, each a new float64 array bitwise equal
    to the rows of the matrix. A plain 2-d array is its own unfolding with
    the identity gather (``of``).
    """

    unfolded: np.ndarray
    gather: np.ndarray

    @classmethod
    def of(cls, patches) -> "PatchMatrix":
        """``patches`` itself, or a 2-d array read with the identity gather."""
        if isinstance(patches, cls):
            return patches
        P = np.ascontiguousarray(patches, dtype=np.float64)
        if P.ndim != 2:
            raise ValueError(f"patch matrix must be 2-d, got shape {P.shape}")
        return cls(P, np.arange(P.shape[0])[:, None])

    @property
    def shape(self) -> tuple[int, int]:
        return self.gather.shape[0], self.gather.shape[1] * self.unfolded.shape[1]

    def rows(self, which) -> np.ndarray:
        """The rows ``which`` (a slice or an index array) of the matrix."""
        g = self.gather[which]
        # take by the flat gather, which numpy runs faster than fancy indexing
        return self.unfolded.take(g.reshape(-1), axis=0).reshape(g.shape[0], self.shape[1])

    def __array__(self, dtype=None, copy=None):
        if copy is False:
            raise ValueError("a PatchMatrix holds no matrix to view; its rows are gathered")
        out = self.rows(slice(None))
        return out if dtype is None else out.astype(dtype, copy=False)


def _check_budget(geom: PatchGeometry, B: int) -> None:
    """Refuse a patch matrix of more than ``_MAX_PATCH_BYTES``."""
    need = geom.n_pixels * geom.d_s * B * 8
    if need > _MAX_PATCH_BYTES:
        raise ValueError(f"patch matrix needs {need} bytes, budget is {_MAX_PATCH_BYTES}")


def extract_patches(unfolded: np.ndarray, geom: PatchGeometry) -> PatchMatrix:
    """One flattened s1 x s2 x B patch per pixel of an (m*n) x B unfolding.

    Returns the (m*n) x (s1*s2*B) patch matrix as a ``PatchMatrix``; row p
    (pixel in row-major order) holds the patch anchored at p with its
    top-left corner at p, and columns run spatial offset outer, band inner,
    so column i*B + t is band t at window offset i; ``np.asarray`` of it is
    the matrix. It reads a C-contiguous float64 ``unfolded`` in place, by a
    read-only view. A matrix past ``_MAX_PATCH_BYTES`` is refused.
    """
    U = np.ascontiguousarray(unfolded, dtype=np.float64)
    if U.ndim != 2 or U.shape[0] != geom.n_pixels:
        raise ValueError(f"unfolding must be ({geom.n_pixels}, B), got shape {U.shape}")
    _check_budget(geom, U.shape[1])
    gather = np.stack([shift_permutation(geom, i) for i in range(geom.d_s)], axis=1)
    view = U.view()
    view.flags.writeable = False
    return PatchMatrix(view, gather)


def _component(band: np.ndarray, i: int, j: int, geom: PatchGeometry) -> np.ndarray:
    """Component i's shift by j steps: output(p) = band(pixel j steps after p)."""
    if not 1 <= i <= geom.d_s:
        raise ValueError(f"component index must be in [1, {geom.d_s}], got {i}")
    band = np.asarray(band)
    if band.shape != (geom.m, geom.n):
        raise ValueError(f"band must have shape {(geom.m, geom.n)}, got {band.shape}")
    return band.reshape(-1)[shift_permutation(geom, j)].reshape(band.shape)


def patch_component_apply(band: np.ndarray, i: int, geom: PatchGeometry) -> np.ndarray:
    """output(x) = input(x shifted by i-1): read the i-th patch component."""
    return _component(band, i, i - 1, geom)


def patch_component_adjoint(band: np.ndarray, i: int, geom: PatchGeometry) -> np.ndarray:
    """output(x) = input(x shifted by 1-i): exact adjoint of the i-th component."""
    return _component(band, i, 1 - i, geom)
