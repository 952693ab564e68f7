"""Patch extraction and the periodic shift operators it is built from.

Shifts wrap around at the image border, so every component shift is a
permutation of the pixel grid and its adjoint is exactly its inverse. All of
them shift pixels by ``_shift_pixels``: the patch matrix's gather, whose
column j is window offset j (``shift_permutation(geom, j)``), and the
shift-sum of ``graph.assemble_wtilde``, which applies each component's
adjoint as the inverse shift. The patch matrix itself is never stored: a
``PatchMatrix`` holds a read-only view of the (m*n) x B unfolding it was
given, with no copy, and the window's gather, and makes rows on demand.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "PatchGeometry",
    "PatchMatrix",
    "shift_permutation",
    "extract_patches",
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


def shift_permutation(geom: PatchGeometry, j: int) -> np.ndarray:
    """Linear-index permutation: perm[p] is the pixel j steps after pixel p."""
    return _shift_pixels(geom, j, np.arange(geom.n_pixels))


def _shift_pixels(geom: PatchGeometry, j: int, p: np.ndarray) -> np.ndarray:
    """The pixel j steps after each linear pixel index in ``p``."""
    if abs(j) >= geom.d_s:
        raise ValueError(f"|j| must be < d_s={geom.d_s}, got j={j}")
    # j steps along the row-major window walk; negative j mirrors the
    # positive offset, so that the shifts by j and -j invert
    dr, dc = divmod(abs(j), geom.s2)
    if j < 0:
        dr, dc = -dr, -dc
    rows, cols = np.divmod(p, geom.n)
    return (rows + dr) % geom.m * geom.n + (cols + dc) % geom.n


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

