"""Cube and mask containers, corruption operators, and quality metrics."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields

import numpy as np

__all__ = [
    "DataCube",
    "MaskSet",
    "Metrics",
    "make_mask",
    "add_gaussian_noise",
    "apply_mask",
    "psnr",
]


def _check_field_types(config) -> None:
    """Raise ValueError naming the first field of a config dataclass whose value is
    not of its annotated type (``int``, ``float`` or ``float | None``; bools are neither)."""
    for f in fields(config):
        value = getattr(config, f.name)
        ok = isinstance(value, numbers.Integral if f.type == "int" else numbers.Real)
        if isinstance(value, bool) or not (ok or value is None and "None" in f.type):
            raise ValueError(f"{f.name} must be of type {f.type}, got {value!r}")


class _Grid:
    """The (B, m, n) layout that cubes and masks share.

    Each band is a contiguous row-major m x n image, so the flat buffer is
    band-sequential. A subclass is a frozen dataclass whose one field, named
    by ``_field``, holds the array; it is copied to ``_dtype`` on
    construction and frozen, so grids are safe to share across threads.
    """

    def __post_init__(self):
        arr = np.array(getattr(self, self._field), dtype=self._dtype, order="C")
        kind = type(self).__name__
        if arr.ndim != 3:
            raise ValueError(f"{kind} array must be 3-d (B, m, n), got shape {arr.shape}")
        if min(arr.shape) < 1:
            raise ValueError(f"{kind} dimensions must be positive, got {arr.shape}")
        arr.setflags(write=False)
        object.__setattr__(self, self._field, arr)

    @property
    def _array(self) -> np.ndarray:
        return getattr(self, self._field)

    @property
    def B(self) -> int:
        return self._array.shape[0]

    @property
    def m(self) -> int:
        return self._array.shape[1]

    @property
    def n(self) -> int:
        return self._array.shape[2]

    @property
    def dims(self) -> tuple[int, int, int]:
        """(m, n, B)."""
        return (self.m, self.n, self.B)

    def band(self, t: int) -> np.ndarray:
        """Read-only m x n view of band ``t`` (0-based)."""
        return self._array[t]

    def unfold(self) -> np.ndarray:
        """A new (m*n) x B matrix; pixel order is row-major, one column per band."""
        return np.array(self._array.reshape(self.B, -1).T, order="C")


@dataclass(frozen=True)
class DataCube(_Grid):
    """Dense hyperspectral volume: finite float64 ``values`` of shape (B, m, n),
    copied on construction and frozen."""

    values: np.ndarray
    _field = "values"
    _dtype = np.float64

    def __post_init__(self):
        super().__post_init__()
        if not np.all(np.isfinite(self.values)):
            raise ValueError("cube values must be finite")

    @classmethod
    def from_unfolded(cls, mat: np.ndarray, m: int, n: int) -> "DataCube":
        mat = np.asarray(mat, dtype=np.float64)
        if mat.ndim != 2 or mat.shape[0] != m * n:
            raise ValueError(f"expected ({m * n}, B) matrix, got {mat.shape}")
        return cls(mat.T.reshape(mat.shape[1], m, n))


@dataclass(frozen=True)
class MaskSet(_Grid):
    """Per-band boolean sampling ``masks`` of shape (B, m, n), immutable."""

    masks: np.ndarray
    _field = "masks"
    _dtype = bool

    def counts(self) -> np.ndarray:
        """Number of sampled pixels per band."""
        return self.masks.sum(axis=(1, 2))

    def rates(self) -> np.ndarray:
        """Empirical sampling rate per band."""
        return self.counts() / float(self.m * self.n)


@dataclass(frozen=True)
class Metrics:
    """Reconstruction quality against a reference cube.

    ``psnr_paper`` is 10*log10(peak / mse) with peak the max absolute value
    of the reference; ``psnr_standard`` is the conventional
    10*log10(peak**2 / mse). ``psnr`` returns whichever ``formula`` selects.
    """

    mse: float
    peak: float
    psnr_paper: float
    psnr_standard: float
    formula: str = "paper"

    @property
    def psnr(self) -> float:
        return self.psnr_paper if self.formula == "paper" else self.psnr_standard


def make_mask(dims: tuple[int, int, int], rate: float, seed: int) -> MaskSet:
    """Draw an independent uniform random pixel subset for every band.

    Each band samples exactly floor(rate * m * n) pixels (different bands
    draw different subsets); the result is a pure function of (dims, rate,
    seed).
    """
    m, n, B = dims
    if m < 1 or n < 1 or B < 1:
        raise ValueError(f"dimensions must be positive, got {dims}")
    if not 0.0 < rate <= 1.0:
        raise ValueError(f"sampling rate must be in (0, 1], got {rate}")
    # +1e-9 guards the floor against representation error in rate*m*n
    count = int(math.floor(rate * m * n + 1e-9))
    rng = np.random.default_rng(seed)
    masks = np.zeros((B, m, n), dtype=bool)
    for t in range(B):
        chosen = rng.permutation(m * n)[:count]
        masks[t].reshape(-1)[chosen] = True
    return MaskSet(masks)


def add_gaussian_noise(cube: DataCube, sigma: float, seed: int) -> DataCube:
    """Add i.i.d. zero-mean Gaussian noise to every voxel, seed-deterministic."""
    if not 0.0 <= sigma < math.inf:
        raise ValueError(f"noise level must be finite and non-negative, got {sigma}")
    if sigma == 0:
        return DataCube(cube.values)
    rng = np.random.default_rng(seed)
    return DataCube(cube.values + sigma * rng.standard_normal(cube.values.shape))


def apply_mask(cube: DataCube, masks: MaskSet) -> DataCube:
    """Zero out unsampled voxels.

    The zeros are a storage convention only; the mask must be carried along
    to tell a sampled zero from a missing voxel.
    """
    if cube.dims != masks.dims:
        raise ValueError(f"cube dims {cube.dims} do not match mask dims {masks.dims}")
    return DataCube(np.where(masks.masks, cube.values, 0.0))


def psnr(candidate: DataCube, reference: DataCube, formula: str = "paper") -> Metrics:
    """Mean squared error and both PSNR variants over all voxels.

    mse == 0 yields +inf PSNR rather than an error.
    """
    if formula not in ("paper", "standard"):
        raise ValueError(f"formula must be 'paper' or 'standard', got {formula!r}")
    if candidate.dims != reference.dims:
        raise ValueError(
            f"candidate dims {candidate.dims} do not match reference dims {reference.dims}"
        )
    peak = float(np.max(np.abs(reference.values)))
    if peak == 0.0:
        raise ValueError("reference cube is identically zero")
    diff = candidate.values - reference.values
    mse = float(np.mean(diff * diff))
    if mse == 0.0:
        p_paper = math.inf
        p_std = math.inf
    else:
        p_paper = 10.0 * math.log10(peak / mse)
        p_std = 10.0 * math.log10(peak * peak / mse)
    return Metrics(mse=mse, peak=peak, psnr_paper=p_paper, psnr_standard=p_std, formula=formula)
