"""Hyperspectral cube reconstruction from sparse, noisy samples.

Pipeline: nuclear-norm matrix completion for a first estimate, then a few
outer rounds in which a patch-similarity graph built once on the spatial
grid is shared by every spectral band and each band is refreshed by a
sparse non-symmetric linear solve.

The top level holds the cube types, the synthetic data, the two stages and
the metric. The patch, graph, band-system and oracle helpers are imported
from their modules: ``hsldmm.patch``, ``hsldmm.graph``, ``hsldmm.solver``
and ``hsldmm.oracle``.
"""

from .datacube import DataCube, MaskSet, add_gaussian_noise, apply_mask, make_mask, psnr
from .lowrank import ApgConfig, apg_complete
from .oracle import SyntheticSpec, synth_cube
from .solver import NumericalError, RunLog, SolverConfig, ldmm_reconstruct

__version__ = "0.1.0"

__all__ = [
    "ApgConfig",
    "DataCube",
    "MaskSet",
    "NumericalError",
    "RunLog",
    "SolverConfig",
    "SyntheticSpec",
    "add_gaussian_noise",
    "apg_complete",
    "apply_mask",
    "ldmm_reconstruct",
    "make_mask",
    "psnr",
    "synth_cube",
]
