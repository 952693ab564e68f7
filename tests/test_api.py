import re
from pathlib import Path

import hsldmm

README = Path(__file__).resolve().parents[1] / "README.md"

TOP_LEVEL = [
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


def test_top_level_exports_only_what_callers_use():
    assert sorted(hsldmm.__all__) == TOP_LEVEL
    star = {}
    exec("from hsldmm import *", star)
    assert sorted(set(star) - {"__builtins__"}) == TOP_LEVEL
    # the helpers are imported from their modules
    from hsldmm.datacube import Metrics
    from hsldmm.graph import NeighborTable, assemble_wtilde, build_bar_w, knn_exact, local_scale
    from hsldmm.lowrank import svt
    from hsldmm.oracle import dense_solve, fd_gradient
    from hsldmm.patch import PatchGeometry, extract_patches, shift_permutation
    from hsldmm.solver import BandSystem, assemble_band_system, wnll_energy

    moved = [Metrics, NeighborTable, assemble_wtilde, build_bar_w, knn_exact, local_scale, svt,
             dense_solve, fd_gradient, PatchGeometry, extract_patches, shift_permutation,
             BandSystem, assemble_band_system, wnll_energy]
    assert len({f.__name__ for f in moved}) == 15
    assert not any(hasattr(hsldmm, f.__name__) for f in moved)


def test_readme_library_quickstart_runs(capsys):
    text = README.read_text()
    section = text[text.index("## Library quickstart"):]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    scope = {}
    exec(code, scope)
    assert scope["result"].dims == scope["cube"].dims
    psnr_last, apg_iters = capsys.readouterr().out.split()
    assert float(psnr_last) > 15.0 and int(apg_iters) > 0
