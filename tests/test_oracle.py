import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.ndimage import gaussian_filter, gaussian_filter1d

import hsldmm
from hsldmm import DataCube, SyntheticSpec, _workers, synth_cube
from hsldmm.oracle import dense_solve, fd_gradient
from hsldmm.solver import BandSystem, assemble_band_system
from hsldmm.oracle import _periodic_smooth, selfcheck


def same_bits(got, want):
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


# --- _periodic_smooth against scipy.ndimage ------------------------------


def smooth_2d(a, sigma):
    return _periodic_smooth(_periodic_smooth(a, sigma, 0), sigma, 1)


@settings(max_examples=200)
@given(
    m=st.integers(1, 40),
    n=st.integers(1, 40),
    sigma=st.floats(0.0, 12.0, exclude_min=True),
    seed=st.integers(0, 2**32 - 1),
)
def test_periodic_smooth_is_bitwise_ndimage_wrap(m, n, sigma, seed):
    a = np.random.default_rng(seed).standard_normal((m, n))
    assert same_bits(smooth_2d(a, sigma), gaussian_filter(a, sigma, mode="wrap"))
    # gaussian_filter1d forms 1/sigma^2 even at radius 0, which underflows
    # below about 1e-154; gaussian_filter skips sigma <= 1e-15 instead
    if sigma > 1e-15:
        for axis in (0, 1):
            want = gaussian_filter1d(a, sigma, axis=axis, mode="wrap")
            assert same_bits(_periodic_smooth(a, sigma, axis), want)
        assert same_bits(_periodic_smooth(a[0], sigma, 0), gaussian_filter1d(a[0], sigma, mode="wrap"))


@pytest.mark.parametrize("shape, sigma", [
    ((9, 7), 0.124),   # radius 0
    ((9, 7), 0.125),   # radius 1
    ((9, 7), 1e-15),   # the largest sigma gaussian_filter skips
    ((9, 7), 1e-200),  # sigma^2 underflows to 0
    ((3, 3), 7.3),     # radius 29 on axes of 3
])
def test_periodic_smooth_named_cases_match_gaussian_filter(shape, sigma):
    a = np.random.default_rng(1).standard_normal(shape)
    assert same_bits(smooth_2d(a, sigma), gaussian_filter(a, sigma, mode="wrap"))


def test_periodic_smooth_radius_zero_returns_input_without_dividing():
    a = np.random.default_rng(2).standard_normal((4, 6))
    assert _periodic_smooth(a, 1e-200, 1) is a
    assert _periodic_smooth(a, 0.124, 0) is a


@pytest.mark.parametrize("B", range(3, 9))
def test_periodic_smooth_short_spectra_match_gaussian_filter1d(B):
    # the generator's spectra: radius 4 passes the length of the axis
    s = np.random.default_rng(B).standard_normal(B)
    assert same_bits(_periodic_smooth(s, 1.0, 0), gaussian_filter1d(s, 1.0, mode="wrap"))


# --- synth_cube ---------------------------------------------------------


def ndimage_synth_cube(spec):
    """The generator as it was written on scipy.ndimage, kept as a reference."""
    rng = np.random.default_rng(spec.seed)
    maps = np.empty((spec.rank, spec.m, spec.n))
    for l in range(spec.rank):
        a = rng.standard_normal((spec.m, spec.n))
        if spec.smoothness > 0:
            a = gaussian_filter(a, spec.smoothness, mode="wrap")
        a -= a.min()
        maps[l] = a
    total = maps.sum(axis=0)
    maps /= np.maximum(total, 1.0)[None, :, :]
    spectra = np.empty((spec.rank, spec.B))
    for l in range(spec.rank):
        s = rng.standard_normal(spec.B)
        if spec.B > 2:
            s = gaussian_filter1d(s, max(1.0, spec.B / 8.0), mode="wrap")
        lo, hi = s.min(), s.max()
        spectra[l] = (s - lo) / (hi - lo) if hi > lo else 0.5
    return DataCube(np.einsum("lmn,lt->tmn", maps, spectra))


SPECS_IN_USE = [
    # the benchmark workloads' scenes
    SyntheticSpec(80, 80, 32, 3, seed=1),
    SyntheticSpec(48, 48, 96, 3, seed=1),
    SyntheticSpec(64, 64, 8, 3, seed=1),
    # README quickstart, CI steps
    SyntheticSpec(32, 32, 8, 3, seed=1),
    SyntheticSpec(128, 128, 32, 3, seed=1),
    SyntheticSpec(20, 30, 4, 3, seed=1),
    # acceptance criteria and selfcheck
    SyntheticSpec(8, 8, 3, 3, smoothness=1.5, seed=0),
    *(SyntheticSpec(4, 4, 2, 2, smoothness=1.0, seed=s) for s in range(4)),
    *(SyntheticSpec(6, 6, 2, 2, smoothness=1.0, seed=s) for s in range(10)),
    *(SyntheticSpec(32, 32, 8, 3, smoothness=3.0, seed=s) for s in range(10)),
    *(SyntheticSpec(16, 16, B, 2, smoothness=2.0, seed=3) for B in (2, 5)),
    *(SyntheticSpec(64, 64, B, 3, smoothness=3.0, seed=1) for B in (4, 32)),
    SyntheticSpec(6, 6, 1, 1, smoothness=1.5, seed=5),
    SyntheticSpec(4, 4, 2, 1, smoothness=1.0, seed=9),
    SyntheticSpec(32, 32, 6, 2, smoothness=1.0, seed=4),
    # radius 0 on the maps, without forming 1/sigma^2
    SyntheticSpec(12, 10, 6, 2, smoothness=1e-200, seed=0),
]


def spec_id(spec):
    return f"{spec.m}x{spec.n}x{spec.B}-rank{spec.rank}-smooth{spec.smoothness}-seed{spec.seed}"


@pytest.mark.parametrize("spec", SPECS_IN_USE, ids=spec_id)
def test_synth_cube_is_bitwise_the_ndimage_generator(spec):
    assert same_bits(synth_cube(spec).values, ndimage_synth_cube(spec).values)


def test_importing_the_library_loads_neither_ndimage_nor_special():
    src = Path(hsldmm.__file__).resolve().parents[1]
    code = ("import sys, hsldmm, hsldmm.cli; "
            "print(sorted(m for m in ('scipy.ndimage', 'scipy.special') if m in sys.modules))")
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_synth_rank1_exact():
    cube = synth_cube(SyntheticSpec(16, 16, 4, 1, smoothness=2.0, seed=0))
    sig = np.linalg.svd(cube.unfold(), compute_uv=False)
    assert sig[1] <= 1e-10 * sig[0]


def test_synth_rank3_fourth_singular_value_vanishes():
    cube = synth_cube(SyntheticSpec(32, 32, 8, 3, smoothness=3.0, seed=1))
    sig = np.linalg.svd(cube.unfold(), compute_uv=False)
    assert sig[2] > 1e-6 * sig[0]  # genuinely rank 3
    assert sig[3] <= 1e-10 * sig[0]


def test_synth_deterministic_and_bounded():
    spec = SyntheticSpec(12, 12, 6, 2, smoothness=2.0, seed=7)
    a = synth_cube(spec)
    b = synth_cube(spec)
    assert np.array_equal(a.values, b.values)
    assert a.values.min() >= 0.0 and a.values.max() <= 1.0


def test_synth_spec_validation():
    with pytest.raises(ValueError):
        SyntheticSpec(8, 8, 4, 0)
    with pytest.raises(ValueError):
        SyntheticSpec(8, 8, 4, 5)  # rank > B
    with pytest.raises(ValueError):
        SyntheticSpec(8, 8, 16, 9)  # rank > 8


@pytest.mark.parametrize("value", [math.nan, math.inf, -1.0])
def test_synth_spec_rejects_bad_smoothness_naming_it(value):
    with pytest.raises(ValueError, match=f"smoothness .*got {value}"):
        SyntheticSpec(8, 8, 4, 2, smoothness=value)


# --- dense_solve ------------------------------------------------------------


def _system_from_dense(A, rhs):
    return BandSystem(A=sp.csr_matrix(A), rhs=np.asarray(rhs, float), band=0, mu=0.0, lam=0.0)


def test_dense_solve_identity():
    e1 = np.zeros(4)
    e1[0] = 1.0
    out = dense_solve(_system_from_dense(np.eye(4), e1))
    assert np.array_equal(out, e1)


def test_dense_solve_random_diagonally_dominant():
    rng = np.random.default_rng(2)
    A = rng.random((10, 10))
    A += np.diag(A.sum(axis=1) + 1.0)
    rhs = rng.random(10)
    x = dense_solve(_system_from_dense(A, rhs))
    assert np.linalg.norm(A @ x - rhs) <= 1e-10 * np.linalg.norm(rhs)


def test_dense_solve_singular_raises():
    with pytest.raises(np.linalg.LinAlgError):
        dense_solve(_system_from_dense(np.zeros((3, 3)), np.ones(3)))


def test_dense_solve_size_cap():
    big = sp.identity(5000, format="csr")
    system = BandSystem(A=big, rhs=np.ones(5000), band=0, mu=0.0, lam=0.0)
    with pytest.raises(ValueError):
        dense_solve(system)


def test_dense_solve_on_assembled_band_system():
    cube = synth_cube(SyntheticSpec(4, 4, 2, 2, smoothness=1.0, seed=3))
    from hsldmm.graph import assemble_wtilde, build_bar_w, knn_exact, local_scale
    from hsldmm.patch import PatchGeometry, extract_patches

    geom = PatchGeometry(2, 2, 4, 4)
    patches = extract_patches(cube.unfold(), geom)
    table = knn_exact(patches, 6)
    wt = assemble_wtilde(build_bar_w(table, local_scale(table, 3)), geom)
    mask = np.zeros((4, 4), bool)
    mask.reshape(-1)[[1, 7, 12]] = True
    system = assemble_band_system(wt, mask, cube.band(1), 2.0, 3 / 16)
    x = dense_solve(system)
    assert np.linalg.norm(system.A @ x - system.rhs) <= 1e-10 * np.linalg.norm(system.rhs)


# --- fd_gradient ----------------------------------------------------------------


def test_fd_gradient_quadratic():
    rng = np.random.default_rng(4)
    u = rng.random((3, 3))
    grad = fd_gradient(lambda v: 0.5 * float((v * v).sum()), u, 1e-6)
    assert np.allclose(grad, u.reshape(-1), atol=1e-9)


def test_fd_gradient_constant_field_zero():
    grad = fd_gradient(lambda v: 42.0, np.ones((3, 3)), 1e-5)
    assert np.array_equal(grad, np.zeros(9))


def test_fd_gradient_matches_analytic_residual_on_energy():
    # full (symmetric) graph on a 3x3 grid: the energy gradient equals twice
    # the assembled residual A u - rhs
    from hsldmm.graph import assemble_wtilde, build_bar_w, knn_exact, local_scale
    from hsldmm.patch import PatchGeometry, extract_patches
    from hsldmm.solver import wnll_energy

    cube = synth_cube(SyntheticSpec(3, 3, 2, 1, smoothness=1.0, seed=5))
    geom = PatchGeometry(2, 2, 3, 3)
    patches = extract_patches(cube.unfold(), geom)
    table = knn_exact(patches, 9)
    wt = assemble_wtilde(build_bar_w(table, local_scale(table, 4)), geom)
    mask = np.zeros((3, 3), bool)
    mask.reshape(-1)[[0, 4]] = True
    lam, rate = 2.0, 2 / 9
    system = assemble_band_system(wt, mask, cube.band(0), lam, rate)
    rng = np.random.default_rng(6)
    u = rng.random((3, 3))
    grad = fd_gradient(
        lambda img: wnll_energy(img, wt, mask, cube.band(0), lam, rate), u, 1e-5
    )
    residual = system.A @ u.reshape(-1) - system.rhs
    assert np.allclose(grad, 2.0 * residual, atol=1e-6)


def test_fd_gradient_validation():
    with pytest.raises(ValueError):
        fd_gradient(lambda v: 0.0, np.ones((2, 2)), 0.0)


def test_selfcheck_passes(capsys):
    assert selfcheck()
    out = capsys.readouterr().out
    assert out.count("PASS") == 7 and "FAIL" not in out
    assert f"kNN blocks and bands run on {_workers._pool_size()} process" in out.splitlines()[0]


def test_selfcheck_header_names_one_process_on_one_cpu(monkeypatch, capsys):
    monkeypatch.setattr(_workers, "_usable_cpus", lambda: 1)
    assert selfcheck()
    header = capsys.readouterr().out.splitlines()[0]
    assert header.endswith("kNN blocks and bands run on 1 process, the caller alone")
