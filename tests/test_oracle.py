import math

import numpy as np
import pytest
import scipy.sparse as sp

from hsldmm import (
    BandSystem,
    SyntheticSpec,
    assemble_band_system,
    dense_solve,
    fd_gradient,
    synth_cube,
)
from hsldmm import _workers
from hsldmm.oracle import selfcheck


# --- synth_cube ---------------------------------------------------------


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
    from hsldmm import PatchGeometry, build_bar_w, extract_patches, knn_exact, local_scale, assemble_wtilde

    geom = PatchGeometry(2, 2, 4, 4)
    patches = extract_patches(cube, geom)
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
    from hsldmm import (
        PatchGeometry,
        assemble_wtilde,
        build_bar_w,
        extract_patches,
        knn_exact,
        local_scale,
        wnll_energy,
    )

    cube = synth_cube(SyntheticSpec(3, 3, 2, 1, smoothness=1.0, seed=5))
    geom = PatchGeometry(2, 2, 3, 3)
    patches = extract_patches(cube, geom)
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
