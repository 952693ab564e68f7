import dataclasses
import math
import os
import signal
import tempfile
import threading
import time
import warnings
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hsldmm.graph as graph_mod
import hsldmm.solver as solver_mod
from hsldmm import _workers
from hsldmm import (
    ApgConfig,
    DataCube,
    MaskSet,
    NumericalError,
    SolverConfig,
    SyntheticSpec,
    apg_complete,
    apply_mask,
    ldmm_reconstruct,
    make_mask,
    psnr,
    synth_cube,
)
from hsldmm.graph import assemble_wtilde, build_bar_w, knn_exact, local_scale
from hsldmm.oracle import DENSE_SOLVE_CAP, dense_solve, fd_gradient
from hsldmm.patch import PatchGeometry, extract_patches
from hsldmm.solver import RunLog, _gmres, assemble_band_system, wnll_energy


def small_graph(m, n, B, s, k, seed):
    cube = synth_cube(SyntheticSpec(m, n, B, min(B, 3), smoothness=1.5, seed=seed))
    geom = PatchGeometry(s, s, m, n)
    patches = extract_patches(cube.unfold(), geom)
    table = knn_exact(patches, k)
    wt = assemble_wtilde(build_bar_w(table, local_scale(table, max(2, k // 2))), geom)
    return cube, geom, wt


def off_diagonal(wtilde):
    """The graph without its self weights, which the band operator ignores."""
    return (sp.triu(wtilde, 1) + sp.tril(wtilde, -1)).tocsr()


def diags_assembly(wtilde, mask, lam, rate):
    """Reference band operator in sparse-product form:
    (2 + mu chi)(D - W) + mu (D_omega - W chi) + lam chi, with W the graph
    without self weights and D its row sums."""
    W = off_diagonal(wtilde)
    chi = np.asarray(mask, dtype=np.float64).reshape(-1)
    mu = 1.0 / rate - 1.0
    # a sequential sum in column order, as the solver takes it
    deg = W @ np.ones(W.shape[0])
    lap = sp.diags(deg) - W
    return (
        sp.diags(2.0 + mu * chi) @ lap
        + mu * (sp.diags(W @ chi) - W @ sp.diags(chi))
        + lam * sp.diags(chi)
    ).tocsr()


def scipy_gmres(system, x0, cfg, rhs_relative=False):
    """Reference solve: scipy's gmres with the same Jacobi preconditioner.

    Each pass gets the backward-error threshold tol (||rhs|| + L ||x||),
    L = max |a_ii|, through ``atol``, fixed from the pass's warm start; a
    pass that ends short of the rule at its own x is followed by another
    from there. ``rhs_relative`` runs scipy's own rule ``atol=0`` instead.
    Its budget counts whole restart cycles, so callers pick budgets that
    are multiples of the restart length."""
    A, b, tol = system.A, system.rhs, cfg.gmres_tol
    diag = A.diagonal()
    inv_diag = 1.0 / diag
    anorm, bnrm2 = np.max(np.abs(diag)), np.linalg.norm(b)
    M = spla.LinearOperator(A.shape, matvec=lambda v: inv_diag * v)
    x, iters = x0, 0
    while True:
        atol = 0.0 if rhs_relative else tol * (bnrm2 + anorm * np.linalg.norm(x))
        history = []
        x, info = spla.gmres(
            A, b, x0=x, rtol=tol, atol=atol, restart=cfg.gmres_restart,
            maxiter=math.ceil(cfg.gmres_max_iters / cfg.gmres_restart), M=M,
            callback=history.append, callback_type="pr_norm",
        )
        iters += len(history)
        if rhs_relative:
            return x, iters, info == 0
        ok = np.linalg.norm(b - A @ x) <= tol * (bnrm2 + anorm * np.linalg.norm(x))
        if ok or info != 0:
            return x, iters, ok


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(outer_iters=0)
    with pytest.raises(ValueError):
        SolverConfig(gmres_tol=0.0)
    with pytest.raises(ValueError):
        SolverConfig(r_sigma=25, k=20)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("config, name", [
    (config, f.name)
    for config in (SolverConfig, ApgConfig)
    for f in dataclasses.fields(config)
    if "float" in f.type
])
def test_config_rejects_non_finite_floats(config, name, value):
    with pytest.raises(ValueError, match=name):
        config(**{name: value})


# --- assemble_band_system -----------------------------------------------


def test_assemble_full_rate_is_laplacian_plus_fidelity():
    cube, geom, wt = small_graph(4, 4, 2, 2, 6, 0)
    mask = make_mask((4, 4, 1), 1.0, 0).band(0)
    lam = 3.0
    system = assemble_band_system(wt, mask, cube.band(0), lam, 1.0)
    assert system.mu == 0.0
    W = off_diagonal(wt)
    expected = 2.0 * (sp.diags(W @ np.ones(16)) - W) + lam * sp.identity(16)
    assert np.array_equal(np.asarray(system.A.todense()), np.asarray(expected.todense()))
    assert np.array_equal(system.rhs, lam * cube.band(0).reshape(-1))


def test_assemble_mu_for_five_percent_rate():
    cube, geom, wt = small_graph(4, 4, 1, 1, 4, 1)
    mask = np.zeros((4, 4), bool)
    mask[0, 0] = True
    system = assemble_band_system(wt, mask, cube.band(0), 1.0, 0.05)
    assert system.mu == 19.0


def test_assemble_hand_computed_three_pixel_path():
    # 1x3 grid, path weights w(0,1)=1, w(1,2)=2, pixels 0 and 2 sampled,
    # b=[4,0,6], lam=0.5, rate=0.5 so mu=1. Writing out the residual rows:
    #   row0 (sampled): 2(u0-u1) + 1*(u0-u1) + 0 + 0.5(u0-4)  -> [3.5,-3,0], rhs 2
    #   row1 (free):    2[(u1-u0)+2(u1-u2)] + 1[(u1-u0)+2(u1-u2)] -> [-3,9,-6]
    #   row2 (sampled): 4(u2-u1) + 2(u2-u1) + 0 + 0.5(u2-6)  -> [0,-6,6.5], rhs 3
    wt = sp.csr_matrix(np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 2.0], [0.0, 2.0, 0.0]]))
    mask = np.array([[True, False, True]])
    b = np.array([[4.0, 0.0, 6.0]])
    system = assemble_band_system(wt, mask, b, 0.5, 0.5)
    want_A = np.array([[3.5, -3.0, 0.0], [-3.0, 9.0, -6.0], [0.0, -6.0, 6.5]])
    assert np.allclose(np.asarray(system.A.todense()), want_A, rtol=0, atol=1e-14)
    assert np.array_equal(system.rhs, [2.0, 0.0, 3.0])


def test_assemble_off_diagonal_structure():
    # every off-diagonal entry is -(2 + mu*[x sampled] + mu*[y sampled]) * w(x,y)
    cube, geom, wt = small_graph(4, 4, 1, 2, 5, 2)
    mask = make_mask((4, 4, 1), 0.25, 3).band(0)
    mu = 3.0
    system = assemble_band_system(wt, mask, cube.band(0), 2.0, 0.25)
    assert system.mu == mu
    A = np.asarray(system.A.todense())
    W = np.asarray(wt.todense())
    chi = mask.reshape(-1).astype(float)
    for x in range(16):
        for y in range(16):
            if x != y and W[x, y] > 0:
                want = -(2.0 + mu * chi[x] + mu * chi[y]) * W[x, y]
                assert np.isclose(A[x, y], want, rtol=1e-14)


def test_assemble_diagonal_dominance():
    cube, geom, wt = small_graph(5, 5, 2, 2, 6, 4)
    mask = make_mask((5, 5, 1), 0.3, 5).band(0)
    system = assemble_band_system(wt, mask, cube.band(0), 4.0, 0.3)
    A = np.asarray(system.A.todense())
    offdiag = A - np.diag(np.diag(A))
    assert np.all(offdiag <= 1e-15)
    slack = np.diag(A) - np.abs(offdiag).sum(axis=1)
    assert np.all(slack >= -1e-10)
    sampled = mask.reshape(-1)
    assert np.all(slack[sampled] > 0)


def test_assemble_matches_sparse_product_form():
    rng = np.random.default_rng(40)
    graphs = [small_graph(6, 6, 1, s, k, seed)[2] for seed, (s, k) in enumerate([(1, 4), (2, 6), (2, 12)])]
    for seed in range(3):
        # random non-negative graphs that store no diagonal entry at all
        g = sp.random(36, 36, density=0.15, random_state=seed, format="lil")
        g.setdiag(0.0)
        g = g.tocsr()
        g.eliminate_zeros()
        graphs.append(g)
    graphs.append(sp.csr_matrix(np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 2.0], [0.0, 2.0, 0.0]])))
    # inputs that are not canonical CSR, each made from a shift-summed graph
    base = graphs[1]
    n = base.shape[0]
    extra = np.random.default_rng(41).random(base.nnz)
    # every entry stored twice, with two different weights
    graphs.append(sp.csr_matrix(
        (np.column_stack([base.data, extra]).ravel(), np.repeat(base.indices, 2), 2 * base.indptr),
        shape=(n, n)))
    # each row's indices in descending order
    order = np.lexsort((-base.indices, np.repeat(np.arange(n), np.diff(base.indptr))))
    graphs.append(sp.csr_matrix((base.data[order], base.indices[order], base.indptr), shape=(n, n)))
    # explicit zeros, on and off the diagonal
    zeros = base.copy()
    zeros.data[::3] = 0.0
    graphs.append(zeros)
    graphs.append(base.tocoo())
    for wt in graphs:
        n = wt.shape[0]
        # the graph-only state the outer loop builds once and shares across bands
        hoisted = solver_mod._band_graph(solver_mod._with_diagonal(wt))
        for rate in (1.0, 0.5, 0.2, 0.05):
            mask = rng.random(n) < max(rate, 0.1)
            lam = float(rng.choice([0.0, 0.7, 30.0]))
            bvec = rng.standard_normal(n)
            want = diags_assembly(wt, mask, lam, rate).toarray()
            for graph in (wt, hoisted):
                got = assemble_band_system(graph, mask, bvec, lam, rate).A
                assert got.has_canonical_format
                got = got.toarray()
                if rate == 1.0:
                    assert np.array_equal(got, want)
                else:
                    assert np.all(np.abs(got - want) <= 1e-15 * np.abs(want))


def test_assemble_leaves_the_callers_graph_unchanged():
    # a graph given as it is is copied before its diagonal is zeroed, whether
    # it is canonical (a shift-summed graph) or not
    base = small_graph(6, 6, 1, 2, 6, 42)[2]
    n = base.shape[0]
    order = np.lexsort((-base.indices, np.repeat(np.arange(n), np.diff(base.indptr))))
    unsorted = sp.csr_matrix((base.data[order], base.indices[order], base.indptr), shape=(n, n))
    twice = sp.csr_matrix((np.repeat(base.data, 2), np.repeat(base.indices, 2), 2 * base.indptr),
                          shape=(n, n))
    mask = np.random.default_rng(43).random(n) < 0.3
    for wt in (base, unsorted, twice, base.tocoo()):
        arrays = ("row", "col", "data") if wt.format == "coo" else ("indptr", "indices", "data")
        before = [getattr(wt, attr).copy() for attr in arrays]
        system = assemble_band_system(wt, mask, np.ones(n), 2.0, 0.3)
        assert not np.shares_memory(system.A.data, wt.data)
        for attr, was in zip(arrays, before):
            assert np.array_equal(getattr(wt, attr), was)


def test_assemble_rejects_negative_weights():
    path = sp.csr_matrix(np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 2.0], [0.0, 2.0, 1.0]]))
    # an edge, a self weight that + 1 cancels, and a NaN edge
    for x, y, w in ((0, 1, -0.5), (1, 1, -1.0), (0, 1, math.nan)):
        wt = path.copy()
        wt[x, y] = w
        with pytest.raises(ValueError, match="non-negative"):
            assemble_band_system(wt, np.ones(3, bool), np.zeros(3), 1.0, 0.5)


def test_assemble_validation():
    wt = sp.identity(4, format="csr")
    with pytest.raises(ValueError):
        assemble_band_system(wt, np.ones((2, 2), bool), np.zeros((2, 2)), 1.0, 0.0)
    with pytest.raises(ValueError):
        assemble_band_system(wt, np.ones((2, 2), bool), np.zeros((2, 2)), -1.0, 0.5)
    with pytest.raises(ValueError):
        assemble_band_system(wt, np.ones((3, 3), bool), np.zeros((2, 2)), 1.0, 0.5)
    with pytest.raises(ValueError):  # a graph that is not square
        assemble_band_system(sp.csr_matrix((4, 5)), np.ones((2, 2), bool), np.zeros((2, 2)), 1.0, 0.5)


def test_assemble_keeps_a_row_whose_other_weights_are_below_eps():
    # row 8 is {8: 1.0, 5: 5.9e-201}: the full row sum minus the self weight
    # rounds to 0, and an unsampled pixel there would get a zero diagonal
    wt = sp.lil_matrix(sp.identity(9))
    for x in range(8):
        wt[x, (x + 1) % 8] = 0.5
    wt[8, 5] = 5.9e-201
    mask = np.zeros(9, bool)
    mask[[0, 4]] = True
    system = assemble_band_system(wt.tocsr(), mask, np.ones(9), 2.0, 0.25)
    assert system.A[8, 8] == 2.0 * 5.9e-201
    assert system.A[8, 5] == -2.0 * 5.9e-201


@pytest.mark.parametrize("seed", range(6))
def test_ldmm_survives_a_hot_pixel(seed):
    # one pixel far above the rest of the scene has neighbours whose weights
    # are all below eps times its self weight
    values = synth_cube(SyntheticSpec(16, 16, 8, 3, seed=seed)).values.copy()
    values[:, 5, 7] = 50.0
    masks = make_mask((16, 16, 8), 0.10, seed + 100)
    b = apply_mask(DataCube(values), masks)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for u0 in (apg_complete(b, masks, ApgConfig()), b):
            out = ldmm_reconstruct(b, masks, SolverConfig(), u0)
            assert np.all(np.isfinite(out.values))


# --- _gmres -----------------------------------------------------------------


def test_solve_zero_rhs_zero_iterations():
    cube, geom, wt = small_graph(4, 4, 1, 2, 6, 6)
    mask = np.zeros((4, 4), bool)
    mask[0, 0] = True
    system = assemble_band_system(wt, mask, np.zeros((4, 4)), 0.0, 0.5)
    x, iters, _, ok = _gmres(system, np.zeros(16), SolverConfig(k=6, r_sigma=3))
    assert np.all(x == 0.0)
    assert iters == 0 and ok


def test_solve_full_mask_constant_is_constant():
    cube, geom, wt = small_graph(5, 5, 1, 2, 6, 7)
    mask = np.ones((5, 5), bool)
    c = 2.75
    system = assemble_band_system(wt, mask, np.full((5, 5), c), 10.0, 1.0)
    cfg = SolverConfig(k=6, r_sigma=3, gmres_tol=1e-12, gmres_max_iters=2000)
    x = _gmres(system, np.zeros(25), cfg)[0]
    assert np.allclose(x, c, atol=1e-8 * c)


def test_solve_matches_dense_lu():
    cube, geom, wt = small_graph(8, 8, 1, 2, 8, 8)
    mask = make_mask((8, 8, 1), 0.2, 9).band(0)
    lam = 5.0
    system = assemble_band_system(wt, mask, cube.band(0), lam, 0.2)
    cfg = SolverConfig(k=8, r_sigma=4, gmres_tol=1e-12, gmres_max_iters=4000)
    x = _gmres(system, np.zeros(64), cfg)[0]
    ref = dense_solve(system)
    assert np.linalg.norm(x - ref) <= 1e-8 * np.linalg.norm(ref)


@pytest.mark.parametrize("s", [1, 2])
@pytest.mark.parametrize("m, k", [(8, 6), (16, 10), (24, 20)])
def test_solve_band_on_truncated_graphs_matches_dense_solve(s, m, k):
    # kNN-truncated graphs (k < N), where the operator is not the exact
    # gradient of the band energy that c04 checks: the distance to the dense
    # solution is bounded by ||A^-1||_2 times the residuals, and the residual
    # meets the certified backward-error rule
    assert m * m <= DENSE_SOLVE_CAP
    cube, _, wt = small_graph(m, m, 3, s, k, m + s)
    masks = make_mask(cube.dims, 0.3, m)
    lam = float(wt.sum()) / (m * m)  # lambda_rel = 1
    cfg = SolverConfig(k=k, r_sigma=k // 2, gmres_max_iters=4000)
    compared = 0
    for t in range(cube.B):
        rate = float(masks.rates()[t])
        system = assemble_band_system(wt, masks.band(t), cube.band(t), lam, rate)
        A, rhs = system.A.toarray(), system.rhs
        sigma = np.linalg.svd(A, compute_uv=False)
        if sigma[-1] <= m * m * np.finfo(float).eps * sigma[0]:
            # a graph component without a sample leaves the operator singular
            # (ROADMAP item 4); the dense oracle must refuse it
            with pytest.raises((np.linalg.LinAlgError, ArithmeticError)):
                dense_solve(system)
            continue
        x = _gmres(system, np.zeros(m * m), cfg)[0]
        ref = dense_solve(system)
        resid = np.linalg.norm(rhs - A @ x)
        assert np.linalg.norm(x - ref) <= (resid + np.linalg.norm(rhs - A @ ref)) / sigma[-1]
        L = np.abs(np.diag(A)).max()
        assert resid <= cfg.gmres_tol * (np.linalg.norm(rhs) + L * np.linalg.norm(x))
        compared += 1
    assert compared >= 2


def test_warnings_name_the_calling_line():
    # a starved budget makes each entry point warn; the warning must point at
    # this file, not at a frame inside the library or contextlib
    cube = synth_cube(SyntheticSpec(12, 12, 3, 2, smoothness=1.0, seed=5))
    masks = make_mask(cube.dims, 0.3, 6)
    b = apply_mask(cube, masks)
    cfg = SolverConfig(k=8, r_sigma=4, outer_iters=1, gmres_max_iters=1, gmres_restart=1)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        ldmm_reconstruct(b, masks, cfg, b)
        apg_complete(b, masks, ApgConfig(n_stages=1, max_iters=1, tol=1e-12))
    found = {str(w.message).split()[0]: w.filename for w in caught}
    assert found == {"iteration": __file__, "completion": __file__}


def test_solve_zero_diagonal_reports_row():
    # identity graph has an empty Laplacian, so unsampled rows are all zero
    wt = sp.identity(9, format="csr")
    mask = np.zeros((3, 3), bool)
    mask[0, 0] = True
    system = assemble_band_system(wt, mask, np.ones((3, 3)), 1.0, 1.0)
    with pytest.raises(NumericalError, match="row"):
        _gmres(system, np.zeros(9), SolverConfig())


def gmres_cases():
    """Band systems on random kNN graphs, masks, rates and lambdas, with warm
    starts zero or random (the 36-pixel grids also run with restart > n),
    then a zero right-hand side and a warm start that is already a solution."""
    rng = np.random.default_rng(41)
    for seed in range(12):
        m = int(rng.choice([6, 8]))
        k = int(rng.choice([6, 8]))
        cube, geom, wt = small_graph(m, m, 1, 2, k, 50 + seed)
        rate = float(rng.choice([1.0, 0.5, 0.2, 0.05]))
        mask = make_mask((m, m, 1), rate, seed).band(0)
        lam = float(rng.choice([1.0, 100.0])) * float(wt.sum()) / (m * m)
        system = assemble_band_system(wt, mask, cube.band(0), lam, rate)
        x0 = rng.standard_normal(m * m) if seed % 2 else np.zeros(m * m)
        tol = float(rng.choice([1e-6, 1e-10]))
        restart = int(rng.choice([10, 30, 60]))
        yield system, x0, SolverConfig(gmres_tol=tol, gmres_restart=restart, gmres_max_iters=restart * 40)
    cfg = SolverConfig(gmres_restart=30, gmres_max_iters=300)
    cube, geom, wt = small_graph(6, 6, 1, 2, 8, 60)
    mask = make_mask((6, 6, 1), 0.3, 61).band(0)
    yield assemble_band_system(wt, mask, np.zeros((6, 6)), 5.0, 0.3), rng.standard_normal(36), cfg
    system = assemble_band_system(wt, mask, cube.band(0), 5.0, 0.3)
    yield system, dense_solve(system), cfg


def test_gmres_matches_scipy_reference():
    # well-posed systems only: on numerically singular ones (cond ~ 1e16)
    # a restarted run stagnates and last-bit differences between
    # orthogonalisation schemes move the iteration count
    for system, x0, cfg in gmres_cases():
        x, iters, _, ok = _gmres(system, x0, cfg)
        x_ref, iters_ref, ok_ref = scipy_gmres(system, x0, cfg)
        assert (iters, ok) == (iters_ref, ok_ref)
        assert np.linalg.norm(x - x_ref) <= 1e-12 * np.linalg.norm(x_ref)


def test_gmres_never_iterates_more_than_the_rhs_relative_rule():
    # tol (||rhs|| + L ||x||) is never below scipy's tol ||rhs|| (atol=0)
    for system, x0, cfg in gmres_cases():
        _, iters, _, _ = _gmres(system, x0, cfg)
        _, iters_rhs, _ = scipy_gmres(system, x0, cfg, rhs_relative=True)
        assert iters <= iters_rhs


@settings(max_examples=40, deadline=None)
@given(
    m=st.sampled_from([6, 8]),
    k=st.sampled_from([6, 8]),
    seed=st.integers(0, 10_000),
    rate=st.sampled_from([1.0, 0.5, 0.2, 0.05]),
    lam_rel=st.sampled_from([0.01, 1.0, 100.0]),
    warm=st.sampled_from([0.0, 1e-3, 10.0]),
    tol=st.sampled_from([1e-3, 1e-6, 1e-10]),
    restart=st.sampled_from([5, 10, 30]),
    budget=st.sampled_from([3, 400]),
)
def test_gmres_certifies_its_backward_error(m, k, seed, rate, lam_rel, warm, tol, restart, budget):
    cube, geom, wt = small_graph(m, m, 1, 2, k, seed)
    mask = make_mask((m, m, 1), rate, seed).band(0)
    lam = lam_rel * float(wt.sum()) / (m * m)
    system = assemble_band_system(wt, mask, cube.band(0), lam, rate)
    x0 = warm * np.random.default_rng(seed).standard_normal(m * m)
    cfg = SolverConfig(gmres_tol=tol, gmres_restart=restart, gmres_max_iters=budget)
    x, iters, eta, ok = _gmres(system, x0, cfg)
    # the assembled diagonal is A's, bitwise, and a bare system reads A's
    assert np.array_equal(system.diag, system.A.diagonal())
    x_bare, *rest = _gmres(dataclasses.replace(system, diag=None), x0, cfg)
    assert np.array_equal(x_bare, x) and rest == [iters, eta, ok]
    A = system.A.toarray()
    anorm, L = np.linalg.norm(A, 2), np.max(np.abs(np.diag(A)))
    assert L <= anorm
    rnorm, bnorm, xnorm = (np.linalg.norm(v) for v in (system.rhs - system.A @ x, system.rhs, x))
    if rnorm == 0.0:
        # an exact solve; with rhs = 0 (every sampled pixel holds 0) and
        # x0 = 0 the quotient below is 0/0
        assert eta == 0.0
    else:
        assert math.isclose(eta, rnorm / (bnorm + L * xnorm), rel_tol=1e-12)
    if ok:
        assert rnorm <= tol * (anorm * xnorm + bnorm)


@pytest.mark.parametrize("restart, budget", [(30, 1), (30, 45), (7, 20)])
def test_gmres_budget_caps_inner_iterations_exactly(restart, budget):
    cube, geom, wt = small_graph(8, 8, 1, 2, 8, 65)
    mask = make_mask((8, 8, 1), 0.2, 66).band(0)
    system = assemble_band_system(wt, mask, cube.band(0), 50.0, 0.2)
    # a tolerance far below round-off, so only the budget can stop the run
    cfg = SolverConfig(gmres_tol=1e-300, gmres_restart=restart, gmres_max_iters=budget)
    _, iters, _, ok = _gmres(system, np.zeros(64), cfg)
    assert iters == budget and not ok


# --- wnll_energy ---------------------------------------------------------------


def test_energy_zero_for_constant_without_fidelity():
    cube, geom, wt = small_graph(4, 4, 1, 2, 6, 12)
    mask = make_mask((4, 4, 1), 0.5, 13).band(0)
    u = np.full((4, 4), 3.0)
    assert wnll_energy(u, wt, mask, np.zeros((4, 4)), 0.0, 0.5) == 0.0


def test_energy_descent_from_warm_start():
    rng = np.random.default_rng(14)
    for seed in range(5):
        cube, geom, wt = small_graph(6, 6, 1, 2, 8, 20 + seed)
        mask = make_mask((6, 6, 1), 0.3, seed).band(0)
        lam = 2.0
        system = assemble_band_system(wt, mask, cube.band(0), lam, 0.3)
        x0 = rng.standard_normal(36)
        cfg = SolverConfig(k=8, r_sigma=4, gmres_tol=1e-10, gmres_max_iters=2000)
        x = _gmres(system, x0, cfg)[0]
        e0 = wnll_energy(x0, wt, mask, cube.band(0), lam, 0.3)
        e1 = wnll_energy(x, wt, mask, cube.band(0), lam, 0.3)
        assert e1 <= e0


def test_energy_gradient_vanishes_at_solution_full_graph():
    # with an untruncated (symmetric) graph the assembled operator is the
    # exact half-gradient of the band energy, so the solve is stationary
    cube, geom, wt = small_graph(4, 4, 2, 2, 16, 15)
    mask = make_mask((4, 4, 1), 0.25, 16).band(0)
    lam, rate = 3.0, 0.25
    system = assemble_band_system(wt, mask, cube.band(0), lam, rate)
    cfg = SolverConfig(k=16, r_sigma=8, gmres_tol=1e-13, gmres_max_iters=4000)
    x = _gmres(system, np.zeros(16), cfg)[0]
    grad = fd_gradient(
        lambda img: wnll_energy(img, wt, mask, cube.band(0), lam, rate),
        x.reshape(4, 4),
        1e-5,
    )
    scale = np.abs(system.A.data).max()
    assert np.abs(grad).max() <= 1e-6 * scale


def test_energy_rejects_bad_rate():
    cube, geom, wt = small_graph(4, 4, 1, 1, 4, 17)
    with pytest.raises(ValueError):
        wnll_energy(np.zeros((4, 4)), wt, np.ones((4, 4), bool), np.zeros((4, 4)), 1.0, 0.0)


# --- ldmm_reconstruct -------------------------------------------------------------


def test_ldmm_fully_observed_high_fidelity_is_identity():
    cube = synth_cube(SyntheticSpec(8, 8, 3, 2, smoothness=1.5, seed=18))
    masks = make_mask(cube.dims, 1.0, 0)
    b = apply_mask(cube, masks)
    cfg = SolverConfig(k=10, r_sigma=5, lambda_rel=1e6, outer_iters=1)
    out = ldmm_reconstruct(b, masks, cfg, b)
    rel = np.linalg.norm(out.values - cube.values) / np.linalg.norm(cube.values)
    assert rel <= 1e-4


def test_ldmm_beats_apg_on_sparse_sampling():
    # 5% noise-free regime; margin measured at +8.61 dB for this seed
    import warnings

    cube = synth_cube(SyntheticSpec(32, 32, 8, 3, smoothness=3.0, seed=0))
    masks = make_mask(cube.dims, 0.05, 1)
    b = apply_mask(cube, masks)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        u0 = apg_complete(b, masks, ApgConfig())
    p_apg = psnr(u0, cube, "standard").psnr_standard
    out = ldmm_reconstruct(b, masks, SolverConfig(), u0)
    p_ldmm = psnr(out, cube, "standard").psnr_standard
    assert p_ldmm > p_apg


def test_ldmm_patch_sizes_complete_under_noise():
    # paper regime comparison is recorded, not asserted: with this seed the
    # 2x2 run lands at 18.3 dB and the 1x1 run at 10.7 dB
    from hsldmm import add_gaussian_noise

    cube = synth_cube(SyntheticSpec(32, 32, 8, 3, smoothness=3.0, seed=5))
    noisy = add_gaussian_noise(cube, 0.05, 6)
    masks = make_mask(cube.dims, 0.10, 7)
    b = apply_mask(noisy, masks)
    u0 = apg_complete(b, masks, ApgConfig())
    results = {}
    for s in (1, 2):
        out = ldmm_reconstruct(b, masks, SolverConfig(s1=s, s2=s, lambda_rel=1.0), u0)
        assert np.all(np.isfinite(out.values))
        results[s] = psnr(out, cube, "standard").psnr_standard
    assert results[1] > 0 and results[2] > 0


def test_ldmm_band_results_independent_of_band_order():
    # one fixed graph; solving bands in any order gives bitwise-equal results
    cube, geom, wt = small_graph(6, 6, 3, 2, 8, 19)
    masks = make_mask(cube.dims, 0.4, 20)
    cfg = SolverConfig(k=8, r_sigma=4)
    lam = 5.0

    def solve_order(order):
        outs = {}
        for t in order:
            system = assemble_band_system(wt, masks.band(t), cube.band(t), lam, 0.4, band=t)
            outs[t] = _gmres(system, np.zeros(36), cfg)[0]
        return outs

    a = solve_order([0, 1, 2])
    b = solve_order([2, 0, 1])
    for t in range(3):
        assert np.array_equal(a[t], b[t])


def test_ldmm_builds_one_graph_per_iteration(monkeypatch):
    calls = {"knn": 0, "bar": 0, "wtilde": 0, "band_graph": 0}
    real_knn, real_bar, real_wt, real_band_graph = (
        solver_mod.knn_exact,
        solver_mod.build_bar_w,
        solver_mod.assemble_wtilde,
        solver_mod._band_graph,
    )
    monkeypatch.setattr(solver_mod, "knn_exact",
                        lambda *a, **k: (calls.__setitem__("knn", calls["knn"] + 1), real_knn(*a, **k))[1])
    monkeypatch.setattr(solver_mod, "build_bar_w",
                        lambda *a, **k: (calls.__setitem__("bar", calls["bar"] + 1), real_bar(*a, **k))[1])
    monkeypatch.setattr(solver_mod, "assemble_wtilde",
                        lambda *a, **k: (calls.__setitem__("wtilde", calls["wtilde"] + 1), real_wt(*a, **k))[1])
    # the graph-only operator state is built once per iteration, not once per band
    monkeypatch.setattr(solver_mod, "_band_graph",
                        lambda *a, **k: (calls.__setitem__("band_graph", calls["band_graph"] + 1),
                                         real_band_graph(*a, **k))[1])

    counts = {}
    for B in (2, 5):
        for key in calls:
            calls[key] = 0
        cube = synth_cube(SyntheticSpec(8, 8, B, 2, smoothness=1.5, seed=21))
        masks = make_mask(cube.dims, 0.3, 22)
        b = apply_mask(cube, masks)
        cfg = SolverConfig(k=8, r_sigma=4, outer_iters=2)
        ldmm_reconstruct(b, masks, cfg, b)
        counts[B] = dict(calls)
    assert counts[2] == counts[5] == {"knn": 2, "bar": 2, "wtilde": 2, "band_graph": 2}


def test_ldmm_builds_the_band_graph_on_wtilde_itself(monkeypatch):
    # a round holds one graph-sized array of weights: the band graph zeroes
    # the shift-summed graph's diagonal in place rather than copying it
    seen = []
    real_wt, real_band_graph = solver_mod.assemble_wtilde, solver_mod._band_graph

    def wtilde_spy(*args):
        seen.append(real_wt(*args))
        return seen[-1]

    def band_graph_spy(wtilde):
        graph = real_band_graph(wtilde)
        seen.append((wtilde is seen[-1], np.shares_memory(graph.W.data, seen[-1].data)))
        return graph

    monkeypatch.setattr(solver_mod, "assemble_wtilde", wtilde_spy)
    monkeypatch.setattr(solver_mod, "_band_graph", band_graph_spy)
    cube = synth_cube(SyntheticSpec(10, 10, 3, 2, smoothness=1.5, seed=29))
    masks = make_mask(cube.dims, 0.3, 30)
    b = apply_mask(cube, masks)
    ldmm_reconstruct(b, masks, SolverConfig(k=8, r_sigma=4, outer_iters=2), b)
    assert seen[1::2] == [(True, True), (True, True)]


def test_ldmm_frees_each_round_intermediate_at_its_last_reader(monkeypatch):
    # a round's peak is its largest stage only if the patch matrix and the
    # table are gone before the shift-sum, and a round's band graph before the
    # next round's patches
    refs = {"patches": [], "table": [], "band graph": []}
    live = []  # the objects found alive where they should be gone

    def tracked(real, keep=None, gone=()):
        def wrapped(*args, **kwargs):
            live.extend(f"{key} {i + 1}" for key in gone
                        for i, ref in enumerate(refs[key]) if ref() is not None)
            out = real(*args, **kwargs)
            if keep is not None:
                refs[keep].append(weakref.ref(out))
            return out
        return wrapped

    monkeypatch.setattr(solver_mod, "extract_patches",
                        tracked(solver_mod.extract_patches, "patches", ("band graph",)))
    monkeypatch.setattr(solver_mod, "knn_exact", tracked(solver_mod.knn_exact, "table"))
    monkeypatch.setattr(solver_mod, "_band_graph", tracked(solver_mod._band_graph, "band graph"))
    monkeypatch.setattr(solver_mod, "assemble_wtilde",
                        tracked(solver_mod.assemble_wtilde, gone=("patches", "table")))
    cube = synth_cube(SyntheticSpec(12, 12, 4, 2, smoothness=1.5, seed=25))
    masks = make_mask(cube.dims, 0.3, 26)
    b = apply_mask(cube, masks)
    ldmm_reconstruct(b, masks, SolverConfig(k=8, r_sigma=4, outer_iters=2), b)
    assert {key: len(r) for key, r in refs.items()} == {"patches": 2, "table": 2, "band graph": 2}
    assert live == []


def held_bytes(obj):
    """Bytes of the numpy buffers that ``obj`` is, or holds as dataclass fields."""
    if isinstance(obj, np.ndarray):
        while isinstance(obj.base, np.ndarray):
            obj = obj.base
        return obj.nbytes
    return sum(held_bytes(getattr(obj, f.name)) for f in dataclasses.fields(obj))


def test_ldmm_passes_knn_the_unfolding_not_the_patch_matrix(monkeypatch):
    # a round's kNN reads patch rows from the unfolded iterate through the
    # window's gather; the (m*n) x (s1*s2*B) float64 matrix is never held
    held = []
    real = solver_mod.knn_exact

    def spy(patches, k):
        held.append(held_bytes(patches))
        return real(patches, k)

    monkeypatch.setattr(solver_mod, "knn_exact", spy)
    m, n, B, s1, s2 = 12, 10, 6, 2, 3
    cube = synth_cube(SyntheticSpec(m, n, B, 2, smoothness=1.5, seed=27))
    masks = make_mask(cube.dims, 0.3, 28)
    b = apply_mask(cube, masks)
    ldmm_reconstruct(b, masks, SolverConfig(s1=s1, s2=s2, k=8, r_sigma=4, outer_iters=2), b)
    N = m * n
    assert len(held) == 2
    assert max(held) <= N * B * 8 + N * s1 * s2 * 8


def test_ldmm_rounds_read_one_iterate_in_place(monkeypatch):
    # every round's patches are a read-only view of the one (m*n) x B iterate
    # that the band solves update, not a copy of it
    seen = []
    real = solver_mod.knn_exact

    def spy(patches, k):
        seen.append(patches.unfolded)
        return real(patches, k)

    monkeypatch.setattr(solver_mod, "knn_exact", spy)
    cube = synth_cube(SyntheticSpec(10, 8, 3, 2, smoothness=1.5, seed=31))
    masks = make_mask(cube.dims, 0.3, 32)
    b = apply_mask(cube, masks)
    ldmm_reconstruct(b, masks, SolverConfig(k=8, r_sigma=4, outer_iters=2), b)
    assert len(seen) == 2
    assert np.shares_memory(seen[0], seen[1])
    assert not any(u.flags.writeable for u in seen)


def test_ldmm_checks_ref_dims_before_any_work(monkeypatch):
    def no_knn(*args, **kwargs):
        raise AssertionError("knn_exact called")

    monkeypatch.setattr(solver_mod, "knn_exact", no_knn)
    cube = synth_cube(SyntheticSpec(6, 6, 2, 1, smoothness=1.0, seed=25))
    masks = make_mask(cube.dims, 0.5, 26)
    b = apply_mask(cube, masks)
    small = DataCube(np.zeros((2, 6, 5)))
    with pytest.raises(ValueError, match="reference dims"):
        ldmm_reconstruct(b, masks, SolverConfig(k=6, r_sigma=3, outer_iters=1), b, ref=small)


def test_ldmm_logs_bands_and_psnr():
    cube = synth_cube(SyntheticSpec(8, 8, 2, 2, smoothness=1.5, seed=23))
    masks = make_mask(cube.dims, 0.4, 24)
    b = apply_mask(cube, masks)
    log = RunLog()
    cfg = SolverConfig(k=8, r_sigma=4, outer_iters=2)
    ldmm_reconstruct(b, masks, cfg, b, ref=cube, log=log)
    assert len(log.bands) == 2 * 2
    assert len(log.iterations) == 2
    assert "psnr_paper" in log.iterations[0]
    summary = log.summary()
    assert "iter1_psnr_standard" in summary and "gmres_total_iters" in summary
    assert summary["gmres_nonconverged"] == 0
    for rec in log.iterations:
        bands = [r for r in log.bands if r["iteration"] == rec["iteration"]]
        assert rec["gmres_iters"] == sum(r["gmres_iters"] for r in bands)
        assert all(r["backward_error"] <= cfg.gmres_tol for r in bands)
    assert summary["iter1_gmres_iters"] + summary["iter2_gmres_iters"] == summary["gmres_total_iters"]


def test_ldmm_does_not_evaluate_the_energy(monkeypatch):
    def no_energy(*args, **kwargs):
        raise AssertionError("wnll_energy called")

    monkeypatch.setattr(solver_mod, "wnll_energy", no_energy)
    cube = synth_cube(SyntheticSpec(6, 6, 2, 1, smoothness=1.0, seed=25))
    masks = make_mask(cube.dims, 0.5, 26)
    b = apply_mask(cube, masks)
    log = RunLog()
    ldmm_reconstruct(b, masks, SolverConfig(k=6, r_sigma=3, outer_iters=1), b, log=log)
    assert len(log.bands) == 2


def test_ldmm_reads_ref_only_for_the_log(monkeypatch):
    def no_psnr(*args, **kwargs):
        raise AssertionError("psnr computed without a log")

    monkeypatch.setattr(solver_mod, "psnr", no_psnr)
    cube = synth_cube(SyntheticSpec(6, 6, 2, 1, smoothness=1.0, seed=25))
    masks = make_mask(cube.dims, 0.5, 26)
    b = apply_mask(cube, masks)
    ldmm_reconstruct(b, masks, SolverConfig(k=6, r_sigma=3, outer_iters=1), b, ref=cube)


def test_ldmm_warns_once_per_iteration_when_gmres_stops_short():
    cube = synth_cube(SyntheticSpec(8, 8, 3, 2, smoothness=1.5, seed=29))
    masks = make_mask(cube.dims, 0.3, 30)
    b = apply_mask(cube, masks)
    log = RunLog()
    cfg = SolverConfig(k=8, r_sigma=4, outer_iters=2, gmres_max_iters=1)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        ldmm_reconstruct(b, masks, cfg, b, log=log)
    msgs = [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]
    want = []
    for it in (1, 2):
        short = [r for r in log.bands if r["iteration"] == it and not r["converged"]]
        assert short and all(r["gmres_iters"] == 1 for r in short)
        want.append(
            f"iteration {it}: gmres stopped short of tolerance on bands "
            f"{[r['band'] for r in short]}, worst backward error {max(r['backward_error'] for r in short):.3e}"
        )
    assert msgs == want


def test_ldmm_nan_iterate_aborts(monkeypatch):
    def bad_gmres(system, x0, cfg):
        return np.full_like(x0, np.nan), 1, 0.0, True

    monkeypatch.setattr(solver_mod, "_gmres", bad_gmres)
    cube = synth_cube(SyntheticSpec(6, 6, 2, 1, smoothness=1.0, seed=25))
    masks = make_mask(cube.dims, 0.5, 26)
    b = apply_mask(cube, masks)
    with pytest.raises(NumericalError, match="band"):
        ldmm_reconstruct(b, masks, SolverConfig(k=6, r_sigma=3, outer_iters=1), b)


def reconstruct_small(monkeypatch, tmp_path, parallel, cfg, gmres=None, log=None):
    """One reconstruction of an 8x8x5 cube, its bands solved on the calling
    process alone or dealt to three processes; returns the output, the log,
    the RuntimeWarning texts and the (process id, band) of each GMRES call,
    which go through a file because a forked child's memory does not reach
    the caller."""
    monkeypatch.setattr(_workers, "_usable_cpus", lambda: 3 if parallel else 1)
    # workers need the BLAS pin; a numpy without it gets a stand-in
    monkeypatch.setattr(_workers, "_pin", _workers._pin or (lambda threads: 1))
    real = gmres or _gmres
    fd, trace = tempfile.mkstemp(dir=tmp_path)
    os.close(fd)

    def traced_gmres(system, x0, cfg):
        with open(trace, "a") as f:
            f.write(f"{os.getpid()} {system.band}\n")
        return real(system, x0, cfg)

    monkeypatch.setattr(solver_mod, "_gmres", traced_gmres)
    cube = synth_cube(SyntheticSpec(8, 8, 5, 2, smoothness=1.5, seed=31))
    masks = make_mask(cube.dims, 0.3, 32)
    b = apply_mask(cube, masks)
    log = RunLog() if log is None else log
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = ldmm_reconstruct(b, masks, cfg, b, log=log)
    with open(trace) as f:
        calls = [tuple(map(int, line.split())) for line in f]
    msgs = [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]
    return out, log, msgs, calls


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("budget", [500, 1])
def test_ldmm_threaded_bands_match_serial(monkeypatch, tmp_path, forks, budget):
    cfg = SolverConfig(k=8, r_sigma=4, outer_iters=2, gmres_max_iters=budget)
    out, log, msgs, calls = reconstruct_small(monkeypatch, tmp_path, False, cfg)
    out_t, log_t, msgs_t, calls_t = reconstruct_small(monkeypatch, tmp_path, True, cfg)
    assert {pid for pid, _ in calls} == {os.getpid()}
    # each band ran once a round, in the caller or in a child; each round's
    # band loop forked two (its kNN of 64 rows is one block and forks none)
    assert sorted(t for _, t in calls_t) == sorted(list(range(5)) * 2)
    assert len(forks) == 4
    assert {pid for pid, _ in calls_t} <= {os.getpid(), *forks}
    assert np.array_equal(out.values, out_t.values)
    assert log.bands == log_t.bands
    assert [r["band"] for r in log_t.bands] == list(range(5)) * 2
    assert msgs == msgs_t
    assert bool(msgs) == (budget == 1)


def test_ldmm_threaded_bands_raise_the_first_error_in_band_order(monkeypatch, tmp_path):
    def failing_gmres(system, x0, cfg):
        if system.band >= 3:
            raise NumericalError(f"zero diagonal entry at row 0 of band {system.band}")
        return _gmres(system, x0, cfg)

    cfg = SolverConfig(k=8, r_sigma=4, outer_iters=1)
    for parallel in (False, True):
        log = RunLog()
        before = threading.active_count()
        with pytest.raises(NumericalError) as exc:
            reconstruct_small(monkeypatch, tmp_path, parallel, cfg, failing_gmres, log)
        # the workers are gone before the error leaves ldmm_reconstruct
        assert threading.active_count() == before
        assert_no_child_left()
        assert str(exc.value) == "iteration 1: zero diagonal entry at row 0 of band 3"
        assert [r["band"] for r in log.bands] == [0, 1, 2]


def test_ldmm_threaded_bands_keep_the_callers_errstate(monkeypatch, tmp_path, first_child):
    cfg = SolverConfig(k=8, r_sigma=4, outer_iters=1)
    found = []
    for parallel in (False, True):

        def dividing_gmres(system, x0, cfg):
            # alone, the caller divides on band 4; on three processes, the
            # first child to take a band divides
            if first_child.claim(system.band) if parallel else system.band == 4:
                np.float64(1.0) / np.float64(0.0)
            return _gmres(system, x0, cfg)

        with np.errstate(all="raise"), pytest.raises(FloatingPointError) as exc:
            reconstruct_small(monkeypatch, tmp_path, parallel, cfg, dividing_gmres)
        found.append(str(exc.value))
    assert first_child.label()  # a child divided
    assert found[0] == found[1]


def test_ldmm_band_worker_killed_by_a_signal_names_the_band(monkeypatch, tmp_path, first_child):
    def dying_gmres(system, x0, cfg):
        if first_child.claim(system.band):  # the first band a child takes
            os.kill(os.getpid(), signal.SIGKILL)
        return _gmres(system, x0, cfg)

    log = RunLog()
    cfg = SolverConfig(k=8, r_sigma=4, outer_iters=1)
    with pytest.raises(NumericalError) as exc:
        reconstruct_small(monkeypatch, tmp_path, True, cfg, dying_gmres, log)
    band = int(first_child.label())
    assert str(exc.value) == f"iteration 1, band {band}: its worker process was killed by SIGKILL"
    assert [r["band"] for r in log.bands] == list(range(band))
    assert_no_child_left()


def test_ldmm_error_in_the_callers_share_reaps_the_running_children(monkeypatch, tmp_path):
    caller, failed = os.getpid(), tmp_path / "failed"

    def gmres(system, x0, cfg):
        if os.getpid() == caller and not failed.exists():  # the first band the caller takes
            (tmp_path / "band").write_text(str(system.band))
            os.replace(tmp_path / "band", failed)
            raise NumericalError(f"zero diagonal entry at row 0 of band {system.band}")
        if os.getpid() != caller:
            # a child holds its band until the caller fails: an earlier band
            # then runs, so that the caller's error comes first in band order,
            # and a later one is still running when it ends the loop
            while not failed.exists():
                time.sleep(0.001)
            if system.band > int(failed.read_text()):
                time.sleep(60)  # unless killed
        return _gmres(system, x0, cfg)

    start = time.monotonic()
    with pytest.raises(NumericalError) as exc:
        reconstruct_small(monkeypatch, tmp_path, True, SolverConfig(k=8, r_sigma=4), gmres)
    assert str(exc.value).endswith(f"band {failed.read_text()}")
    assert time.monotonic() - start < 30  # the children were killed, not waited for
    assert_no_child_left()


def test_ldmm_pins_blas_once_per_call_and_no_child_pins(monkeypatch, tmp_path, forks):
    pins = tmp_path / "pins.log"

    def counting_pin(threads):
        with open(pins, "a") as f:
            f.write(f"{os.getpid()} {threads}\n")
        return 4

    monkeypatch.setattr(_workers, "_pin", counting_pin)
    monkeypatch.setattr(graph_mod, "_block_rows", lambda N, d: 8)  # 8 kNN blocks of 8 rows
    cfg = SolverConfig(k=8, r_sigma=4, outer_iters=3)
    reconstruct_small(monkeypatch, tmp_path, True, cfg)
    # set and restore, both by the caller, however many loops forked
    assert pins.read_text().splitlines() == [f"{os.getpid()} 1", f"{os.getpid()} 4"]
    assert len(forks) == 12  # two children for each of the six loops


@settings(max_examples=100)
@given(
    m=st.integers(1, 6),
    n=st.integers(1, 6),
    s1=st.integers(1, 3),
    s2=st.integers(1, 3),
    B=st.integers(1, 3),
    rate=st.sampled_from([0.3, 1.0]),
    k=st.sampled_from([2, 4, None]),
    kind=st.sampled_from(["constant", "random", "hot"]),
    zero_init=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(m=1, n=1, s1=1, s2=1, B=1, rate=1.0, k=None, kind="random", zero_init=True, seed=0)
@example(m=1, n=4, s1=1, s2=1, B=1, rate=0.3, k=2, kind="hot", zero_init=False, seed=0)
def test_ldmm_degenerate_inputs(m, n, s1, s2, B, rate, k, kind, zero_init, seed):
    # k=None stands for every pixel; r_sigma=2 makes a hot pixel's scale its
    # nearest neighbour's distance, which drives its other weights below eps
    s1, s2, k = min(s1, m), min(s2, n), k or max(2, m * n)
    rng = np.random.default_rng(seed)
    values = np.full((B, m, n), 0.7) if kind == "constant" else rng.random((B, m, n))
    if kind == "hot":
        values[:, rng.integers(m), rng.integers(n)] = 50.0
    cube = DataCube(values)
    masks = make_mask(cube.dims, rate, seed)
    b = apply_mask(cube, masks)
    cfg = SolverConfig(s1=s1, s2=s2, k=k, r_sigma=2)
    u0 = b if zero_init else cube
    if masks.counts().min() == 0 or k > m * n:
        match = "no sampled pixels" if masks.counts().min() == 0 else "exceeds pixel count"
        with pytest.raises(ValueError, match=match):
            ldmm_reconstruct(b, masks, cfg, u0)
        return
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        out = ldmm_reconstruct(b, masks, cfg, u0)
        again = ldmm_reconstruct(b, masks, cfg, u0)
    assert np.all(np.isfinite(out.values))
    assert np.array_equal(out.values, again.values)


def test_ldmm_validation():
    cube = synth_cube(SyntheticSpec(6, 6, 2, 1, smoothness=1.0, seed=27))
    masks = make_mask(cube.dims, 0.5, 28)
    b = apply_mask(cube, masks)
    with pytest.raises(ValueError):
        ldmm_reconstruct(b, make_mask((6, 6, 3), 0.5, 0), SolverConfig(), b)
    dead = masks.masks.copy()
    dead[0] = False
    with pytest.raises(ValueError, match="band 0"):
        ldmm_reconstruct(b, MaskSet(dead), SolverConfig(k=6, r_sigma=3), b)
    with pytest.raises(ValueError, match="exceeds pixel count"):
        ldmm_reconstruct(b, masks, SolverConfig(k=100), b)
