"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import math
import time
import warnings
from contextlib import contextmanager

import numpy as np
import pytest

import hsldmm.solver as solver_mod
from hsldmm import (
    ApgConfig,
    DataCube,
    MaskSet,
    SolverConfig,
    SyntheticSpec,
    add_gaussian_noise,
    apg_complete,
    apply_mask,
    ldmm_reconstruct,
    make_mask,
    psnr,
    synth_cube,
)
from hsldmm.graph import assemble_wtilde, build_bar_w, knn_exact, local_scale
from hsldmm.hsio import read_cube, read_mask, write_cube, write_mask
from hsldmm.oracle import dense_solve, fd_gradient, naive_bar_w, naive_wtilde
from hsldmm.patch import PatchGeometry, extract_patches, shift_permutation
from hsldmm.solver import RunLog, _gmres, assemble_band_system, wnll_energy

# Frozen regression baseline: median standard-PSNR margin of the manifold
# loop over its completion initialization on the criterion-6 seed sweep,
# measured on first build of this suite.
BASELINE_MEDIAN_MARGIN_DB = 7.255068


@contextmanager
def criterion(label, budget_secs):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\n{label}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_secs, f"{label} took {elapsed:.1f}s, budget {budget_secs}s"
    print(f"\n{label}: PASS ({elapsed:.2f}s)")


def band_graph(cube, s, k, r_sigma):
    geom = PatchGeometry(s, s, cube.m, cube.n)
    patches = extract_patches(cube.unfold(), geom)
    table = knn_exact(patches, k)
    return geom, assemble_wtilde(build_bar_w(table, local_scale(table, r_sigma)), geom)


def test_c01_adjoint_suite():
    with criterion("ACCEPTANCE 1 (adjoint identity, 0 ulp)", 1.0):
        for size in (6, 16):
            N = size * size
            geom = PatchGeometry(2, 2, size, size)
            # R_i is column i of the patch matrix's gather and R_i^T the
            # inverse shift that the shift-sum applies; the gather must walk
            # the window row-major, by inline index arithmetic
            gather = extract_patches(np.zeros((N, 1)), geom).gather
            inv = [shift_permutation(geom, -i) for i in range(geom.d_s)]
            rows, cols = np.divmod(np.arange(N), size)
            for i in range(geom.d_s):
                dr, dc = divmod(i, geom.s2)
                assert np.array_equal(gather[:, i], (rows + dr) % size * size + (cols + dc) % size)
                assert np.array_equal(gather[inv[i], i], np.arange(N))
            for seed in range(100):
                rng = np.random.default_rng(seed)
                u = rng.standard_normal(N)
                v = rng.standard_normal(N)
                for i in range(geom.d_s):
                    lhs = u[gather[:, i]] * v
                    rhs = (u * v[inv[i]])[gather[:, i]]
                    assert np.array_equal(lhs, rhs)
                    assert np.sum(lhs) == np.sum(rhs)


def test_c02_graph_oracle():
    with criterion("ACCEPTANCE 2 (graph vs naive dense, 1e-15)", 5.0):
        for size in (4, 6):
            for s in (1, 2):
                for k in (3, 5):
                    rng = np.random.default_rng(size * 100 + s * 10 + k)
                    cube = DataCube(rng.random((2, size, size)))
                    geom = PatchGeometry(s, s, size, size)
                    patches = extract_patches(cube.unfold(), geom)
                    r_sigma = max(2, k // 2 + 1)
                    table = knn_exact(patches, k)
                    bar = build_bar_w(table, local_scale(table, r_sigma))
                    bar_dense = np.asarray(bar.todense())
                    want_bar = naive_bar_w(np.asarray(patches), k, r_sigma)
                    nz = want_bar > 0
                    assert np.array_equal(bar_dense == 0, want_bar == 0)
                    rel = np.abs(bar_dense - want_bar)[nz] / want_bar[nz]
                    assert rel.max() <= 1e-15
                    got_wt = np.asarray(assemble_wtilde(bar, geom).todense())
                    want_wt = naive_wtilde(want_bar, s, s, size, size)
                    nz = want_wt > 0
                    assert np.array_equal(got_wt == 0, want_wt == 0)
                    relw = np.abs(got_wt - want_wt)[nz] / want_wt[nz]
                    assert relw.max() <= 1e-15


def test_c03_solver_oracle():
    with criterion("ACCEPTANCE 3 (gmres vs dense solve, 1e-8)", 10.0):
        cube = synth_cube(SyntheticSpec(8, 8, 3, 3, smoothness=1.5, seed=0))
        geom, wt = band_graph(cube, 2, 8, 4)
        dbar = float(wt.sum()) / 64
        cfg = SolverConfig(k=8, r_sigma=4, gmres_tol=1e-12, gmres_max_iters=4000)
        for rate in (0.05, 0.5, 1.0):
            masks = make_mask(cube.dims, rate, 1)
            for lam_rel in (1.0, 100.0):
                lam = lam_rel * dbar
                for t in range(cube.B):
                    system = assemble_band_system(
                        wt, masks.band(t), cube.band(t), lam, rate, band=t
                    )
                    got = _gmres(system, np.zeros(64), cfg)[0]
                    ref = dense_solve(system)
                    assert np.linalg.norm(got - ref) <= 1e-8 * np.linalg.norm(ref)


def test_c04_stationarity():
    with criterion("ACCEPTANCE 4 (energy stationarity at solutions)", 30.0):
        # 4x4 grids with the untruncated graph, where the assembled operator
        # is the exact half-gradient of the decoupled band energy
        for seed in range(3):
            cube = synth_cube(SyntheticSpec(4, 4, 2, 2, smoothness=1.0, seed=seed))
            geom, wt = band_graph(cube, 2, 16, 8)
            masks = make_mask(cube.dims, 0.25, seed + 10)
            cfg = SolverConfig(k=16, r_sigma=8, gmres_tol=1e-13, gmres_max_iters=4000)
            dbar = float(wt.sum()) / 16
            for t in range(cube.B):
                rate = float(masks.rates()[t])
                lam = 10.0 * dbar
                system = assemble_band_system(wt, masks.band(t), cube.band(t), lam, rate)
                x = _gmres(system, np.zeros(16), cfg)[0]
                grad = fd_gradient(
                    lambda img: wnll_energy(img, wt, masks.band(t), cube.band(t), lam, rate),
                    x.reshape(4, 4),
                    1e-5,
                )
                scale = np.abs(system.A.data).max()
                assert np.abs(grad).max() <= 1e-6 * scale


def test_c05_energy_descent():
    with criterion("ACCEPTANCE 5 (energy descent every band solve)", 60.0):
        checked = 0
        for seed in range(10):
            cube = synth_cube(SyntheticSpec(6, 6, 2, 2, smoothness=1.0, seed=seed))
            masks = make_mask(cube.dims, 0.3, seed + 100)
            b = apply_mask(cube, masks)
            opts = dict(s1=2, s2=2, k=8, r_sigma=4, lambda_rel=10.0,
                        gmres_tol=1e-10, gmres_max_iters=2000)
            rates = masks.rates()
            # two chained single-iteration runs, each band solve checked on
            # the graph and fidelity weight that outer iteration used
            u = b
            for _ in range(2):
                log = RunLog()
                out = ldmm_reconstruct(b, masks, SolverConfig(outer_iters=1, **opts), u, log=log)
                _, wt = band_graph(u, 2, 8, 4)
                lam = opts["lambda_rel"] * (float(wt.sum()) / (cube.m * cube.n))
                assert lam == log.iterations[0]["lambda"]
                for t in range(cube.B):
                    args = (wt, masks.band(t), b.band(t), lam, float(rates[t]))
                    e_start, e_end = wnll_energy(u.band(t), *args), wnll_energy(out.band(t), *args)
                    assert e_end <= e_start * (1 + 1e-12)
                    checked += 1
                u = out
            whole = ldmm_reconstruct(b, masks, SolverConfig(outer_iters=2, **opts), b)
            assert np.array_equal(u.values, whole.values)
        assert checked == 10 * 2 * 2


def test_c06_end_to_end_improvement():
    with criterion("ACCEPTANCE 6 (manifold loop beats completion init)", 60.0):
        margins = []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            for seed in range(10):
                cube = synth_cube(SyntheticSpec(32, 32, 8, 3, smoothness=3.0, seed=seed))
                masks = make_mask(cube.dims, 0.05, seed + 1000)
                b = apply_mask(cube, masks)
                u0 = apg_complete(b, masks, ApgConfig())
                p_init = psnr(u0, cube, "standard").psnr_standard
                out = ldmm_reconstruct(b, masks, SolverConfig(), u0)
                p_out = psnr(out, cube, "standard").psnr_standard
                margins.append(p_out - p_init)
        wins = sum(1 for m in margins if m > 0)
        assert wins >= 9, f"only {wins}/10 seeds improved"
        median = float(np.median(margins))
        assert abs(median - BASELINE_MEDIAN_MARGIN_DB) <= 0.5, (
            f"median margin {median:.3f} dB drifted from baseline "
            f"{BASELINE_MEDIAN_MARGIN_DB:.3f} dB"
        )


def test_c07_noisy_regime_smoke():
    with criterion("ACCEPTANCE 7 (noisy 10% regime, +5 dB over zero fill)", 60.0):
        cube = synth_cube(SyntheticSpec(32, 32, 8, 3, smoothness=3.0, seed=0))
        noisy = add_gaussian_noise(cube, 0.05, 7)
        masks = make_mask(cube.dims, 0.10, 8)
        b = apply_mask(noisy, masks)
        p_zero = psnr(b, cube, "standard").psnr_standard
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            u0 = apg_complete(b, masks, ApgConfig())
            out = ldmm_reconstruct(b, masks, SolverConfig(lambda_rel=1.0), u0)
        assert np.all(np.isfinite(out.values))
        p_out = psnr(out, cube, "standard").psnr_standard
        assert p_out >= p_zero + 5.0, f"{p_out:.2f} dB vs zero-fill {p_zero:.2f} dB"


def test_c08_scalability(monkeypatch):
    with criterion("ACCEPTANCE 8 (one graph per iteration; flat band scaling)", 120.0):
        # construction counts do not depend on the number of bands
        calls = {"knn": 0, "bar": 0, "wtilde": 0}
        real = (solver_mod.knn_exact, solver_mod.build_bar_w, solver_mod.assemble_wtilde)
        monkeypatch.setattr(
            solver_mod, "knn_exact",
            lambda *a, **k: (calls.__setitem__("knn", calls["knn"] + 1), real[0](*a, **k))[1])
        monkeypatch.setattr(
            solver_mod, "build_bar_w",
            lambda *a, **k: (calls.__setitem__("bar", calls["bar"] + 1), real[1](*a, **k))[1])
        monkeypatch.setattr(
            solver_mod, "assemble_wtilde",
            lambda *a, **k: (calls.__setitem__("wtilde", calls["wtilde"] + 1), real[2](*a, **k))[1])
        outer = 2
        for B in (2, 5):
            for key in calls:
                calls[key] = 0
            cube = synth_cube(SyntheticSpec(16, 16, B, 2, smoothness=2.0, seed=3))
            masks = make_mask(cube.dims, 0.2, 4)
            b = apply_mask(cube, masks)
            ldmm_reconstruct(b, masks, SolverConfig(k=10, r_sigma=5, outer_iters=outer), b)
            assert calls == {"knn": outer, "bar": outer, "wtilde": outer}
        for key, fn in zip(("knn_exact", "build_bar_w", "assemble_wtilde"), real):
            monkeypatch.setattr(solver_mod, key, fn)

        # wall clock grows sublinearly in B because the graph is shared
        def timed(B):
            cube = synth_cube(SyntheticSpec(64, 64, B, 3, smoothness=3.0, seed=1))
            masks = make_mask(cube.dims, 0.10, 2)
            b = apply_mask(cube, masks)
            cfg = SolverConfig(s1=1, s2=1, outer_iters=2)
            t0 = time.perf_counter()
            ldmm_reconstruct(b, masks, cfg, b)
            return time.perf_counter() - t0

        timed(4)  # warm BLAS and allocator once
        t8 = timed(8)
        t32 = timed(32)
        assert t32 / t8 < 2.5, f"B=32 took {t32:.2f}s vs B=8 {t8:.2f}s (x{t32 / t8:.2f})"


def test_c09_mu_structure():
    with criterion("ACCEPTANCE 9 (rate-1 operator structure; mu = 19 at 5%)", 10.0):
        import scipy.sparse as sp

        cube = synth_cube(SyntheticSpec(6, 6, 1, 1, smoothness=1.5, seed=5))
        geom, wt = band_graph(cube, 2, 8, 4)
        lam = 4.0
        full = make_mask(cube.dims, 1.0, 0)
        system = assemble_band_system(wt, full.band(0), cube.band(0), lam, 1.0)
        assert system.mu == 0.0
        # self weights do not enter the operator; D sums the other weights
        # sequentially in column order, as the solver does
        off = (sp.triu(wt, 1) + sp.tril(wt, -1)).tocsr()
        want = 2.0 * (sp.diags(off @ np.ones(36)) - off) + lam * sp.identity(36)
        assert np.array_equal(np.asarray(system.A.todense()), np.asarray(want.todense()))

        sparse = make_mask(cube.dims, 0.25, 6)
        system5 = assemble_band_system(wt, sparse.band(0), cube.band(0), lam, 0.05)
        assert system5.mu == 19.0
        # mu = 19 enters every off-diagonal coefficient as printed
        A = np.asarray(system5.A.todense())
        W = np.asarray(wt.todense())
        chi = sparse.band(0).reshape(-1).astype(float)
        for x in range(36):
            for y in range(36):
                if x != y and W[x, y] > 0:
                    want_xy = -(2.0 + 19.0 * chi[x] + 19.0 * chi[y]) * W[x, y]
                    assert math.isclose(A[x, y], want_xy, rel_tol=1e-14)


def test_c10_format_roundtrip(tmp_path):
    with criterion("ACCEPTANCE 10 (bit-exact container round trips)", 30.0):
        rng = np.random.default_rng(9)
        for i in range(50):
            shape = (
                int(rng.integers(1, 5)),
                int(rng.integers(1, 9)),
                int(rng.integers(1, 9)),
            )
            cube = DataCube(
                rng.standard_normal(shape).astype(np.float32).astype(np.float64)
            )
            path = tmp_path / f"cube{i}.hsc"
            write_cube(path, cube)
            back = read_cube(path)
            assert back.dims == cube.dims
            assert np.array_equal(back.values, cube.values)
            masks = MaskSet(rng.random(shape) < rng.random())
            mpath = tmp_path / f"mask{i}.hsc"
            write_mask(mpath, masks)
            assert np.array_equal(read_mask(mpath).masks, masks.masks)
