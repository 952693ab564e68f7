"""Brute-force references and a synthetic cube generator.

Everything here is written independently of the production modules it
cross-checks: naive kNN and weights, a dense shift-sum, a dense direct
solve, and central-difference gradients. Deliberately slow, size-capped,
and serial (the one check of forked kNN blocks and band solves aside); shipped
in the library so installations can verify themselves via the
``selfcheck`` CLI subcommand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .datacube import DataCube

__all__ = [
    "SyntheticSpec",
    "synth_cube",
    "naive_knn",
    "naive_bar_w",
    "naive_wtilde",
    "dense_solve",
    "fd_gradient",
    "selfcheck",
]

DENSE_SOLVE_CAP = 4096


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for a low-rank test cube: smooth abundance maps mixed with
    smooth spectra, values in [0, 1].

    The unfolded (m*n, B) matrix is a sum of ``rank`` products of a map and
    a spectrum, so its rank is at most ``rank``; it can be lower when B is
    close to ``rank``. Min-max scaling puts a 0 and a 1 in every spectrum: at B = 2
    each spectrum is [0, 1] or [1, 0], so two components coincide half the
    time, and at B = ``rank`` the spectra are dependent whenever all of them
    take their minimum in the same band."""

    m: int
    n: int
    B: int
    rank: int
    smoothness: float = 3.0
    seed: int = 0

    def __post_init__(self):
        if min(self.m, self.n, self.B) < 1:
            raise ValueError(f"dimensions must be positive, got {(self.m, self.n, self.B)}")
        if not 1 <= self.rank <= min(self.B, 8):
            raise ValueError(f"rank must be in [1, min(B, 8)] = [1, {min(self.B, 8)}], got {self.rank}")
        if not 0.0 <= self.smoothness < math.inf:
            raise ValueError(f"smoothness must be finite and non-negative, got {self.smoothness}")


def _periodic_smooth(a: np.ndarray, sigma: float, axis: int) -> np.ndarray:
    """Gaussian smoothing of ``a`` along ``axis`` with periodic ends.

    Bitwise equal to scipy's ``gaussian_filter1d(a, sigma, axis,
    mode="wrap")`` on float64 input: the same kernel (radius
    ``int(4 sigma + 0.5)``, weights ``exp(-x^2 / (2 sigma^2))`` over their
    sum) and the same order of operations (centre tap, then each pair of
    taps summed and weighted, outermost first). A radius of 0 returns ``a``,
    as scipy's one-tap kernel of weight 1 does, without forming 1/sigma^2.
    """
    r = int(4.0 * sigma + 0.5)
    if r == 0:
        return a
    x = np.arange(-r, r + 1)
    w = np.exp(-0.5 / (sigma * sigma) * x**2)
    w = w / w.sum()
    n = a.shape[axis]
    # one periodic copy padded by r on both ends, then a slice per tap
    p = np.moveaxis(np.take(a, np.arange(-r, n + r) % n, axis=axis), axis, 0)
    out = p[r:r + n] * w[r]
    for j in range(r, 0, -1):
        out += (p[r - j:r - j + n] + p[r + j:r + j + n]) * w[r - j]
    return np.moveaxis(out, 0, axis)


def synth_cube(spec: SyntheticSpec) -> DataCube:
    """Deterministic synthetic cube: sum over components of abundance(x) * spectrum(t)."""
    rng = np.random.default_rng(spec.seed)
    maps = np.empty((spec.rank, spec.m, spec.n))
    for l in range(spec.rank):
        a = rng.standard_normal((spec.m, spec.n))
        a = _periodic_smooth(_periodic_smooth(a, spec.smoothness, 0), spec.smoothness, 1)
        a -= a.min()
        maps[l] = a
    total = maps.sum(axis=0)
    # per-pixel scaling keeps sums <= 1 without changing the factor rank
    maps /= np.maximum(total, 1.0)[None, :, :]
    spectra = np.empty((spec.rank, spec.B))
    for l in range(spec.rank):
        s = rng.standard_normal(spec.B)
        if spec.B > 2:
            s = _periodic_smooth(s, max(1.0, spec.B / 8.0), 0)
        lo, hi = s.min(), s.max()
        spectra[l] = (s - lo) / (hi - lo) if hi > lo else 0.5
    values = np.einsum("lmn,lt->tmn", maps, spectra)
    return DataCube(values)


def naive_knn(points: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Reference kNN: per-row full distance scan, python-sorted with the row
    itself first and remaining ties broken by smaller index."""
    P = np.asarray(points, dtype=np.float64)
    N = P.shape[0]
    if not 1 <= k <= N:
        raise ValueError(f"need 1 <= k <= {N}, got k={k}")
    idx = np.empty((N, k), dtype=np.int64)
    d2 = np.empty((N, k), dtype=np.float64)
    for r in range(N):
        dists = ((P - P[r]) ** 2).sum(axis=1)
        order = sorted(range(N), key=lambda j: (j != r, dists[j], j))[:k]
        idx[r] = order
        d2[r] = dists[order]
        d2[r, 0] = 0.0
    return idx, d2


def naive_bar_w(points: np.ndarray, k: int, r_sigma: int) -> np.ndarray:
    """Reference dense similarity matrix over the kNN pairs, scalar math only."""
    idx, d2 = naive_knn(points, k)
    N = idx.shape[0]
    if not 2 <= r_sigma <= k:
        raise ValueError(f"need 2 <= r_sigma <= k={k}, got {r_sigma}")
    sigma = np.empty(N)
    for r in range(N):
        s = math.sqrt(d2[r, r_sigma - 1])
        if s == 0.0:
            positive = [v for v in d2[r] if v > 0.0]
            s = math.sqrt(min(positive)) if positive else 1.0
        sigma[r] = s
    W = np.zeros((N, N))
    for r in range(N):
        for c in range(k):
            j = idx[r, c]
            W[r, j] = math.exp(-d2[r, c] / (sigma[r] * sigma[j]))
    return W


def naive_wtilde(bar_dense: np.ndarray, s1: int, s2: int, m: int, n: int) -> np.ndarray:
    """Reference shift sum on a dense matrix, inline modular index arithmetic."""
    N = m * n
    if bar_dense.shape != (N, N):
        raise ValueError(f"expected {N} x {N} matrix, got {bar_dense.shape}")
    out = np.zeros((N, N))
    for i in range(s1 * s2):
        # offset of window position i, negated: the shift by 1-(i+1) steps
        dr, dc = divmod(i, s2)
        perm = np.empty(N, dtype=np.int64)
        for p in range(N):
            r, c = divmod(p, n)
            perm[p] = ((r - dr) % m) * n + ((c - dc) % n)
        for x in range(N):
            for y in range(N):
                out[x, y] += bar_dense[perm[x], perm[y]]
    return out


def dense_solve(system) -> np.ndarray:
    """Direct dense factorization of a band system, with a residual check."""
    N = system.n
    if N > DENSE_SOLVE_CAP:
        raise ValueError(f"dense solve capped at {DENSE_SOLVE_CAP} unknowns, got {N}")
    A = np.asarray(system.A.todense())
    try:
        x = np.linalg.solve(A, system.rhs)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(f"singular band system (band {system.band}): {exc}") from exc
    rhs_norm = np.linalg.norm(system.rhs)
    resid = np.linalg.norm(A @ x - system.rhs)
    if resid > 1e-10 * max(rhs_norm, 1e-30):
        raise ArithmeticError(
            f"dense solve residual {resid:.3e} exceeds 1e-10 * |rhs| (band {system.band})"
        )
    return x


def fd_gradient(f, u: np.ndarray, h: float) -> np.ndarray:
    """Central-difference gradient of a scalar field over a band image."""
    if h <= 0:
        raise ValueError(f"step must be positive, got {h}")
    u = np.asarray(u, dtype=np.float64)
    grad = np.empty(u.size)
    flat = u.reshape(-1)
    for p in range(flat.size):
        e = np.zeros_like(flat)
        e[p] = h
        grad[p] = (f((flat + e).reshape(u.shape)) - f((flat - e).reshape(u.shape))) / (2.0 * h)
    return grad


def _check_adjoint() -> bool:
    from .patch import PatchGeometry, patch_component_adjoint, patch_component_apply

    rng = np.random.default_rng(11)
    geom = PatchGeometry(2, 2, 6, 6)
    for i in range(1, geom.d_s + 1):
        u = rng.standard_normal((6, 6))
        v = rng.standard_normal((6, 6))
        lhs = float((patch_component_apply(u, i, geom) * v).sum())
        rhs = float((u * patch_component_adjoint(v, i, geom)).sum())
        if not math.isclose(lhs, rhs, rel_tol=1e-12, abs_tol=1e-12):
            return False
    return True


def _check_graph() -> bool:
    from .graph import build_bar_w, knn_exact, local_scale

    rng = np.random.default_rng(5)
    pts = rng.random((16, 6))
    table = knn_exact(pts, 5)
    sigma = local_scale(table, 3)
    got = np.asarray(build_bar_w(table, sigma).todense())
    want = naive_bar_w(pts, 5, 3)
    if not np.allclose(got, want, rtol=1e-13, atol=0.0):
        return False
    # the float32 screen's rounding depends on the installed BLAS; offset
    # data also need the centring to keep the settled band narrow
    pts = 1e4 + 1e-2 * rng.random((300, 6))
    table = knn_exact(pts, 10)
    idx, d2 = naive_knn(pts, 10)
    return bool(np.array_equal(table.indices, idx) and np.array_equal(table.sq_dists, d2))


def _check_solver() -> bool:
    from .graph import assemble_wtilde, build_bar_w, knn_exact, local_scale
    from .patch import PatchGeometry, extract_patches
    from .solver import SolverConfig, assemble_band_system, solve_band

    cube = synth_cube(SyntheticSpec(4, 4, 2, 2, smoothness=1.0, seed=3))
    geom = PatchGeometry(2, 2, 4, 4)
    table = knn_exact(extract_patches(cube.unfold(), geom), 6)
    wt = assemble_wtilde(build_bar_w(table, local_scale(table, 3)), geom)
    mask = np.zeros((4, 4), dtype=bool)
    mask.reshape(-1)[[0, 5, 9, 14]] = True
    system = assemble_band_system(wt, mask, cube.band(0), 5.0, 0.25)
    cfg = SolverConfig(k=6, r_sigma=3, gmres_tol=1e-12, gmres_max_iters=2000)
    x = solve_band(system, np.zeros(16), cfg)
    ref = dense_solve(system)
    return bool(np.linalg.norm(x - ref) <= 1e-8 * np.linalg.norm(ref))


def _check_fd_stationarity() -> bool:
    from .graph import assemble_wtilde, build_bar_w, knn_exact, local_scale
    from .patch import PatchGeometry, extract_patches
    from .solver import SolverConfig, assemble_band_system, solve_band, wnll_energy

    cube = synth_cube(SyntheticSpec(4, 4, 2, 1, smoothness=1.0, seed=9))
    geom = PatchGeometry(2, 2, 4, 4)
    table = knn_exact(extract_patches(cube.unfold(), geom), 16)  # full graph: symmetric weights
    wt = assemble_wtilde(build_bar_w(table, local_scale(table, 8)), geom)
    mask = np.zeros((4, 4), dtype=bool)
    mask.reshape(-1)[[1, 6, 11, 12]] = True
    lam, rate = 3.0, 0.25
    system = assemble_band_system(wt, mask, cube.band(0), lam, rate)
    cfg = SolverConfig(k=16, r_sigma=8, gmres_tol=1e-13, gmres_max_iters=2000)
    x = solve_band(system, np.zeros(16), cfg)
    grad = fd_gradient(
        lambda img: wnll_energy(img, wt, mask, cube.band(0), lam, rate), x.reshape(4, 4), 1e-5
    )
    scale = np.abs(system.A.data).max()
    return bool(np.abs(grad).max() <= 1e-6 * scale)


def _check_roundtrip() -> bool:
    import tempfile
    from pathlib import Path

    from .hsio import read_cube, write_cube

    rng = np.random.default_rng(2)
    cube = DataCube(rng.random((3, 5, 4)).astype(np.float32).astype(np.float64))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.hsc"
        write_cube(path, cube)
        back = read_cube(path)
    return bool(np.array_equal(back.values, cube.values))


def _check_svt() -> bool:
    from .lowrank import svt

    got, shrunk = svt(np.diag([3.0, 1.0]), 2.0)
    return bool(np.allclose(got, np.diag([1.0, 0.0]), atol=1e-12)
                and np.allclose(shrunk, [1.0, 0.0], atol=1e-12))


def _check_band_workers() -> bool:
    from ._workers import _in_order
    from .datacube import make_mask
    from .graph import _knn_exact, assemble_wtilde, build_bar_w, local_scale
    from .patch import PatchGeometry, extract_patches
    from .solver import SolverConfig, _band_graph, _gmres, assemble_band_system

    # one outer iteration's kNN table (seven row blocks) and band solves on
    # one and on two processes; bitwise equality needs the installed BLAS to
    # answer a forked child as it answers the caller
    cube = synth_cube(SyntheticSpec(32, 32, 6, 2, smoothness=1.0, seed=4))
    geom = PatchGeometry(2, 2, 32, 32)
    patches = extract_patches(cube.unfold(), geom)
    table, table2 = (_knn_exact(patches, 10, workers) for workers in (1, 2))
    graph = _band_graph(assemble_wtilde(build_bar_w(table, local_scale(table, 5)), geom))
    masks = make_mask(cube.dims, 0.2, 5)
    cfg = SolverConfig(k=10, r_sigma=5)

    def solve(t):
        system = assemble_band_system(graph, masks.band(t), cube.band(t), 50.0, 0.2, band=t)
        return _gmres(system, np.zeros(1024), cfg)[0]

    serial, forked = (list(_in_order(solve, cube.B, workers, "band")) for workers in (1, 2))
    return (np.array_equal(table.indices, table2.indices)
            and np.array_equal(table.sq_dists, table2.sq_dists)
            and all(np.array_equal(x, y) for x, y in zip(serial, forked)))


def selfcheck() -> bool:
    """Run the oracle battery; prints where the loops run, then one PASS/FAIL
    line per check."""
    checks = [
        ("adjoint_identity", _check_adjoint),
        ("graph_vs_naive", _check_graph),
        ("gmres_vs_dense", _check_solver),
        ("energy_stationarity", _check_fd_stationarity),
        ("hsc_roundtrip", _check_roundtrip),
        ("svt_closed_form", _check_svt),
        ("band_workers", _check_band_workers),
    ]
    from ._workers import _pin, _pool_size

    P = _pool_size()
    where = f"{P} processes, the caller and {P - 1} forked"
    if P == 1:
        where = "1 process, the caller alone"
    print(f"BLAS pin (openblas_set_num_threads_local): {'active' if _pin else 'missing'}; "
          f"kNN blocks and bands run on {where}")
    ok = True
    for name, fn in checks:
        passed = fn()
        ok = ok and passed
        print(f"{name}: {'PASS' if passed else 'FAIL'}")
    return ok
