"""Per-band linear systems on the shared pixel graph, and the outer loop that
alternates graph construction with band-by-band solves."""

from __future__ import annotations

import math
import time
import warnings
from contextlib import closing
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from ._workers import NumericalError, _in_order, _one_blas_thread, _pool_size
from .datacube import DataCube, MaskSet, _check_field_types, psnr
from .graph import assemble_wtilde, build_bar_w, knn_exact, local_scale
from .patch import PatchGeometry, _check_budget, extract_patches

__all__ = [
    "SolverConfig",
    "BandSystem",
    "NumericalError",
    "RunLog",
    "assemble_band_system",
    "wnll_energy",
    "ldmm_reconstruct",
]


# entries of the graph per chunk of the band fill's neighbour gather: a chunk's
# intp indices and gathered values take 512 KiB, as its values alone did when
# 1 << 16 entries were gathered by the int32 indices
_GATHER_CHUNK = 1 << 15

@dataclass(frozen=True)
class SolverConfig:
    """All reconstruction tunables.

    ``lambda_rel`` is the fidelity weight relative to the mean row sum of
    the shift-summed graph: the absolute weight used in each outer iteration
    is lambda_rel times that mean degree, which keeps one setting usable
    across image and patch sizes. 100 suits near-interpolation of noise-free
    samples; 1 suits noisy data. ``gmres_tol`` bounds each band solve's
    normwise backward error ||rhs - A u|| / (||rhs|| + L ||u||), with
    L = max |a_ii| <= ||A||_2, which does not depend on the fidelity
    weight's scale. ``gmres_max_iters`` counts total inner iterations
    across restarts.
    """

    s1: int = 2
    s2: int = 2
    k: int = 20
    r_sigma: int = 10
    lambda_rel: float = 100.0
    outer_iters: int = 3
    gmres_tol: float = 1e-6
    gmres_restart: int = 30
    gmres_max_iters: int = 500

    def __post_init__(self):
        _check_field_types(self)  # before the ranges, which compare numbers
        if self.s1 < 1 or self.s2 < 1:
            raise ValueError("patch dims must be at least 1")
        if self.k < 2:
            raise ValueError(f"k must be at least 2, got {self.k}")
        if not 2 <= self.r_sigma <= self.k:
            raise ValueError(f"need 2 <= r_sigma <= k, got r_sigma={self.r_sigma}, k={self.k}")
        if not 0.0 <= self.lambda_rel < math.inf:
            raise ValueError(f"lambda_rel must be finite and non-negative, got {self.lambda_rel}")
        if self.outer_iters < 1:
            raise ValueError(f"outer_iters must be at least 1, got {self.outer_iters}")
        if not 0.0 < self.gmres_tol < 1.0:
            raise ValueError(f"gmres_tol must be in (0, 1), got {self.gmres_tol}")
        if self.gmres_restart < 1 or self.gmres_max_iters < 1:
            raise ValueError("gmres_restart and gmres_max_iters must be at least 1")


@dataclass(frozen=True)
class BandSystem:
    """Assembled sparse system A u = rhs for one spectral band.

    ``diag`` is A's diagonal as the assembly wrote it, which spares the
    solver a scan of every stored entry; without it the solver reads
    ``A.diagonal()``."""

    A: sp.csr_matrix
    rhs: np.ndarray
    band: int
    mu: float
    lam: float
    diag: np.ndarray | None = None

    @property
    def n(self) -> int:
        return self.rhs.shape[0]


@dataclass
class RunLog:
    """Optional collector for both stages of a run: one record per
    completion stage of ``apg_complete``, then per band solve and per outer
    iteration of ``ldmm_reconstruct``. ``summary`` flattens it into
    manifest entries."""

    stages: list = field(default_factory=list)
    bands: list = field(default_factory=list)
    iterations: list = field(default_factory=list)

    def summary(self) -> dict:
        out: dict = {f"apg_stage{r['stage']}_iters": r["iters"] for r in self.stages}
        if self.stages:
            out["apg_iters"] = sum(r["iters"] for r in self.stages)
            out["apg_nonconverged"] = sum(not r["converged"] for r in self.stages)
            out["apg_gap"] = self.stages[-1]["gap"]
        for rec in self.iterations:
            it = rec["iteration"]
            for key, val in rec.items():
                if key != "iteration":
                    out[f"iter{it}_{key}"] = val
        if self.bands:
            out["gmres_total_iters"] = sum(r["gmres_iters"] for r in self.bands)
            out["gmres_nonconverged"] = sum(not r["converged"] for r in self.bands)
        return out


@dataclass(frozen=True)
class _BandGraph:
    """The part of every band operator that depends only on the graph:
    canonical CSR with a diagonal slot in every row, holding an explicit
    zero (self weights do not enter the operator), the diagonal positions
    and the row sums of the off-diagonal weights."""

    W: sp.csr_matrix
    diag_pos: np.ndarray
    deg: np.ndarray


def _with_diagonal(wtilde: sp.spmatrix) -> sp.csr_matrix:
    """A private canonical CSR copy of a graph, with every diagonal entry stored."""
    # a NaN fails this too; checked first, as the add cancels a self weight of -1
    if not np.all(wtilde.data >= 0.0):
        raise ValueError("graph weights must be non-negative")
    # the add rejects a graph that is not square and merges duplicates; self weight + 1 > 0
    W = (wtilde + sp.identity(wtilde.shape[0], format="csr")).tocsr()
    W.sort_indices()  # only an input that is not canonical leaves it unsorted
    return W


def _band_graph(W: sp.csr_matrix) -> _BandGraph:
    """Graph-only state of the band operators, built once per graph on ``W``
    itself, whose diagonal it zeroes: a canonical CSR of non-negative weights
    that stores every diagonal entry, as W-tilde does, or ``_with_diagonal``'s copy."""
    N = W.shape[0]
    # each entry's row in the indices' dtype, int32 as a rule: an int64 copy
    # took this stage past the kNN stage's peak
    row = np.repeat(np.arange(N, dtype=W.indices.dtype), np.diff(W.indptr))
    diag_pos = np.flatnonzero(row == W.indices)
    del row
    # The degree is summed without the self weight rather than as the full
    # row sum minus it: when every other weight of a row is below eps times
    # the self weight, that difference rounds to exactly 0.
    W.data[diag_pos] = 0.0
    return _BandGraph(W, diag_pos, W @ np.ones(N))


def assemble_band_system(
    wtilde: sp.spmatrix | _BandGraph,
    mask_t: np.ndarray,
    b_t: np.ndarray,
    lam: float,
    rate: float,
    band: int = 0,
) -> BandSystem:
    """Build the band operator and right-hand side.

    Row x encodes
        2 * sum_y w(x,y) (u(x) - u(y))
      + mu * [x sampled] * sum_y w(x,y) (u(x) - u(y))
      + mu * sum_{y sampled} w(x,y) (u(x) - u(y))
      + lam * [x sampled] * (u(x) - b(x))  = 0
    with mu = 1/rate - 1. Sampled-anchored difference terms are boosted by
    the inverse sampling rate, which is what lets sparse samples steer the
    interpolation; the matrix is non-symmetric because the boost follows the
    sample indicator. ``wtilde`` may also be the graph's ``_band_graph``
    state, which ``ldmm_reconstruct`` builds once for all bands on W-tilde
    itself; a graph itself is copied first, so the caller's never changes.
    """
    graph = wtilde if isinstance(wtilde, _BandGraph) else _band_graph(_with_diagonal(wtilde))
    W = graph.W
    N = W.shape[0]
    chi = np.asarray(mask_t, dtype=np.float64).reshape(-1)
    bvec = np.asarray(b_t, dtype=np.float64).reshape(-1)
    if chi.shape[0] != N or bvec.shape[0] != N:
        raise ValueError("graph, mask, and band data sizes do not agree")
    if not 0.0 < rate <= 1.0:
        raise ValueError(f"sampling rate must be in (0, 1], got {rate}")
    if lam < 0:
        raise ValueError(f"lam must be non-negative, got {lam}")
    mu = 1.0 / rate - 1.0
    deg_omega = W @ chi
    mu_chi = mu * chi
    # data = -(2 + mu chi_x + mu chi_y) w(x, y); the gather of mu chi_y goes
    # in chunks so that data is the only temporary of the size of the graph,
    # each by intp indices, which numpy gathers 2-4x faster than int32 ones
    data = np.repeat(2.0 + mu_chi, np.diff(W.indptr))
    for lo in range(0, data.size, _GATHER_CHUNK):
        part = data[lo : lo + _GATHER_CHUNK]
        part += mu_chi.take(W.indices[lo : lo + _GATHER_CHUNK].astype(np.intp))
        part *= W.data[lo : lo + _GATHER_CHUNK]
    np.negative(data, out=data)
    # same float op order as (2 + mu chi)(D - W) + mu (D_omega - W chi) + lam chi
    # on the diagonal, with W the graph without self weights, so rate 1 gives
    # exactly 2 (D - W) + lam I
    diag = (2.0 + mu_chi) * graph.deg + mu * deg_omega + lam * chi
    data[graph.diag_pos] = diag
    A = sp.csr_matrix((data, W.indices, W.indptr), shape=(N, N))
    rhs = lam * chi * bvec
    return BandSystem(A=A, rhs=rhs, band=band, mu=mu, lam=lam, diag=diag)


def _norm(v: np.ndarray) -> float:
    return math.sqrt(np.dot(v, v))  # np.linalg.norm's value and BLAS call, with less overhead


def _gmres(
    system: BandSystem, x0: np.ndarray, cfg: SolverConfig
) -> tuple[np.ndarray, int, float, bool]:
    """Restarted GMRES (Saad & Schultz 1986) with Jacobi left
    preconditioning, warm start x0.

    A solve converges on a certified normwise backward error (Rigal & Gaches
    1967; Arioli, Duff & Ruiz 1992): ||rhs - A x|| <= tol (||rhs|| + L ||x||)
    with L = max |a_ii|. As |a_ii| = |e_i' A e_i| <= ||A||_2, a converged x
    solves exactly a system whose operator and right-hand side each moved by
    at most tol relative, and the test does not depend on the scale of the
    fidelity weight. A pass is ``scipy.sparse.linalg.gmres`` with ``atol``
    fixed at tol (||rhs|| + L ||x_start||): a warm start already within it
    returns at once, each restart cycle stops when its preconditioned
    residual estimate reaches ``ptol``, the true residual ends the pass, and
    ``ptol`` is re-aimed after every cycle (scipy gh-8400). A pass that ends
    within its threshold with an x shorter than its start, so that the rule
    does not hold, is followed by a new pass from that x. A zero right-hand
    side returns zero. The Arnoldi basis uses two passes of classical
    Gram-Schmidt; ``cfg.gmres_max_iters`` caps the total number of inner
    iterations exactly.

    Returns (solution, inner iterations, its backward error
    ||rhs - A x|| / (||rhs|| + L ||x||), converged flag).
    """
    A, b = system.A, system.rhs
    diag = A.diagonal() if system.diag is None else system.diag
    zero_rows = np.nonzero(diag == 0.0)[0]
    if zero_rows.size:
        raise NumericalError(f"zero diagonal entry at row {zero_rows[0]} of band {system.band}")
    inv_diag = 1.0 / diag
    bnrm2 = _norm(b)
    if bnrm2 == 0.0:
        return np.zeros_like(b), 0, 0.0, True
    # a lower bound on ||A||_2, so the test is never looser than it claims
    anorm = float(np.max(np.abs(diag)))
    n = b.shape[0]
    eps = float(np.finfo(np.float64).eps)
    tol = cfg.gmres_tol
    restart = min(cfg.gmres_restart, n)
    mb_nrm2 = _norm(inv_diag * b)
    x = np.array(x0, dtype=np.float64)
    r = b - A @ x if x.any() else b.copy()
    rnorm = _norm(r)
    atol = tol * (bnrm2 + anorm * _norm(x))
    ptol_max_factor = 1.0
    ptol = mb_nrm2 * min(ptol_max_factor, atol / bnrm2)
    iters = 0
    V = np.empty((restart + 1, n))
    w, proj = np.empty(n), np.empty(n)
    h, h2 = np.empty(restart), np.empty(restart)
    while rnorm >= atol and iters < cfg.gmres_max_iters:
        np.multiply(inv_diag, r, out=V[0])
        g = [_norm(V[0])]  # rotated residual vector
        V[0] *= 1.0 / g[0]
        R: list[list[float]] = []  # rotated Hessenberg columns
        rots: list[tuple[float, float]] = []
        for j in range(min(restart, cfg.gmres_max_iters - iters)):
            basis, hj, h2j = V[: j + 1], h[: j + 1], h2[: j + 1]
            np.multiply(inv_diag, A @ V[j], out=w)
            h0 = _norm(w)
            np.dot(basis, w, out=hj)
            w -= np.dot(hj, basis, out=proj)
            np.dot(basis, w, out=h2j)
            w -= np.dot(h2j, basis, out=proj)
            col = (hj + h2j).tolist()
            h1 = _norm(w)
            breakdown = h1 <= eps * h0  # the Krylov space holds the exact solution
            if breakdown:
                h1 = 0.0
            else:
                np.multiply(w, 1.0 / h1, out=V[j + 1])
            for k, (c, sn) in enumerate(rots):
                col[k], col[k + 1] = c * col[k] + sn * col[k + 1], -sn * col[k] + c * col[k + 1]
            f = col[j]
            # LAPACK dlartg, bit for bit away from over/underflow (the Jacobi
            # scaling keeps these entries near 1)
            if h1 == 0.0:
                c, sn, mag = 1.0, 0.0, f
            elif f == 0.0:
                c, sn, mag = 0.0, 1.0, h1
            else:
                d = math.sqrt(f * f + h1 * h1)
                c, mag = abs(f) / d, math.copysign(d, f)
                sn = h1 / mag
            rots.append((c, sn))
            col[j] = mag
            R.append(col)
            g_next = -sn * g[j]
            g[j] = c * g[j]
            g.append(g_next)
            presid = abs(g_next)
            iters += 1
            if presid <= ptol or breakdown:
                break
        # back substitution on the triangular factor, as scipy does it
        m = len(R)
        y = g[:m]
        if R[-1][m - 1] == 0.0:
            y[m - 1] = 0.0
        for k in range(m - 1, 0, -1):
            if y[k] != 0.0:
                y[k] /= R[k][k]
                for i in range(k):
                    y[i] -= y[k] * R[k][i]
        if y[0] != 0.0:
            y[0] /= R[0][0]
        x += np.dot(y, V[:m])
        r = b - A @ x
        rnorm = _norm(r)
        if rnorm <= atol:
            xnorm = _norm(x)
            if rnorm <= tol * (bnrm2 + anorm * xnorm):
                break
            # x came out shorter than the pass's start: a new pass from x
            atol = tol * (bnrm2 + anorm * xnorm)
            ptol_max_factor = 1.0
            ptol = mb_nrm2 * min(ptol_max_factor, atol / bnrm2)
            continue
        if breakdown:
            break
        if presid <= ptol:
            ptol_max_factor = max(eps, 0.25 * ptol_max_factor)
        else:
            ptol_max_factor = min(1.0, 1.5 * ptol_max_factor)
        ptol = presid * min(ptol_max_factor, atol / rnorm)
    xnorm = _norm(x)
    return x, iters, rnorm / (bnrm2 + anorm * xnorm), rnorm <= tol * (bnrm2 + anorm * xnorm)


def wnll_energy(
    u_t: np.ndarray,
    wtilde: sp.spmatrix,
    mask_t: np.ndarray,
    b_t: np.ndarray,
    lam: float,
    rate: float,
) -> float:
    """Decoupled band objective the linear system derives from.

    sum over edges of w(x,y) (u(x)-u(y))^2, with edges anchored at sampled
    pixels counted 1/rate times, plus the lam-weighted data misfit on the
    sampled set. Diagnostic and test use only.
    """
    W = wtilde.tocsr()
    u = np.asarray(u_t, dtype=np.float64).reshape(-1)
    chi = np.asarray(mask_t, dtype=bool).reshape(-1)
    bvec = np.asarray(b_t, dtype=np.float64).reshape(-1)
    if not 0.0 < rate <= 1.0:
        raise ValueError(f"sampling rate must be in (0, 1], got {rate}")
    mu = 1.0 / rate - 1.0
    rows = np.repeat(np.arange(W.shape[0]), np.diff(W.indptr))
    diff = u[rows] - u[W.indices]
    contrib = W.data * diff * diff
    total = float(contrib.sum()) + mu * float(contrib[chi[rows]].sum())
    misfit = u[chi] - bvec[chi]
    return total + lam * float(misfit @ misfit)


def _check_inputs(b: DataCube, masks: MaskSet, cfg: SolverConfig,
                  ref: DataCube | None = None) -> tuple[PatchGeometry, np.ndarray]:
    """Raise ValueError for a run that cannot go through, before any work;
    return its patch geometry and the bands' sampling rates."""
    if b.dims != masks.dims:
        raise ValueError(f"cube dims {b.dims} do not match mask dims {masks.dims}")
    if ref is not None and ref.dims != b.dims:
        raise ValueError(f"reference dims {ref.dims} do not match data dims {b.dims}")
    rates = masks.rates()
    if float(rates.min()) == 0.0:
        raise ValueError(f"band {int(np.argmin(rates))} has no sampled pixels")
    geom = PatchGeometry(cfg.s1, cfg.s2, b.m, b.n)
    if cfg.k > geom.n_pixels:
        raise ValueError(f"k={cfg.k} exceeds pixel count {geom.n_pixels}")
    _check_budget(geom, b.B)
    return geom, rates


@_one_blas_thread()
def ldmm_reconstruct(
    b: DataCube,
    masks: MaskSet,
    cfg: SolverConfig,
    u0: DataCube,
    ref: DataCube | None = None,
    log: RunLog | None = None,
) -> DataCube:
    """Outer alternation: rebuild the patch graph from the current iterate,
    then refresh every band against it.

    Each outer iteration extracts patches of the current cube, builds one
    kNN similarity graph on the spatial grid, shift-sums it, and then solves
    the per-band systems by warm-started GMRES. All bands in an iteration
    share the same graph; that sharing is what keeps the cost flat in the
    number of bands, and it lets one process per usable CPU take the bands
    on demand, as it takes the kNN row blocks (see ``_workers``). Results,
    log records, warnings and errors are taken in band order, so the output
    does not depend on the number of processes or on which one ran a band.
    OpenBLAS stays on one thread for the whole call, and the caller's count
    comes back at its end. Patches read the (m*n) x B iterate in place.
    ``ref`` adds per-iteration PSNR to ``log``; without a log only its dims are read.
    """
    geom, rates = _check_inputs(b, masks, cfg, ref)
    if u0.dims != b.dims:
        raise ValueError(f"initializer dims {u0.dims} do not match data dims {b.dims}")
    u = u0.unfold()
    for it in range(1, cfg.outer_iters + 1):
        t0 = time.perf_counter()
        # Each intermediate goes at its last reader, so that a round holds one
        # stage's at a time and its peak is that of its largest stage, the kNN.
        patches = extract_patches(u, geom)
        table = knn_exact(patches, cfg.k)
        del patches
        sigma = local_scale(table, cfg.r_sigma)
        bar_w = build_bar_w(table, sigma)
        del table, sigma
        wtilde = assemble_wtilde(bar_w, geom)
        del bar_w
        # read before the hand-over, as the band graph zeroes W-tilde's diagonal
        mean_degree = float(wtilde.sum()) / geom.n_pixels
        nnz = wtilde.nnz
        lam = cfg.lambda_rel * mean_degree
        graph_secs = time.perf_counter() - t0
        graph = _band_graph(wtilde)
        del wtilde  # the band graph holds W-tilde itself, not a copy

        def solve(t):
            system = assemble_band_system(
                graph, masks.band(t), b.band(t), lam, float(rates[t]), band=t
            )
            try:
                return _gmres(system, u[:, t], cfg)
            except NumericalError as exc:
                raise NumericalError(f"iteration {it}: {exc}") from exc

        unconverged: dict[int, float] = {}
        gmres_iters = 0
        with closing(_in_order(solve, b.B, _pool_size(), f"iteration {it}, band")) as results:
            for t, (x, iters, eta, converged) in enumerate(results):
                if not np.all(np.isfinite(x)):
                    raise NumericalError(f"non-finite band solution at iteration {it}, band {t}")
                gmres_iters += iters
                if not converged:
                    unconverged[t] = eta
                if log is not None:
                    log.bands.append({"iteration": it, "band": t, "gmres_iters": iters,
                                      "backward_error": eta, "converged": converged})
                u[:, t] = x
        del graph, solve  # before the next round extracts its patches
        if unconverged:
            warnings.warn(
                f"iteration {it}: gmres stopped short of tolerance on bands "
                f"{sorted(unconverged)}, worst backward error {max(unconverged.values()):.3e}",
                RuntimeWarning,
                stacklevel=3,  # past the frame that the _one_blas_thread decorator adds
            )
        if log is not None:
            rec: dict = {"iteration": it, "lambda": lam, "mean_degree": mean_degree,
                         "nnz": nnz, "gmres_iters": gmres_iters, "graph_secs": graph_secs,
                         "secs": time.perf_counter() - t0}
            if ref is not None:
                met = psnr(DataCube.from_unfolded(u, b.m, b.n), ref)
                rec.update(psnr_paper=met.psnr_paper, psnr_standard=met.psnr_standard)
            log.iterations.append(rec)
    return DataCube.from_unfolded(u, b.m, b.n)
