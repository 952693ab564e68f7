"""Nuclear-norm matrix completion on the pixels-by-bands unfolding.

Used to produce the starting cube for the manifold outer loop. The solver is
an accelerated proximal gradient iteration with a monotone objective guard,
a momentum restart when the guard rejects a step, and continuation in the
nuclear-norm weight. Each stage stops on a certified relative duality gap;
the stages before the last are solved loosely (inexact continuation, Toh &
Yun 2010; Ma, Goldfarb & Chen 2011), as only the last one is returned.

A completion holds three (m*n) x B float64 arrays at a time: the prox input
Y, the new prox point Z and the kept iterate. The zero-filled data go once
their samples and the start's objective are taken, a rejected prox point
goes at once, and a stage's input goes once a step replaces it. The dual
point of a gap check is built in the spent prox input, which the stage
zero-fills between the prox and the momentum update that overwrites it.

Every linear-algebra call of a stage goes through ``numpy.linalg``. scipy
loads its own OpenBLAS build, with its own thread pool, beside numpy's: one
``scipy.linalg.eigvalsh`` of the gap's 96 x 96 Gram every fifth iteration
took the 2304 x 96 completion loop from 3.4-4.0 to 12.7-13.1 ms per
iteration (2 vCPU), and the loop stayed slower after switching back.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .datacube import DataCube, MaskSet, _check_field_types
from .solver import RunLog

__all__ = ["ApgConfig", "svt", "apg_complete", "completion_objective"]

_EPS = float(np.finfo(np.float64).eps)
# Stages before the last stop at this multiple of ``tol`` (inexact continuation)
_LOOSE_FACTOR = 2.0
# Iterations between duality-gap checks, after a stage's first iteration
_GAP_EVERY = 5
# Decay of the nuclear-norm weight per continuation stage; no schedule of 1-12
# stages took fewer SVTs on both benchmark completions at once
_MU_DECAY = 0.7


@dataclass(frozen=True)
class ApgConfig:
    """Tunables for the completion solve.

    ``mu_target`` is the final nuclear-norm weight; ``None`` picks
    0.01 * sigma_max of the zero-filled unfolding. Continuation starts at
    mu_target / _MU_DECAY**(n_stages - 1) and decays by ``_MU_DECAY`` = 0.7
    per stage.

    ``tol`` is the relative duality gap (F(X) - dual bound) / F(X) at which
    the last stage stops; the stages before it stop at twice ``tol``
    (``_LOOSE_FACTOR``).
    The gap bounds the relative distance of the objective to the stage's
    optimum, so a stage reported as converged is certified.
    """

    mu_target: float | None = None
    n_stages: int = 5
    max_iters: int = 200
    tol: float = 1e-3

    def __post_init__(self):
        _check_field_types(self)  # before the ranges, which compare numbers
        if not 0.0 < self.tol < math.inf:
            raise ValueError(f"tol must be finite and positive, got {self.tol}")
        if self.n_stages < 1 or self.max_iters < 1:
            raise ValueError("n_stages and max_iters must be at least 1")
        if self.mu_target is not None and not 0.0 <= self.mu_target < math.inf:
            raise ValueError(f"mu_target must be finite and non-negative, got {self.mu_target}")


def _thin_svd(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # One-sided: eigendecompose the small Gram matrix (B x B with B << rows).
    evals, V = np.linalg.eigh(M.T @ M)
    return np.sqrt(np.maximum(evals, 0.0))[::-1], V[:, ::-1]


def svt(M: np.ndarray, tau: float) -> tuple[np.ndarray, np.ndarray]:
    """Singular value thresholding: shrink every singular value by tau.

    Returns ``(Z, shrunk)``: the proximal point of tau * nuclear norm and its
    singular values, largest first, both through the short side's Gram matrix.
    """
    if tau < 0:
        raise ValueError(f"tau must be non-negative, got {tau}")
    M = np.asarray(M, dtype=np.float64)
    sig, V = _thin_svd(M)
    shrunk = np.maximum(sig - tau, 0.0)
    ratio = np.divide(shrunk, sig, out=np.zeros_like(sig), where=sig > 0)
    return M @ ((V * ratio) @ V.T), shrunk


def completion_objective(X: np.ndarray, obs: np.ndarray, b: np.ndarray, mu: float) -> float:
    """0.5 * ||X - b||^2 over observed entries plus mu * nuclear norm.

    The singular values come from a full SVD: the Gram route would overstate
    the nuclear norm of a rank-deficient X, such as a zero-filled start.
    """
    resid = np.where(obs, X - b, 0.0)
    return 0.5 * float((resid * resid).sum()) + mu * float(
        np.linalg.svd(X, compute_uv=False).sum()
    )


def _dual_bound(
    r: np.ndarray, mu: float, b_obs: np.ndarray, idx: np.ndarray, dual: np.ndarray
) -> float:
    """A lower bound on the stage optimum F* from a point Z with r = Z - b
    on the samples, rounding included.

    With R = P(b - Z), the point Y = R * min(1, mu / ||R||_2) is dual
    feasible (||Y||_2 <= mu), so F* >= <b, Y> - 0.5 ||Y||^2 (weak duality).
    ``dual`` is a buffer of Z's shape that the caller zero-fills; only the
    sampled entries are written, so it stays zero elsewhere.

    Rounding, to first order in eps and with the constants of the standard
    bounds (Higham 2002, ch. 3) rounded up, for n samples of an N x B
    unfolding:
    ||R||_2^2 is the top eigenvalue of the computed Gram R^T R, off by at
    most (N + B) * eps * ||R||_F^2, which is added so that Y stays feasible.
    The dual value is a sum over the samples and carries at most
    (n + 4) * eps times its sum of absolute terms, which is subtracted.
    """
    N, B = dual.shape
    rho = float(r @ r)
    dual.put(idx, r)  # -R; the Gram does not see the sign
    top = max(float(np.linalg.eigvalsh(dual.T @ dual)[-1]), 0.0)
    norm_R = math.sqrt(top + (N + B) * _EPS * rho)
    s = 1.0 if norm_R <= mu else mu / norm_R
    value = -s * float(b_obs @ r) - 0.5 * s * s * rho
    slack = (r.size + 4) * _EPS * s * (float(np.linalg.norm(b_obs)) * math.sqrt(rho) + rho)
    return value - slack


def _relative_gap(F_X: float, nuc_X: float, m2_X: float, mu: float, low: float,
                  shape: tuple[int, int], n: int) -> float:
    """(F(X) - low) / F(X) for the kept iterate X, rounding included.

    F_X sums n squares and B singular values, all non-negative, so it is
    off by at most (n + B + 2) eps F_X. nuc_X is the sum of the prox's
    shrunk singular values.
    Their Gram route moves each kept one by at most (N + B) eps ||M||_F^2 /
    tau, with M the prox input and tau >= mu its threshold, so mu * nuc_X
    moves by at most B (N + B) eps m2_X, where m2_X >= ||M||_F^2. The
    start's nuclear norm comes from a full SVD, within eps sigma_max per
    value, which the B (N + B) eps mu nuc_X term covers.
    """
    if F_X <= 0.0:
        return 0.0  # an exact fit with X = 0 or mu = 0: X is optimal
    N, B = shape
    margin = _EPS * ((n + B + 2) * F_X + B * (N + B) * (m2_X + mu * nuc_X))
    return (F_X + margin - low) / F_X


def _apg_stage(
    held: list,
    nuc_X: float,
    m2_X: float,
    idx: np.ndarray,
    b_obs: np.ndarray,
    mu: float,
    target: float,
    max_iters: int,
    kept: list,
) -> tuple[float, float, float]:
    # Monotone variant of FISTA (Beck & Teboulle 2009): keep the best
    # objective seen, so the values appended to ``kept`` per iteration never
    # increase at fixed mu. A rejected step also restarts the momentum
    # (O'Donoghue & Candes 2015): the next prox input is the kept iterate, a
    # plain proximal gradient step.
    #
    # The stage stops once the kept iterate's relative duality gap is at
    # most ``target``. It is checked at the first iteration, every
    # _GAP_EVERY-th and the last, against the best dual bound of the stage's
    # prox points so far: a rejected prox point still gives a dual bound.
    # The stage takes the kept iterate out of ``held`` and puts its own back,
    # so that no frame pins the input once a step replaces it. Returns the
    # kept iterate's nuclear norm, its m2 bound and its gap.
    X = held.pop()
    r = X.take(idx)
    r -= b_obs  # in place, so no temporary residual is made
    F_X = 0.5 * float(r @ r) + mu * nuc_X
    Y = X.copy()
    t, low = 1.0, -math.inf
    for it in range(1, max_iters + 1):
        Y.put(idx, b_obs)  # the prox input, built in Y's own buffer
        Z, shrunk = svt(Y, mu)
        r = Z.take(idx)
        r -= b_obs
        nuc_Z = float(shrunk.sum())
        F_Z = 0.5 * float(r @ r) + mu * nuc_Z
        check = it == 1 or it % _GAP_EVERY == 0 or it == max_iters
        if check:  # the dual point, built in the spent prox input
            Y.fill(0.0)
            low = max(low, _dual_bound(r, mu, b_obs, idx, Y))
        t_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        if F_Z <= F_X:
            np.subtract(Z, X, out=Y)
            Y *= (t - 1.0) / t_new
            Y += Z
            X, F_X, nuc_X = Z, F_Z, nuc_Z
            m2_X = float(((shrunk + mu) ** 2).sum())  # sigma_i(M) <= shrunk_i + mu
        else:
            t_new = 1.0
            np.copyto(Y, X)
        del Z  # a rejected prox point goes at once
        kept.append(F_X)
        t = t_new
        if check:
            gap = _relative_gap(F_X, nuc_X, m2_X, mu, low, Y.shape, idx.size)
            if gap <= target:
                break
    held.append(X)
    return nuc_X, m2_X, gap


def apg_complete(
    b: DataCube,
    masks: MaskSet,
    cfg: ApgConfig = ApgConfig(),
    log: RunLog | None = None,
) -> DataCube:
    """Fill a partially observed cube with a low-rank unfolding estimate.

    Minimizes 0.5 * ||restrict(X - b)||_F^2 + mu_target * ||X||_* over the
    (m*n) x B unfolding, warm-starting through a decreasing mu schedule.
    ``log``, when given, gets one record per stage in ``log.stages``: its
    number in run order, mu, iterations, whether it converged, its final
    relative duality gap and the target it had to meet, and the kept
    objective of each iteration. Warns and returns the best iterate if a
    stage hits max_iters without meeting its target.
    """
    if b.dims != masks.dims:
        raise ValueError(f"cube dims {b.dims} do not match mask dims {masks.dims}")
    if int(masks.counts().min()) == 0:
        raise ValueError("every band needs at least one sampled voxel")
    obs = masks.unfold()
    data = np.where(obs, b.unfold(), 0.0)
    mu_target = cfg.mu_target
    if mu_target is None:
        mu_target = 0.01 * float(_thin_svd(data)[0][0])
    # the start's nuclear norm is its objective at mu = 1 (data fits itself),
    # from a full SVD, so it needs no m2 bound; the prox gives later ones
    nuc, m2 = completion_objective(data, obs, data, 1.0), 0.0
    idx = np.flatnonzero(obs)
    b_obs = data.take(idx)
    held = [data]  # the kept iterate, which each stage replaces
    del data, obs
    for stage in range(cfg.n_stages - 1, -1, -1):
        mu = mu_target / _MU_DECAY**stage
        target = cfg.tol * (_LOOSE_FACTOR if stage else 1.0)
        kept: list = []
        nuc, m2, gap = _apg_stage(held, nuc, m2, idx, b_obs, mu, target, cfg.max_iters, kept)
        converged = gap <= target
        if log is not None:
            log.stages.append({"stage": cfg.n_stages - stage, "mu": mu, "iters": len(kept),
                               "converged": converged, "gap": gap, "target": target,
                               "objectives": kept})
        if not converged:
            warnings.warn(
                f"completion stage at mu={mu:.3e} stopped at max_iters={cfg.max_iters}"
                f" with relative gap {gap:.2e} > {target:.1e}",
                RuntimeWarning,
                stacklevel=2,
            )
    return DataCube.from_unfolded(held.pop(), b.m, b.n)
