"""Nuclear-norm matrix completion on the pixels-by-bands unfolding.

Used to produce the starting cube for the manifold outer loop. The solver is
an accelerated proximal gradient iteration with a monotone objective guard,
a momentum restart when the guard rejects a step, and continuation in the
nuclear-norm weight.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .datacube import DataCube, MaskSet, _check_field_types
from .solver import RunLog

__all__ = ["ApgConfig", "svt", "apg_complete", "completion_objective"]


@dataclass(frozen=True)
class ApgConfig:
    """Tunables for the completion solve.

    ``mu_target`` is the final nuclear-norm weight; ``None`` picks
    0.01 * sigma_max of the zero-filled unfolding. Continuation starts at
    mu_target / mu_decay**(n_stages - 1) and decays by ``mu_decay`` per
    stage.
    """

    mu_target: float | None = None
    mu_decay: float = 0.7
    n_stages: int = 5
    max_iters: int = 200
    tol: float = 1e-4

    def __post_init__(self):
        _check_field_types(self)  # before the ranges, which compare numbers
        if not 0.0 < self.mu_decay < 1.0:
            raise ValueError(f"mu_decay must be in (0, 1), got {self.mu_decay}")
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


def _apg_stage(
    X: np.ndarray,
    nuc_X: float,
    idx: np.ndarray,
    b_obs: np.ndarray,
    mu: float,
    cfg: ApgConfig,
    kept: list,
) -> tuple[np.ndarray, float, bool]:
    # Monotone variant of FISTA (Beck & Teboulle 2009): keep the best
    # objective seen, so the values appended to ``kept`` per iteration never
    # increase at fixed mu. A rejected step also restarts the momentum
    # (O'Donoghue & Candes 2015): the next prox input is the kept iterate, a
    # plain proximal gradient step. Convergence is judged on the prox
    # sequence, which keeps moving even when the guard rejects a step.
    r = X.take(idx) - b_obs
    F_X = 0.5 * float(r @ r) + mu * nuc_X
    Y, X_prev, Z_prev = X.copy(), X, X
    t, norm_prev = 1.0, np.linalg.norm(X)
    for _ in range(cfg.max_iters):
        Y.put(idx, b_obs)  # the prox input, built in Y's own buffer
        Z, shrunk = svt(Y, mu)
        r = Z.take(idx) - b_obs
        F_Z = 0.5 * float(r @ r) + mu * float(shrunk.sum())
        t_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        np.subtract(Z, X_prev, out=Y)
        # X_prev is Z_prev unless the last step was rejected
        step = np.linalg.norm(Y if X_prev is Z_prev else Z - Z_prev) / max(1.0, norm_prev)
        if F_Z <= F_X:
            Y *= (t - 1.0) / t_new
            X_prev, F_X, nuc_X = Z, F_Z, float(shrunk.sum())
            Y += X_prev
        else:
            t_new = 1.0
            np.copyto(Y, X_prev)
        kept.append(F_X)
        t, Z_prev, norm_prev = t_new, Z, np.linalg.norm(Z)
        if step < cfg.tol:
            return X_prev, nuc_X, True
    return X_prev, nuc_X, False


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
    number in run order, mu, iterations, whether it converged and the kept
    objective of each iteration. Warns and returns the best iterate if a
    stage hits max_iters without meeting the tolerance.
    """
    if b.dims != masks.dims:
        raise ValueError(f"cube dims {b.dims} do not match mask dims {masks.dims}")
    if int(masks.counts().min()) == 0:
        raise ValueError("every band needs at least one sampled voxel")
    obs = np.ascontiguousarray(masks.masks.reshape(masks.B, -1).T)
    data = np.where(obs, b.unfold(), 0.0)
    mu_target = cfg.mu_target
    if mu_target is None:
        mu_target = 0.01 * float(_thin_svd(data)[0][0])
    # the start's nuclear norm is its objective at mu = 1 (data fits itself);
    # the prox gives later ones
    X, nuc = data, completion_objective(data, obs, data, 1.0)
    idx = np.flatnonzero(obs)
    b_obs = data.take(idx)
    for stage in range(cfg.n_stages - 1, -1, -1):
        mu = mu_target / cfg.mu_decay**stage
        kept: list = []
        X, nuc, converged = _apg_stage(X, nuc, idx, b_obs, mu, cfg, kept)
        if log is not None:
            log.stages.append({"stage": cfg.n_stages - stage, "mu": mu, "iters": len(kept),
                               "converged": converged, "objectives": kept})
        if not converged:
            warnings.warn(
                f"completion stage at mu={mu:.3e} stopped at max_iters={cfg.max_iters}",
                RuntimeWarning,
                stacklevel=2,
            )
    return DataCube.from_unfolded(X, b.m, b.n)
