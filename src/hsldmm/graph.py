"""Patch similarity graph: exact kNN, self-tuning Gaussian weights, and the
shift-summed matrix shared by every spectral band."""

from __future__ import annotations

import math
from contextlib import closing
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from ._workers import _in_order, _pool_size
from .patch import PatchGeometry, PatchMatrix, shift_permutation

__all__ = [
    "NeighborTable",
    "knn_exact",
    "local_scale",
    "build_bar_w",
    "assemble_wtilde",
]


@dataclass(frozen=True)
class NeighborTable:
    """k nearest neighbors per row: the row itself first (distance 0), the
    rest ordered by squared distance, ties broken by smaller index."""

    indices: np.ndarray
    sq_dists: np.ndarray

    def __post_init__(self):
        idx = np.ascontiguousarray(self.indices, dtype=np.int64)
        d2 = np.ascontiguousarray(self.sq_dists, dtype=np.float64)
        if idx.shape != d2.shape or idx.ndim != 2:
            raise ValueError("indices and sq_dists must share a 2-d shape")
        idx.setflags(write=False)
        d2.setflags(write=False)
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "sq_dists", d2)

    @property
    def k(self) -> int:
        return self.indices.shape[1]


# Rows per screen block where the GEMM is the cost. Each sgemm packs all of
# Q.T and each settle makes about 20 numpy calls, so a block pays back its
# fixed costs only with enough rows. Median times per call on 2 vCPU with
# two processes: at N = 6400, d = 128, 0.31 s in 40-row blocks, 0.26-0.27 s
# in 128-192 and 0.30 s in 256; at N = 16 384, 2.34 s in 16-row blocks and
# 1.46-1.50 s in 128-256.
_GEMM_ROWS = 160
# Band entries per settle chunk, in each process: the 256 KiB of float64
# that each of two processes had when a 512 KiB budget for all of them was
# as fast or faster than 1 MiB, 256 and 128 KiB on every benchmark workload.
_CHUNK_ENTRIES = 1 << 15
# Bytes of settle temporaries per band entry of a chunk, at most: the entries'
# row, column and distance arrays, their sort order, the gathered patch
# differences, the picks of k per row and the block's row vectors. Counted
# per entry of the chunk or of its largest band, whichever is larger, the
# largest peak measured with tracemalloc was 99, with k = N.
_SETTLE_BYTES = 128
# The part of a process's kNN scratch bound that does not grow with N. It
# keeps inputs with small d, whose GEMM costs little, near the blocks of the
# old 2 MiB screen budget, so that the caller's peak memory does not rise: at
# N = 4096, d = 8, 67 rows at 5 bytes per entry against 64 rows at 6.
_SCRATCH_FLOOR = 9 << 19


def _scratch_bound(N: int, d: int) -> int:
    """Bytes one process of ``knn_exact`` may hold besides its table: the
    floor, plus per row 12 d bytes, six float64 row vectors and one settled
    band entry. Of the 12 d bytes, 4 d hold the float32 cast and 8 d leave
    room for the screen block, whose rows ``_block_rows`` caps."""
    return _SCRATCH_FLOOR + (12 * d + 48 + _SETTLE_BYTES) * N


def _screen_bytes(N: int, d: int, rows: int) -> int:
    """Bytes one process of ``knn_exact`` holds besides its table while it
    screens blocks of ``rows`` rows: the float32 cast, four row vectors, the
    block and its quarter-height copy (5 bytes per entry), and the settle's
    temporaries for a chunk, which holds at least one row's band. The
    centring before it holds the cast, up to six row vectors and one chunk
    of about ``_CHUNK_ENTRIES`` float64 entries, or one row, which
    ``_scratch_bound`` covers at any size."""
    return (4 * d + 32 + 5 * rows) * N + _SETTLE_BYTES * max(_CHUNK_ENTRIES, N)


def _block_rows(N: int, d: int) -> int:
    """Rows per screen block for N rows of d entries: ``_GEMM_ROWS``, or N
    if fewer, and fewer still if the screen would pass ``_scratch_bound``,
    which leaves room for one row at any N and d. The processes take the
    blocks on demand, so their loads stay even without more blocks."""
    room = (_scratch_bound(N, d) - _screen_bytes(N, d, 0)) // (5 * N)
    return min(_GEMM_ROWS, N, room)


def _pair_sq_dists(P: PatchMatrix, x: np.ndarray, y: np.ndarray, budget: int) -> np.ndarray:
    """((P[x] - P[y])**2).sum() per index pair, the oracle's difference form,
    with temporaries of about ``budget`` bytes."""
    out = np.empty(x.size)
    step = max(1, budget // (8 * max(1, P.shape[1])))
    for a in range(0, x.size, step):
        diff = P.rows(x[a : a + step])
        diff -= P.rows(y[a : a + step])
        np.square(diff, out=diff)
        out[a : a + step] = diff.sum(axis=1)
    return out


def _smallest_k(
    D: np.ndarray,
    k: int,
    P: PatchMatrix,
    rows: np.ndarray,
    tol: np.ndarray,
    zero: np.ndarray,
    part: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """The k nearest neighbors of ``rows``, consecutive row indices, exactly
    as the oracle ranks them: by (difference-form distance, index), the row
    itself first.

    ``D`` holds the screened squared distances of ``rows``, each within
    ``tol`` of the difference form in the screen's units. Every exact
    neighbor then screens within 2*tol of the screened k-th value, so only
    that band is settled exactly; a row without near ties has exactly k
    entries in it. ``part`` is float32 scratch of ``D``'s width and a quarter
    of its height, rounded up: it takes the partitioned copy of that many
    rows at a time, then the band mask. The settle takes about
    ``_CHUNK_ENTRIES`` band entries at a time, and at least one row.
    """
    nb = D.shape[0]
    D[np.arange(nb), rows] = -np.inf  # the row itself ranks first
    kth = np.empty(nb, dtype=D.dtype)
    for lo in range(0, nb, len(part)):
        sub = part[: min(len(part), nb - lo)]
        np.copyto(sub, D[lo : lo + len(sub)])
        sub.partition(k - 1, axis=1)
        kth[lo : lo + len(sub)] = sub[:, k - 1]
    # rounding to nearest is monotone, so no screened value <= the exact edge
    # is dropped
    edge = (kth + 2.0 * tol).astype(D.dtype)
    band = part.reshape(-1).view(np.bool_)[: D.size].reshape(D.shape)
    np.less_equal(D, edge[:, None], out=band)
    counts = np.count_nonzero(band, axis=1)
    step = max(1, _CHUNK_ENTRIES // int(counts.max()))  # rows per chunk of band entries
    idx = np.empty((nb, k), dtype=np.int64)
    d2 = np.empty((nb, k))
    for lo in range(0, nb, step):
        chunk = slice(lo, lo + step)
        x, c = np.divmod(np.flatnonzero(band[chunk]), D.shape[1])  # faster than 2-d nonzero
        x += rows[lo]  # the rows are consecutive
        e = np.zeros(x.size)
        live = ~(zero[x] & zero[c])  # two all-zero patches are exactly 0 apart in either form
        e[live] = _pair_sq_dists(P, x[live], c[live], 8 * _CHUNK_ENTRIES)
        e[c == x] = -np.inf
        order = np.lexsort((e, x))  # stable: equal distances keep index order
        first = order[(np.cumsum(counts[chunk]) - counts[chunk])[:, None] + np.arange(k)]
        idx[chunk] = c[first]
        d2[chunk] = e[first]
    d2[:, 0] = 0.0
    return idx, d2


def knn_exact(patches: PatchMatrix | np.ndarray, k: int) -> NeighborTable:
    """Exact k nearest neighbors under squared Euclidean distance.

    Bitwise the answer of ``oracle.naive_knn`` on ``np.asarray(patches)``. A
    plain 2-d array is read as a ``PatchMatrix`` with the identity gather;
    rows are gathered only a chunk at a time. The patches are centred in
    float64 on the unfolding's column means tiled once per window offset (a
    plain array's own column means), scaled by 2**s so that max |entry| lies
    in [0.5, 1) (exact), and cast to float32 ``Q``, a chunk of rows at a
    time. Differences do not depend on the centre, so any centre keeps the
    table exact; the certificate below holds for any translation.
    Each block of rows is screened by one float32 Gram form
    ``n_x + n_y - 2 q_x.q_y``, with ``n`` the squared norms of ``Q`` summed
    in float64, and its rows are settled as in ``_smallest_k``.

    One process per usable CPU takes the blocks on demand, with BLAS pinned
    to one thread (see ``_workers``). Each process fills its own copy of the
    scratch this call allocates, which ``_block_rows`` keeps within
    ``_scratch_bound`` before it is allocated. The table does not depend on
    the number of processes or the block size.

    Certificate, in scaled units. Let u = 2**-24 and t = 2**-126 be float32's
    unit roundoff and smallest normal, u64 and t64 float64's, and
    M = |q_x|^2 + |q_y|^2 <= 2d. To first order the screen differs from
    4**s times the oracle's difference form by at most:
    the Gram form, 2 gamma_d |q_x||q_y| <= d u M (gamma_n, Higham 2002,
    sec. 3.1); the norm casts, u M; the two additions, of size <= 2M and
    <= 3M, 5 u M; centring (u64 per entry) and the float32 cast (u per
    entry), which perturb each difference by b with
    2 |q_x - q_y| |b| <= 4 (u + u64) M; subnormal or flushed float32 values,
    (2d + 4 + 8d) t; the oracle's rounding, 2 (d + 2) u64 M, and its
    squares that underflow, d t64 4**s. So (d + 10) u M + (10d + 4) t plus
    the oracle's terms, and doubling covers these, the norms' float64 sums
    and every second-order term:
    tol = 2 (d + 10) (u M + 10 t) + 2 d t64 4**s, with M taken at the row's
    and the largest norm.
    """
    return _knn_exact(patches, k, _pool_size())


def _knn_exact(patches: PatchMatrix | np.ndarray, k: int, workers: int) -> NeighborTable:
    """``knn_exact`` on at most ``workers`` processes."""
    P = PatchMatrix.of(patches)
    U, gather = P.unfolded, P.gather
    N, d = P.shape
    if not 1 <= k <= N:
        raise ValueError(f"need 1 <= k <= {N}, got k={k}")
    # a patch's squared norm and its zeros, from its window's rows of U
    top = float(np.einsum("ij,ij->i", U, U)[gather].sum(axis=1).max())
    if not np.isfinite(8.0 * top):  # a NaN or inf entry, or squared norms near overflow
        raise ValueError("patches must be finite, with squared norms well inside float64 range")
    zero = (~U.any(axis=1))[gather].all(axis=1)
    # differences are translation invariant; float32 keeps the spread
    centre = U.mean(axis=0)
    # max |P - mean| from the column extremes: rounding is monotone, so it is
    # bitwise the max over the centred entries
    hi = max((U.max(axis=0) - centre).max(initial=0.0), (centre - U.min(axis=0)).max(initial=0.0))
    s = -int(np.frexp(hi)[1])
    mean = np.tile(centre, gather.shape[1])
    Q = np.empty((N, d), np.float32)
    step = max(1, _CHUNK_ENTRIES // max(1, d))  # rows centred at a time, in float64
    for lo in range(0, N, step):
        C = P.rows(slice(lo, lo + step))
        C -= mean
        np.ldexp(C, s, out=C)  # max |entry| in [0.5, 1): no float32 overflow, few subnormals
        Q[lo : lo + step] = C
    del C
    q2 = np.einsum("ij,ij->i", Q, Q, dtype=np.float64)
    n = q2.astype(np.float32)
    u, t = 2.0**-24, float(np.finfo(np.float32).tiny)
    # past 4**515 the underflow term exceeds every screened value: all rows settle
    under = math.ldexp(2.0 * d * np.finfo(np.float64).tiny, min(2 * s, 1030))
    tol = 2.0 * (d + 10) * (u * (q2 + q2.max()) + 10.0 * t) + under
    block_rows = _block_rows(N, d)
    starts = range(0, N, block_rows)
    screen = np.empty((block_rows, N), np.float32)
    # a quarter block for the partitioned copy was as fast as a whole one
    part = np.empty((-(-block_rows // 4), N), np.float32)

    def block(i):
        start = starts[i]
        stop = min(start + block_rows, N)
        D = screen[: stop - start]
        np.dot(Q[start:stop], Q.T, out=D)
        D *= -2.0
        D += n[start:stop, None]
        D += n
        rows = np.arange(start, stop)
        return _smallest_k(D, k, P, rows, tol[start:stop], zero, part)

    idx_out = np.empty((N, k), dtype=np.int64)
    d2_out = np.empty((N, k), dtype=np.float64)
    with closing(_in_order(block, len(starts), workers, "kNN row block")) as blocks:
        for start, (idx, d2) in zip(starts, blocks, strict=True):
            idx_out[start : start + block_rows] = idx
            d2_out[start : start + block_rows] = d2
    return NeighborTable(indices=idx_out, sq_dists=d2_out)


def local_scale(table: NeighborTable, r_sigma: int) -> np.ndarray:
    """Self-tuning scale per row: distance to the r_sigma-th nearest neighbor
    (the row itself counts as rank 1).

    A zero scale falls back to the smallest positive neighbor distance in
    the row, or to 1 if every neighbor coincides with the row.
    """
    if not 2 <= r_sigma <= table.k:
        raise ValueError(f"need 2 <= r_sigma <= k={table.k}, got {r_sigma}")
    sigma = np.sqrt(table.sq_dists[:, r_sigma - 1])
    nearest = np.where(table.sq_dists > 0.0, table.sq_dists, np.inf).min(axis=1)
    return np.where(sigma > 0.0, sigma, np.where(nearest < np.inf, np.sqrt(nearest), 1.0))


def build_bar_w(table: NeighborTable, sigma: np.ndarray) -> sp.csr_matrix:
    """Gaussian similarity over the kNN pairs: exp(-d2(x,y) / (sigma_x * sigma_y)).

    Exactly k entries per row, self weight 1, not symmetrized (the kNN
    truncation is directional and the downstream system is non-symmetric by
    construction).
    """
    N, k = table.indices.shape
    sigma = np.asarray(sigma, dtype=np.float64)
    if sigma.shape != (N,):
        raise ValueError(f"sigma must have shape ({N},), got {sigma.shape}")
    if not np.all((sigma > 0.0) & (sigma < np.inf)):  # a NaN fails both
        raise ValueError("sigma must be finite and positive")
    denom = sigma[:, None] * sigma[table.indices]
    w = np.exp(-table.sq_dists / denom)
    # keep the k-per-row structure even if exp underflows
    np.maximum(w, np.finfo(np.float64).tiny, out=w)
    cols = table.indices.reshape(-1).copy()  # sorted in place below; the table is read-only
    g = sp.csr_matrix((w.reshape(-1), cols, np.arange(0, N * k + 1, k)), shape=(N, N))
    g.sort_indices()
    return g


def assemble_wtilde(bar_w: sp.csr_matrix, geom: PatchGeometry) -> sp.csr_matrix:
    """Sum the similarity matrix over all window shifts.

    wtilde(x, y) = sum_i bar_w(x shifted by 1-i, y shifted by 1-i) for
    i in [1, d_s]; this single matrix is what every spectral band shares.
    """
    N = geom.n_pixels
    if bar_w.shape != (N, N):
        raise ValueError(f"bar_w must be {N} x {N}, got {bar_w.shape}")
    # The result never aliases the argument: with more than one shift the sums
    # make new arrays, so a canonical CSR argument starts the sum as it is.
    if geom.d_s == 1 or type(bar_w) is not sp.csr_matrix or not bar_w.has_canonical_format:
        bar_w = sp.csr_matrix(bar_w, copy=True)
        bar_w.sum_duplicates()  # a no-op on build_bar_w's canonical output
    acc = bar_w  # shift 0
    for i in range(2, geom.d_s + 1):
        # P @ bar_w @ P.T, each row already sorted: gather the rows, then the
        # columns as rows of the transpose; both conversions sort by counting.
        # Canonical operands keep every add on scipy's merge path.
        perm = shift_permutation(geom, 1 - i)
        acc = acc + bar_w[perm].tocsc()[:, perm].tocsr()
    return acc

