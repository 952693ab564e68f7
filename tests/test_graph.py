import json
import math
import os
import signal
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hsldmm import DataCube, NumericalError, _workers, graph
from hsldmm.graph import assemble_wtilde, build_bar_w, knn_exact, local_scale
from hsldmm.oracle import naive_bar_w, naive_knn, naive_wtilde
from hsldmm.patch import PatchGeometry, extract_patches, shift_permutation


def cloud(n, d, seed):
    return np.random.default_rng(seed).random((n, d))


# --- knn_exact -------------------------------------------------------------


def test_knn_k1_is_self():
    pts = cloud(10, 3, 0)
    table = knn_exact(pts, 1)
    assert np.array_equal(table.indices[:, 0], np.arange(10))
    assert np.all(table.sq_dists == 0.0)


def test_knn_three_points_on_line():
    pts = np.array([[0.0], [1.0], [10.0]])
    table = knn_exact(pts, 2)
    assert list(table.indices[1]) == [1, 0]
    assert list(table.sq_dists[1]) == [0.0, 1.0]


def test_knn_matches_naive_oracle():
    pts = cloud(200, 12, 1)
    table = knn_exact(pts, 20)
    idx, d2 = naive_knn(pts, 20)
    assert np.array_equal(table.indices, idx)
    assert np.array_equal(table.sq_dists, d2)


def test_knn_is_bitwise_oracle_on_clustered_offset_data():
    # radiance-like: a large common offset, tiny spread. An uncentred Gram
    # screen's rounding is far above the spacing of neighbor distances here
    pts = 1e4 + 1e-2 * cloud(2060, 6, 2)
    table = knn_exact(pts, 10)
    idx, d2 = naive_knn(pts, 10)
    assert np.array_equal(table.indices, idx)
    assert np.array_equal(table.sq_dists, d2)


def block_sizes(n):
    """Stand-ins for graph._block_rows giving 1-row, 7-row and whole-matrix
    screen blocks."""
    return [lambda N, d, rows=rows: min(rows, N) for rows in (1, 7, n)]


@settings(max_examples=40)
@example(  # fails whenever the bound undercounts the float32 screen's rounding
    n=24, d=6, kind="clusters", offset=0.0, scale=1.0, outlier=False, zero_frac=0.0, seed=0, k=3
)
@given(
    n=st.integers(1, 24),
    d=st.sampled_from([1, 2, 3, 6, 9, 130]),  # short, unrolled and recursive sums
    kind=st.sampled_from(["grid", "spread", "constant", "clusters"]),
    offset=st.sampled_from([0.0, 1e4, 1e8]),
    scale=st.sampled_from([1.0, 1e-42, 1e30]),  # float32 subnormals, float32 overflow
    outlier=st.booleans(),
    zero_frac=st.sampled_from([0.0, 0.3, 1.0]),
    seed=st.integers(0, 2**32 - 1),
    k=st.one_of(st.just(1), st.just(24), st.integers(1, 24)),  # capped at n: 24 is k = N
)
def test_knn_property_oracle_and_block_invariance(
    n, d, kind, offset, scale, outlier, zero_frac, seed, k
):
    k = min(k, n)
    rng = np.random.default_rng(seed)
    if kind == "grid":  # duplicate points and equidistant ties
        pts = 0.5 * rng.integers(0, 3, (n, d))
    elif kind == "spread":
        pts = 1e-2 * rng.random((n, d))
    elif kind == "clusters":  # far apart, with spreads below float32 resolution
        pts = 1e-6 * rng.random((n, d)) + rng.integers(0, 2, (n, 1))
    else:
        pts = np.full((n, d), rng.random())
    pts = scale * (pts + offset)
    if outlier:
        pts[rng.integers(n)] *= 1e6
    pts[rng.random(n) < zero_frac] = 0.0  # exactly-zero rows
    idx, d2 = naive_knn(pts, k)
    for block_rows in block_sizes(n):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(graph, "_block_rows", block_rows)
            table = knn_exact(pts, k)
        assert np.array_equal(table.indices, idx)
        assert np.array_equal(table.sq_dists, d2)


def test_knn_block_size_invariance(monkeypatch):
    pts = cloud(100, 5, 3)
    tables = []
    for block_rows in block_sizes(100):
        monkeypatch.setattr(graph, "_block_rows", block_rows)
        tables.append(knn_exact(pts, 7))
    for table in tables[1:]:
        assert np.array_equal(table.indices, tables[0].indices)
        assert np.array_equal(table.sq_dists, tables[0].sq_dists)


@pytest.mark.parametrize(
    "offset, spread, n, d",
    [
        (1e4, 1e-2, 2060, 6),  # uncentred, even a float64 screen settled 10x wider
        (1e3, 1.0, 4096, 32),  # uncentred, a float32 screen settles every pair
    ],
)
def test_knn_settles_a_narrow_band(monkeypatch, offset, spread, n, d):
    settled = []
    pair_sq_dists = graph._pair_sq_dists

    def counting(P, x, y, budget):
        settled.append(x.size)
        return pair_sq_dists(P, x, y, budget)

    monkeypatch.setattr(graph, "_pair_sq_dists", counting)
    k = 10
    knn_exact(offset + spread * cloud(n, d, 15), k)
    assert sum(settled) <= 1.5 * n * k


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 30),  # 1 and 2 rows are fewer than the three workers
    d=st.sampled_from([1, 3, 8]),
    offset=st.sampled_from([0.0, 1e4]),
    zero_frac=st.sampled_from([0.0, 0.5, 1.0]),  # all-zero duplicate rows
    block_rows=st.sampled_from([1, 2, 5]),
    seed=st.integers(0, 2**32 - 1),
    k=st.one_of(st.just(30), st.integers(1, 30)),  # capped at n: 30 is k = N
)
def test_knn_workers_are_bitwise_oracle(n, d, offset, zero_frac, block_rows, seed, k):
    k = min(k, n)
    rng = np.random.default_rng(seed)
    pts = offset + 1e-2 * rng.random((n, d))
    pts[rng.random(n) < zero_frac] = 0.0
    idx, d2 = naive_knn(pts, k)
    for workers in (1, 2, 3):
        with pytest.MonkeyPatch.context() as mp:
            # block_rows rows per worker's block; settle chunks of a few rows
            mp.setattr(graph, "_block_rows", lambda N, d: min(block_rows, N))
            mp.setattr(graph, "_CHUNK_ENTRIES", 8)
            table = graph._knn_exact(pts, k, workers)
        assert np.array_equal(table.indices, idx)
        assert np.array_equal(table.sq_dists, d2)


@settings(max_examples=40, deadline=None)
@given(
    window=st.sampled_from([(1, 1), (2, 2), (2, 3)]),
    h=st.integers(2, 3),  # the cube is two copies of an h-row block: every row is duplicated
    n=st.integers(3, 5),
    B=st.integers(1, 3),
    offset=st.sampled_from([0.0, 1e4]),
    zero_frac=st.sampled_from([0.0, 0.5, 0.9]),  # pixels zero in every band
    levels=st.sampled_from([0, 2]),  # 2: two values per entry, many equal distances
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(1, 30),
)
def test_knn_of_a_patch_matrix_is_the_oracle_of_its_array(
    window, h, n, B, offset, zero_frac, levels, seed, k
):
    rng = np.random.default_rng(seed)
    spread = rng.integers(0, levels, (B, h, n)) if levels else rng.random((B, h, n))
    block = offset + 1e-2 * spread
    block[:, rng.random((h, n)) < zero_frac] = 0.0
    cube = DataCube(np.concatenate([block, block], axis=1))
    patches = extract_patches(cube.unfold(), PatchGeometry(*window, cube.m, cube.n))
    plain = np.asarray(patches)
    k = min(k, cube.m * cube.n)
    idx, d2 = naive_knn(plain, k)
    for workers in (1, 2):
        with pytest.MonkeyPatch.context() as mp:
            # 3-row screen blocks, and centring and settle chunks of a few rows
            mp.setattr(graph, "_block_rows", lambda N, d: min(3, N))
            mp.setattr(graph, "_CHUNK_ENTRIES", 8)
            # a plain array takes the same path, with the identity gather
            for table in (graph._knn_exact(patches, k, workers),
                          graph._knn_exact(plain, k, workers)):
                assert np.array_equal(table.indices, idx)
                assert np.array_equal(table.sq_dists, d2)


@settings(max_examples=200)
@given(
    N=st.integers(1, 10**6),
    d=st.integers(1, 4096),
)
def test_block_rows_rule(N, d):
    rows = graph._block_rows(N, d)
    assert 1 <= rows <= min(N, graph._GEMM_ROWS)
    assert graph._screen_bytes(N, d, rows) <= graph._scratch_bound(N, d)


@pytest.mark.parametrize(
    "kind, n, d, k",
    [
        ("spread", 3000, 8, 20),
        ("spread", 3000, 128, 20),
        ("equal", 3000, 2, 20),  # every band holds every row
        ("zero", 3000, 8, 20),  # half the rows all-zero duplicates
        ("grid", 1500, 3, 200),  # duplicates and equidistant ties
        ("spread", 1200, 40, 1200),  # k = N
    ],
)
def test_knn_scratch_stays_within_its_bound(kind, n, d, k):
    rng = np.random.default_rng(n + d + k)
    if kind == "grid":
        pts = 0.5 * rng.integers(0, 3, (n, d))
    elif kind == "equal":
        pts = np.full((n, d), 0.3)
    else:
        pts = rng.random((n, d))
        if kind == "zero":
            pts[rng.random(n) < 0.5] = 0.0
    tracemalloc.start()  # numpy reports its buffers to tracemalloc
    try:
        table = graph._knn_exact(pts, k, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.indices.shape == (n, k)
    rows = graph._block_rows(n, d)
    # besides the scratch: the table, and two blocks' slices of it, the one
    # being settled and the one the block loop still holds
    assert peak <= graph._scratch_bound(n, d) + 16 * n * k + 2 * 16 * rows * k


def test_knn_centres_without_a_float64_copy_of_the_patches():
    # at large d the float32 cast and the centring's row chunks are all the
    # patch-sized scratch: the peak stays below one float64 copy of P
    pts = np.random.default_rng(7).random((2048, 1536))
    tracemalloc.start()
    try:
        graph._knn_exact(pts, 8, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < pts.nbytes


def fake_pin(monkeypatch, count=4):
    """Replace the BLAS pin by one that keeps a thread count in a dict."""
    state = {"threads": count}

    def pin(threads):
        previous, state["threads"] = state["threads"], threads
        return previous

    monkeypatch.setattr(_workers, "_pin", pin)
    return state


def traced_select(monkeypatch, log, state=None):
    """Wrap graph._smallest_k: append to the file ``log`` one line per call
    with the id of the process that runs it, the BLAS thread count it sees
    and its first and last row (a forked child's memory does not reach the
    caller)."""
    real = graph._smallest_k

    def select(D, k, P, rows, *args):
        record = [os.getpid(), state and state["threads"], int(rows[0]), int(rows[-1])]
        with open(log, "a") as f:
            f.write(json.dumps(record) + "\n")
        return real(D, k, P, rows, *args)

    monkeypatch.setattr(graph, "_smallest_k", select)


def select_calls(log):
    """The (process id, BLAS thread count, first row, last row) of each call
    that ``traced_select`` logged."""
    return [tuple(json.loads(line)) for line in log.read_text().splitlines()]


def test_knn_runs_blocks_on_pinned_workers_and_restores_the_count(monkeypatch, tmp_path, forks):
    pts = cloud(120, 4, 5)
    idx, d2 = naive_knn(pts, 6)
    state = fake_pin(monkeypatch)
    monkeypatch.setattr(_workers, "_usable_cpus", lambda: 3)
    monkeypatch.setattr(graph, "_block_rows", lambda N, d: 8)  # 15 blocks of 8 rows
    log = tmp_path / "select.log"
    traced_select(monkeypatch, log, state)
    table = knn_exact(pts, 6)
    seen = select_calls(log)
    assert np.array_equal(table.indices, idx)
    assert np.array_equal(table.sq_dists, d2)
    assert {threads for _, threads, _, _ in seen} == {1}
    # each block ran once, in the caller or in one of two forked children
    assert sorted(first for _, _, first, _ in seen) == list(range(0, 120, 8))
    assert len(forks) == 2
    assert {pid for pid, _, _, _ in seen} <= {os.getpid(), *forks}
    assert state["threads"] == 4  # the caller's count is back


def test_knn_without_the_pin_runs_on_one_worker(monkeypatch, tmp_path):
    pts = cloud(120, 4, 6)
    # 2-row blocks on three processes, 8-row ones on one
    monkeypatch.setattr(graph, "_block_rows", lambda N, d: 2)
    monkeypatch.setattr(_workers, "_usable_cpus", lambda: 3)
    pinned = knn_exact(pts, 6)
    monkeypatch.setattr(graph, "_block_rows", lambda N, d: 8)
    monkeypatch.setattr(_workers, "_pin", None)  # numpy without the symbol
    assert _workers._pool_size() == 1
    log = tmp_path / "select.log"
    traced_select(monkeypatch, log)
    table = knn_exact(pts, 6)
    assert {pid for pid, _, _, _ in select_calls(log)} == {os.getpid()}
    assert np.array_equal(table.indices, pinned.indices)
    assert np.array_equal(table.sq_dists, pinned.sq_dists)


def test_loops_without_fork_run_on_the_caller(monkeypatch):
    fake_pin(monkeypatch)
    monkeypatch.setattr(_workers, "_usable_cpus", lambda: 3)
    monkeypatch.delattr(os, "fork")  # a platform without it
    assert _workers._pool_size() == 1
    calls = list(_workers._in_order(lambda i: (i, os.getpid()), 5, 3, "call"))
    assert calls == [(i, os.getpid()) for i in range(5)]


def test_knn_workers_keep_the_callers_errstate(monkeypatch, first_child):
    fake_pin(monkeypatch)
    real = graph._smallest_k
    pts = cloud(120, 4, 7)
    found = []
    for cpus in (1, 3):

        def select(D, k, P, rows, *args):
            if cpus == 1:  # the caller alone: the block that holds row 100
                divide = rows[0] <= 100 <= rows[-1]
            else:  # the first block that a child takes
                divide = first_child.claim(int(rows[0]))
            if divide:
                np.float64(1.0) / np.float64(0.0)
            return real(D, k, P, rows, *args)

        monkeypatch.setattr(graph, "_smallest_k", select)
        monkeypatch.setattr(_workers, "_usable_cpus", lambda: cpus)
        # 2-row blocks on three processes, 8-row ones on one
        monkeypatch.setattr(graph, "_block_rows", lambda N, d: 8 // cpus)
        with np.errstate(all="raise"), pytest.raises(FloatingPointError) as exc:
            knn_exact(pts, 6)
        found.append(str(exc.value))
    assert first_child.label()  # a child divided
    assert found[0] == found[1]


def test_knn_worker_killed_by_a_signal_names_the_block(monkeypatch, first_child):
    fake_pin(monkeypatch)
    monkeypatch.setattr(_workers, "_usable_cpus", lambda: 3)
    monkeypatch.setattr(graph, "_block_rows", lambda N, d: 8)  # 15 blocks of 8 rows
    real = graph._smallest_k

    def select(D, k, P, rows, *args):
        if first_child.claim(rows[0] // 8):  # the first block a child takes
            os.kill(os.getpid(), signal.SIGKILL)
        return real(D, k, P, rows, *args)

    monkeypatch.setattr(graph, "_smallest_k", select)
    with pytest.raises(NumericalError) as exc:
        knn_exact(cloud(120, 4, 8), 6)
    block = first_child.label()
    assert str(exc.value) == f"kNN row block {block}: its worker process was killed by SIGKILL"
    with pytest.raises(ChildProcessError):  # every child was reaped
        os.waitpid(-1, os.WNOHANG)


def test_knn_duplicate_points_keep_self_first():
    # 12 copies of 3 distinct points: ties everywhere
    base = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    pts = np.repeat(base, 4, axis=0)
    table = knn_exact(pts, 3)
    idx, d2 = naive_knn(pts, 3)
    assert np.array_equal(table.indices, idx)
    assert np.array_equal(table.sq_dists, d2)
    assert np.array_equal(table.indices[:, 0], np.arange(12))


def test_knn_equidistant_ties_break_by_index():
    pts = np.array([[0.0], [1.0], [2.0], [3.0], [4.0]])
    table = knn_exact(pts, 2)
    # middle points see two neighbors at distance 1; smaller index wins
    assert list(table.indices[2]) == [2, 1]
    idx, d2 = naive_knn(pts, 2)
    assert np.array_equal(table.indices, idx)
    assert np.array_equal(table.sq_dists, d2)


def test_knn_validation():
    pts = cloud(5, 2, 4)
    with pytest.raises(ValueError):
        knn_exact(pts, 6)
    with pytest.raises(ValueError):
        knn_exact(pts, 0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e200])
def test_knn_rejects_non_finite_or_overflowing_patches(bad):
    # the rounding bound that certifies the result needs finite squared norms
    pts = cloud(8, 3, 4)
    pts[5, 1] = bad
    with pytest.raises(ValueError, match="patches must be finite"):
        knn_exact(pts, 4)


# --- local_scale ------------------------------------------------------------


def test_local_scale_degenerate_all_duplicates():
    pts = np.ones((6, 2))
    table = knn_exact(pts, 4)
    sigma = local_scale(table, 3)
    assert np.all(sigma == 1.0)


def test_local_scale_colinear():
    pts = np.array([[0.0], [1.0], [10.0]])
    table = knn_exact(pts, 3)
    sigma = local_scale(table, 2)
    assert sigma[0] == 1.0
    assert sigma[1] == 1.0
    assert sigma[2] == 9.0


def test_local_scale_zero_falls_back_to_positive():
    pts = np.array([[0.0], [0.0], [3.0]])
    table = knn_exact(pts, 3)
    sigma = local_scale(table, 2)
    # rank-2 neighbor of the duplicated points is the duplicate at distance 0
    assert sigma[0] == 3.0 and sigma[1] == 3.0


def test_local_scale_matches_row_loop_reference():
    # duplicated points give zero scales, some with a positive fallback and
    # some (rows whose k neighbors all coincide) falling back to 1
    base = 0.5 * np.random.default_rng(14).integers(0, 4, (20, 2))
    pts = np.repeat(base, [1, 3, 8, 2] * 5, axis=0)
    table = knn_exact(pts, 6)
    want = np.sqrt(table.sq_dists[:, 2])
    for r in np.nonzero(want == 0.0)[0]:
        pos = table.sq_dists[r][table.sq_dists[r] > 0.0]
        want[r] = math.sqrt(pos.min()) if pos.size else 1.0
    assert np.array_equal(local_scale(table, 3), want)
    assert np.any(want == 1.0) and np.any((table.sq_dists[:, 2] == 0.0) & (want != 1.0))


def test_local_scale_matches_naive():
    pts = cloud(60, 4, 5)
    table = knn_exact(pts, 10)
    sigma = local_scale(table, 6)
    idx, d2 = naive_knn(pts, 10)
    for r in range(60):
        assert sigma[r] == math.sqrt(d2[r, 5])


def test_local_scale_validation():
    table = knn_exact(cloud(10, 2, 6), 4)
    with pytest.raises(ValueError):
        local_scale(table, 1)
    with pytest.raises(ValueError):
        local_scale(table, 5)


# --- build_bar_w --------------------------------------------------------------


def test_bar_w_self_weight_one():
    pts = cloud(30, 3, 7)
    table = knn_exact(pts, 5)
    g = build_bar_w(table, local_scale(table, 3))
    assert np.all(g.diagonal() == 1.0)


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
def test_bar_w_rejects_a_scale_that_is_not_finite_and_positive(bad):
    table = knn_exact(cloud(16, 3, 7), 5)
    sigma = local_scale(table, 3)
    build_bar_w(table, sigma)
    sigma[3] = bad
    with pytest.raises(ValueError, match="sigma must be finite and positive"):
        build_bar_w(table, sigma)


def test_bar_w_closed_form_exp_minus_one():
    pts = np.array([[0.0], [1.0]])
    table = knn_exact(pts, 2)
    sigma = local_scale(table, 2)  # both scales are 1
    g = build_bar_w(table, sigma)
    assert math.isclose(g[0, 1], math.exp(-1.0), rel_tol=1e-15)
    assert math.isclose(g[1, 0], math.exp(-1.0), rel_tol=1e-15)


def test_bar_w_entries_match_scalar_recompute():
    pts = cloud(50, 6, 8)
    k, r_sigma = 9, 4
    table = knn_exact(pts, k)
    sigma = local_scale(table, r_sigma)
    g = build_bar_w(table, sigma).tocoo()
    for r, c, w in zip(g.row, g.col, g.data):
        d2 = float(((pts[r] - pts[c]) ** 2).sum())
        want = math.exp(-d2 / (sigma[r] * sigma[c]))
        assert math.isclose(w, want, rel_tol=1e-15)


def test_bar_w_structure_invariants():
    pts = cloud(40, 5, 9)
    table = knn_exact(pts, 6)
    g = build_bar_w(table, local_scale(table, 3))
    counts = np.diff(g.indptr)
    assert np.all(counts == 6)
    assert np.all(g.data > 0.0) and np.all(g.data <= 1.0)
    # sorted, deduplicated columns within each row
    for r in range(40):
        cols = g.indices[g.indptr[r] : g.indptr[r + 1]]
        assert np.all(np.diff(cols) > 0)


# --- assemble_wtilde ------------------------------------------------------------


def grid_graph(m, n, B, s, seed, k):
    rng = np.random.default_rng(seed)
    cube = DataCube(rng.random((B, m, n)))
    geom = PatchGeometry(s, s, m, n)
    patches = extract_patches(cube.unfold(), geom)
    table = knn_exact(patches, k)
    bar = build_bar_w(table, local_scale(table, max(2, k // 2)))
    return geom, bar


def test_wtilde_single_shift_is_bitwise_bar_w():
    geom, bar = grid_graph(4, 4, 2, 1, 10, 5)
    wt = assemble_wtilde(bar, geom)
    assert np.array_equal(wt.indptr, bar.indptr)
    assert np.array_equal(wt.indices, bar.indices)
    assert np.array_equal(wt.data, bar.data)


def test_wtilde_identity_becomes_ds_identity():
    geom = PatchGeometry(2, 2, 4, 4)
    eye = sp.identity(16, format="csr")
    wt = assemble_wtilde(eye, geom)
    assert np.array_equal(np.asarray(wt.todense()), 4.0 * np.eye(16))


def test_wtilde_matches_dense_oracle():
    geom, bar = grid_graph(4, 4, 2, 2, 11, 5)
    got = np.asarray(assemble_wtilde(bar, geom).todense())
    want = naive_wtilde(np.asarray(bar.todense()), 2, 2, 4, 4)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("s1, s2, m, n", [(1, 1, 5, 7), (2, 2, 6, 9), (3, 2, 7, 5)])
def test_wtilde_is_bitwise_the_permutation_products(s1, s2, m, n):
    # the sum of P_i @ bar_w @ P_i.T, canonicalized at the end: every value and
    # index is the same, so wtilde.sum(), which sets lambda, is too
    rng = np.random.default_rng(s1 * 10 + s2)
    geom = PatchGeometry(s1, s2, m, n)
    table = knn_exact(extract_patches(DataCube(rng.random((3, m, n))).unfold(), geom), 6)
    bar = build_bar_w(table, local_scale(table, 3))
    N = geom.n_pixels
    want = None
    for i in range(1, geom.d_s + 1):
        P = sp.csr_matrix((np.ones(N), shift_permutation(geom, 1 - i), np.arange(N + 1)),
                          shape=(N, N))
        term = P @ bar @ P.T
        want = term if want is None else want + term
    want.sum_duplicates()
    got = assemble_wtilde(bar, geom)
    assert got.has_canonical_format
    for attr in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(got, attr), getattr(want, attr))
    assert got.sum() == want.sum()
    assert got is not bar and not np.shares_memory(got.data, bar.data)


@pytest.mark.parametrize("s", [1, 2])
def test_wtilde_leaves_its_argument_unchanged(s):
    # with more than one shift the sum starts from bar_w itself, not a copy
    geom, bar = grid_graph(5, 5, 2, s, 14, 5)
    before = [getattr(bar, attr).copy() for attr in ("indptr", "indices", "data")]
    wt = assemble_wtilde(bar, geom)
    assert wt is not bar and not np.shares_memory(wt.data, bar.data)
    for attr, was in zip(("indptr", "indices", "data"), before):
        assert np.array_equal(getattr(bar, attr), was)


def test_wtilde_row_budget_and_value_range():
    geom, bar = grid_graph(6, 6, 2, 2, 12, 5)
    wt = assemble_wtilde(bar, geom)
    counts = np.diff(wt.indptr)
    assert np.all(counts <= 5 * geom.d_s)
    assert np.all(wt.data > 0.0) and np.all(wt.data <= geom.d_s)


def test_graph_vs_naive_pipeline_end_to_end():
    # full pipeline agreement on a 6x6 grid
    rng = np.random.default_rng(13)
    cube = DataCube(rng.random((3, 6, 6)))
    geom = PatchGeometry(2, 2, 6, 6)
    patches = extract_patches(cube.unfold(), geom)
    k, r_sigma = 5, 3
    table = knn_exact(patches, k)
    bar = build_bar_w(table, local_scale(table, r_sigma))
    want = naive_bar_w(np.asarray(patches), k, r_sigma)
    got = np.asarray(bar.todense())
    mask = want > 0
    rel = np.abs(got - want)[mask] / want[mask]
    assert rel.max() <= 1e-15
    assert np.array_equal(got == 0, want == 0)
