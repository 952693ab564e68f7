import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import hsldmm.patch as patch_mod
from hsldmm import DataCube
from hsldmm.patch import (
    PatchGeometry,
    PatchMatrix,
    extract_patches,
    shift_permutation,
)


def test_geometry_validation():
    with pytest.raises(ValueError):
        PatchGeometry(3, 2, 2, 4)
    with pytest.raises(ValueError):
        PatchGeometry(0, 1, 4, 4)
    assert PatchGeometry(2, 3, 4, 5).d_s == 6


def shifted(p, j, geom):
    """Pixel j steps after linear pixel p on the row-major window walk, by
    inline modular arithmetic; a negative j steps back."""
    r, c = divmod(p, geom.n)
    dr, dc = divmod(abs(j), geom.s2)
    if j < 0:
        dr, dc = -dr, -dc
    return (r + dr) % geom.m * geom.n + (c + dc) % geom.n


# --- shift_permutation -----------------------------------------------------


def test_shift_zero_is_identity():
    geom = PatchGeometry(2, 2, 4, 4)
    assert np.array_equal(shift_permutation(geom, 0), np.arange(16))


def test_shift_enumeration_2x2():
    geom = PatchGeometry(2, 2, 4, 4)
    for j, (dr, dc) in enumerate([(0, 1), (1, 0), (1, 1)], start=1):
        perm = shift_permutation(geom, j)
        for p in range(16):
            r, c = divmod(p, 4)
            assert perm[p] == (r + dr) % 4 * 4 + (c + dc) % 4


def test_shift_wraps_periodically():
    geom = PatchGeometry(2, 2, 4, 4)
    assert shift_permutation(geom, 1)[0 * 4 + 3] == 0 * 4 + 0
    assert shift_permutation(geom, 3)[3 * 4 + 3] == 0 * 4 + 0


def test_shift_inverse_exhaustive_4x4():
    geom = PatchGeometry(2, 2, 4, 4)
    for j in range(-geom.d_s + 1, geom.d_s):
        perm, inv = shift_permutation(geom, j), shift_permutation(geom, -j)
        assert np.array_equal(perm[inv], np.arange(16))


def test_shift_out_of_range():
    geom = PatchGeometry(2, 2, 4, 4)
    with pytest.raises(ValueError):
        shift_permutation(geom, 4)
    with pytest.raises(ValueError):
        shift_permutation(geom, -4)


@given(
    s1=st.integers(1, 3),
    s2=st.integers(1, 3),
    m=st.integers(3, 6),
    n=st.integers(3, 6),
    j=st.integers(-8, 8),
)
def test_shift_permutation_is_bijection(s1, s2, m, n, j):
    geom = PatchGeometry(s1, s2, m, n)
    if abs(j) >= geom.d_s:
        return
    perm = shift_permutation(geom, j)
    assert sorted(perm) == list(range(m * n))
    inv = shift_permutation(geom, -j)
    assert np.array_equal(perm[inv], np.arange(m * n))
    assert [int(q) for q in perm] == [shifted(p, j, geom) for p in range(m * n)]


# --- extract_patches ---------------------------------------------------------


def test_extract_1x1_is_unfolding():
    rng = np.random.default_rng(0)
    cube = DataCube(rng.random((3, 4, 5)))
    geom = PatchGeometry(1, 1, 4, 5)
    assert np.array_equal(np.asarray(extract_patches(cube.unfold(), geom)), cube.unfold())


def test_extract_2x2_single_band():
    cube = DataCube(np.array([[[1.0, 2.0], [3.0, 4.0]]]))
    geom = PatchGeometry(2, 2, 2, 2)
    rows = np.asarray(extract_patches(cube.unfold(), geom))
    assert np.array_equal(rows[0], [1.0, 2.0, 3.0, 4.0])


def test_extract_matches_modular_arithmetic_exhaustively():
    rng = np.random.default_rng(1)
    cube = DataCube(rng.random((3, 5, 7)))
    geom = PatchGeometry(2, 2, 5, 7)
    rows = np.asarray(extract_patches(cube.unfold(), geom))
    B = cube.B
    for p in range(5 * 7):
        for i in range(geom.d_s):
            rr, cc = divmod(shifted(p, i, geom), 7)
            for t in range(B):
                assert rows[p, i * B + t] == cube.values[t, rr, cc]


def test_patch_matrix_rows_shape_and_identity_gather():
    rng = np.random.default_rng(7)
    cube = DataCube(rng.random((3, 5, 4)))
    patches = extract_patches(cube.unfold(), PatchGeometry(2, 3, 5, 4))
    full = np.asarray(patches)
    assert patches.shape == full.shape == (20, 18)
    pick = np.array([19, 0, 7, 7])
    assert np.array_equal(patches.rows(pick), full[pick])
    assert np.array_equal(patches.rows(slice(3, 9)), full[3:9])
    assert np.array_equal(np.asarray(patches, dtype=np.float32), full.astype(np.float32))
    plain = PatchMatrix.of(full)
    assert plain.unfolded is full and np.array_equal(plain.gather, np.arange(20)[:, None])
    assert PatchMatrix.of(patches) is patches
    with pytest.raises(ValueError):
        PatchMatrix.of(np.ones(3))


def test_extract_reads_the_unfolding_in_place():
    U = np.random.default_rng(3).random((20, 3))
    patches = extract_patches(U, PatchGeometry(2, 2, 5, 4))
    assert np.shares_memory(patches.unfolded, U)
    assert not patches.unfolded.flags.writeable and U.flags.writeable


def test_extract_dim_mismatch_and_budget(monkeypatch):
    rng = np.random.default_rng(2)
    cube = DataCube(rng.random((1, 4, 4)))
    with pytest.raises(ValueError, match="unfolding must be"):
        extract_patches(cube.unfold(), PatchGeometry(2, 2, 5, 5))
    with pytest.raises(ValueError, match="unfolding must be"):
        extract_patches(cube.values, PatchGeometry(2, 2, 4, 4))  # the cube, not its unfolding
    monkeypatch.setattr(patch_mod, "_MAX_PATCH_BYTES", 10)
    with pytest.raises(ValueError):
        extract_patches(cube.unfold(), PatchGeometry(2, 2, 4, 4))


# --- the components the reconstruction runs --------------------------------
# R_i is column i of the gather; R_i^T is shift_permutation(geom, -i), the
# inverse shift the shift-sum applies


def test_component_apply_identity_and_constant():
    geom = PatchGeometry(2, 2, 3, 3)
    band = np.random.default_rng(3).random(9)
    assert np.array_equal(np.asarray(extract_patches(band[:, None], geom))[:, 0], band)
    const = np.asarray(extract_patches(np.full((9, 1), 2.5), geom))
    assert np.array_equal(const, np.full((9, geom.d_s), 2.5))


def test_component_apply_column_rotation():
    geom = PatchGeometry(1, 2, 3, 3)
    band = np.arange(9.0).reshape(3, 3)
    got = np.asarray(extract_patches(band.reshape(9, 1), geom))[:, 1].reshape(3, 3)
    assert np.array_equal(got, np.roll(band, -1, axis=1))


def test_adjoint_identity_bitwise():
    # <R_i u, v> == <u, R_i^T v> with a fixed summation order: the term
    # sequences are identical after reindexing, so sums match to 0 ulp.
    geom = PatchGeometry(2, 2, 6, 6)
    gather = extract_patches(np.zeros((36, 1)), geom).gather
    rng = np.random.default_rng(4)
    for i in range(geom.d_s):
        inv = shift_permutation(geom, -i)
        u = rng.standard_normal(36)
        v = rng.standard_normal(36)
        lhs_terms = u[gather[:, i]] * v
        rhs_terms = (u * v[inv])[gather[:, i]]
        assert np.array_equal(lhs_terms, rhs_terms)
        assert np.sum(lhs_terms) == np.sum(rhs_terms)


def test_adjoint_composes_to_identity():
    geom = PatchGeometry(3, 2, 5, 4)
    band = np.random.default_rng(5).random(20)
    columns = np.asarray(extract_patches(band[:, None], geom))
    for i in range(geom.d_s):
        assert np.array_equal(columns[:, i][shift_permutation(geom, -i)], band)


@given(
    seed=st.integers(0, 1000),
    s1=st.integers(1, 3),
    s2=st.integers(1, 3),
    dm=st.integers(0, 3),
    dn=st.integers(0, 4),
)
def test_adjoint_identity_property(seed, s1, s2, dm, dn):
    # non-square grids, down to a window as large as the grid
    m, n = s1 + dm, s2 + dn
    geom = PatchGeometry(s1, s2, m, n)
    gather = extract_patches(np.zeros((m * n, 1)), geom).gather
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(m * n)
    v = rng.standard_normal(m * n)
    for i in range(geom.d_s):
        inv = shift_permutation(geom, -i)
        assert np.array_equal(gather[inv, i], np.arange(m * n))
        lhs = u[gather[:, i]] * v
        rhs = (u * v[inv])[gather[:, i]]
        assert np.array_equal(lhs, rhs)
