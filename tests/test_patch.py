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
    patch_component_adjoint,
    patch_component_apply,
    shift_index,
    shift_permutation,
)


def test_geometry_validation():
    with pytest.raises(ValueError):
        PatchGeometry(3, 2, 2, 4)
    with pytest.raises(ValueError):
        PatchGeometry(0, 1, 4, 4)
    assert PatchGeometry(2, 3, 4, 5).d_s == 6


# --- shift_index ---------------------------------------------------------


def test_shift_zero_is_identity():
    geom = PatchGeometry(2, 2, 4, 4)
    assert shift_index((2, 3), 0, geom) == (2, 3)


def test_shift_enumeration_2x2():
    geom = PatchGeometry(2, 2, 4, 4)
    assert shift_index((0, 0), 1, geom) == (0, 1)
    assert shift_index((0, 0), 2, geom) == (1, 0)
    assert shift_index((0, 0), 3, geom) == (1, 1)


def test_shift_wraps_periodically():
    geom = PatchGeometry(2, 2, 4, 4)
    assert shift_index((0, 3), 1, geom) == (0, 0)
    assert shift_index((3, 3), 3, geom) == (0, 0)


def test_shift_inverse_exhaustive_4x4():
    geom = PatchGeometry(2, 2, 4, 4)
    for j in range(-geom.d_s + 1, geom.d_s):
        for r in range(4):
            for c in range(4):
                fwd = shift_index((r, c), j, geom)
                assert shift_index(fwd, -j, geom) == (r, c)


def test_shift_out_of_range():
    geom = PatchGeometry(2, 2, 4, 4)
    with pytest.raises(ValueError):
        shift_index((0, 0), 4, geom)
    with pytest.raises(ValueError):
        shift_index((0, 0), -4, geom)


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
    # agrees with the scalar definition
    for p in range(m * n):
        r, c = divmod(p, n)
        rr, cc = shift_index((r, c), j, geom)
        assert perm[p] == rr * n + cc


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


def test_extract_matches_shift_index_exhaustively():
    rng = np.random.default_rng(1)
    cube = DataCube(rng.random((3, 5, 7)))
    geom = PatchGeometry(2, 2, 5, 7)
    rows = np.asarray(extract_patches(cube.unfold(), geom))
    B = cube.B
    for r in range(5):
        for c in range(7):
            for i in range(geom.d_s):
                rr, cc = shift_index((r, c), i, geom)
                for t in range(B):
                    assert rows[r * 7 + c, i * B + t] == cube.values[t, rr, cc]


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


# --- component apply / adjoint --------------------------------------------


def test_component_apply_identity_and_constant():
    geom = PatchGeometry(2, 2, 3, 3)
    rng = np.random.default_rng(3)
    band = rng.random((3, 3))
    assert np.array_equal(patch_component_apply(band, 1, geom), band)
    const = np.full((3, 3), 2.5)
    for i in range(1, geom.d_s + 1):
        assert np.array_equal(patch_component_apply(const, i, geom), const)


def test_component_apply_column_rotation():
    geom = PatchGeometry(1, 2, 3, 3)
    band = np.arange(9.0).reshape(3, 3)
    got = patch_component_apply(band, 2, geom)
    for r in range(3):
        for c in range(3):
            rr, cc = shift_index((r, c), 1, geom)
            assert got[r, c] == band[rr, cc]
    assert np.array_equal(got, np.roll(band, -1, axis=1))


def test_component_index_validation():
    geom = PatchGeometry(2, 2, 4, 4)
    band = np.zeros((4, 4))
    for bad in (0, 5):
        with pytest.raises(ValueError):
            patch_component_apply(band, bad, geom)
        with pytest.raises(ValueError):
            patch_component_adjoint(band, bad, geom)


def test_component_rejects_a_band_off_the_grid():
    geom = PatchGeometry(2, 2, 6, 6)
    for band in (np.arange(9.0).reshape(3, 3), np.zeros(36), np.zeros((6, 7))):
        with pytest.raises(ValueError, match="band must have shape"):
            patch_component_apply(band, 4, geom)
        with pytest.raises(ValueError, match="band must have shape"):
            patch_component_adjoint(band, 4, geom)


def test_adjoint_identity_bitwise():
    # <P_i u, v> == <u, P_i* v> with a fixed summation order: the term
    # sequences are identical after reindexing, so sums match to 0 ulp.
    geom = PatchGeometry(2, 2, 6, 6)
    rng = np.random.default_rng(4)
    for i in range(1, geom.d_s + 1):
        perm = shift_permutation(geom, i - 1)
        u = rng.standard_normal((6, 6))
        v = rng.standard_normal((6, 6))
        lhs_terms = (patch_component_apply(u, i, geom) * v).reshape(-1)
        rhs_terms = (u * patch_component_adjoint(v, i, geom)).reshape(-1)[perm]
        assert np.array_equal(lhs_terms, rhs_terms)
        assert np.sum(lhs_terms) == np.sum(rhs_terms)


def test_adjoint_composes_to_identity():
    geom = PatchGeometry(3, 2, 5, 4)
    rng = np.random.default_rng(5)
    band = rng.random((5, 4))
    for i in range(1, geom.d_s + 1):
        roundtrip = patch_component_adjoint(patch_component_apply(band, i, geom), i, geom)
        assert np.array_equal(roundtrip, band)


@given(seed=st.integers(0, 1000), s1=st.integers(1, 3), s2=st.integers(1, 3))
def test_adjoint_identity_property(seed, s1, s2):
    geom = PatchGeometry(s1, s2, 6, 6)
    rng = np.random.default_rng(seed)
    u = rng.standard_normal((6, 6))
    v = rng.standard_normal((6, 6))
    for i in range(1, geom.d_s + 1):
        perm = shift_permutation(geom, i - 1)
        lhs = (patch_component_apply(u, i, geom) * v).reshape(-1)
        rhs = (u * patch_component_adjoint(v, i, geom)).reshape(-1)[perm]
        assert np.array_equal(lhs, rhs)


def test_extract_matches_component_apply():
    rng = np.random.default_rng(6)
    cube = DataCube(rng.random((2, 4, 4)))
    geom = PatchGeometry(2, 2, 4, 4)
    rows = np.asarray(extract_patches(cube.unfold(), geom))
    for i in range(1, geom.d_s + 1):
        for t in range(2):
            shifted = patch_component_apply(cube.band(t), i, geom)
            assert np.array_equal(rows[:, (i - 1) * 2 + t], shifted.reshape(-1))
