import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hsldmm import DataCube, MaskSet, add_gaussian_noise, apply_mask, make_mask, psnr


def random_cube(shape, seed):
    rng = np.random.default_rng(seed)
    return DataCube(rng.random(shape))


# --- DataCube / MaskSet containers ---------------------------------------


def test_cube_dims_and_band_order():
    vals = np.arange(24.0).reshape(2, 3, 4)
    cube = DataCube(vals)
    assert cube.dims == (3, 4, 2)
    assert np.array_equal(cube.band(1), vals[1])
    # flat buffer is band-sequential
    assert np.array_equal(cube.values.reshape(-1), np.arange(24.0))


def test_cube_rejects_bad_input():
    with pytest.raises(ValueError):
        DataCube(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        DataCube(np.full((1, 2, 2), np.nan))
    with pytest.raises(ValueError):
        DataCube(np.zeros((0, 2, 2)))


@pytest.mark.parametrize("grid", [DataCube, MaskSet])
def test_grid_rejects_bad_shapes_and_unfolds(grid):
    with pytest.raises(ValueError, match="3-d"):
        grid(np.ones((2, 3)))
    with pytest.raises(ValueError, match="positive"):
        grid(np.ones((2, 0, 3)))
    arr = np.random.default_rng(0).random((3, 4, 5)) < 0.5
    got = grid(arr).unfold()
    assert got.flags.c_contiguous and got.shape == (20, 3)
    assert np.array_equal(got, arr.reshape(3, -1).T)
    if grid is MaskSet:
        assert got.dtype == bool


@pytest.mark.parametrize("shape", [(1, 3, 4), (5, 1, 1)])
def test_unfold_is_a_new_writable_array(shape):
    # one band or one pixel: the transpose is already C-contiguous, and the
    # unfolding must still be a copy, not a view of the frozen values
    cube = random_cube(shape, 3)
    mat = cube.unfold()
    assert mat.flags.writeable and not np.shares_memory(mat, cube.values)


def test_cube_is_immutable():
    cube = random_cube((2, 4, 4), 0)
    with pytest.raises(ValueError):
        cube.values[0, 0, 0] = 5.0


def test_unfold_fold_roundtrip():
    cube = random_cube((3, 4, 5), 1)
    mat = cube.unfold()
    assert mat.shape == (20, 3)
    assert np.array_equal(DataCube.from_unfolded(mat, 4, 5).values, cube.values)
    # pixel row-major order: pixel (r, c) is row r*n + c
    assert mat[7, 2] == cube.values[2, 1, 2]


# --- make_mask -------------------------------------------------------------


def test_make_mask_full_rate_samples_everything():
    masks = make_mask((4, 4, 2), 1.0, seed=9)
    assert masks.masks.all()


def test_make_mask_five_percent_count():
    masks = make_mask((200, 200, 2), 0.05, seed=0)
    assert np.array_equal(masks.counts(), [2000, 2000])


def test_make_mask_deterministic_and_band_independent():
    a = make_mask((10, 10, 3), 0.10, seed=7)
    b = make_mask((10, 10, 3), 0.10, seed=7)
    assert np.array_equal(a.masks, b.masks)
    assert np.array_equal(a.counts(), [10, 10, 10])
    assert not np.array_equal(a.masks[0], a.masks[1])


def test_make_mask_validation():
    with pytest.raises(ValueError):
        make_mask((4, 4, 1), 0.0, seed=0)
    with pytest.raises(ValueError):
        make_mask((4, 4, 1), 1.5, seed=0)
    with pytest.raises(ValueError):
        make_mask((0, 4, 1), 0.5, seed=0)


@given(seed=st.integers(0, 2**32 - 1), rate=st.floats(0.05, 1.0))
def test_make_mask_seed_determinism(seed, rate):
    a = make_mask((6, 5, 2), rate, seed)
    b = make_mask((6, 5, 2), rate, seed)
    assert np.array_equal(a.masks, b.masks)
    assert int(a.counts()[0]) == math.floor(rate * 30 + 1e-9)


# --- add_gaussian_noise ------------------------------------------------------


def test_noise_sigma_zero_is_identity():
    cube = random_cube((2, 5, 5), 3)
    out = add_gaussian_noise(cube, 0.0, seed=1)
    assert np.array_equal(out.values, cube.values)


def test_noise_sample_std_matches_sigma():
    cube = random_cube((10, 100, 100), 4)  # 1e5 voxels
    out = add_gaussian_noise(cube, 0.05, seed=5)
    measured = (out.values - cube.values).std()
    assert abs(measured - 0.05) <= 0.02 * 0.05


def test_noise_mean_law_of_large_numbers():
    cube = DataCube(np.zeros((1, 100, 100)))
    out = add_gaussian_noise(cube, 1.0, seed=3)
    assert abs(out.values.mean()) <= 3.0 / 100.0


def test_noise_deterministic_and_validated():
    cube = random_cube((1, 4, 4), 6)
    assert np.array_equal(
        add_gaussian_noise(cube, 0.3, 11).values, add_gaussian_noise(cube, 0.3, 11).values
    )
    with pytest.raises(ValueError):
        add_gaussian_noise(cube, -0.1, 0)


@pytest.mark.parametrize("sigma", [math.nan, math.inf])
def test_noise_rejects_non_finite_sigma_naming_it(sigma):
    with pytest.raises(ValueError, match=f"noise level .*got {sigma}"):
        add_gaussian_noise(random_cube((1, 4, 4), 6), sigma, 0)


# --- apply_mask --------------------------------------------------------------


def test_apply_mask_full_identity():
    cube = random_cube((2, 4, 4), 7)
    masks = make_mask(cube.dims, 1.0, 0)
    assert np.array_equal(apply_mask(cube, masks).values, cube.values)


def test_apply_mask_empty_band_zeros():
    cube = random_cube((2, 3, 3), 8)
    masks = MaskSet(np.stack([np.ones((3, 3), bool), np.zeros((3, 3), bool)]))
    out = apply_mask(cube, masks)
    assert np.array_equal(out.band(0), cube.band(0))
    assert np.array_equal(out.band(1), np.zeros((3, 3)))


def test_apply_mask_direct_definition():
    cube = DataCube(np.array([[[1.0, 2.0], [3.0, 4.0]]]))
    sel = np.zeros((1, 2, 2), bool)
    sel[0, 0, 0] = sel[0, 1, 1] = True
    out = apply_mask(cube, MaskSet(sel))
    assert np.array_equal(out.band(0), [[1.0, 0.0], [0.0, 4.0]])


def test_apply_mask_dim_mismatch():
    with pytest.raises(ValueError):
        apply_mask(random_cube((2, 3, 3), 0), make_mask((3, 3, 3), 0.5, 0))


# --- psnr ---------------------------------------------------------------------


def test_psnr_identical_is_inf():
    cube = random_cube((2, 4, 4), 9)
    met = psnr(cube, cube)
    assert met.mse == 0.0
    assert math.isinf(met.psnr_paper) and math.isinf(met.psnr_standard)


def test_psnr_closed_form():
    ref = DataCube(np.full((1, 4, 4), 1.0))
    cand = DataCube(np.full((1, 4, 4), 0.9))
    met = psnr(cand, ref, "standard")
    assert math.isclose(met.mse, 0.01, rel_tol=1e-12)
    assert math.isclose(met.psnr_standard, 20.0, rel_tol=1e-12)
    assert met.psnr == met.psnr_standard


def test_psnr_matches_independent_recompute():
    cand = random_cube((2, 8, 8), 10)
    ref = random_cube((2, 8, 8), 11)
    met = psnr(cand, ref, "paper")
    # plain scalar-loop recompute
    total, peak = 0.0, 0.0
    for t in range(2):
        for r in range(8):
            for c in range(8):
                total += (cand.values[t, r, c] - ref.values[t, r, c]) ** 2
                peak = max(peak, abs(ref.values[t, r, c]))
    mse = total / 128.0
    assert math.isclose(met.psnr_paper, 10.0 * math.log10(peak / mse), rel_tol=1e-12)


def test_psnr_spatial_permutation_invariance():
    cand = random_cube((2, 5, 5), 12)
    ref = random_cube((2, 5, 5), 13)
    rng = np.random.default_rng(14)
    perm = rng.permutation(25)
    def permute(cube):
        flat = cube.values.reshape(2, 25)[:, perm]
        return DataCube(flat.reshape(2, 5, 5))
    a = psnr(cand, ref)
    b = psnr(permute(cand), permute(ref))
    assert math.isclose(a.mse, b.mse, rel_tol=1e-12)
    assert math.isclose(a.psnr_paper, b.psnr_paper, rel_tol=1e-12)


@given(scale=st.floats(0.01, 100.0))
def test_psnr_scaling_laws(scale):
    cand = random_cube((1, 6, 6), 15)
    ref = random_cube((1, 6, 6), 16)
    base = psnr(cand, ref)
    scaled = psnr(DataCube(scale * cand.values), DataCube(scale * ref.values))
    assert math.isclose(scaled.psnr_standard, base.psnr_standard, rel_tol=1e-9, abs_tol=1e-9)
    shift = -10.0 * math.log10(scale)
    assert math.isclose(
        scaled.psnr_paper - base.psnr_paper, shift, rel_tol=1e-9, abs_tol=1e-9
    )


def test_psnr_validation():
    cube = random_cube((1, 3, 3), 17)
    with pytest.raises(ValueError):
        psnr(cube, DataCube(np.zeros((1, 3, 3))))
    with pytest.raises(ValueError):
        psnr(cube, random_cube((1, 4, 4), 18))
    with pytest.raises(ValueError):
        psnr(cube, cube, formula="both")
