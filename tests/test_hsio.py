import numpy as np
import pytest

from hsldmm import DataCube, MaskSet, make_mask
from hsldmm.cli import main
from hsldmm.hsio import (
    FormatError,
    export_band_csv,
    export_band_pgm,
    read_cube,
    read_mask,
    write_cube,
    write_mask,
)


def f32_cube(shape, seed):
    rng = np.random.default_rng(seed)
    return DataCube(rng.random(shape).astype(np.float32).astype(np.float64))


def test_cube_roundtrip_bitwise(tmp_path):
    cube = f32_cube((3, 5, 4), 0)
    path = tmp_path / "c.hsc"
    write_cube(path, cube)
    back = read_cube(path)
    assert back.dims == cube.dims
    assert np.array_equal(back.values, cube.values)


def test_cube_file_layout(tmp_path):
    cube = DataCube(np.arange(8.0).reshape(2, 2, 2))
    path = tmp_path / "c.hsc"
    write_cube(path, cube)
    blob = path.read_bytes()
    assert blob.startswith(b"HSC1\nm=2 n=2 B=2 dtype=f32 order=bsq\n")
    payload = blob.split(b"order=bsq\n", 1)[1]
    assert len(payload) == 8 * 4
    assert np.array_equal(np.frombuffer(payload, "<f4"), np.arange(8.0, dtype="<f4"))


def test_write_cube_rejects_values_past_float32_and_writes_nothing(tmp_path):
    path = tmp_path / "c.hsc"
    values = np.zeros((2, 3, 5))
    values[1, 2, 4] = -1e300
    with pytest.raises(OverflowError, match="float32"):
        write_cube(path, DataCube(values))
    assert not path.exists()


def test_mask_roundtrip(tmp_path):
    masks = make_mask((6, 5, 3), 0.4, 1)
    path = tmp_path / "m.hsc"
    write_mask(path, masks)
    back = read_mask(path)
    assert np.array_equal(back.masks, masks.masks)


def test_read_rejects_bad_magic(tmp_path):
    path = tmp_path / "x.hsc"
    path.write_bytes(b"XXXX\nm=1 n=1 B=1 dtype=f32 order=bsq\n" + b"\x00" * 4)
    with pytest.raises(FormatError):
        read_cube(path)


def test_read_rejects_wrong_payload_size(tmp_path):
    path = tmp_path / "x.hsc"
    path.write_bytes(b"HSC1\nm=2 n=2 B=1 dtype=f32 order=bsq\n" + b"\x00" * 8)
    with pytest.raises(FormatError):
        read_cube(path)


def test_read_rejects_bad_header_fields(tmp_path):
    path = tmp_path / "x.hsc"
    path.write_bytes(b"HSC1\nm=2 n=2 dtype=f32 order=bsq\n")
    with pytest.raises(FormatError):
        read_cube(path)
    path.write_bytes(b"HSC1\nm=2 n=2 B=0 dtype=f32 order=bsq\n")
    with pytest.raises(FormatError):
        read_cube(path)
    path.write_bytes(b"HSC1\nm=1 n=1 B=1 dtype=f32 order=bip\n")
    with pytest.raises(FormatError):
        read_cube(path)


def test_cube_and_mask_dtypes_not_interchangeable(tmp_path):
    cube = f32_cube((1, 2, 2), 2)
    write_cube(tmp_path / "c.hsc", cube)
    with pytest.raises(FormatError):
        read_mask(tmp_path / "c.hsc")
    write_mask(tmp_path / "m.hsc", make_mask((2, 2, 1), 0.5, 0))
    with pytest.raises(FormatError):
        read_cube(tmp_path / "m.hsc")


def test_mask_bytes_must_be_binary(tmp_path):
    path = tmp_path / "m.hsc"
    path.write_bytes(b"HSC1\nm=1 n=2 B=1 dtype=u8 order=bsq\n" + bytes([0, 2]))
    with pytest.raises(FormatError):
        read_mask(path)


def test_pgm_export(tmp_path):
    cube = DataCube(np.array([[[0.0, 1.0], [0.5, 0.25]]]))
    path = tmp_path / "b.pgm"
    export_band_pgm(path, cube, 0)
    blob = path.read_bytes()
    assert blob.startswith(b"P5\n# scale min=0.0 max=1.0\n2 2\n65535\n")
    pixels = np.frombuffer(blob.rsplit(b"65535\n", 1)[1], dtype=">u2").reshape(2, 2)
    assert pixels[0, 0] == 0 and pixels[0, 1] == 65535
    assert pixels[1, 0] == round(0.5 * 65535)


def test_pgm_constant_band_is_midgray(tmp_path):
    cube = DataCube(np.full((1, 3, 2), 0.7))
    path = tmp_path / "b.pgm"
    export_band_pgm(path, cube, 0)
    pixels = np.frombuffer(path.read_bytes().rsplit(b"65535\n", 1)[1], dtype=">u2")
    assert np.all(pixels == 32768)


def test_csv_export(tmp_path):
    cube = DataCube(np.array([[[0.0, 1.0], [0.5, 0.25]]]))
    path = tmp_path / "b.csv"
    export_band_csv(path, cube, 0)
    back = np.loadtxt(path, delimiter=",")
    assert np.array_equal(back, cube.band(0))


def test_export_band_index_validation(tmp_path):
    cube = f32_cube((2, 3, 3), 3)
    with pytest.raises(ValueError):
        export_band_pgm(tmp_path / "b.pgm", cube, 2)
    with pytest.raises(ValueError):
        export_band_csv(tmp_path / "b.csv", cube, -1)


def test_many_random_roundtrips(tmp_path):
    rng = np.random.default_rng(4)
    for i in range(10):
        shape = (int(rng.integers(1, 4)), int(rng.integers(1, 6)), int(rng.integers(1, 6)))
        cube = DataCube(rng.standard_normal(shape).astype(np.float32).astype(np.float64))
        p = tmp_path / f"r{i}.hsc"
        write_cube(p, cube)
        assert np.array_equal(read_cube(p).values, cube.values)
        masks = MaskSet(rng.random(shape) < 0.5)
        pm = tmp_path / f"r{i}.mask.hsc"
        write_mask(pm, masks)
        assert np.array_equal(read_mask(pm).masks, masks.masks)


# --- hsldmm convert -------------------------------------------------------------


def convert(raw, *args):
    return main(["convert", str(raw), "--m", "3", "--n", "5", *args])


RAW = {
    "f32": np.random.default_rng(6).standard_normal(30).astype("<f4"),
    "f64": np.random.default_rng(7).standard_normal(30).astype("<f8"),
    "u16": np.random.default_rng(8).integers(0, 65536, 30).astype("<u2"),
    "u8": np.random.default_rng(9).integers(0, 256, 30).astype("u1"),
}


@pytest.mark.parametrize("dtype", sorted(RAW))
def test_converter_round_trips_every_dtype_and_normalizes(tmp_path, capsys, dtype):
    raw = tmp_path / f"{dtype}.raw"
    RAW[dtype].tofile(raw)
    want = RAW[dtype].astype(np.float64).reshape(2, 3, 5)
    assert convert(raw, "--bands", "2", "--dtype", dtype, "-o", str(tmp_path / "a.hsc")) == 0
    # HSC stores float32: exact for f32, u16 and u8, rounded for f64
    assert np.array_equal(read_cube(tmp_path / "a.hsc").values, want.astype(np.float32))
    assert convert(raw, "--bands", "2", "--dtype", dtype, "--normalize",
                   "-o", str(tmp_path / "b.hsc")) == 0
    got = read_cube(tmp_path / "b.hsc").values
    assert got.min() == 0.0 and got.max() == 1.0
    scaled = (want - want.min()) / (want.max() - want.min())
    assert np.array_equal(got, scaled.astype(np.float32))
    assert capsys.readouterr().err == ""


def test_converter_normalizes_a_constant_cube_to_zeros(tmp_path):
    raw = tmp_path / "c.raw"
    np.full(30, 500.0, dtype="<f4").tofile(raw)
    assert convert(raw, "--bands", "2", "--normalize", "-o", str(tmp_path / "c.hsc")) == 0
    got = read_cube(tmp_path / "c.hsc").values
    assert got.shape == (2, 3, 5) and np.array_equal(got, np.zeros_like(got))


def test_converter_size_mismatch_exits_1_naming_both_counts(tmp_path, capsys):
    raw = tmp_path / "c.raw"
    np.zeros(29, dtype="<f4").tofile(raw)
    assert convert(raw, "--bands", "2", "-o", str(tmp_path / "c.hsc")) == 1
    err = capsys.readouterr().err
    assert "29" in err and "30" in err
    assert not (tmp_path / "c.hsc").exists()
    raw.write_bytes(np.zeros(30, dtype="<f4").tobytes() + b"\0")
    assert convert(raw, "--bands", "2", "-o", str(tmp_path / "c.hsc")) == 1
    assert "30 f32 elements and 1 stray bytes" in capsys.readouterr().err
    assert not (tmp_path / "c.hsc").exists()


@pytest.mark.parametrize("dtype,bad", [("f32", np.nan), ("f64", np.inf)])
def test_converter_rejects_non_finite_input_before_normalizing(tmp_path, capsys, dtype, bad):
    raw = tmp_path / "c.raw"
    values = np.arange(30, dtype=RAW[dtype].dtype)
    values[17] = bad
    values.tofile(raw)
    assert convert(raw, "--bands", "2", "--dtype", dtype, "--normalize",
                   "-o", str(tmp_path / "c.hsc")) == 2
    err = capsys.readouterr().err
    assert err == f"hsldmm: file format error: {raw}: payload holds non-finite values\n"
    assert not (tmp_path / "c.hsc").exists()


def test_converter_rejects_f64_input_past_float32(tmp_path, capsys):
    # finite as float64, but the HSC file would hold inf, which read_cube rejects
    raw = tmp_path / "c.raw"
    values = np.arange(30, dtype="<f8")
    values[17] = 1e300
    values.tofile(raw)
    assert convert(raw, "--bands", "2", "--dtype", "f64", "-o", str(tmp_path / "c.hsc")) == 2
    err = capsys.readouterr().err
    assert err == f"hsldmm: file format error: {raw}: payload holds values past the float32 range\n"
    assert not (tmp_path / "c.hsc").exists()
