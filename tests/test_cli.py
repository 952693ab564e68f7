import math
import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hsldmm
from hsldmm import ApgConfig, DataCube, _workers, lowrank, make_mask, psnr, solver
from hsldmm.cli import format_manifest, main, parse_manifest
from hsldmm.hsio import read_cube, read_mask, write_cube, write_mask


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- manifest ----------------------------------------------------------


def test_manifest_roundtrip_lossless():
    entries = {
        "k": 20,
        "gmres_tol": 1e-06,
        "lambda_rel": 100.0,
        "init": "apg",
        "psnr_inf": math.inf,
        "secs": 0.12345678901234567,
    }
    text = format_manifest(entries)
    assert text.splitlines() == sorted(text.splitlines())
    back = parse_manifest(text)
    assert back == entries
    assert format_manifest(back) == text


def test_manifest_rejects_newlines():
    with pytest.raises(ValueError):
        format_manifest({"a": "x\ny"})


# --- synth ------------------------------------------------------------------


def test_synth_writes_valid_deterministic_file(tmp_path, capsys):
    out = tmp_path / "gt.hsc"
    code, stdout, _ = run(
        ["synth", "--m", "32", "--n", "32", "--bands", "8", "--rank", "3",
         "--seed", "1", "-o", str(out)], capsys)
    assert code == 0
    assert "m=32 n=32 B=8" in stdout
    cube = read_cube(out)
    assert cube.dims == (32, 32, 8)
    first = out.read_bytes()
    code, _, _ = run(
        ["synth", "--m", "32", "--n", "32", "--bands", "8", "--rank", "3",
         "--seed", "1", "-o", str(out)], capsys)
    assert code == 0
    assert out.read_bytes() == first


def test_synth_rank_zero_is_usage_error(tmp_path, capsys):
    code, _, err = run(["synth", "--rank", "0", "-o", str(tmp_path / "x.hsc")], capsys)
    assert code == 1


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_synth_non_finite_smoothness_is_usage_error(tmp_path, capsys, value):
    out = tmp_path / "x.hsc"
    code, _, _ = run(["synth", "--smoothness", value, "-o", str(out)], capsys)
    assert code == 1
    assert not out.exists()


# --- corrupt ------------------------------------------------------------------


def make_gt(tmp_path, capsys, m=16, n=16, bands=4, rank=2, seed=1):
    gt = tmp_path / "gt.hsc"
    code, _, _ = run(
        ["synth", "--m", str(m), "--n", str(n), "--bands", str(bands),
         "--rank", str(rank), "--seed", str(seed), "-o", str(gt)], capsys)
    assert code == 0
    return gt


def test_corrupt_full_rate_no_noise_is_identity(tmp_path, capsys):
    gt = make_gt(tmp_path, capsys)
    obs = tmp_path / "obs.hsc"
    code, _, _ = run(
        ["corrupt", str(gt), "--rate", "1.0", "--noise-sigma", "0", "-o", str(obs)], capsys)
    assert code == 0
    assert np.array_equal(read_cube(obs).values, read_cube(gt).values)
    masks = read_mask(tmp_path / "obs.mask.hsc")
    assert masks.masks.all()


def test_corrupt_writes_mask_with_requested_rate(tmp_path, capsys):
    gt = make_gt(tmp_path, capsys)
    obs = tmp_path / "obs.hsc"
    code, stdout, _ = run(
        ["corrupt", str(gt), "--rate", "0.25", "--seed", "3", "-o", str(obs),
         "--mask-out", str(tmp_path / "m.hsc")], capsys)
    assert code == 0
    masks = read_mask(tmp_path / "m.hsc")
    assert np.all(masks.counts() == int(0.25 * 256))
    cube = read_cube(obs)
    assert np.all(cube.values[~masks.masks] == 0.0)


def test_corrupt_bad_rate_is_usage_error(tmp_path, capsys):
    gt = make_gt(tmp_path, capsys)
    code, _, _ = run(["corrupt", str(gt), "--rate", "1.5", "-o", str(tmp_path / "o.hsc")], capsys)
    assert code == 1
    code, _, _ = run(
        ["corrupt", str(gt), "--rate", "0.5", "--noise-sigma", "-1",
         "-o", str(tmp_path / "o.hsc")], capsys)
    assert code == 1


def test_corrupt_rejects_a_rate_that_samples_no_pixel_of_a_band(tmp_path, capsys):
    # floor(0.0005 * 32 * 32) = 0: reconstruct would reject every band
    gt = make_gt(tmp_path, capsys, m=32, n=32)
    obs = tmp_path / "obs.hsc"
    code, out, err = run(["corrupt", str(gt), "--rate", "0.0005", "-o", str(obs)], capsys)
    assert code == 1
    assert out == "" and "0.0005" in err and "1024 pixels" in err
    assert not obs.exists() and not (tmp_path / "obs.mask.hsc").exists()


def test_corrupt_missing_input_is_io_error(tmp_path, capsys):
    code, _, err = run(
        ["corrupt", str(tmp_path / "absent.hsc"), "--rate", "0.5",
         "-o", str(tmp_path / "o.hsc")], capsys)
    assert code == 2


# --- reconstruct ------------------------------------------------------------------


def corrupted(tmp_path, capsys, rate="0.25"):
    gt = make_gt(tmp_path, capsys)
    obs = tmp_path / "obs.hsc"
    code, _, _ = run(["corrupt", str(gt), "--rate", rate, "--seed", "3", "-o", str(obs)], capsys)
    assert code == 0
    return gt, obs, tmp_path / "obs.mask.hsc"


def test_reconstruct_pipeline_with_manifest(tmp_path, capsys):
    gt, obs, mask = corrupted(tmp_path, capsys)
    rec = tmp_path / "rec.hsc"
    code, stdout, _ = run(
        ["reconstruct", str(obs), str(mask), "-o", str(rec), "--ref", str(gt),
         "--outer", "2", "--k", "10", "--r-sigma", "5"], capsys)
    assert code == 0
    assert "psnr_paper=" in stdout
    manifest = parse_manifest((tmp_path / "rec.manifest").read_text())
    assert manifest["k"] == 10
    assert manifest["outer_iters"] == 2
    assert manifest["status"] == "ok"
    assert "iter2_psnr_standard" in manifest
    assert manifest["iter1_nnz"] > 0
    assert manifest["gmres_nonconverged"] == 0
    assert "secs_init" in manifest and "secs_reconstruct" in manifest
    # reconstruction beats the zero-filled observation
    rec_cube = read_cube(rec)
    gt_cube = read_cube(gt)
    obs_cube = read_cube(obs)
    assert (psnr(rec_cube, gt_cube).psnr_paper > psnr(obs_cube, gt_cube).psnr_paper)


def test_reconstruct_manifest_counts_apg_iterations(tmp_path, capsys):
    gt, obs, mask = corrupted(tmp_path, capsys)
    manifests = {}
    for init in ("apg", "zero"):
        rec = tmp_path / f"rec-{init}.hsc"
        code, _, _ = run(
            ["reconstruct", str(obs), str(mask), "-o", str(rec), "--init", init,
             "--outer", "1", "--k", "10", "--r-sigma", "5"], capsys)
        assert code == 0
        manifests[init] = parse_manifest(rec.with_suffix(".manifest").read_text())
    apg = manifests["apg"]
    stage_keys = [f"apg_stage{i}_iters" for i in range(1, ApgConfig().n_stages + 1)]
    assert {key for key in apg if key.startswith("apg_")} == {
        "apg_iters", "apg_nonconverged", "apg_gap", *stage_keys
    }
    # the last stage's relative duality gap; its target is tol
    assert apg["apg_nonconverged"] > 0 or 0.0 <= apg["apg_gap"] <= ApgConfig().tol
    assert all(apg[key] >= 1 for key in stage_keys)
    assert sum(apg[key] for key in stage_keys) == apg["apg_iters"]
    assert not any(key.startswith("apg_") for key in manifests["zero"])


def test_reconstruct_counts_every_apg_stage_on_all_zero_samples(tmp_path, capsys):
    # mu_target is 0 here, so all five stages share one mu; each still
    # converges in one iteration and keeps its own count
    obs, mask, rec = tmp_path / "obs.hsc", tmp_path / "mask.hsc", tmp_path / "rec.hsc"
    write_cube(obs, DataCube(np.zeros((4, 8, 8))))
    write_mask(mask, make_mask((8, 8, 4), 0.25, 3))
    code, _, _ = run(
        ["reconstruct", str(obs), str(mask), "-o", str(rec), "--init", "apg",
         "--outer", "1", "--k", "4", "--r-sigma", "2"], capsys)
    assert code == 0
    manifest = parse_manifest(rec.with_suffix(".manifest").read_text())
    assert all(manifest[f"apg_stage{i}_iters"] == 1 for i in range(1, 6))
    assert manifest["apg_iters"] == 5 and manifest["apg_nonconverged"] == 0
    assert manifest["apg_gap"] == 0.0  # F(X) = 0: X is optimal, no 0/0


def test_reconstruct_failed_apg_keeps_the_finished_stages(tmp_path, capsys, monkeypatch):
    gt, obs, mask = corrupted(tmp_path, capsys)
    stages = []
    apg_stage, svt = lowrank._apg_stage, lowrank.svt

    def counting_stage(*args):
        stages.append(len(stages) + 1)
        return apg_stage(*args)

    def failing_svt(M, tau):
        if stages[-1] == 3:
            raise np.linalg.LinAlgError("eigenvalues did not converge")
        return svt(M, tau)

    monkeypatch.setattr(lowrank, "_apg_stage", counting_stage)
    monkeypatch.setattr(lowrank, "svt", failing_svt)
    rec = tmp_path / "rec.hsc"
    code, _, err = run(["reconstruct", str(obs), str(mask), "-o", str(rec)], capsys)
    assert code == 3 and "numerical failure" in err
    assert not rec.exists()
    manifest = parse_manifest(rec.with_suffix(".manifest").read_text())
    assert manifest["status"] == "failed"
    assert manifest["apg_stage1_iters"] >= 1 and manifest["apg_stage2_iters"] >= 1
    assert "apg_stage3_iters" not in manifest
    assert manifest["apg_iters"] == manifest["apg_stage1_iters"] + manifest["apg_stage2_iters"]


def test_reconstruct_killed_band_worker_exits_3_with_a_failed_manifest(
    tmp_path, capsys, monkeypatch, first_child
):
    gt, obs, mask = corrupted(tmp_path, capsys)
    monkeypatch.setattr(_workers, "_usable_cpus", lambda: 2)
    # workers need the BLAS pin; a numpy without it gets a stand-in
    monkeypatch.setattr(_workers, "_pin", _workers._pin or (lambda threads: 1))
    gmres = solver._gmres

    def dying_gmres(system, x0, cfg):
        if first_child.claim(system.band):  # the band the child takes first
            os.kill(os.getpid(), signal.SIGKILL)
        return gmres(system, x0, cfg)

    monkeypatch.setattr(solver, "_gmres", dying_gmres)
    rec = tmp_path / "rec.hsc"
    code, _, err = run(
        ["reconstruct", str(obs), str(mask), "-o", str(rec), "--init", "zero",
         "--outer", "1", "--k", "10", "--r-sigma", "5"], capsys)
    assert code == 3
    band = first_child.label()
    assert f"numerical failure: iteration 1, band {band}: its worker process was killed by SIGKILL" in err
    assert not rec.exists()
    manifest = parse_manifest(rec.with_suffix(".manifest").read_text())
    assert manifest["status"] == "failed"
    with pytest.raises(ChildProcessError):  # every child was reaped
        os.waitpid(-1, os.WNOHANG)


def test_reconstruct_patch_flag_selects_geometry(tmp_path, capsys):
    gt, obs, mask = corrupted(tmp_path, capsys)
    rec = tmp_path / "rec.hsc"
    code, _, _ = run(
        ["reconstruct", str(obs), str(mask), "-o", str(rec), "--patch", "1x1",
         "--outer", "1", "--k", "10", "--r-sigma", "5", "--init", "zero"], capsys)
    assert code == 0
    manifest = parse_manifest((tmp_path / "rec.manifest").read_text())
    assert manifest["s1"] == 1 and manifest["s2"] == 1


def test_reconstruct_config_file_and_flag_precedence(tmp_path, capsys):
    gt, obs, mask = corrupted(tmp_path, capsys)
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("k=6\nr_sigma=3\nouter_iters=1\n")
    rec = tmp_path / "rec.hsc"
    code, _, _ = run(
        ["reconstruct", str(obs), str(mask), "-o", str(rec), "--config", str(cfgfile),
         "--k", "8", "--r-sigma", "4", "--init", "zero"], capsys)
    assert code == 0
    manifest = parse_manifest((tmp_path / "rec.manifest").read_text())
    assert manifest["k"] == 8       # flag wins
    assert manifest["outer_iters"] == 1  # config wins over default


@pytest.mark.parametrize("flags, config", [
    (["--seed", "1"], None),
    (["--psnr-formula", "standard"], None),
    ([], "seed=0\n"),
    (["--lambda-rel", "nan"], None),
    ([], "lambda_rel=nan\n"),
    (["--patch", "2x"], None),
    (["--patch", "axb"], None),
])
def test_reconstruct_bad_option_is_usage_error_and_writes_nothing(tmp_path, capsys, flags, config):
    gt, obs, mask = corrupted(tmp_path, capsys)
    if config is not None:
        (tmp_path / "run.cfg").write_text(config)
        flags = flags + ["--config", str(tmp_path / "run.cfg")]
    rec = tmp_path / "rec.hsc"
    code, _, err = run(["reconstruct", str(obs), str(mask), "-o", str(rec), *flags], capsys)
    assert code == 1
    if "--patch" in flags:
        text = flags[flags.index("--patch") + 1]
        assert f"hsldmm: patch must look like '2x2', got {text!r}" in err
    assert not rec.exists() and not (tmp_path / "rec.manifest").exists()


@pytest.mark.parametrize("line", [
    "k=4.5", "outer_iters=1.5", "gmres_restart=2.0", "s1=1.0", "k=abc", "lambda_rel=abc",
])
def test_reconstruct_mistyped_config_value_is_usage_error(tmp_path, capsys, line):
    gt, obs, mask = corrupted(tmp_path, capsys)
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(line + "\n")
    rec = tmp_path / "rec.hsc"
    code, _, err = run(
        ["reconstruct", str(obs), str(mask), "-o", str(rec), "--config", str(cfgfile),
         "--init", "zero"], capsys)
    assert code == 1
    assert f"{line.split('=')[0]} must be" in err
    assert not rec.exists() and not (tmp_path / "rec.manifest").exists()


def test_reconstruct_manifest_counts_starved_gmres(tmp_path, capsys):
    gt, obs, mask = corrupted(tmp_path, capsys)
    rec = tmp_path / "rec.hsc"
    with pytest.warns(RuntimeWarning, match="gmres stopped short"):
        code, _, _ = run(
            ["reconstruct", str(obs), str(mask), "-o", str(rec), "--outer", "1",
             "--k", "10", "--r-sigma", "5", "--init", "zero", "--gmres-maxiter", "1"], capsys)
    assert code == 0
    manifest = parse_manifest((tmp_path / "rec.manifest").read_text())
    assert manifest["gmres_max_iters"] == 1
    assert manifest["gmres_nonconverged"] > 0


def test_reconstruct_init_file(tmp_path, capsys):
    gt, obs, mask = corrupted(tmp_path, capsys)
    init = tmp_path / "init.hsc"
    write_cube(init, read_cube(obs))
    rec = tmp_path / "rec.hsc"
    code, _, _ = run(
        ["reconstruct", str(obs), str(mask), "-o", str(rec), "--init", str(init),
         "--outer", "1", "--k", "10", "--r-sigma", "5"], capsys)
    assert code == 0


def test_reconstruct_outer_zero_is_usage_error(tmp_path, capsys):
    gt, obs, mask = corrupted(tmp_path, capsys)
    code, _, _ = run(
        ["reconstruct", str(obs), str(mask), "-o", str(tmp_path / "r.hsc"),
         "--outer", "0"], capsys)
    assert code == 1


def test_reconstruct_dim_mismatch_is_usage_error(tmp_path, capsys):
    gt, obs, mask = corrupted(tmp_path, capsys)
    other = tmp_path / "other.hsc"
    write_cube(other, DataCube(np.zeros((2, 4, 4))))
    code, _, _ = run(
        ["reconstruct", str(other), str(mask), "-o", str(tmp_path / "r.hsc")], capsys)
    assert code == 1


@pytest.mark.parametrize("flags, budget, message", [
    (["--k", "5000"], None, "k=5000 exceeds pixel count 256"),
    (["--patch", "80x2"], None, "need 1 <= s1 <= m"),
    ([], 10, "patch matrix needs"),
], ids=["k", "window", "budget"])
def test_reconstruct_refuses_a_run_that_cannot_go_through_before_apg(
    tmp_path, capsys, monkeypatch, flags, budget, message
):
    # a k, window or patch budget that the run cannot take is refused before
    # the completion starts
    gt, obs, mask = corrupted(tmp_path, capsys)

    def no_apg(*args, **kwargs):
        raise AssertionError("apg_complete called")

    monkeypatch.setattr("hsldmm.cli.apg_complete", no_apg)
    if budget is not None:
        monkeypatch.setattr("hsldmm.patch._MAX_PATCH_BYTES", budget)
    rec = tmp_path / "rec.hsc"
    code, _, err = run(["reconstruct", str(obs), str(mask), "-o", str(rec), *flags], capsys)
    assert code == 1 and err.startswith("hsldmm: ") and message in err
    assert not rec.exists() and not (tmp_path / "rec.manifest").exists()


# --- eval ------------------------------------------------------------------


def test_eval_identical_prints_inf(tmp_path, capsys):
    gt = make_gt(tmp_path, capsys)
    code, stdout, _ = run(["eval", str(gt), str(gt)], capsys)
    assert code == 0
    assert "psnr_paper=inf" in stdout


def test_eval_has_no_formula_flag(tmp_path, capsys):
    gt = make_gt(tmp_path, capsys)
    code, _, _ = run(["eval", str(gt), str(gt), "--psnr-formula", "standard"], capsys)
    assert code == 1


def test_eval_closed_form_and_library_equality(tmp_path, capsys):
    a = tmp_path / "a.hsc"
    b = tmp_path / "b.hsc"
    write_cube(a, DataCube(np.full((1, 4, 4), 1.0)))
    write_cube(b, DataCube(np.full((1, 4, 4), 0.9)))
    code, stdout, _ = run(["eval", str(b), str(a)], capsys)
    assert code == 0
    # the f32 container quantizes 0.9, so 20 dB holds to f32 precision only;
    # the float64 closed form is asserted at the library level
    met = psnr(read_cube(b), read_cube(a))
    assert abs(met.psnr_standard - 20.0) < 1e-5
    assert f"psnr_standard={met.psnr_standard:.6f}" in stdout
    assert f"psnr_paper={met.psnr_paper:.6f}" in stdout
    assert f"mse={met.mse!r}" in stdout


def test_eval_dim_mismatch(tmp_path, capsys):
    a = tmp_path / "a.hsc"
    b = tmp_path / "b.hsc"
    write_cube(a, DataCube(np.ones((1, 4, 4))))
    write_cube(b, DataCube(np.ones((1, 5, 5))))
    code, _, _ = run(["eval", str(a), str(b)], capsys)
    assert code == 1


def test_eval_non_finite_file_is_io_error_naming_it(tmp_path, capsys):
    gt = make_gt(tmp_path, capsys)
    bad = tmp_path / "nan.hsc"
    blob = bytearray(gt.read_bytes())
    blob[-4:] = np.array([np.nan], dtype="<f4").tobytes()
    bad.write_bytes(bytes(blob))
    code, _, err = run(["eval", str(bad), str(gt)], capsys)
    assert code == 2
    assert str(bad) in err and "non-finite" in err


def test_eval_non_utf8_header_is_io_error_naming_it(tmp_path, capsys):
    bad = tmp_path / "bad.hsc"
    bad.write_bytes(b"HSC1\n\xff\xfem=1 n=1 B=1 dtype=f32 order=bsq\n" + bytes(4))
    code, _, err = run(["eval", str(bad), str(bad)], capsys)
    assert code == 2
    assert str(bad) in err and "UTF-8" in err


# --- export-band ------------------------------------------------------------------


def test_export_band_csv_matches(tmp_path, capsys):
    gt = make_gt(tmp_path, capsys)
    out = tmp_path / "band.csv"
    code, _, _ = run(["export-band", str(gt), "--band", "2", "--format", "csv",
                      "-o", str(out)], capsys)
    assert code == 0
    cube = read_cube(gt)
    assert np.allclose(np.loadtxt(out, delimiter=","), cube.band(1))


def test_export_band_pgm(tmp_path, capsys):
    gt = make_gt(tmp_path, capsys)
    out = tmp_path / "band.pgm"
    code, _, _ = run(["export-band", str(gt), "--band", "1", "-o", str(out)], capsys)
    assert code == 0
    assert out.read_bytes().startswith(b"P5\n")


def test_export_band_out_of_range(tmp_path, capsys):
    gt = make_gt(tmp_path, capsys)  # 4 bands
    code, _, _ = run(["export-band", str(gt), "--band", "5", "-o",
                      str(tmp_path / "x.pgm")], capsys)
    assert code == 1


# --- selfcheck / usage ------------------------------------------------------------


def test_selfcheck_exits_zero(capsys):
    code, stdout, _ = run(["selfcheck"], capsys)
    assert code == 0
    assert "FAIL" not in stdout


@pytest.mark.parametrize("command, status", [("selfcheck", 0), ("frobnicate", 1)])
def test_python_m_hsldmm_exits_with_the_cli_status(command, status):
    src = Path(hsldmm.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-m", "hsldmm", command],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == status
    if status == 0:
        assert done.stdout.count("PASS") == 7 and "FAIL" not in done.stdout


def test_unknown_subcommand_is_usage_error(capsys):
    code, _, _ = run(["frobnicate"], capsys)
    assert code == 1


def test_help_exits_zero(capsys):
    code, _, _ = run(["--help"], capsys)
    assert code == 0
