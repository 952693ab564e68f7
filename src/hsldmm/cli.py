"""Command-line surface: synthesize, convert, corrupt, reconstruct, evaluate, export.

Exit codes: 0 success, 1 usage error, 2 I/O error, 3 numerical failure.
Every command is deterministic given its flags.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .datacube import DataCube, add_gaussian_noise, apply_mask, make_mask, psnr
from .hsio import (
    DTYPES,
    FormatError,
    export_band_csv,
    export_band_pgm,
    read_cube,
    read_mask,
    read_raw_cube,
    write_cube,
    write_mask,
)
from .lowrank import ApgConfig, apg_complete
from .oracle import SyntheticSpec, selfcheck, synth_cube
from .solver import NumericalError, RunLog, SolverConfig, _check_inputs, ldmm_reconstruct

__all__ = ["main", "format_manifest", "parse_manifest"]

USAGE_ERROR = 1
IO_ERROR = 2
NUMERICAL_ERROR = 3

CONFIG_KEYS = tuple(f.name for f in dataclasses.fields(SolverConfig))


def format_manifest(entries: dict) -> str:
    """Sorted key=value lines; floats via repr so they reparse exactly."""
    lines = []
    for key in sorted(entries):
        val = entries[key]
        text = repr(val) if isinstance(val, float) else str(val)
        if "\n" in text or "=" in key:
            raise ValueError(f"manifest entry {key!r} not representable")
        lines.append(f"{key}={text}")
    return "\n".join(lines) + "\n"


def parse_manifest(text: str) -> dict:
    out: dict = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"manifest line without '=': {line!r}")
        key, val = line.split("=", 1)
        out[key] = _coerce(val)
    return out


def _coerce(val: str):
    try:
        return int(val)
    except ValueError:
        pass
    try:
        return float(val)
    except ValueError:
        pass
    return val


class _Parser(argparse.ArgumentParser):
    # usage problems must exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


def _parse_patch(text: str) -> tuple[int, int]:
    parts = text.lower().split("x")
    try:
        if len(parts) == 2:
            return int(parts[0]), int(parts[1])
    except ValueError:
        pass
    raise ValueError(f"patch must look like '2x2', got {text!r}")


def _load_config_file(path: Path) -> dict:
    entries = parse_manifest(path.read_text())
    unknown = set(entries) - set(CONFIG_KEYS)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    return entries


def _solver_config(args) -> SolverConfig:
    """Precedence: explicit flags > config file > defaults."""
    merged: dict = {}
    if args.config is not None:
        merged.update(_load_config_file(Path(args.config)))
    if args.patch is not None:
        merged["s1"], merged["s2"] = _parse_patch(args.patch)
    for key in CONFIG_KEYS:
        val = getattr(args, key, None)  # s1 and s2 have no flags of their own
        if val is not None:
            merged[key] = val
    return SolverConfig(**merged)


def _fmt_db(value: float) -> str:
    return f"{value:.6f}"


def cmd_synth(args) -> int:
    spec = SyntheticSpec(
        m=args.m, n=args.n, B=args.bands, rank=args.rank,
        smoothness=args.smoothness, seed=args.seed,
    )
    cube = synth_cube(spec)
    write_cube(args.output, cube)
    print(f"m={cube.m} n={cube.n} B={cube.B} rank={args.rank} output={args.output}")
    return 0


def cmd_convert(args) -> int:
    cube = read_raw_cube(args.input, args.m, args.n, args.bands, args.dtype)
    if args.normalize:
        lo, hi = cube.values.min(), cube.values.max()
        scaled = cube.values - lo
        if hi > lo:  # a constant cube maps to all zeros
            scaled /= hi - lo
        cube = DataCube(scaled)
    write_cube(args.output, cube)
    print(f"m={cube.m} n={cube.n} B={cube.B} output={args.output}")
    return 0


def cmd_corrupt(args) -> int:
    cube = read_cube(args.input)
    # noise first, then subsampling: observed voxels carry noise
    noisy = add_gaussian_noise(cube, args.noise_sigma, args.seed)
    masks = make_mask(cube.dims, args.rate, args.seed + 1)
    if masks.counts().min() == 0:  # reconstruct needs a sampled pixel in every band
        raise ValueError(
            f"rate {args.rate!r} samples no pixel of a band of {cube.m * cube.n} pixels"
        )
    observed = apply_mask(noisy, masks)
    mask_path = args.mask_out or _default_mask_path(args.output)
    write_cube(args.output, observed)
    write_mask(mask_path, masks)
    print(
        f"rate={args.rate!r} noise_sigma={args.noise_sigma!r} "
        f"sampled_per_band={int(masks.counts()[0])} output={args.output} mask={mask_path}"
    )
    return 0


def _default_mask_path(output) -> str:
    p = Path(output)
    return str(p.with_name(p.stem + ".mask" + (p.suffix or ".hsc")))


def cmd_reconstruct(args) -> int:
    t_start = time.perf_counter()
    stamp_start = datetime.now(timezone.utc).isoformat()
    data = read_cube(args.data)
    masks = read_mask(args.mask)
    cfg = _solver_config(args)
    ref = read_cube(args.ref) if args.ref else None
    _check_inputs(data, masks, cfg, ref)  # before APG, which can take minutes

    manifest: dict = {
        "command": "reconstruct",
        "input": str(args.data),
        "mask": str(args.mask),
        "output": str(args.output),
        "ref": str(args.ref) if args.ref else "",
        "init": args.init,
        "timestamp_start": stamp_start,
    }
    manifest.update(dataclasses.asdict(cfg))

    manifest_path = args.manifest or str(Path(args.output).with_suffix(".manifest"))
    log = RunLog()
    try:
        t0 = time.perf_counter()
        if args.init == "apg":
            u0 = apg_complete(data, masks, ApgConfig(), log)
        elif args.init == "zero":
            u0 = apply_mask(data, masks)
        else:
            u0 = read_cube(args.init)
        manifest["secs_init"] = time.perf_counter() - t0
        if ref is not None and args.init != "zero":
            met0 = psnr(u0, ref)
            manifest["init_psnr_paper"] = met0.psnr_paper
            manifest["init_psnr_standard"] = met0.psnr_standard
        t0 = time.perf_counter()
        result = ldmm_reconstruct(data, masks, cfg, u0, ref=ref, log=log)
        manifest["secs_reconstruct"] = time.perf_counter() - t0
    except (NumericalError, np.linalg.LinAlgError):
        # keep what we have for post-mortem, then report the failure
        manifest["status"] = "failed"
        manifest.update(log.summary())
        Path(manifest_path).write_text(format_manifest(manifest))
        raise
    write_cube(args.output, result)
    manifest["status"] = "ok"
    manifest["secs_total"] = time.perf_counter() - t_start
    manifest["timestamp_end"] = datetime.now(timezone.utc).isoformat()
    manifest.update(log.summary())
    Path(manifest_path).write_text(format_manifest(manifest))
    if ref is not None:
        met = psnr(result, ref)
        print(f"psnr_paper={_fmt_db(met.psnr_paper)} psnr_standard={_fmt_db(met.psnr_standard)}")
    print(f"output={args.output} manifest={manifest_path}")
    return 0


def cmd_eval(args) -> int:
    candidate = read_cube(args.candidate)
    reference = read_cube(args.reference)
    met = psnr(candidate, reference)
    print(f"mse={met.mse!r}")
    print(f"psnr_paper={_fmt_db(met.psnr_paper)}")
    print(f"psnr_standard={_fmt_db(met.psnr_standard)}")
    return 0


def cmd_export_band(args) -> int:
    cube = read_cube(args.input)
    if not 1 <= args.band <= cube.B:
        raise ValueError(f"band must be in [1, {cube.B}], got {args.band}")
    if args.format == "pgm":
        export_band_pgm(args.output, cube, args.band - 1)
    else:
        export_band_csv(args.output, cube, args.band - 1)
    print(f"band={args.band} format={args.format} output={args.output}")
    return 0


def cmd_selfcheck(args) -> int:
    return 0 if selfcheck() else NUMERICAL_ERROR


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hsldmm", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="write a synthetic low-rank cube")
    p.add_argument("--m", type=int, default=32)
    p.add_argument("--n", type=int, default=32)
    p.add_argument("--bands", type=int, default=8)
    p.add_argument("--rank", type=int, default=3)
    p.add_argument("--smoothness", type=float, default=3.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("convert", help="write a headerless band-sequential file as an HSC cube")
    p.add_argument("input")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--bands", type=int, required=True)
    p.add_argument("--dtype", choices=sorted(DTYPES), default="f32",
                   help="little-endian element type of the input")
    p.add_argument("--normalize", action="store_true",
                   help="min-max scale the cube into [0, 1]")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("corrupt", help="add noise, then subsample")
    p.add_argument("input")
    p.add_argument("--rate", type=float, required=True)
    p.add_argument("--noise-sigma", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--mask-out", default=None)
    p.set_defaults(func=cmd_corrupt)

    p = sub.add_parser("reconstruct", help="initialize and run the manifold loop")
    p.add_argument("data")
    p.add_argument("mask")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--manifest", default=None)
    p.add_argument("--init", default="apg", help="'apg', 'zero', or a cube file path")
    p.add_argument("--ref", default=None, help="ground-truth cube for PSNR logging")
    p.add_argument("--config", default=None, help="key=value config file")
    p.add_argument("--patch", default=None, help="spatial patch size, e.g. 2x2")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--r-sigma", dest="r_sigma", type=int, default=None)
    p.add_argument("--lambda-rel", dest="lambda_rel", type=float, default=None)
    p.add_argument("--outer", dest="outer_iters", type=int, default=None)
    p.add_argument("--gmres-tol", dest="gmres_tol", type=float, default=None)
    p.add_argument("--gmres-restart", dest="gmres_restart", type=int, default=None)
    p.add_argument("--gmres-maxiter", dest="gmres_max_iters", type=int, default=None)
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("eval", help="print MSE and both PSNR variants")
    p.add_argument("candidate")
    p.add_argument("reference")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("export-band", help="write one band as PGM or CSV")
    p.add_argument("input")
    p.add_argument("--band", type=int, required=True, help="1-based band index")
    p.add_argument("--format", choices=("pgm", "csv"), default="pgm")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_export_band)

    p = sub.add_parser("selfcheck", help="run the built-in oracle battery")
    p.set_defaults(func=cmd_selfcheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else int(exc.code)
    try:
        return args.func(args)
    except FormatError as exc:
        print(f"hsldmm: file format error: {exc}", file=sys.stderr)
        return IO_ERROR
    except OSError as exc:
        print(f"hsldmm: i/o error: {exc}", file=sys.stderr)
        return IO_ERROR
    except (NumericalError, np.linalg.LinAlgError, ArithmeticError) as exc:
        print(f"hsldmm: numerical failure: {exc}", file=sys.stderr)
        return NUMERICAL_ERROR
    except ValueError as exc:
        print(f"hsldmm: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
