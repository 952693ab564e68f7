#!/usr/bin/env python3
"""Reconstruction benchmark for hsldmm.

Runs a seeded workload in-process through the library path that
``hsldmm reconstruct`` takes: read the observed cube and mask (HSC), build
the initial cube (APG completion or zero fill), run ``ldmm_reconstruct``,
write the result (HSC). The loop is closed: one reconstruction at a time,
from one process, with BLAS threads capped at the CPUs this process may use.

    python3 perfbench/run.py --workload noisy-bands96 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py            # every workload, each in a fresh process,
                                        # then a traced run of each

With ``--trace 0`` the reported metrics are the end-to-end ones; with
``--trace 1`` the run alternates untraced and traced reconstructions and
reports per-layer numbers (see ``layers.py``) plus ``trace.overhead_s``.
The last line of standard output is one JSON object; a fuller record with
the environment goes to ``perfbench/results/``.
"""

from __future__ import annotations

import os

# must precede the first numpy import, or the BLAS pool is already sized
NPROC = len(os.sched_getaffinity(0))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(NPROC)

import argparse
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import warnings
from dataclasses import asdict, dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

_t_import = time.perf_counter()
sys.path.insert(0, str(SRC))
import numpy as np  # noqa: E402
import scipy  # noqa: E402

import hsldmm  # noqa: E402
from hsldmm import datacube, hsio, lowrank, oracle, solver  # noqa: E402

IMPORT_S = time.perf_counter() - _t_import

sys.path.insert(0, str(BENCH_DIR))
from layers import LAYER_METRICS, Tracer  # noqa: E402

SETUP_REPS = 3

# The ground-truth scene is fixed, like a dataset; the run seed draws the
# noise and the sampling masks. Scenes differ far more than masks do
# (clean-patch2's standard PSNR spans 17-23 dB over scenes 0-3), and on
# scenes 0 and 2 the PSNR of clean-patch2 also moves 6% from mask to mask,
# against 1.6% on scene 1: too wide for a quality bound that means anything.
SCENE_SEED = 1


@dataclass(frozen=True)
class Workload:
    """One input family and the settings the reconstruction uses.

    ``psnr_floor_db`` is the correctness floor on the standard PSNR of the
    output against the noise-free ground truth.
    """

    m: int
    n: int
    bands: int
    rate: float
    noise_sigma: float
    patch: int
    lambda_rel: float
    init: str
    psnr_floor_db: float
    rank: int = 3
    outer_iters: int = 3


WORKLOADS = {
    # Noise-free protocol with 2x2 patches: the patch graph is the heavy
    # part (Gram GEMM with d = 4B over N = m*n rows, shift-sum over 4 shifts).
    "clean-patch2": Workload(80, 80, 32, 0.05, 0.0, 2, 100.0, "apg", 15.0),
    # Noisy protocol near the in-scope band count with 1x1 patches: the
    # per-band GMRES solves and APG dominate, kNN is small.
    "noisy-bands96": Workload(48, 48, 96, 0.10, 0.05, 1, 1.0, "apg", 24.0),
    # Zero-filled init: most patch rows are all-zero duplicates, which sends
    # them through the per-row tie fallback in the kNN selection; lowrank is
    # skipped entirely and there are few band solves.
    "zero-init-ties": Workload(64, 64, 8, 0.10, 0.0, 1, 100.0, "zero", 4.0),
}

END_TO_END_UNITS = {
    "reconstruct_s": "s",
    "voxels_per_s": "1/s",
    "psnr_standard_db": "dB",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
    "ok_frac": "ratio",
}
TRACE_UNITS = {name: unit for name, (unit, _) in LAYER_METRICS.items()}
TRACE_UNITS["trace.overhead_s"] = "s"
TRACE_UNITS["trace.missing_metrics"] = "count"


def make_inputs(wl: Workload, seed: int, workdir: Path) -> tuple[dict, datacube.DataCube]:
    """Ground truth, then noise, then the sampling mask, as ``hsldmm corrupt``
    does; the observed cube and mask are written as HSC files."""
    spec = oracle.SyntheticSpec(wl.m, wl.n, wl.bands, wl.rank, seed=SCENE_SEED)
    truth = oracle.synth_cube(spec)
    noisy = datacube.add_gaussian_noise(truth, wl.noise_sigma, seed + 10_000)
    masks = datacube.make_mask(truth.dims, wl.rate, seed + 20_000)
    paths = {name: workdir / f"{name}.hsc" for name in ("data", "mask", "out")}
    hsio.write_cube(paths["data"], datacube.apply_mask(noisy, masks))
    hsio.write_mask(paths["mask"], masks)
    return paths, truth


def reconstruct(wl: Workload, cfg: solver.SolverConfig, paths: dict) -> tuple:
    """One reconstruction. Layer functions are looked up on their modules at
    call time so that the tracer's wrappers are seen. Returns the result,
    the band-solve log and the number of APG stages that warned."""
    data = hsio.read_cube(paths["data"])
    masks = hsio.read_mask(paths["mask"])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RuntimeWarning)
        if wl.init == "apg":
            u0 = lowrank.apg_complete(data, masks, lowrank.ApgConfig())
        else:
            u0 = datacube.apply_mask(data, masks)
    apg_failed = sum(
        issubclass(w.category, RuntimeWarning) and str(w.message).startswith("completion stage")
        for w in caught
    )
    log = solver.RunLog()
    result = solver.ldmm_reconstruct(data, masks, cfg, u0, log=log)
    hsio.write_cube(paths["out"], result)
    return result, log, apg_failed


class Tally:
    """Reconstructions and the operations inside them, attempted and failed.

    A run (one reconstruction) fails when it raises or its output fails the
    check; a failed run is counted, never dropped. The operations are the
    runs, the band solves and the APG stages: a band solve fails when its
    log entry is not converged, an APG stage when it warns.
    """

    def __init__(self, wl: Workload, truth: datacube.DataCube):
        self.wl = wl
        self.truth = truth
        self.runs = self.failed_runs = 0
        self.ops = self.failed_ops = 0
        self.psnr_db: float | None = None
        self.digest: str | None = None
        self.errors: list = []

    def run(self, cfg: solver.SolverConfig, paths: dict) -> tuple[float, int]:
        """Time one reconstruction, check it, and tally. Returns (seconds,
        APG stages that warned)."""
        self.runs += 1
        self.ops += 1 + (lowrank.ApgConfig().n_stages if self.wl.init == "apg" else 0)
        t0 = time.perf_counter()
        try:
            result, log, apg_failed = reconstruct(self.wl, cfg, paths)
        except (solver.NumericalError, np.linalg.LinAlgError, ValueError) as exc:
            self._fail(f"{type(exc).__name__}: {exc}")
            return time.perf_counter() - t0, 0
        secs = time.perf_counter() - t0
        self.ops += len(log.bands)
        self.failed_ops += apg_failed + sum(not rec["converged"] for rec in log.bands)
        problem = self._check(result, paths)
        if problem:
            self._fail(problem)
        return secs, apg_failed

    def _fail(self, why: str) -> None:
        self.failed_runs += 1
        self.failed_ops += 1
        self.errors.append(why)

    def _check(self, result: datacube.DataCube, paths: dict) -> str | None:
        written = hsio.read_cube(paths["out"])
        if result.dims != self.truth.dims or written.dims != self.truth.dims:
            return f"output dims {result.dims}/{written.dims} != input dims {self.truth.dims}"
        if not (np.all(np.isfinite(result.values)) and np.all(np.isfinite(written.values))):
            return "output is not finite"
        db = datacube.psnr(result, self.truth, "standard").psnr_standard
        digest = hashlib.sha256(result.values.tobytes()).hexdigest()
        if self.digest is None:
            self.psnr_db, self.digest = db, digest
        elif digest != self.digest or db != self.psnr_db:
            return f"output differs between runs of one seed (psnr {db!r} vs {self.psnr_db!r})"
        if db < self.wl.psnr_floor_db:
            return f"psnr_standard {db:.3f} dB below floor {self.wl.psnr_floor_db} dB"
        return None


def solver_config(wl: Workload, **overrides) -> solver.SolverConfig:
    return solver.SolverConfig(
        s1=wl.patch, s2=wl.patch, lambda_rel=wl.lambda_rel, outer_iters=wl.outer_iters,
        **overrides,
    )


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 wl: Workload | None = None, **solver_overrides) -> dict:
    """Set up, then reconstruct repeatedly for ``seconds`` (at least once;
    traced runs alternate untraced and traced) and report medians."""
    wl = wl or WORKLOADS[name]
    cfg = solver_config(wl, **solver_overrides)
    work_root = BENCH_DIR / ".work"
    work_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_root) as tmp:
        setup_secs = []
        for _ in range(SETUP_REPS):
            t0 = time.perf_counter()
            paths, truth = make_inputs(wl, seed, Path(tmp))
            setup_secs.append(time.perf_counter() - t0)
        tally = Tally(wl, truth)
        untraced, traced, layers = [], [], []
        t_start = time.perf_counter()
        if trace:
            # the first reconstruction in a process is the slowest; keep it
            # out of the traced/untraced comparison
            tally.run(cfg, paths)
        # stop before a repetition that would overrun the budget; always one
        while True:
            t_rep = time.perf_counter()
            untraced.append(tally.run(cfg, paths)[0])
            if trace:
                with Tracer() as tracer:
                    secs, apg_failed = tally.run(cfg, paths)
                traced.append(secs)
                layers.append(tracer.layer_metrics(apg_failed))
            now = time.perf_counter()
            if now - t_start + (now - t_rep) > seconds:
                break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    reconstruct_s = statistics.median(untraced)
    if trace:
        metrics = {
            key: _median_or_none([rec[key] for rec in layers]) for key in LAYER_METRICS
        }
        metrics["trace.overhead_s"] = statistics.median(traced) - reconstruct_s
        missing = sorted(key for key, val in metrics.items() if val is None)
        metrics["trace.missing_metrics"] = len(missing)
        units = TRACE_UNITS
    else:
        metrics = {
            "reconstruct_s": reconstruct_s,
            "voxels_per_s": wl.m * wl.n * wl.bands / reconstruct_s,
            "psnr_standard_db": tally.psnr_db,
            "peak_rss_mb": peak_rss_mb,
            "setup_s": IMPORT_S + statistics.median(setup_secs),
            "ok_frac": 1.0 - tally.failed_ops / tally.ops,
        }
        missing = []
        units = END_TO_END_UNITS
    return {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "params": asdict(wl),
        "correct": tally.failed_runs == 0,
        "attempted": tally.runs,
        "failed": tally.failed_runs,
        "ops_attempted": tally.ops,
        "ops_failed": tally.failed_ops,
        "errors": tally.errors,
        "missing": missing,
        "metrics": {key: {"value": val, "unit": units[key]} for key, val in metrics.items()},
        "samples": {"reconstruct_s": untraced, "traced_reconstruct_s": traced,
                    "setup_s": setup_secs, "import_s": IMPORT_S},
        "env": environment(seed),
    }


def _median_or_none(values):
    return None if any(v is None for v in values) else statistics.median_low(values)


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": NPROC,
        "cpu": _cpu_model(),
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "seed": seed,
    }


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    """HEAD of the repository this checkout is the root of, if it is one."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "hsldmm").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def summary_line(record: dict) -> dict:
    """The summary the last output line carries. Values must be numbers, so a
    missing per-layer metric reads 0 here; it is ``null`` and listed under
    ``missing`` in the record file, and ``trace.missing_metrics`` counts it."""
    metrics = {
        key: {"value": 0 if m["value"] is None else m["value"], "unit": m["unit"]}
        for key, m in record["metrics"].items()
    }
    return {key: record[key] for key in ("correct", "attempted", "failed")} | {"metrics": metrics}


def print_record(record: dict) -> None:
    print(f"# workload={record['workload']} seed={record['seed']} trace={record['trace']} "
          f"runs={record['attempted']} failed_runs={record['failed']} "
          f"ops={record['ops_attempted']} failed_ops={record['ops_failed']}")
    for key, m in record["metrics"].items():
        shown = "null" if m["value"] is None else repr(m["value"])
        print(f"{record['workload']} {key} {shown} {m['unit']}")
    if record["missing"]:
        print(f"{record['workload']} missing {' '.join(record['missing'])}")
    for err in record["errors"]:
        print(f"{record['workload']} error {err}")


def run_all(seed: int, seconds: int) -> int:
    """Every workload in its own fresh process, one after another, so peak
    RSS is per workload; then one traced run of each."""
    status = 0
    for trace in (0, 1):
        for name in WORKLOADS:
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            sys.stdout.write("".join(proc.stdout.splitlines(keepends=True)[:-1]))
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                print(f"{name} trace={trace} exited with {proc.returncode}")
                status = 1
    return status


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=sorted(WORKLOADS),
                    help="run one workload in this process (default: all, each in a fresh process)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if Path(hsldmm.__file__).resolve().parent != SRC / "hsldmm":
        print(f"hsldmm imported from {hsldmm.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    if args.workload is None:
        return run_all(args.seed, args.seconds)
    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    results = BENCH_DIR / "results"
    results.mkdir(exist_ok=True)
    out = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print_record(record)
    print(json.dumps(summary_line(record)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
