"""Timing wrappers around each layer's entry points, for the traced run.

Every wrap point is patched in the namespace that calls it: ``solver``
imports ``knn_exact`` by name, so the wrapper goes on
``hsldmm.solver.knn_exact``; patching ``hsldmm.graph.knn_exact`` would miss
those calls. The wrappers live only inside ``Tracer`` and are removed on
exit, so untraced runs execute the unmodified library.

A metric whose wrap points are gone or never called reads as missing
(``None``), never as 0: the private points ``_smallest_k`` and ``_gmres``
are expected to disappear in later refactors, and a silent 0 would read
as a speed-up.
"""

from __future__ import annotations

import importlib
import os
import time
from collections import defaultdict

import numpy as np

MIB = float(1 << 20)


def _knn_counts(args, kwargs, result):
    n, d = args[0].shape
    return {
        "graph.knn_gemm_gflop": 2.0 * n * n * d / 1e9,
        # rows identical to an earlier row; zero-filled inits make many
        "graph.dup_patch_rows": n - len(np.unique(np.ascontiguousarray(args[0]), axis=0)),
    }


def _extract_counts(args, kwargs, result):
    n, d = result.shape
    return {"patch.matrix_mb": n * d * 8 / MIB}


def _gmres_counts(args, kwargs, result):
    _, iters, _, converged = result
    return {"solver.gmres_iters": iters, "solver.gmres_nonconverged": int(not converged)}


def _wtilde_counts(args, kwargs, result):
    return {"graph.wtilde_nnz": result.nnz}


def _file_bytes(args, kwargs, result):
    return {"hsio.bytes": os.path.getsize(args[0])}


# (span name, module, attribute, counter function or None)
WRAP_POINTS = (
    ("hsio.read", "hsldmm.hsio", "read_cube", _file_bytes),
    ("hsio.read", "hsldmm.hsio", "read_mask", _file_bytes),
    ("hsio.write", "hsldmm.hsio", "write_cube", _file_bytes),
    ("lowrank.apg", "hsldmm.lowrank", "apg_complete", None),
    ("lowrank.svt", "hsldmm.lowrank", "svt", None),
    ("lowrank.objective", "hsldmm.lowrank", "completion_objective", None),
    ("solver.loop", "hsldmm.solver", "ldmm_reconstruct", None),
    ("patch.extract", "hsldmm.solver", "extract_patches", _extract_counts),
    ("graph.knn", "hsldmm.solver", "knn_exact", _knn_counts),
    ("graph.knn_select", "hsldmm.graph", "_smallest_k", None),
    ("graph.weights", "hsldmm.solver", "local_scale", None),
    ("graph.weights", "hsldmm.solver", "build_bar_w", None),
    ("graph.shiftsum", "hsldmm.solver", "assemble_wtilde", _wtilde_counts),
    ("solver.assemble", "hsldmm.solver", "assemble_band_system", None),
    ("solver.gmres", "hsldmm.solver", "_gmres", _gmres_counts),
    ("solver.energy", "hsldmm.solver", "wnll_energy", None),
)

# every metric a counter function produces, and those that describe a size
# rather than accumulate work
_COUNTED = {
    "graph.knn_gemm_gflop", "graph.dup_patch_rows", "patch.matrix_mb", "graph.wtilde_nnz",
    "solver.gmres_iters", "solver.gmres_nonconverged", "hsio.bytes",
}
_MAX_COUNTERS = {"patch.matrix_mb", "graph.dup_patch_rows", "graph.wtilde_nnz"}

# spans nested directly inside solver.loop; the rest of the loop is its self time
LOOP_CHILDREN = (
    "patch.extract", "graph.knn", "graph.weights", "graph.shiftsum",
    "solver.assemble", "solver.gmres", "solver.energy",
)

# per-layer metric -> (unit, span whose calls make it present)
LAYER_METRICS = {
    "lowrank.apg_s": ("s", "lowrank.apg"),
    "lowrank.svt_s": ("s", "lowrank.svt"),
    "lowrank.svt_calls": ("count", "lowrank.svt"),
    "lowrank.objective_s": ("s", "lowrank.objective"),
    "lowrank.nonconverged_stages": ("count", "lowrank.apg"),
    "patch.extract_s": ("s", "patch.extract"),
    "patch.matrix_mb": ("MiB", "patch.extract"),
    "graph.knn_s": ("s", "graph.knn"),
    "graph.knn_gemm_gflop": ("GFLOP", "graph.knn"),
    "graph.knn_select_s": ("s", "graph.knn_select"),
    "graph.dup_patch_rows": ("count", "graph.knn"),
    "graph.weights_s": ("s", "graph.weights"),
    "graph.shiftsum_s": ("s", "graph.shiftsum"),
    "graph.wtilde_nnz": ("count", "graph.shiftsum"),
    "solver.loop_s": ("s", "solver.loop"),
    "solver.self_s": ("s", "solver.loop"),
    "solver.assemble_s": ("s", "solver.assemble"),
    "solver.gmres_s": ("s", "solver.gmres"),
    "solver.gmres_calls": ("count", "solver.gmres"),
    "solver.gmres_iters": ("count", "solver.gmres"),
    "solver.gmres_nonconverged": ("count", "solver.gmres"),
    "solver.energy_s": ("s", "solver.energy"),
    "hsio.read_s": ("s", "hsio.read"),
    "hsio.write_s": ("s", "hsio.write"),
    "hsio.bytes": ("B", "hsio.read"),
}


class Tracer:
    """Context manager that patches every wrap point and records, per span
    name, the busy seconds and the call count, plus the derived counters.

    Counter functions run outside the clock, and their time is also taken
    out of every enclosing span, so a span's seconds are the layer's own
    work; the cost still shows in the traced run's total.
    """

    def __init__(self, wrap_points=WRAP_POINTS):
        self.wrap_points = wrap_points
        self.secs: dict = defaultdict(float)
        self.calls: dict = defaultdict(int)
        self.counters: dict = defaultdict(int)
        self.uncounted: set = set()
        self._saved: list = []
        self._counting_s = 0.0

    def _wrap(self, span, fn, count):
        def wrapper(*args, **kwargs):
            paused = self._counting_s
            t0 = time.perf_counter()
            result = fn(*args, **kwargs)
            elapsed = time.perf_counter() - t0 - (self._counting_s - paused)
            self.secs[span] += elapsed
            self.calls[span] += 1
            if count is not None:
                t1 = time.perf_counter()
                try:
                    counts = count(args, kwargs, result)
                except (TypeError, ValueError, AttributeError, IndexError, OSError):
                    # the entry point changed shape; its counters read as missing
                    self.uncounted.add(span)
                    counts = {}
                for key, val in counts.items():
                    if key in _MAX_COUNTERS:
                        self.counters[key] = max(self.counters[key], val)
                    else:
                        self.counters[key] += val
                self._counting_s += time.perf_counter() - t1
            return result

        return wrapper

    def __enter__(self):
        for span, module_name, attr, count in self.wrap_points:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(span, fn, count))
        return self

    def __exit__(self, *exc):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()
        return False

    def layer_metrics(self, apg_nonconverged: int) -> dict:
        """Per-layer values; ``None`` where the layer was not seen."""
        raw = {f"{span}_s": s for span, s in self.secs.items()}
        raw.update(self.counters)
        raw["lowrank.svt_calls"] = self.calls["lowrank.svt"]
        raw["lowrank.nonconverged_stages"] = apg_nonconverged
        raw["solver.gmres_calls"] = self.calls["solver.gmres"]
        raw["solver.self_s"] = self.secs["solver.loop"] - sum(
            self.secs[span] for span in LOOP_CHILDREN
        )
        return {
            name: None if not self.calls[span] or (span in self.uncounted and name in _COUNTED)
            else raw.get(name, 0)
            for name, (_, span) in LAYER_METRICS.items()
        }
