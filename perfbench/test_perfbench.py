"""Self-test of the benchmark harness: run with

    python3 -m pytest -q perfbench

Uses tiny workloads, so it checks the harness, not the performance.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402
from layers import Tracer  # noqa: E402

import hsldmm.solver  # noqa: E402

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TINY = run.Workload(16, 16, 4, 0.25, 0.0, 1, 100.0, "apg", psnr_floor_db=0.0)


def _units(section):
    return {m["name"]: m["unit"] for m in BENCH[section]}


def test_failure_counters_see_a_starved_gmres():
    # one restart cycle is at least gmres_restart inner steps, so starving
    # GMRES to one step needs both settings
    starve = {"gmres_max_iters": 1, "gmres_restart": 1}
    e2e = run.run_workload("tiny", 1, 0, trace=False, wl=TINY, **starve)
    assert e2e["metrics"]["ok_frac"]["value"] < 1.0
    assert e2e["ops_failed"] > 0
    traced = run.run_workload("tiny", 1, 0, trace=True, wl=TINY, **starve)
    assert traced["metrics"]["solver.gmres_nonconverged"]["value"] > 0


def test_every_benchmark_metric_is_emitted_with_its_unit():
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        record = run.run_workload("tiny", 2, 0, trace=trace, wl=TINY)
        line = run.summary_line(record)
        assert record["correct"] and record["failed"] == 0
        emitted = {name: m["unit"] for name, m in line["metrics"].items()}
        assert emitted == _units(section)
        assert all(isinstance(m["value"], (int, float)) for m in line["metrics"].values())


def test_every_workload_is_declared_once():
    assert [w["name"] for w in BENCH["workloads"]] == list(run.WORKLOADS)


def test_uncalled_or_vanished_layers_read_as_missing(tmp_path):
    zero = run.Workload(16, 16, 4, 0.25, 0.0, 1, 100.0, "zero", psnr_floor_db=0.0)
    record = run.run_workload("tiny-zero", 3, 0, trace=True, wl=zero)
    lowrank = [name for name in record["metrics"] if name.startswith("lowrank.")]
    assert lowrank and set(lowrank) <= set(record["missing"])
    assert all(record["metrics"][name]["value"] is None for name in lowrank)
    assert record["metrics"]["trace.missing_metrics"]["value"] == len(record["missing"])

    gone = tuple(p for p in Tracer().wrap_points if p[2] != "_gmres")
    gone += (("solver.gmres", "hsldmm.solver", "_no_such_entry_point", None),)
    with Tracer(gone) as tracer:
        run.reconstruct(TINY, run.solver_config(TINY), run.make_inputs(TINY, 4, tmp_path)[0])
    metrics = tracer.layer_metrics(0)
    assert metrics["solver.gmres_s"] is None and metrics["solver.gmres_iters"] is None
    assert metrics["graph.knn_s"] > 0


def test_tracer_restores_the_library():
    original = hsldmm.solver.knn_exact
    with Tracer():
        assert hsldmm.solver.knn_exact is not original
    assert hsldmm.solver.knn_exact is original
