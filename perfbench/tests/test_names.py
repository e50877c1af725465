"""The runner prints exactly the workloads and metrics BENCHMARK.json
declares, with the same units."""

import json
import os

import run

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)


def _rep(traced):
    layers = {span: [0.5, 2] for span in run.SELF_TIMES.values()}
    layers.update({"bench.setup": [0.1, 1], "bench.solve": [0.1, 1]})
    return {"segments": [["w", "setup", 1.5, 1.0], ["w", "solve", 3.0, 2.0]],
            "peak_rss_mb": 100.0,
            "attempted": 2, "failed": 0, "time_steps": 3,
            "lu_factor_in_steps": 6, "traced": traced,
            "iterations": {"solver_its": 3, "linear_its": 13,
                           "newton_its": 3, "krylov_its_per_newton": 4.3,
                           "fixed_point_its": 0},
            "layers": layers if traced else None}


def _declared(section):
    return {m["name"]: (m["unit"], m["better"]) for m in BENCH[section]}


def test_workloads_match():
    assert [w["name"] for w in BENCH["workloads"]] == list(run.WORKLOADS)
    import workloads
    assert set(workloads.WORKLOADS) == set(run.WORKLOADS)


def test_end_to_end_metrics_match():
    printed = run.end_to_end([_rep(False)] * 3)
    assert _declared("end_to_end") == run.END_TO_END
    assert {k: v["unit"] for k, v in printed.items()} == {
        k: u for k, (u, _) in run.END_TO_END.items()}


def test_per_layer_metrics_match():
    printed = run.per_layer([_rep(False)] * 2, [_rep(True)] * 2)
    assert _declared("per_layer") == run.PER_LAYER
    assert {k: v["unit"] for k, v in printed.items()} == {
        k: u for k, (u, _) in run.PER_LAYER.items()}
    assert printed["linalg.lu_factor_per_step"]["value"] == 2.0
    assert printed["tracing_overhead_s"]["value"] == 0.0
