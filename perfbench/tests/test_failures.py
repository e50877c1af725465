"""Failure accounting: a failed operation lowers ok_rate and marks the run
incorrect instead of crashing it."""

import collections

import run
from workloads import HallMidpoint, Outcome


def test_stalled_midpoint_step_counts_as_failed():
    # at 32x32 and dt = 1e-3 the damped fixed point stalls and raises
    # FixedPointFailure
    wl = HallMidpoint(n=32, dt=1e-3, steps=1, families=("uxn",))
    ctx = wl.setup(0, lambda fn: fn)
    wl.prepare(ctx)
    out = Outcome()
    wl.solve(ctx, out, collections.Counter())
    assert out.attempted == 1
    assert out.failed == 1
    assert "FixedPointFailure" in out.failures[0]
    rep = {"segments": [["w", "setup", 1.0, 1.0], ["w", "solve", 1.0, 1.0]],
           "peak_rss_mb": 1.0,
           "attempted": out.attempted, "failed": out.failed,
           "iterations": out.iterations()}
    ok = dict(rep, failed=0)
    assert run.end_to_end([rep])["ok_rate"]["value"] == 0.0
    assert run.end_to_end([rep, ok])["ok_rate"]["value"] == 0.5


def test_differing_iteration_counts_are_a_failure():
    a = {"segments": [], "iterations": {"solver_its": 3}}
    b = {"segments": [], "iterations": {"solver_its": 4}}
    assert run.consistency_failures([a, a]) == []
    assert len(run.consistency_failures([a, b])) == 1
    assert len(run.consistency_failures([a, {"attempted": 1}])) == 1
