"""Scaling of phase times by the host-speed probe, and how a run adds up
the phase times."""

import pytest

import run
from probe import REFERENCE_S, scaled


def test_scaled_follows_the_probe():
    assert scaled(3.0, REFERENCE_S, REFERENCE_S) == pytest.approx(3.0)
    # a host running at half speed doubles both the phase and the probe
    assert scaled(6.0, 2 * REFERENCE_S, 2 * REFERENCE_S) == pytest.approx(3.0)
    assert scaled(3.0, REFERENCE_S, 2 * REFERENCE_S) == pytest.approx(2.0)


def test_times_sum_the_median_of_each_part_phase():
    def rep(a, b):
        return {"segments": [["a", "setup", 0, 1.0], ["a", "solve", 0, a],
                             ["b", "setup", 0, 2.0], ["b", "solve", 0, b]]}
    reps = [rep(1.0, 10.0), rep(5.0, 30.0), rep(3.0, 20.0)]
    assert run._phase_times(reps) == (3.0, 23.0)
