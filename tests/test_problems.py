"""A problem's data follow its parameters: `ProblemSpec.set_params`, as a
continuation stage calls it, gives the problem that `make_problem` builds
at the same parameters."""

import numpy as np
import pytest

from mhdkit.problems import DEFAULT_PARAMS, PROBLEM_NAMES, make_problem

# a value off each parameter's default
CHANGED = {"Re": 10.0, "Rem": 10.0, "S": 10.0, "R_H": 0.5, "Ra": 500.0,
           "Pr": 0.5, "Pm": 2.0, "gamma": 100.0, "stab_mu": 1e-3}


def _seeded_state(model):
    st = model.initial_state()
    st.vector[:] = np.random.default_rng(3).standard_normal(st.total)
    return model.apply_state_bcs(st).vector


@pytest.mark.parametrize("name, key", [(name, key) for name in PROBLEM_NAMES
                                       for key in DEFAULT_PARAMS[name]])
def test_continued_problem_equals_a_fresh_one(name, key):
    spec = make_problem(name, levels=0, mesh_base=(4, 4))
    spec.set_params(**{key: CHANGED[key]})
    fresh = make_problem(name, levels=0, mesh_base=(4, 4),
                         params={key: CHANGED[key]})
    model, ref = spec.model, fresh.model
    # the derived S of the island problems included
    assert vars(model.params) == vars(ref.params)
    assert np.array_equal(model.constrained_vals, ref.constrained_vals)
    assert np.array_equal(model._rhs_const, ref._rhs_const)
    x = _seeded_state(ref)
    assert np.array_equal(model.residual(x), ref.residual(x))
    J, Jref = model.jacobian(x), ref.jacobian(x)
    for arr in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(J, arr), getattr(Jref, arr))


def test_set_params_rejects_a_parameter_the_problem_does_not_read():
    spec = make_problem("hartmann", levels=0, mesh_base=(4, 4))
    with pytest.raises(ValueError, match="'hartmann' does not read Ra"):
        spec.set_params(Ra=5.0, Re=2.0)
    assert spec.model.params.Re == 1.0


def test_set_data_keeps_the_constrained_dofs():
    # the Jacobian pattern is built on the constrained dofs
    model = make_problem("ldc2d", levels=0, mesh_base=(4, 4)).model
    with pytest.raises(ValueError, match="constrain other dofs"):
        model.set_data({**model.bcs, "u": (["top"], None)})
