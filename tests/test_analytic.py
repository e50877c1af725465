import numpy as np
import pytest
import sympy as sym

from mhdkit.models import analytic
from mhdkit.models.analytic import X, hartmann_solution, standard_mhd_forcing


def test_forcing_rejects_velocity_that_is_not_divergence_free():
    zero, one = sym.Integer(0), sym.Integer(1)
    with pytest.raises(ValueError, match="velocity must be divergence-free"):
        standard_mhd_forcing((X, zero), zero, zero, (zero, one),
                             Re=1, Rem=1, S=1)


def test_hartmann_matches_simplified_expressions(monkeypatch):
    # the references are lambdified without sym.simplify; the simplified
    # expressions, built here only, take the same values at 64 points
    x, y = np.meshgrid(np.linspace(-0.49, 0.49, 8),
                       np.linspace(-0.47, 0.47, 8))
    plain = hartmann_solution(1, 1, 1)
    lamb = analytic._lamb
    monkeypatch.setattr(analytic, "_lamb",
                        lambda expr: lamb(sym.simplify(expr)))
    simplified = hartmann_solution(1, 1, 1)
    for kind in ("fields", "forcing"):
        ref_fns = getattr(simplified, kind)
        for name, fn in getattr(plain, kind).items():
            ref = ref_fns[name](x, y)
            # g_E vanishes for the exact Hartmann profile
            scale = max(np.abs(ref).max(), 1.0)
            assert np.abs(fn(x, y) - ref).max() <= 1e-12 * scale, name
