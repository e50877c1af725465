"""Linear-stability analysis of the anisothermal model (growth rates,
critical Rayleigh/coupling numbers as generalized eigenvalues) and the
deflated-continuation driver producing branch records."""

import logging

import numpy as np

from .elements import interpolate, l2_project
from .linalg import shift_invert_arnoldi
from .nonlinear import (NonlinearConfig, solve_nonlinear, DeflationOperator,
                        deflated_solve)
from .models.analytic import conduction_state

log = logging.getLogger(__name__)


class BranchRecord:
    def __init__(self, branch, param, functionals, eigenvalues=None,
                 stable=None, state=None):
        self.branch = branch
        self.param = param
        self.u_norm2 = functionals["u_norm2"]
        self.theta_norm2 = functionals["theta_norm2"]
        self.B_norm2 = functionals["B_norm2"]
        self.eigenvalues = eigenvalues
        self.stable = stable
        self.state = state

    def csv_row(self):
        lam = self.eigenvalues
        mre = f"{lam[0].real:.6e}" if lam is not None and len(lam) else ""
        imc = f"{lam[0].imag:.6e}" if lam is not None and len(lam) else ""
        stab = "" if self.stable is None else str(self.stable).lower()
        return (f"{self.branch},{self.param},{self.u_norm2:.8e},"
                f"{self.theta_norm2:.8e},{self.B_norm2:.8e},{mre},{imc},"
                f"{stab}")

    CSV_HEADER = ("branch,param,u_norm2,theta_norm2,B_norm2,max_re_lambda,"
                  "im_at_crossing,stable")


class SweepConfig:
    def __init__(self, parameter, start, stop, step, max_deflated=4):
        if step <= 0:
            raise ValueError("step must be positive")
        if start == stop:
            raise ValueError("empty sweep range")
        self.parameter = parameter
        self.start = float(start)
        self.stop = float(stop)
        self.step = float(step)
        self.max_deflated = max_deflated

    def values(self):
        sgn = 1.0 if self.stop >= self.start else -1.0
        n = int(round(abs(self.stop - self.start) / self.step))
        return [self.start + sgn * self.step * i for i in range(n + 1)]


def conduction_state_vector(model):
    """Interpolated conduction state, an exact discrete root for the
    H(div) x L2 discretisation (the quadratic pressure is L2-projected onto
    the discontinuous pressure space and shifted to honour the pin)."""
    pr = model.params
    cs = conduction_state(pr.Ra, pr.Pr)
    st = model.initial_state()
    st.set_field("theta", interpolate(model.spaces["theta"],
                                      cs.fields["theta"], 8))
    st.set_field("B", interpolate(model.spaces["B"], cs.fields["B"], 8))
    p = l2_project(model.spaces["p"], cs.fields["p"]).coefficients
    st.set_field("p", p - p[0])
    return st


def _free_indices(model):
    return np.setdiff1d(np.arange(model.state_template.total),
                        model.constrained_idx)


def _free_block(A, free):
    """The rows and columns `free` of A, as CSR."""
    return A[free][:, free].tocsr()


def _field_mask(model, free, name):
    """Which of the free dofs `free` belong to the field `name`."""
    s = model.state_template.field_slice(name)
    return (free >= s.start) & (free < s.stop)


def _free_operator(model, vec, free, **drop):
    """The free-dof block of the Newton Jacobian at `vec`, without the
    grad-div term gamma (div u, div v) and the terms `drop` names."""
    return _free_block(
        model.jacobian(vec, "newton", drop_graddiv=True, **drop), free)


def stability_eigs(model, state_vec, k=6):
    """Leading eigenvalues of the linearised time evolution -J x = lambda M x
    with the singular mass (u, theta, B rows only): the k pairs nearest 0 by
    shift-invert Arnoldi, sorted by decreasing real part.

    J is taken at gamma = 0, which moves no eigenpair: M has no pressure
    rows, so an eigenvector's velocity passes every continuity test, and as
    div BDM2 lies in DG1 (the no-flux wall stands in for the pinned test)
    it is divergence-free and the grad-div term vanishes on it.  The
    operator is far better conditioned without it."""
    free = _free_indices(model)
    Af = -_free_operator(model, state_vec, free)
    Mf = _free_block(model.mass_matrix(), free)
    res = shift_invert_arnoldi(Af, Mf, k=k, tol=1e-6)
    order = np.argsort(-res.values.real, kind="stable")
    return res.values[order], res.vectors[:, order], free


def stability_tag(eigenvalues, tol=1e-7):
    if len(eigenvalues) == 0:
        return "stable"
    lam = eigenvalues[0]
    if lam.real <= tol:
        return "stable"
    return ("unstable-oscillatory" if abs(lam.imag) > 1e-6
            else "unstable-steady")


def critical_parameter(model, which="Ra_c", count=2):
    """Smallest positive critical values of Ra (buoyancy moved to the
    right-hand side) or S (Lorentz coupling moved to the right-hand side),
    linearised at the conduction state, plus the eigenmodes.

    Both operators are taken at gamma = 0, which moves no eigenpair: the
    right-hand side has no pressure rows either, so the argument of
    `stability_eigs` holds.  ARPACK then takes fewer steps, in a count
    that round-off does not move.

    The Ra_c operator also drops its (u, E) Lorentz block, which moves no
    eigenpair: M has only u rows, so each solve's B rows read (vcurl E, C) +
    (1/Rem)(div B, div C) = 0, and with E zero on the whole boundary C =
    vcurl E gives E = 0.  `LuSolver` then factorises (u, p), theta and
    (E, B) one at a time."""
    if count < 1:
        raise ValueError(f"count must be at least 1, got {count}")
    st = conduction_state_vector(model)
    free = _free_indices(model)
    pr = model.params
    if which == "Ra_c":
        if model.bc_markers["E"] != "all":
            raise ValueError("the Ra_c operator drops its (u, E) block, "
                             "which needs E constrained on the whole "
                             "boundary (markers 'all'), got "
                             f"{model.bc_markers['E']!r}")
        if st.view("u").any() or st.view("E").any():
            raise ValueError("the Ra_c operator drops its (u, E) block, "
                             "which needs u = E = 0 in the conduction "
                             "state; the boundary data make them nonzero")
        Af = _free_operator(model, st.vector, free, drop_buoyancy=True)
        u_rows = np.repeat(_field_mask(model, free, "u"), np.diff(Af.indptr))
        Af.data[u_rows & _field_mask(model, free, "E")[Af.indices]] = 0.0
        Mf = _free_block(pr.Pr * model.constant_matrix("buoyancy"), free)
    elif which == "S_c":
        Af = _free_operator(model, st.vector, free, drop_lorentz=True)
        # S-proportional coupling, normalised to S = 1
        Mf = -(_free_operator(model, st.vector.copy(), free) - Af) / pr.S
    else:
        raise ValueError(which)
    res = shift_invert_arnoldi(Af, Mf, k=3 * count + 4, tol=1e-6)
    lam = res.values
    real = lam[np.abs(lam.imag) <= 1e-6 * np.maximum(np.abs(lam.real), 1.0)]
    pos = np.sort(real.real[real.real > 0])
    modes = []
    for target in pos[:count]:
        i = int(np.argmin(np.abs(lam - target)))
        modes.append(res.vectors[:, i].real)
    return pos[:count], modes, free


def deflated_continuation(problem, sweep, seeds, nl_config=None,
                          solver_factory=None, compute_stability=False):
    """Fixed-step deflated continuation of `problem` (a
    `problems.ProblemSpec`, whose `set_params` re-derives its data at each
    value): at each parameter value every live branch is continued (plain
    Newton from its previous state), then deflated searches run from the
    continued solutions until NF (a root within 1e-4 of a found one is not
    new); branch identity is kept by nearest-functional matching."""
    model = problem.model
    nl_config = nl_config or NonlinearConfig()
    records = []
    branches = {}
    next_id = 0
    W = model.deflation_gram()
    for i, vec in enumerate(seeds):
        branches[i] = np.array(vec, dtype=float)
        next_id = i + 1
    for value in sweep.values():
        problem.set_params(**{sweep.parameter: value})
        found = []
        # continue live branches
        for bid in sorted(branches):
            st = model.state_template.with_vector(branches[bid])
            sol, rep = solve_nonlinear(model, st, nl_config, solver_factory)
            if rep.converged:
                found.append((bid, sol.vector))
        if not found:
            break
        # deflation rounds for unseen solutions
        defl = DeflationOperator(W)
        for _, v in found:
            defl.add(v)
        extra = 0
        for bid, v in list(found):
            while extra < sweep.max_deflated:
                st = model.state_template.with_vector(v)
                sol, rep = deflated_solve(model, st, defl, nl_config,
                                          solver_factory,
                                          distinctness=1e-4)
                if not rep.converged:
                    break
                defl.add(sol.vector)
                found.append((None, sol.vector))
                extra += 1
        # assign branch ids by nearest functionals
        new_branches = {}
        for bid, v in found:
            if bid is None:
                bid = next_id
                next_id += 1
            new_branches[bid] = v
        branches = new_branches
        for bid, v in sorted(branches.items()):
            funcs = model.functionals(v)
            lam = None
            stable = None
            if compute_stability:
                lam, _, _ = stability_eigs(model, v)
                stable = stability_tag(lam) == "stable"
            records.append(BranchRecord(bid, value, funcs, lam, stable,
                                        state=v.copy()))
            log.info("%s=%g branch %d: |u|^2=%.4e", sweep.parameter, value,
                     bid, funcs["u_norm2"])
    return records
