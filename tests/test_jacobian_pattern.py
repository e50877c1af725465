"""The fixed-pattern Jacobians against the per-term assembly they replaced.

The reference below is the former assembly, kept here: one CSR matrix per
term, summed per field block, joined by sp.bmat and constrained by
D A D plus a unit diagonal."""

import numpy as np
import pytest
import scipy.sparse as sp

from mhdkit.assembly import EPS_CONTRACTION, cell_matrix, field_at_quadrature
from mhdkit.linalg import LuSolver
from mhdkit.mesh import build_rect_mesh
from mhdkit.models import base
from mhdkit.models.base import QDEG, ModelParams, perp
from mhdkit.models.boussinesq import BoussinesqMHD
from mhdkit.models.hall import HallMHD
from mhdkit.models.standard import StandardMHD

from facet_matrices import (burman_stabilisation, sipg_viscous,
                            upwind_advection_matrix)

ROT = np.array([[0.0, 1.0], [-1.0, 0.0]])


class _Blocks(dict):
    """Field blocks (row field, col field) -> matrix, summed on `add`."""

    def add(self, row, col, mat):
        key = (row, col)
        self[key] = self[key] + mat if key in self else mat


def _join(model, blocks):
    """The field blocks joined by sp.bmat, zero where none was added."""
    sizes = model.state_template.sizes()
    return sp.bmat([[blocks.get((t, r), sp.csr_matrix((sizes[t], sizes[r])))
                     for r in model.fields] for t in model.fields],
                   format="csr")


def _old_constrain(A, constrained):
    mask = np.ones(A.shape[0])
    mask[constrained] = 0.0
    D = sp.diags(mask)
    return (D @ A @ D + sp.diags(1.0 - mask)).tocsr()


def _old_finish(model, bm, mass_coeff, steady_coeff):
    total = _join(model, bm)
    if steady_coeff != 1.0:
        total = steady_coeff * total
    if mass_coeff:
        mass = _Blocks()
        for n in model.mass_fields:
            mass.add(n, n, cell_matrix(model.spaces[n], model.spaces[n],
                                       qdeg=QDEG))
        total = total + mass_coeff * _join(model, mass)
    return _old_constrain(total, model.constrained_idx)


def _velocity_facets(model, u_field, sym, weight, stab_mu=0.0):
    """SIPG (times weight), upwind advection and Burman terms."""
    s = model.spaces[model.velocity]
    mk = model._vel_marker_list()
    g_d = model._velocity_bc_data()
    K, _ = sipg_viscous(s, nu=1.0, sym=sym, qdeg=QDEG, dirichlet_markers=mk,
                        g_d=g_d)
    J = weight * K + upwind_advection_matrix(s, u_field, qdeg=QDEG,
                                             dirichlet_markers=mk, g_d=g_d)
    if stab_mu:
        J = J + stab_mu * burman_stabilisation(s, mu=1.0, qdeg=QDEG)
    return J


def _advection_weight(uq):
    W = np.zeros(uq.shape[:2] + (2, 4))
    for kk in range(2):
        for d in range(2):
            W[..., kk, 2 * kk + d] = uq[..., d]
    return W


def old_standard(model, vec, lin, mass_coeff, steady_coeff):
    pr = model.params
    delta = lin == "newton"
    F = model._state_fields(vec)
    sp_ = model.spaces
    u, p, E, B = (sp_[k] for k in model.fields)
    uq, guq = field_at_quadrature(F["u"], QDEG, grad=True)
    Bq = field_at_quadrature(F["B"], QDEG)
    Eq = field_at_quadrature(F["E"], QDEG)
    perpB, perpU = perp(Bq), perp(uq)
    nu = 1.0 / pr.Re
    D_up = cell_matrix(p, u, "val", "div", qdeg=QDEG)
    A_curl = cell_matrix(E, B, "vcurl", "val", qdeg=QDEG)
    J_uu = ((2 * nu) * cell_matrix(u, u, "grad", "grad",
                                   weight=EPS_CONTRACTION, qdeg=QDEG)
            + pr.gamma * cell_matrix(u, u, "div", "div", qdeg=QDEG)
            + _velocity_facets(model, F["u"], True, nu, pr.stab_mu)
            + cell_matrix(u, u, "val", "grad", weight=_advection_weight(uq),
                          qdeg=QDEG)
            + cell_matrix(u, u, weight=guq, qdeg=QDEG)
            + cell_matrix(u, u, weight=pr.S * np.einsum(
                "cqi,cqj->cqij", perpB, perpB), qdeg=QDEG))
    bm = _Blocks()
    bm.add("u", "u", J_uu)
    bm.add("u", "p", -D_up.T)
    bm.add("u", "E", cell_matrix(u, E, weight=pr.S * perpB[..., None],
                                 qdeg=QDEG))
    bm.add("p", "u", -D_up)
    bm.add("E", "u", cell_matrix(E, u, weight=perpB[:, :, None, :],
                                 qdeg=QDEG))
    bm.add("E", "E", cell_matrix(E, E, qdeg=QDEG))
    bm.add("E", "B", -(1.0 / pr.Rem) * A_curl)
    bm.add("B", "E", A_curl.T.tocsr())
    bm.add("B", "B", (1.0 / pr.Rem) * cell_matrix(B, B, "div", "div",
                                                  qdeg=QDEG))
    if delta:
        uxB = np.einsum("cqk,cqk->cq", uq, perpB)
        Wt = np.zeros(uq.shape[:2] + (2, 2))
        scal = pr.S * (Eq[..., 0] + uxB)
        Wt[..., 0, 1] = scal
        Wt[..., 1, 0] = -scal
        Wt -= pr.S * np.einsum("cqi,cqj->cqij", perpB, perpU)
        bm.add("u", "B", cell_matrix(u, B, weight=Wt, qdeg=QDEG))
        bm.add("E", "B", cell_matrix(E, B, weight=-perpU[:, :, None, :],
                                     qdeg=QDEG))
    return _old_finish(model, bm, mass_coeff, steady_coeff)


def old_boussinesq(model, vec, lin, mass_coeff, steady_coeff):
    pr = model.params
    delta = lin == "newton"
    F = model._state_fields(vec)
    sp_ = model.spaces
    u, p, th, E, B = (sp_[k] for k in model.fields)
    uq, guq = field_at_quadrature(F["u"], QDEG, grad=True)
    _, gthq = field_at_quadrature(F["theta"], QDEG, grad=True)
    Bq = field_at_quadrature(F["B"], QDEG)
    Eq = field_at_quadrature(F["E"], QDEG)
    perpB, perpU = perp(Bq), perp(uq)
    D_up = cell_matrix(p, u, "val", "div", qdeg=QDEG)
    A_curl = cell_matrix(E, B, "vcurl", "val", qdeg=QDEG)
    J_uu = (2 * pr.Pr * cell_matrix(u, u, "grad", "grad",
                                    weight=EPS_CONTRACTION, qdeg=QDEG)
            + cell_matrix(u, u, "val", "grad", weight=_advection_weight(uq),
                          qdeg=QDEG)
            + cell_matrix(u, u, weight=guq, qdeg=QDEG)
            + cell_matrix(u, u, weight=pr.S * np.einsum(
                "cqi,cqj->cqij", perpB, perpB), qdeg=QDEG))
    J_uu = (J_uu + pr.gamma * cell_matrix(u, u, "div", "div", qdeg=QDEG)
            + _velocity_facets(model, F["u"], True, pr.Pr, pr.stab_mu))
    Wadv = np.zeros(uq.shape[:2] + (1, 2))
    Wadv[..., 0, :] = uq
    bm = _Blocks()
    bm.add("u", "u", J_uu)
    bm.add("u", "p", -D_up.T)
    bm.add("u", "theta", -pr.Ra * pr.Pr * cell_matrix(
        u, th, weight=model.E3[:, None], qdeg=QDEG))
    bm.add("u", "E", cell_matrix(u, E, weight=pr.S * perpB[..., None],
                                 qdeg=QDEG))
    bm.add("p", "u", -D_up)
    bm.add("theta", "theta",
           cell_matrix(th, th, "grad", "grad", qdeg=QDEG)
           + cell_matrix(th, th, "val", "grad", weight=Wadv, qdeg=QDEG))
    bm.add("theta", "u", cell_matrix(
        th, u, weight=gthq[..., 0, :][:, :, None, :], qdeg=QDEG))
    bm.add("E", "u", cell_matrix(E, u, weight=perpB[:, :, None, :],
                                 qdeg=QDEG))
    bm.add("E", "E", cell_matrix(E, E, qdeg=QDEG))
    bm.add("E", "B", -(pr.Pr / pr.Pm) * A_curl)
    bm.add("B", "E", A_curl.T.tocsr())
    bm.add("B", "B", (pr.Pr / pr.Pm) * cell_matrix(B, B, "div", "div",
                                                   qdeg=QDEG))
    if delta:
        uxB = np.einsum("cqk,cqk->cq", uq, perpB)
        Wt = np.zeros(uq.shape[:2] + (2, 2))
        scal = pr.S * (Eq[..., 0] + uxB)
        Wt[..., 0, 1] = scal
        Wt[..., 1, 0] = -scal
        Wt -= pr.S * np.einsum("cqi,cqj->cqij", perpB, perpU)
        bm.add("u", "B", cell_matrix(u, B, weight=Wt, qdeg=QDEG))
        bm.add("E", "B", cell_matrix(E, B, weight=-perpU[:, :, None, :],
                                     qdeg=QDEG))
    return _old_finish(model, bm, mass_coeff, steady_coeff)


def old_hall(model, vec, lin, mass_coeff, steady_coeff):
    pr = model.params
    delta = lin == "newton"
    F = model._state_fields(vec)
    s = model.spaces
    utq, gutq = field_at_quadrature(F["ut"], QDEG, grad=True)
    u3q, gu3q = field_at_quadrature(F["u3"], QDEG, grad=True)
    Btq = field_at_quadrature(F["Bt"], QDEG)
    B3q = field_at_quadrature(F["B3"], QDEG)[..., 0]
    jtq = field_at_quadrature(F["jt"], QDEG)
    j3q = field_at_quadrature(F["j3"], QDEG)[..., 0]
    pBt, pjt, put = perp(Btq), perp(jtq), perp(utq)
    shp = utq.shape[:2]
    inv_re = 1.0 / pr.Re

    def cm(t, r, weight=None, top="val", rop="val"):
        return cell_matrix(s[t], s[r], top, rop, weight=weight, qdeg=QDEG)

    bm = _Blocks()
    J_uu = (inv_re * cm("ut", "ut", top="grad", rop="grad")
            + pr.gamma * cm("ut", "ut", top="div", rop="div")
            + _velocity_facets(model, F["ut"], False, inv_re)
            + cm("ut", "ut", _advection_weight(utq), rop="grad"))
    if delta:
        J_uu = J_uu + cm("ut", "ut", gutq)
    Wadv = np.zeros(shp + (1, 2))
    Wadv[..., 0, :] = utq
    J_33 = (inv_re * cm("u3", "u3", top="grad", rop="grad")
            + cm("u3", "u3", Wadv, rop="grad"))
    if delta:
        bm.add("u3", "ut", cm("u3", "ut", gu3q[..., 0, :][:, :, None, :]))
    bm.add("ut", "ut", J_uu)
    bm.add("u3", "u3", J_33)
    D_up = cm("p", "ut", rop="div")
    bm.add("ut", "p", -D_up.T)
    bm.add("p", "ut", -D_up)
    bm.add("ut", "jt", cm("ut", "jt", -pr.S * B3q[..., None, None] * ROT))
    bm.add("ut", "j3", cm("ut", "j3", pr.S * pBt[..., None]))
    bm.add("u3", "jt", cm("u3", "jt", -pr.S * pBt[:, :, None, :]))
    C_B3_Ft = cm("Et", "B3", top="curl")
    C_Bt_F3 = cm("E3", "Bt", top="vcurl")
    M_jt, M_j3 = cm("jt", "jt"), cm("j3", "j3")
    bm.add("Et", "jt", M_jt)
    bm.add("Et", "B3", -C_B3_Ft)
    bm.add("E3", "j3", M_j3)
    bm.add("E3", "Bt", -C_Bt_F3)
    bm.add("Bt", "E3", C_Bt_F3.T.tocsr())
    bm.add("Bt", "Bt", cm("Bt", "Bt", top="div", rop="div"))
    bm.add("B3", "Et", C_B3_Ft.T.tocsr())
    bm.add("jt", "jt", (1.0 / pr.Rem) * M_jt
           + cm("jt", "jt", pr.R_H * B3q[..., None, None] * ROT))
    bm.add("jt", "Et", -cm("Et", "Et"))
    bm.add("jt", "ut", cm("jt", "ut", -B3q[..., None, None] * ROT))
    bm.add("jt", "u3", cm("jt", "u3", pBt[..., None]))
    bm.add("jt", "j3", cm("jt", "j3", -pr.R_H * pBt[..., None]))
    bm.add("j3", "j3", (1.0 / pr.Rem) * M_j3)
    bm.add("j3", "E3", -cm("E3", "E3"))
    bm.add("j3", "ut", cm("j3", "ut", -pBt[:, :, None, :]))
    bm.add("j3", "jt", cm("j3", "jt", pr.R_H * pBt[:, :, None, :]))
    if delta:
        bm.add("ut", "B3", cm("ut", "B3", -pr.S * pjt[..., None]))
        bm.add("ut", "Bt", cm("ut", "Bt", pr.S * j3q[..., None, None] * ROT))
        bm.add("u3", "Bt", cm("u3", "Bt", pr.S * pjt[:, :, None, :]))
        bm.add("jt", "B3", cm("jt", "B3", -put[..., None]
                              + pr.R_H * pjt[..., None]))
        bm.add("jt", "Bt", cm("jt", "Bt", (u3q[..., 0] - pr.R_H * j3q)
                              [..., None, None] * ROT))
        bm.add("j3", "Bt", cm("j3", "Bt",
                              (put - pr.R_H * pjt)[:, :, None, :]))
    return _old_finish(model, bm, mass_coeff, steady_coeff)


def _unit_B(x, y):
    return np.stack([0 * x, np.ones_like(y)], axis=-1)


def _lid(x, y):
    return np.stack([np.where(np.abs(y - 0.5) < 1e-12, 1.0, 0.0),
                     np.zeros_like(x)], axis=-1)


MESH = dict(domain=(-0.5, 0.5, -0.5, 0.5), nx=2, ny=2)

CASES = {
    "standard": (lambda mesh: StandardMHD(
        mesh, ModelParams(Re=2.0, Rem=3.0, S=1.5, gamma=7.0, stab_mu=5e-3),
        bcs={"u": ("all", _lid), "E": ("all", None),
             "B": ("all", _unit_B)}), old_standard),
    "hall": (lambda mesh: HallMHD(
        mesh, ModelParams(Re=2.0, Rem=3.0, S=1.5, R_H=0.7, gamma=4.0),
        bcs={n: ("all", None) for n in
             ("ut", "u3", "Et", "E3", "Bt", "B3", "jt", "j3")}), old_hall),
    "boussinesq": (lambda mesh: BoussinesqMHD(
        mesh, ModelParams(Ra=50.0, Pr=0.7, Pm=1.3, S=2.0, gamma=3.0,
                          stab_mu=2e-3),
        bcs={"u": ("all", None), "theta": (["top", "bottom"], None),
             "E": ("all", None), "B": ("all", _unit_B)}), old_boussinesq),
}


def _hdiv_id(name):
    """A case's test id: the model and its velocity pair, H(div) x L2."""
    return f"{name}-hdiv"


def _mesh():
    return build_rect_mesh(MESH["domain"], MESH["nx"], MESH["ny"])


def _random_state(model, seed):
    rng = np.random.default_rng(seed)
    x = model.initial_state().vector
    free = np.setdiff1d(np.arange(len(x)), model.constrained_idx)
    x[free] += 0.5 * rng.standard_normal(len(free))
    return x


@pytest.mark.parametrize("name", list(CASES), ids=_hdiv_id)
@pytest.mark.parametrize("lin", ["newton", "picard"])
@pytest.mark.parametrize("mass_coeff, steady_coeff", [(0.0, 1.0),
                                                      (2.5, 0.5)])
def test_jacobian_matches_per_term_assembly(name, lin, mass_coeff,
                                            steady_coeff):
    make, old = CASES[name]
    model = make(_mesh())
    x = _random_state(model, seed=7)
    A = model.jacobian(x, lin, mass_coeff=mass_coeff,
                       steady_coeff=steady_coeff)
    ref = old(model, x, lin, mass_coeff, steady_coeff)
    assert np.abs(A - ref).max() <= 1e-13 * np.abs(ref).max()
    # the factorised matrix has the reference's nonzeros
    assert LuSolver(A).nnz == LuSolver(ref).nnz


@pytest.mark.parametrize("name", list(CASES))
def test_zero_state_jacobian_keeps_the_reference_structure(name):
    # at the zero state the state-dependent terms vanish: the pattern keeps
    # their zeros, the LU input drops them like the product D A D did
    make, old = CASES[name]
    model = make(_mesh())
    x = model.initial_state().vector
    A = model.jacobian(x)
    ref = old(model, x, "newton", 0.0, 1.0)
    assert A.nnz > ref.nnz
    B = A.copy()
    B.eliminate_zeros()
    assert B.nnz == ref.nnz
    assert np.abs(B - ref).max() <= 1e-13 * np.abs(ref).max()
    # the Jacobian shares the pattern's index arrays, read-only
    with pytest.raises(ValueError):
        A.eliminate_zeros()


def test_second_jacobian_builds_no_pattern(monkeypatch):
    built = []

    class Counting(base.SparsityPattern):
        def __init__(self, *args):
            built.append(1)
            super().__init__(*args)

    monkeypatch.setattr(base, "SparsityPattern", Counting)
    make, _ = CASES["standard"]
    model = make(_mesh())
    assert built == [1]
    x = _random_state(model, seed=3)
    A1 = model.jacobian(x)
    A2 = model.jacobian(x, mass_coeff=1.0)
    assert built == [1]
    for A in (A1, A2):
        assert np.shares_memory(A.indices, model.pattern.indices)
        assert np.shares_memory(A.indptr, model.pattern.indptr)


def _one_sort_pattern(n, pairings, constrained):
    """The pattern from one sort of every entry, kept as the reference of
    the row-block build: (indptr, indices, slots, diag, dropped)."""
    direct = {k: v for k, v in pairings.items()
              if not isinstance(v[0], tuple)}
    keys = [np.repeat(r, c.shape[1], axis=1).ravel() * n
            + np.tile(c, (1, r.shape[1])).ravel()
            for r, c in direct.values()]
    con = np.asarray(constrained, dtype=np.int64)
    unique = np.unique(np.concatenate(keys + [con * (n + 1)]))
    rows, cols = np.divmod(unique, n)
    slots = {k: np.searchsorted(unique, key) for k, key in zip(direct, keys)}
    for k, (base, index) in pairings.items():
        if k not in direct:
            slots[k] = slots[base].reshape(len(pairings[base][0]),
                                           -1)[index].ravel()
    mask = np.zeros(n, dtype=bool)
    mask[con] = True
    return (np.searchsorted(rows, np.arange(n + 1)), cols, slots,
            np.searchsorted(unique, con * (n + 1)),
            np.flatnonzero(mask[rows] | mask[cols]))


@pytest.mark.parametrize("name", list(CASES), ids=_hdiv_id)
def test_row_block_pattern_is_the_one_sort_pattern(monkeypatch, name):
    seen = []

    class Recording(base.SparsityPattern):
        def __init__(self, *args):
            seen.append(args)
            super().__init__(*args)

    monkeypatch.setattr(base, "SparsityPattern", Recording)
    pat = CASES[name][0](_mesh()).pattern
    indptr, indices, slots, diag, dropped = _one_sort_pattern(*seen[0])
    for got, ref in ((pat.indptr, indptr), (pat.indices, indices),
                     (pat.diag, diag), (pat.dropped, dropped)):
        assert got.dtype == np.int32 and np.array_equal(got, ref)
    assert list(pat.slots) == list(slots)
    for k, ref in slots.items():
        assert pat.slots[k].dtype == np.int32
        assert np.array_equal(pat.slots[k], ref)


@pytest.mark.parametrize("name", list(CASES) + ["hartmann"], ids=_hdiv_id)
def test_streamed_constants_match_the_summed_terms(name):
    # each constant term is scattered into its group's data as it is
    # generated; the reference sums each group's local arrays per key first
    if name == "hartmann":
        from mhdkit.problems import make_problem
        model = make_problem("hartmann", levels=0, mesh_base=(4, 4)).model
    else:
        model = CASES[name][0](_mesh())
    pat = model.pattern
    groups = {}
    for gname, key, local in model._constant_terms():
        terms = groups.setdefault(gname, {})
        terms[key] = terms[key] + local if key in terms else local
    assert list(model._constants) == list(groups)
    for gname, terms in groups.items():
        ref = pat.scatter(terms)
        got = pat.expand(model._constants[gname])
        assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()
