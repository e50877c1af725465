"""The facet forms of `mhdkit.assembly` assembled one term at a time into
CSR matrices: the per-term reference that the fixed-pattern Jacobians
replaced, and the operators the assembly tests check."""

import scipy.sparse as sp

from mhdkit.assembly import (burman_local, facet_pairings, scatter,
                             sipg_local, upwind_advection_local)


def facet_matrix(space, qdeg, dirichlet_markers, locals_):
    """CSR sum of facet local arrays keyed as in `facet_pairings`, without
    stored zeros."""
    pairs = facet_pairings(space, qdeg, dirichlet_markers)
    dm = space.dofmap
    A = scatter([(dm[pairs[k][0]], dm[pairs[k][1]], loc)
                 for k, loc in locals_.items()],
                (space.total_dofs, space.total_dofs))
    A.eliminate_zeros()
    return A


def sipg_viscous(space, nu, sigma=None, sym=True, qdeg=None,
                 dirichlet_markers=None, g_d=None):
    """`sipg_local` assembled: (matrix, rhs)."""
    if qdeg is None:
        qdeg = 2 * space.element.degree + 2
    locals_, rhs = sipg_local(space, nu, sigma, sym, qdeg,
                              dirichlet_markers, g_d)
    return facet_matrix(space, qdeg, dirichlet_markers, locals_), rhs


def upwind_advection_matrix(space, u_field, qdeg=None,
                            dirichlet_markers=None, g_d=None):
    """`upwind_advection_local` assembled into a CSR matrix."""
    if qdeg is None:
        qdeg = 3 * space.element.degree + 1
    locals_ = upwind_advection_local(space, u_field, qdeg,
                                     dirichlet_markers, g_d)
    return facet_matrix(space, qdeg, dirichlet_markers, locals_)


def burman_stabilisation(space, mu, qdeg=None):
    """`burman_local` assembled into a CSR matrix (empty for mu = 0)."""
    if mu == 0.0:
        return sp.csr_matrix((space.total_dofs, space.total_dofs))
    if qdeg is None:
        qdeg = 2 * space.element.degree + 2
    return facet_matrix(space, qdeg, None, burman_local(space, mu, qdeg))
