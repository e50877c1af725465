"""Quadrature rules on the reference triangle and on intervals."""

import numpy as np

_tri_cache = {}
_edge_cache = {}


class QuadratureRule:
    """Points/weights pair with a declared polynomial exactness degree.

    Triangle rules store barycentric-free reference coordinates (x, y) on the
    triangle with vertices (0,0), (1,0), (0,1); weights sum to 1/2.  Interval
    rules live on [0, 1] with weights summing to 1.
    """

    def __init__(self, points, weights, degree):
        self.points = np.asarray(points, dtype=float)
        self.weights = np.asarray(weights, dtype=float)
        self.degree = int(degree)

    def __len__(self):
        return len(self.weights)


def gauss_interval(degree):
    """Gauss-Legendre rule on [0,1] exact for polynomials up to `degree`."""
    degree = max(int(degree), 0)
    if degree in _edge_cache:
        return _edge_cache[degree]
    n = degree // 2 + 1
    x, w = np.polynomial.legendre.leggauss(n)
    rule = QuadratureRule(0.5 * (x + 1.0), 0.5 * w, 2 * n - 1)
    _edge_cache[degree] = rule
    return rule


def triangle_rule(degree):
    """Collapsed (Duffy) Gauss rule on the reference triangle.

    Exact for total degree <= `degree`; the Duffy map x = a(1-b), y = b turns
    x^p y^q into a polynomial of degree p in a and p+q+1 in b.
    """
    degree = max(int(degree), 0)
    if degree in _tri_cache:
        return _tri_cache[degree]
    na = degree // 2 + 1
    nb = (degree + 1) // 2 + 1
    xa, wa = np.polynomial.legendre.leggauss(na)
    xb, wb = np.polynomial.legendre.leggauss(nb)
    a = 0.5 * (xa + 1.0)
    b = 0.5 * (xb + 1.0)
    wa = 0.5 * wa
    wb = 0.5 * wb
    A, B = np.meshgrid(a, b, indexing="ij")
    WA, WB = np.meshgrid(wa, wb, indexing="ij")
    x = (A * (1.0 - B)).ravel()
    y = B.ravel()
    w = (WA * WB * (1.0 - B)).ravel()
    rule = QuadratureRule(np.column_stack([x, y]), w, degree)
    _tri_cache[degree] = rule
    return rule
