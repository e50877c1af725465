"""Quadrature rules on the reference triangle and on intervals."""

import functools

import numpy as np


class QuadratureRule:
    """Points/weights pair.

    Triangle rules store barycentric-free reference coordinates (x, y) on the
    triangle with vertices (0,0), (1,0), (0,1); weights sum to 1/2.  Interval
    rules live on [0, 1] with weights summing to 1.
    """

    def __init__(self, points, weights):
        self.points = np.asarray(points, dtype=float)
        self.weights = np.asarray(weights, dtype=float)


@functools.lru_cache(maxsize=None)
def gauss_interval(degree):
    """Gauss-Legendre rule on [0,1] exact for polynomials up to `degree`."""
    x, w = np.polynomial.legendre.leggauss(max(int(degree), 0) // 2 + 1)
    return QuadratureRule(0.5 * (x + 1.0), 0.5 * w)


@functools.lru_cache(maxsize=None)
def triangle_rule(degree):
    """Collapsed (Duffy) Gauss rule on the reference triangle.

    Exact for total degree <= `degree`; the Duffy map x = a(1-b), y = b turns
    x^p y^q into a polynomial of degree p in a and p+q+1 in b.
    """
    degree = max(int(degree), 0)
    xa, wa = np.polynomial.legendre.leggauss(degree // 2 + 1)
    xb, wb = np.polynomial.legendre.leggauss((degree + 1) // 2 + 1)
    A, B = np.meshgrid(0.5 * (xa + 1.0), 0.5 * (xb + 1.0), indexing="ij")
    WA, WB = np.meshgrid(0.5 * wa, 0.5 * wb, indexing="ij")
    x = (A * (1.0 - B)).ravel()
    return QuadratureRule(np.column_stack([x, B.ravel()]),
                          (WA * WB * (1.0 - B)).ravel())
