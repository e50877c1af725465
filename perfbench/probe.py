"""A fixed reference computation that measures how fast the host runs now.

The benchmark's host is shared: its speed drifts by tens of per cent over
seconds to minutes, and process CPU time drifts with it.  rep.py times this
probe before and after each timed phase and divides the phase time by the
probe's slowdown (scaled()), so that the time metrics follow the code, not
the host.

The probe uses no mhdkit code, so a change to mhdkit cannot change it.  It
mixes the kinds of work mhdkit does: interpreted Python loops, small numpy
array operations, sparse matrix assembly and a sparse LU factorisation.
"""

import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spl

# about the probe's time in the fast stretches of the host where the
# benchmark was defined (Intel Xeon, 2 vCPUs, Python 3.11); the time metrics
# are seconds on a host that runs the probe in this time
REFERENCE_S = 0.1

N = 40  # grid points per side of the 2D Laplacian


def _work():
    # element-by-element assembly of a 5-point Laplacian in Python
    rows, cols, vals = [], [], []
    for i in range(N):
        for j in range(N):
            k = i * N + j
            rows.append(k)
            cols.append(k)
            vals.append(4.0)
            for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                if 0 <= i + di < N and 0 <= j + dj < N:
                    rows.append(k)
                    cols.append((i + di) * N + j + dj)
                    vals.append(-1.0)
    a = sp.csc_matrix((vals, (rows, cols)), shape=(N * N, N * N))
    lu = spl.splu(a)
    x = np.ones(N * N)
    for _ in range(20):
        x = lu.solve(x)
        x /= np.linalg.norm(x)
    # small dense blocks, as in cell matrices
    blocks = np.arange(9 * 200, dtype=float).reshape(200, 3, 3) % 7.0
    acc = 0.0
    for b in blocks:
        acc += float(np.trace(b @ b.T))
    return acc + float(x.sum())


def probe(repeat=10):
    """Seconds for `repeat` passes of the reference computation."""
    t0 = time.perf_counter()
    for _ in range(repeat):
        _work()
    return time.perf_counter() - t0


def scaled(seconds, before, after):
    """A phase time, scaled by the mean of the probe times before and after
    the phase to a host that runs the probe in REFERENCE_S."""
    return seconds * 2 * REFERENCE_S / (before + after)
