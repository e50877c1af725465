import numpy as np
import pytest

from mhdkit.mesh import Mesh2D


def _read_vtk(path):
    """The mesh and point data of a legacy VTK file written by
    `mesh.write_vtk`."""
    with open(path) as f:
        tokens = f.read().split()
    i = tokens.index("POINTS")
    npts = int(tokens[i + 1])
    pts = np.array(tokens[i + 3:i + 3 + 3 * npts], dtype=float).reshape(-1, 3)
    i = tokens.index("CELLS")
    ncells = int(tokens[i + 1])
    cdata = np.array(tokens[i + 3:i + 3 + 4 * ncells], dtype=np.int64)
    cells = cdata.reshape(-1, 4)[:, 1:]
    mesh = Mesh2D(cells, pts[:, :2][cells])
    point_data = {}
    j = 0
    while j < len(tokens):
        if tokens[j] == "SCALARS":
            name = tokens[j + 1]
            k = j + 6
            point_data[name] = np.array(tokens[k:k + npts], dtype=float)
            j = k + npts
        elif tokens[j] == "VECTORS":
            name = tokens[j + 1]
            k = j + 3
            point_data[name] = np.array(tokens[k:k + 3 * npts],
                                        dtype=float).reshape(-1, 3)
            j = k + 3 * npts
        else:
            j += 1
    return mesh, point_data


@pytest.fixture
def read_vtk():
    """A reader of the VTK files `mesh.write_vtk` writes."""
    return _read_vtk
