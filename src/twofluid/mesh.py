"""Structured triangulations of rectangular domains.

The column geometry is a rectangle spanning x in [-width/2, width/2] and
y in [0, height]: the inlet is the bottom side, the outlet the top, and
the two remaining sides are walls (`BoundaryTag`; function spaces tag
their nodes by these sides of the bounding box).  Cells are
counterclockwise vertex triples obtained by splitting a structured quad
grid along one of its diagonals.

`Mesh(vertices, cells, grid)` builds its geometry in the constructor:
the cell Jacobian determinants and inverses, the cell diameters, and one
global edge table, which places the P2 midpoint nodes.
"""

from __future__ import annotations

import enum

import numpy as np

DIAGONALS = ("right", "left", "alternating")   # generate_rect_mesh's rules


class BoundaryTag(enum.Enum):
    Inlet = "inlet"
    Outlet = "outlet"
    WallLeft = "wall_left"
    WallRight = "wall_right"


class Mesh:
    """Triangle mesh: geometry, and the edge table that places the P2
    midpoint nodes.

    vertices:       (n_vertices, 2) coordinates
    cells:          (n_cells, 3) vertex indices, counterclockwise
    grid:           {"nx", "ny", "width", "height"} of a structured mesh
                    whose quad (i, j) holds cells 2*(j*nx + i) and the
                    next one; enables O(1) point location
    det, inv:       (n_cells,) Jacobian determinants and (n_cells, 2, 2)
                    inverse Jacobians of the reference map
    cell_diameters: (n_cells,) longest edge length per cell
    edges:          (n_edges, 2) sorted vertex pairs, numbered by first
                    appearance over the cells
    cell_edges:     (n_cells, 3) edge of each cell; local edge k is
                    opposite local vertex k
    """

    def __init__(self, vertices, cells, grid=None):
        self.vertices = np.asarray(vertices, dtype=float)
        self.cells = np.asarray(cells, dtype=np.int32)
        self.grid = grid
        nc = self.n_cells

        v = self.vertices[self.cells]                     # (nc, 3, 2)
        j = np.stack([v[:, 1] - v[:, 0], v[:, 2] - v[:, 0]], axis=2)
        det = j[:, 0, 0] * j[:, 1, 1] - j[:, 0, 1] * j[:, 1, 0]
        if np.any(det <= 0):
            raise ValueError("mesh has non-counterclockwise cells")
        inv = np.empty_like(j)
        inv[:, 0, 0] = j[:, 1, 1] / det
        inv[:, 0, 1] = -j[:, 0, 1] / det
        inv[:, 1, 0] = -j[:, 1, 0] / det
        inv[:, 1, 1] = j[:, 0, 0] / det
        self.det = det
        self.inv = inv
        e = np.stack([v[:, 1] - v[:, 0], v[:, 2] - v[:, 1], v[:, 0] - v[:, 2]])
        self.cell_diameters = np.linalg.norm(e, axis=-1).max(axis=0)

        # local edge k joins vertices k+1 and k+2 (mod 3), opposite vertex k
        tail = self.cells[:, [1, 2, 0]].astype(np.int64)
        head = self.cells[:, [2, 0, 1]].astype(np.int64)
        lo, hi = np.minimum(tail, head).ravel(), np.maximum(tail, head).ravel()
        _, first, inverse = np.unique(
            lo * self.n_vertices + hi, return_index=True, return_inverse=True)
        order = np.argsort(first)
        number = np.empty_like(order)
        number[order] = np.arange(order.size)
        self.cell_edges = number[inverse.reshape(nc, 3)]
        self.edges = np.column_stack([lo, hi])[first[order]]

    @property
    def n_vertices(self):
        return self.vertices.shape[0]

    @property
    def n_cells(self):
        return self.cells.shape[0]

    def bounds(self):
        return self.vertices.min(axis=0), self.vertices.max(axis=0)


def generate_rect_mesh(width, height, nx, ny, diagonal):
    """Triangulate [-width/2, width/2] x [0, height] into 2*nx*ny cells.

    diagonal selects how each structured quad is split:
      'right'       -- along the lower-left/upper-right diagonal
      'left'        -- along the lower-right/upper-left diagonal
      'alternating' -- checkerboard of the two; with even nx the result is
                       mirror symmetric about x = 0 (an odd nx leaves the
                       middle column unpaired)
    """
    if nx < 1 or ny < 1:
        raise ValueError(f"need nx, ny >= 1, got nx={nx}, ny={ny}")
    if width <= 0 or height <= 0:
        raise ValueError(f"need positive dimensions, got {width} x {height}")
    if diagonal not in DIAGONALS:
        raise ValueError(f"unknown diagonal rule '{diagonal}'")

    xs = np.linspace(-width / 2.0, width / 2.0, nx + 1)
    ys = np.linspace(0.0, height, ny + 1)
    xv, yv = np.meshgrid(xs, ys, indexing="xy")
    vertices = np.column_stack([xv.ravel(), yv.ravel()])

    # quad (i, j) = k = j*nx + i holds cells 2k and 2k + 1
    j, i = np.divmod(np.arange(nx * ny), nx)
    ll = j * (nx + 1) + i
    lr, ul = ll + 1, ll + nx + 1
    ur = ul + 1
    if diagonal == "alternating":
        right = (i + j) % 2 == 0
    else:
        right = diagonal == "right"
    cells = np.stack([ll, lr, np.where(right, ur, ul),
                      np.where(right, ll, lr), ur, ul], axis=1)
    cells = cells.reshape(-1, 3).astype(np.int32)

    grid = {"nx": nx, "ny": ny, "width": width, "height": height}
    return Mesh(vertices, cells, grid)

