"""Structured triangulations of rectangular domains with boundary tagging.

The column geometry is a rectangle spanning x in [-width/2, width/2] and
y in [0, height]: the inlet is the bottom side, the outlet the top, and
the two remaining sides are walls.  Cells are counterclockwise vertex
triples obtained by splitting a structured quad grid along one of its
diagonals.

`Mesh(vertices, cells, grid)` builds its whole topology and geometry in
the constructor: the cell Jacobian determinants and inverses, the cell
diameters, one global edge table (which places the P2 midpoint nodes)
and the boundary facets, i.e. the edges owned by one cell, tagged against
the bounding box.
"""

from __future__ import annotations

import enum

import numpy as np


class BoundaryTag(enum.Enum):
    Inlet = "inlet"
    Outlet = "outlet"
    WallLeft = "wall_left"
    WallRight = "wall_right"


class Mesh:
    """Triangle mesh with tagged boundary facets.

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
    facet_vertices: (n_facets, 2) boundary edges, directed along their
                    owner cell's counterclockwise traversal
    facet_edges:    (n_facets,) edge index of each boundary facet
    facet_tags:     list of BoundaryTag, one per boundary facet
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

        # local edge k runs from vertex k+1 to vertex k+2 (mod 3): opposite
        # vertex k, in counterclockwise direction
        tail = self.cells[:, [1, 2, 0]].astype(np.int64)
        head = self.cells[:, [2, 0, 1]].astype(np.int64)
        lo, hi = np.minimum(tail, head).ravel(), np.maximum(tail, head).ravel()
        _, first, inverse, count = np.unique(
            lo * self.n_vertices + hi, return_index=True, return_inverse=True,
            return_counts=True)
        order = np.argsort(first)
        number = np.empty_like(order)
        number[order] = np.arange(order.size)
        self.cell_edges = number[inverse.reshape(nc, 3)]
        self.edges = np.column_stack([lo, hi])[first[order]]

        # boundary facets in cell order, edges (0,1), (1,2), (2,0) within
        # a cell, i.e. local edges 2, 0, 1
        occurrence = np.arange(3 * nc).reshape(nc, 3)[:, [2, 0, 1]].ravel()
        occurrence = occurrence[count[inverse[occurrence]] == 1]
        self.facet_vertices = np.column_stack(
            [tail.ravel()[occurrence], head.ravel()[occurrence]]).astype(np.int32)
        self.facet_edges = self.cell_edges.ravel()[occurrence]
        self.facet_tags = self._tag_facets()

    def _tag_facets(self):
        """Tag each facet by the bounding-box side it lies on; a facet on
        none of them (a non-rectangular outline) is an Outlet."""
        (x0, y0), (x1, y1) = self.bounds()
        tol = 1e-12 * max(x1 - x0, y1 - y0, 1.0)
        p = self.vertices[self.facet_vertices]            # (nf, 2, 2)

        def on(axis, level):
            return np.all(np.abs(p[:, :, axis] - level) <= tol, axis=1)

        kinds = (BoundaryTag.Inlet, BoundaryTag.Outlet, BoundaryTag.WallLeft,
                 BoundaryTag.WallRight)
        which = np.select([on(1, y0), on(1, y1), on(0, x0), on(0, x1)],
                          [0, 1, 2, 3], default=1)
        return [kinds[k] for k in which]

    @property
    def n_vertices(self):
        return self.vertices.shape[0]

    @property
    def n_cells(self):
        return self.cells.shape[0]

    def cell_areas(self):
        return 0.5 * self.det

    def bounds(self):
        return self.vertices.min(axis=0), self.vertices.max(axis=0)


def generate_rect_mesh(width, height, nx, ny, diagonal="alternating"):
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
    if diagonal not in ("right", "left", "alternating"):
        raise ValueError(f"unknown diagonal rule '{diagonal}'")

    xs = np.linspace(-width / 2.0, width / 2.0, nx + 1)
    ys = np.linspace(0.0, height, ny + 1)
    xv, yv = np.meshgrid(xs, ys, indexing="xy")
    vertices = np.column_stack([xv.ravel(), yv.ravel()])

    def vid(i, j):
        return j * (nx + 1) + i

    cells = np.empty((2 * nx * ny, 3), dtype=np.int32)
    k = 0
    for j in range(ny):
        for i in range(nx):
            ll, lr = vid(i, j), vid(i + 1, j)
            ul, ur = vid(i, j + 1), vid(i + 1, j + 1)
            if diagonal == "right":
                right = True
            elif diagonal == "left":
                right = False
            else:
                right = (i + j) % 2 == 0
            if right:
                cells[k] = (ll, lr, ur)
                cells[k + 1] = (ll, ur, ul)
            else:
                cells[k] = (ll, lr, ul)
                cells[k + 1] = (lr, ur, ul)
            k += 2

    grid = {"nx": nx, "ny": ny, "width": width, "height": height}
    return Mesh(vertices, cells, grid)


def boundary_facets(mesh, *tags):
    """Indices of the boundary facets carrying any of the given tags."""
    return [i for i, t in enumerate(mesh.facet_tags) if t in tags]


def facet_lengths(mesh, facet_indices=None):
    fv = mesh.facet_vertices
    if facet_indices is not None:
        fv = fv[np.asarray(facet_indices, dtype=int)]
    d = mesh.vertices[fv[:, 1]] - mesh.vertices[fv[:, 0]]
    return np.linalg.norm(d, axis=1)
