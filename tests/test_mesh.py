import numpy as np
import pytest

from twofluid.fem import FunctionSpace
from twofluid.mesh import BoundaryTag, Mesh, generate_rect_mesh

REFERENCE_TRIANGLE = ([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)], [(0, 1, 2)])


def test_unit_square_single_quad():
    m = generate_rect_mesh(1.0, 1.0, 1, 1, "right")
    assert m.n_vertices == 4
    assert m.n_cells == 2
    assert (0.5 * m.det).sum() == pytest.approx(1.0, rel=1e-13)


def test_column_mesh_counts():
    m = generate_rect_mesh(0.05, 0.1, 50, 100, "alternating")
    assert m.n_vertices == 51 * 101
    assert m.n_cells == 2 * 50 * 100
    assert (0.5 * m.det).sum() == pytest.approx(0.05 * 0.1, rel=1e-12)


@pytest.mark.parametrize("nx,ny", [(0, 1), (1, 0)])
def test_degenerate_counts_rejected(nx, ny):
    with pytest.raises(ValueError):
        generate_rect_mesh(1.0, 1.0, nx, ny, "right")


@pytest.mark.parametrize("w,h", [(0.0, 1.0), (1.0, -2.0)])
def test_nonpositive_dimensions_rejected(w, h):
    with pytest.raises(ValueError):
        generate_rect_mesh(w, h, 2, 2, "right")


def test_unknown_diagonal_rejected():
    with pytest.raises(ValueError):
        generate_rect_mesh(1.0, 1.0, 2, 2, "diag")


def oracle_cells(nx, ny, diagonal):
    """Cells of generate_rect_mesh by a loop over the quads: quad (i, j)
    holds cells 2*(j*nx + i) and the next one, which point location
    relies on."""
    def vid(i, j):
        return j * (nx + 1) + i

    cells = []
    for j in range(ny):
        for i in range(nx):
            ll, lr = vid(i, j), vid(i + 1, j)
            ul, ur = vid(i, j + 1), vid(i + 1, j + 1)
            if diagonal == "alternating":
                right = (i + j) % 2 == 0
            else:
                right = diagonal == "right"
            if right:
                cells += [(ll, lr, ur), (ll, ur, ul)]
            else:
                cells += [(ll, lr, ul), (lr, ur, ul)]
    return np.array(cells, dtype=np.int32)


@pytest.mark.parametrize("rule", ["right", "left", "alternating"])
@pytest.mark.parametrize("nx,ny", [(1, 1), (3, 4), (4, 3), (5, 2)])
def test_cells_match_the_quad_loop_oracle(rule, nx, ny):
    m = generate_rect_mesh(2.0, 1.0, nx, ny, rule)
    assert m.cells.dtype == np.int32
    assert np.array_equal(m.cells, oracle_cells(nx, ny, rule))


def test_all_cells_counterclockwise():
    for rule in ("right", "left", "alternating"):
        m = generate_rect_mesh(2.0, 3.0, 4, 5, rule)
        assert np.all(0.5 * m.det > 0)


def test_boundary_tags_partition_and_lengths():
    m = generate_rect_mesh(0.05, 0.1, 50, 100, "alternating")
    space = FunctionSpace.scalar_p1(m)
    nodes = {tag: space.boundary_nodes(tag) for tag in BoundaryTag}
    assert nodes[BoundaryTag.Inlet].size == 51
    assert nodes[BoundaryTag.Outlet].size == 51
    assert nodes[BoundaryTag.WallLeft].size == 101
    assert nodes[BoundaryTag.WallRight].size == 101
    # the sides cover the perimeter, each corner twice
    counts = np.bincount(np.concatenate(list(nodes.values())),
                         minlength=m.n_vertices)
    assert np.count_nonzero(counts) == 2 * (50 + 100)
    assert np.count_nonzero(counts == 2) == 4
    x, y = m.vertices.T
    assert np.ptp(x[nodes[BoundaryTag.Outlet]]) == pytest.approx(0.05, rel=1e-13)
    assert np.ptp(y[nodes[BoundaryTag.WallLeft]]) == pytest.approx(0.1, rel=1e-13)


def test_alternating_mesh_mirror_symmetric():
    # even nx: reflecting x -> -x maps the cell set onto itself
    m = generate_rect_mesh(1.0, 2.0, 4, 3, "alternating")
    cells = {tuple(sorted(map(tuple, np.round(m.vertices[c], 12))))
             for c in m.cells}
    mirrored_verts = m.vertices * np.array([-1.0, 1.0])
    mirrored = {tuple(sorted(map(tuple, np.round(mirrored_verts[c], 12))))
                for c in m.cells}
    assert cells == mirrored


def test_cell_diameters_are_longest_edges():
    m = generate_rect_mesh(1.0, 2.0, 3, 4, "alternating")
    for c in range(m.n_cells):
        p = m.vertices[m.cells[c]]
        dists = [np.linalg.norm(p[i] - p[j]) for i in range(3) for j in range(i)]
        assert m.cell_diameters[c] == pytest.approx(max(dists), rel=1e-14)


def test_mesh_from_raw_arrays_reference_triangle():
    m = Mesh(*REFERENCE_TRIANGLE)
    assert m.n_cells == 1
    assert (0.5 * m.det).sum() == pytest.approx(0.5)
    assert len(m.edges) == 3


def test_clockwise_cell_rejected():
    with pytest.raises(ValueError):
        Mesh([(0.0, 0.0), (0.0, 1.0), (1.0, 0.0)], [(0, 1, 2)])


def oracle_topology(mesh):
    """Edge table and boundary facets by dict loops over the cells: edges
    numbered by first appearance with local edge k opposite vertex k, and
    the facets, i.e. the edges that a single cell owns."""
    index = {}
    owners = {}
    cell_edges = np.empty((mesh.n_cells, 3), dtype=np.int64)
    for c, (a, b, d) in enumerate(mesh.cells):
        for k, (u, v) in enumerate(((b, d), (a, d), (a, b))):
            key = (min(u, v), max(u, v))
            cell_edges[c, k] = index.setdefault(key, len(index))
            owners[key] = owners.get(key, 0) + 1
    facets = [key for key, n in owners.items() if n == 1]
    return (np.array(list(index)), cell_edges, np.array(facets),
            np.array([index[f] for f in facets]))


TOPOLOGY_MESHES = {
    "right": lambda: generate_rect_mesh(1.0, 2.0, 3, 4, "right"),
    "left": lambda: generate_rect_mesh(1.0, 2.0, 3, 4, "left"),
    "alternating": lambda: generate_rect_mesh(2.0, 1.0, 4, 3, "alternating"),
    "reference": lambda: Mesh(*REFERENCE_TRIANGLE),
}


@pytest.mark.parametrize("name", sorted(TOPOLOGY_MESHES))
def test_topology_matches_dict_oracle(name):
    m = TOPOLOGY_MESHES[name]()
    edges, cell_edges, _, _ = oracle_topology(m)
    assert np.array_equal(m.edges, edges)
    assert np.array_equal(m.cell_edges, cell_edges)


@pytest.mark.parametrize("kind", ["ScalarP1", "VectorP2"])
@pytest.mark.parametrize("rule", ["right", "left", "alternating"])
@pytest.mark.parametrize("nx,ny", [(1, 1), (3, 4), (4, 3)])
def test_boundary_nodes_are_the_nodes_of_the_oracle_facets(kind, rule, nx, ny):
    m = generate_rect_mesh(2.0, 1.0, nx, ny, rule)
    space = FunctionSpace(kind, m)
    _, _, facets, facet_edges = oracle_topology(m)
    (x0, y0), (x1, y1) = m.bounds()
    sides = {BoundaryTag.Inlet: (1, y0, nx), BoundaryTag.Outlet: (1, y1, nx),
             BoundaryTag.WallLeft: (0, x0, ny),
             BoundaryTag.WallRight: (0, x1, ny)}
    tagged = []
    for tag, (axis, level, cells) in sides.items():
        on = np.all(m.vertices[facets][:, :, axis] == level, axis=1)
        assert np.count_nonzero(on) == cells
        expected = [facets[on].ravel()]
        if kind == "VectorP2":
            expected.append(m.n_vertices + facet_edges[on])
        nodes = space.boundary_nodes(tag)
        assert np.array_equal(nodes, np.unique(np.concatenate(expected)))
        assert nodes.size == (cells + 1 if kind == "ScalarP1" else 2 * cells + 1)
        tagged.append(nodes)
    counts = np.bincount(np.concatenate(tagged), minlength=m.n_vertices)
    corners = [0, nx, ny * (nx + 1), (ny + 1) * (nx + 1) - 1]
    assert np.array_equal(np.flatnonzero(counts == 2), corners)


def test_nodes_off_the_bounding_box_get_no_tag():
    # the reference triangle's hypotenuse lies on no side of its box
    space = FunctionSpace("VectorP2", Mesh(*REFERENCE_TRIANGLE))
    (mid,) = np.flatnonzero(np.all(space.node_coords == 0.5, axis=1))
    tagged = space.boundary_nodes(*BoundaryTag)
    assert mid not in tagged
    assert tagged.size == space.node_coords.shape[0] - 1
