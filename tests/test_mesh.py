import numpy as np
import pytest

from twofluid.mesh import (BoundaryTag, Mesh, boundary_facets,
                           generate_rect_mesh)

REFERENCE_TRIANGLE = ([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)], [(0, 1, 2)])


def test_unit_square_single_quad():
    m = generate_rect_mesh(1.0, 1.0, 1, 1, "right")
    assert m.n_vertices == 4
    assert m.n_cells == 2
    assert m.cell_areas().sum() == pytest.approx(1.0, rel=1e-13)


def test_column_mesh_counts():
    m = generate_rect_mesh(0.05, 0.1, 50, 100, "alternating")
    assert m.n_vertices == 51 * 101
    assert m.n_cells == 2 * 50 * 100
    assert m.cell_areas().sum() == pytest.approx(0.05 * 0.1, rel=1e-12)


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


def test_all_cells_counterclockwise():
    for rule in ("right", "left", "alternating"):
        m = generate_rect_mesh(2.0, 3.0, 4, 5, rule)
        assert np.all(m.cell_areas() > 0)


def test_boundary_tags_partition_and_lengths():
    m = generate_rect_mesh(0.05, 0.1, 50, 100, "alternating")
    inlet = boundary_facets(m, BoundaryTag.Inlet)
    outlet = boundary_facets(m, BoundaryTag.Outlet)
    left = boundary_facets(m, BoundaryTag.WallLeft)
    right = boundary_facets(m, BoundaryTag.WallRight)
    assert len(inlet) == 50
    assert len(outlet) == 50
    assert len(left) == 100
    assert len(right) == 100
    assert len(inlet) + len(outlet) + len(left) + len(right) == len(m.facet_tags)

    def lengths(facets):
        ends = m.vertices[m.facet_vertices[facets]]        # (n, 2, 2)
        return np.linalg.norm(ends[:, 1] - ends[:, 0], axis=1)

    assert lengths(outlet).sum() == pytest.approx(0.05, rel=1e-13)
    perimeter = lengths(slice(None)).sum()
    assert perimeter == pytest.approx(2 * (0.05 + 0.1), rel=1e-12)


def test_boundary_facets_sit_on_their_lines():
    m = generate_rect_mesh(0.05, 0.1, 50, 100, "alternating")
    for f in boundary_facets(m, BoundaryTag.WallLeft):
        u, v = m.facet_vertices[f]
        assert abs(m.vertices[u, 0] + 0.025) < 1e-15
        assert abs(m.vertices[v, 0] + 0.025) < 1e-15
    for f in boundary_facets(m, BoundaryTag.Inlet):
        u, v = m.facet_vertices[f]
        assert abs(m.vertices[u, 1]) < 1e-15


def test_single_inlet_facet_on_unit_square():
    m = generate_rect_mesh(1.0, 1.0, 1, 1, "right")
    inlet = boundary_facets(m, BoundaryTag.Inlet)
    assert len(inlet) == 1
    u, v = m.facet_vertices[inlet[0]]
    assert set(m.vertices[[u, v], 1]) == {0.0}


def test_each_facet_has_one_cell_owner():
    m = generate_rect_mesh(1.0, 2.0, 3, 4, "alternating")
    owners = np.bincount(m.cell_edges.ravel(), minlength=len(m.edges))
    assert np.all(owners[m.facet_edges] == 1)
    assert np.count_nonzero(owners == 1) == len(m.facet_edges)


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
    assert m.cell_areas().sum() == pytest.approx(0.5)
    assert len(m.facet_tags) == 3


def test_clockwise_cell_rejected():
    with pytest.raises(ValueError):
        Mesh([(0.0, 0.0), (0.0, 1.0), (1.0, 0.0)], [(0, 1, 2)])


def oracle_topology(mesh):
    """Edge table and boundary facets by dict loops over the cells: edges
    numbered by first appearance with local edge k opposite vertex k, and
    the single-owner edges in counterclockwise traversal order."""
    index = {}
    cell_edges = np.empty((mesh.n_cells, 3), dtype=np.int64)
    for c, (a, b, d) in enumerate(mesh.cells):
        for k, (u, v) in enumerate(((b, d), (a, d), (a, b))):
            cell_edges[c, k] = index.setdefault((min(u, v), max(u, v)),
                                                len(index))
    owner = {}
    for a, b, d in mesh.cells:
        for u, v in ((a, b), (b, d), (d, a)):
            key = (min(u, v), max(u, v))
            owner[key] = None if key in owner else (u, v)
    facets = [uv for uv in owner.values() if uv is not None]
    facet_edges = [index[(min(u, v), max(u, v))] for u, v in facets]
    return (np.array(list(index)), cell_edges, np.array(facets),
            np.array(facet_edges))


TOPOLOGY_MESHES = {
    "right": lambda: generate_rect_mesh(1.0, 2.0, 3, 4, "right"),
    "left": lambda: generate_rect_mesh(1.0, 2.0, 3, 4, "left"),
    "alternating": lambda: generate_rect_mesh(2.0, 1.0, 4, 3, "alternating"),
    "reference": lambda: Mesh(*REFERENCE_TRIANGLE),
}


@pytest.mark.parametrize("name", sorted(TOPOLOGY_MESHES))
def test_topology_matches_dict_oracle(name):
    m = TOPOLOGY_MESHES[name]()
    edges, cell_edges, facet_vertices, facet_edges = oracle_topology(m)
    assert np.array_equal(m.edges, edges)
    assert np.array_equal(m.cell_edges, cell_edges)
    assert np.array_equal(m.facet_vertices, facet_vertices)
    assert np.array_equal(m.facet_edges, facet_edges)


@pytest.mark.parametrize("name", sorted(TOPOLOGY_MESHES))
def test_facet_normals_point_away_from_owner(name):
    m = TOPOLOGY_MESHES[name]()
    for (u, v), e in zip(m.facet_vertices, m.facet_edges):
        (owner,), _ = np.nonzero(m.cell_edges == e)
        t = m.vertices[v] - m.vertices[u]
        normal = np.array([t[1], -t[0]])
        away = 0.5 * (m.vertices[u] + m.vertices[v]) \
            - m.vertices[m.cells[owner]].mean(axis=0)
        assert normal @ away > 0
