import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from twofluid import fem
from twofluid.caseio import CaseConfig, build_spaces
from twofluid.errors import OutOfDomainError
from twofluid.fem import (FunctionSpace, VelocityQP, assemble_alpha_system,
                          assemble_pressure_poisson, assemble_velocity_update,
                          closure_inputs, evaluate_many, supg_tau,
                          tentative_velocity_system)
from twofluid.linalg import Pattern, solve_bicgstab, solve_cg
from twofluid.mesh import BoundaryTag, Mesh, generate_rect_mesh
from twofluid.physics import make_groups

CFG = CaseConfig()
PROPS, SCALES = CFG.props(), CFG.scales()


def reference_triangle_spaces():
    m = Mesh([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)], [(0, 1, 2)])
    return m, FunctionSpace.scalar_p1(m), FunctionSpace.vector_p2(m)


def make_state(mesh, alpha_g=0.0, v_l=(0.0, 0.0), v_g=(0.0, 0.0), p=0.0):
    p1 = FunctionSpace.scalar_p1(mesh)
    vec = FunctionSpace.vector_p2(mesh)
    n = p1.dof_count
    state = SimpleNamespace(
        alpha_g=p1.field(np.full(n, alpha_g)),
        alpha_l=p1.field(np.full(n, 1.0 - alpha_g)),
        v_l=vec.interpolate(lambda x, y: v_l),
        v_g=vec.interpolate(lambda x, y: v_g),
        p_l=p1.field(np.full(n, p)),
    )
    return state, p1, vec


def mass(space):
    """The space's mass matrix on its full pattern: over a copy of the
    vector space's data, and for P1, which keeps no mass data, assembled
    from the reference mass m3 times each cell's det J."""
    if space.kind == "VectorP2":
        return space.pattern.matrix(space.mass_data.copy())
    m3 = np.einsum("q,qi,qj->ij", fem.QUAD_WEIGHTS, space.n3, space.n3)
    return space.pattern.assemble(np.einsum("ij,c->cij", m3, space.mesh.det))


def pressure_system(state, qp, dt, groups):
    """The pressure system and the outlet nodes, whose dP = 0 the stepper's
    CG holds (`fixed`)."""
    A, b = assemble_pressure_poisson(state, qp, dt, groups)
    return A, b, state.p_l.space.boundary_nodes(BoundaryTag.Outlet)


def tentative_system(phase, state, dt, groups):
    """A and b of one phase's tentative system, built by the calls the
    stepper makes, unconstrained: the stepper's solver holds the Dirichlet
    dofs (`fixed`)."""
    closures = closure_inputs(state, groups, 1e-5)
    A, history, load = tentative_velocity_system(phase, dt, groups, closures)
    return A, history + load


# ---------------------------------------------------------------------------
# quadrature and static operators against symbolic integration

@pytest.fixture(scope="module")
def symbolic_ops():
    """Mass and Keps element matrices of the reference cell, exact."""
    m12, keps12, _ = sympy_mapped_operators([(0, 0), (1, 0), (0, 1)], (0, 0))
    return m12, keps12


def test_quadrature_weights_sum_to_reference_area():
    assert fem.QUAD_WEIGHTS.sum() == pytest.approx(0.5, abs=1e-15)


def viscous_operator(state, groups, phase="liquid"):
    """The phase's viscous operator W_q = (Keps - G)/(2 Re_q) as the
    stepper builds it, in `closure_inputs`."""
    return closure_inputs(state, groups, 1e-5).viscous[phase]


def test_vector_mass_and_strain_stiffness_on_reference_cell(symbolic_ops):
    # with uniform alpha, G = 0 and W_l = Keps/(2 Re_l)
    m12, keps12 = symbolic_ops
    mesh, _, _ = reference_triangle_spaces()
    state, _, vec = make_state(mesh, alpha_g=0.3)
    groups = make_groups(PROPS, SCALES, CFG.c_p)
    assert mass(vec).toarray() == pytest.approx(m12, abs=1e-14)
    w = viscous_operator(state, groups).toarray()
    assert 2.0 * groups.re_l * w == pytest.approx(keps12, abs=1e-13)


# A sheared, scaled cell (non-symmetric inverse Jacobian) and its mirror
# in x = 0, reordered to stay counterclockwise: `alternating` meshes hold
# both orientations.
MAPPED_CELLS = {
    "sheared": [(0.25, 0.5), (1.75, 0.75), (0.75, 1.5)],
    "mirrored": [(-0.25, 0.5), (-0.75, 1.5), (-1.75, 0.75)],
}
GRAD_LN_ALPHA = (0.75, -0.5)


def sympy_mapped_operators(vertices, g):
    """Mass, Keps and G(g) element matrices (12 x 12, dofs (i, a)) of one
    physical cell, integrated exactly from the P2 basis written in (x, y)
    through its barycentric coordinates."""
    import sympy as sp

    x, y, xi, eta = sp.symbols("x y xi eta")
    v = [[sp.nsimplify(c) for c in p] for p in vertices]
    g = [sp.nsimplify(c) for c in g]
    corners = sp.Matrix([[1, p[0], p[1]] for p in v])
    coef = corners.inv()                   # column k: lambda_k coefficients
    lam = [coef[0, k] + coef[1, k] * x + coef[2, k] * y for k in range(3)]
    phi = [l * (2 * l - 1) for l in lam]
    phi += [4 * lam[i] * lam[j] for i, j in ((1, 2), (0, 2), (0, 1))]
    to_ref = {c: v[0][k] + xi * (v[1][k] - v[0][k]) + eta * (v[2][k] - v[0][k])
              for k, c in enumerate((x, y))}
    det = ((v[1][0] - v[0][0]) * (v[2][1] - v[0][1])
           - (v[2][0] - v[0][0]) * (v[1][1] - v[0][1]))
    grad = [[sp.expand(sp.diff(p, c).subs(to_ref, simultaneous=True))
             for c in (x, y)] for p in phi]
    phi = [sp.expand(p.subs(to_ref, simultaneous=True)) for p in phi]

    def integrate(expr):
        # int over the reference cell of xi^p eta^q is p! q! / (p + q + 2)!
        poly = sp.Poly(sp.expand(expr), xi, eta)
        return float(det * sum(
            c * sp.factorial(p) * sp.factorial(q) / sp.factorial(p + q + 2)
            for (p, q), c in poly.terms()))

    # m[i,j] = int phi_i phi_j, t[i,j,a] = int phi_i d_a phi_j,
    # d[i,j,a,b] = int d_a phi_i d_b phi_j
    m = np.array([[integrate(phi[i] * phi[j]) for j in range(6)]
                  for i in range(6)])
    t = np.array([[[integrate(phi[i] * grad[j][a]) for a in range(2)]
                   for j in range(6)] for i in range(6)])
    d = np.array([[[[integrate(grad[i][a] * grad[j][b]) for b in range(2)]
                    for a in range(2)] for j in range(6)] for i in range(6)])
    eye = np.eye(2)
    g = np.array([float(c) for c in g])
    m12 = np.einsum("ij,ab->iajb", m, eye)
    # Keps[(i,a),(j,b)] = dab <grad phi_i, grad phi_j>
    #                     + int d_a phi_j d_b phi_i
    keps = (np.einsum("ijee,ab->iajb", d, eye)
            + np.einsum("jiab->iajb", d))
    # G[(i,a),(j,b)] = int phi_i [(g . grad phi_j) dab + g_b d_a phi_j]
    gmat = (np.einsum("ije,e,ab->iajb", t, g, eye)
            + np.einsum("ija,b->iajb", t, g))
    return m12.reshape(12, 12), keps.reshape(12, 12), gmat.reshape(12, 12)


@pytest.mark.parametrize("cell", sorted(MAPPED_CELLS))
def test_element_matrices_on_a_mapped_cell(cell):
    vertices = MAPPED_CELLS[cell]
    m12, keps12, g12 = sympy_mapped_operators(vertices, GRAD_LN_ALPHA)
    mesh = Mesh(vertices, [(0, 1, 2)])
    state, p1, vec = make_state(mesh)
    # alpha_l = exp(g . x) / max: ln alpha_l is linear, with gradient g
    ln_alpha = p1.node_coords @ np.array(GRAD_LN_ALPHA)
    state.alpha_l = p1.field(np.exp(ln_alpha - ln_alpha.max()))
    state.alpha_g = p1.field(1.0 - state.alpha_l.coefficients)
    groups = make_groups(PROPS, SCALES, CFG.c_p)
    assert mass(vec).toarray() == pytest.approx(m12, abs=1e-14)
    w = viscous_operator(state, groups).toarray()
    assert 2.0 * groups.re_l * w == pytest.approx(keps12 - g12, abs=1e-13)


@pytest.mark.parametrize("cell", sorted(MAPPED_CELLS))
def test_quadratic_field_at_the_quadrature_points_of_a_mapped_cell(cell):
    vertices = np.array(MAPPED_CELLS[cell])
    mesh = Mesh(vertices, [(0, 1, 2)])
    vec = FunctionSpace.vector_p2(mesh)
    field = vec.interpolate(
        lambda x, y: (x * x - 2.0 * x * y + 3.0 * y, y * y + x * y - x))
    qp = VelocityQP(field, field, make_groups(PROPS, SCALES, CFG.c_p))
    xi, eta = fem.QUAD_POINTS.T
    x, y = (np.outer(1.0 - xi - eta, vertices[0]) + np.outer(xi, vertices[1])
            + np.outer(eta, vertices[2])).T
    values = np.stack([x * x - 2.0 * x * y + 3.0 * y,
                       y * y + x * y - x], axis=1)
    grads = np.stack([np.stack([2.0 * x - 2.0 * y, -2.0 * x + 3.0], axis=1),
                      np.stack([y - 1.0, 2.0 * y + x], axis=1)], axis=1)
    assert qp.v["liquid"][0] == pytest.approx(values, abs=1e-13)
    assert qp.dv["liquid"][0] == pytest.approx(grads, abs=1e-13)


@pytest.mark.parametrize("diagonal", ["right", "left", "alternating"])
def test_vector_mass_matrix_stores_no_cross_component_entries(diagonal):
    vec = FunctionSpace.vector_p2(generate_rect_mesh(1.0, 2.0, 3, 4, diagonal))
    full = mass(vec)
    M = vec.mass_matrix
    assert np.array_equal(M.toarray(), full.toarray())
    rows = np.repeat(np.arange(vec.dof_count), np.diff(M.indptr))
    assert np.all(rows % 2 == M.indices % 2)
    assert 2 * M.indptr[-1] == full.indptr[-1]
    rng = np.random.default_rng(4)
    for _ in range(3):
        x = rng.standard_normal(vec.dof_count)
        assert np.array_equal(M @ x, full @ x)
    # every diagonal survives, for the Jacobi preconditioner of CG
    assert np.array_equal(M.diagonal(), full.diagonal())


def test_constraints_leave_the_shared_patterns_intact():
    # every matrix of a space shares its pattern's index arrays, so no
    # structural op may run in place on one; each space's pattern equals
    # the one built from its dof-level COO positions, entry for entry
    def fresh(space):
        cd, nl = space.cell_dofs, space.cell_dofs.shape[1]
        return Pattern(np.repeat(cd, nl, axis=1), np.tile(cd, nl),
                       space.dof_count)

    for diagonal in ("right", "left", "alternating"):
        spaces = build_spaces(generate_rect_mesh(1.0, 2.0, 3, 4, diagonal))
        p1, vec = spaces.p1, spaces.vec
        built = {space: fresh(space) for space in (p1, vec)}

        def assert_intact():
            for space, ref in built.items():
                pattern = space.pattern
                assert np.array_equal(pattern.indptr, ref.indptr)
                assert np.array_equal(pattern.indices, ref.indices)
                assert np.array_equal(pattern.slots, ref.slots)
                rows = np.repeat(np.arange(space.dof_count),
                                 np.diff(pattern.indptr))
                same_row = rows[1:] == rows[:-1]
                assert np.all(np.diff(pattern.indices)[same_row] > 0)

        assert_intact()
        assert not np.shares_memory(vec.mass_matrix.indices,
                                    vec.pattern.indices)
        # the velocity update's CG holds dofs without editing the shared
        # mass matrix
        mass = vec.mass_matrix
        before = [a.copy() for a in (mass.data, mass.indices, mass.indptr)]
        solve_cg(mass, np.ones(vec.dof_count), 1e-10, 500, fixed=[1, 4])
        for a, b in zip(before, (mass.data, mass.indices, mass.indptr)):
            assert np.array_equal(a, b)
        assert_intact()


def test_assembled_matrices_share_both_index_arrays_with_their_pattern():
    # both index arrays are int32, the P2 pattern's after widening too,
    # so every matrix a step builds wraps them without a copy
    mesh = generate_rect_mesh(1.0, 2.0, 3, 4, "alternating")
    state, p1, vec = make_state(mesh, alpha_g=0.2, v_g=(0.0, 0.1))
    groups = make_groups(PROPS, SCALES, CFG.c_p)
    closures = closure_inputs(state, groups, 1e-5)
    pressure, _ = assemble_pressure_poisson(state, closures.qp, 0.1, groups)
    alpha, _ = assemble_alpha_system(state.alpha_g, state.v_g, 0.1)
    built = [(p1, pressure), (p1, alpha)]
    for phase in ("liquid", "gas"):
        built.append((vec, closures.viscous[phase]))
        built.append((vec, tentative_velocity_system(phase, 0.1, groups,
                                                     closures)[0]))
    for space in (p1, vec):
        assert space.pattern.indptr.dtype == space.pattern.indices.dtype
    for space, A in built:
        assert np.shares_memory(A.indices, space.pattern.indices)
        assert np.shares_memory(A.indptr, space.pattern.indptr)


def test_tentative_velocity_matrix_is_mass_plus_viscous(symbolic_ops):
    # single reference cell, unit dt, uniform alpha and zero velocities:
    # A = M/dt + (1/(2 Re)) Keps exactly
    m12, keps12 = symbolic_ops
    mesh, _, _ = reference_triangle_spaces()
    state, _, vec = make_state(mesh, alpha_g=0.3)
    groups = make_groups(PROPS, SCALES, CFG.c_p)
    A, _ = tentative_system("liquid", state, 1.0, groups)
    expect = m12 / 1.0 + 0.5 / groups.re_l * keps12
    assert A.toarray() == pytest.approx(expect, abs=1e-13)


@pytest.mark.parametrize("diagonal", ["right", "left", "alternating"])
def test_p1_mass_row_sums_are_lumped_areas(diagonal):
    mesh = generate_rect_mesh(2.0, 3.0, 4, 5, diagonal)
    p1 = FunctionSpace.scalar_p1(mesh)
    M = mass(p1)
    row_sums = M @ np.ones(p1.dof_count)
    # row sums = int phi_i; their total is the domain area
    assert row_sums.sum() == pytest.approx(6.0, rel=1e-12)
    assert np.all(row_sums > 0)
    # the space's weights are those row sums
    assert p1.int_phi.shape == (p1.dof_count,)
    assert p1.int_phi == pytest.approx(row_sums, rel=1e-13)


def test_stiffness_annihilates_constants():
    # the unconstrained pressure matrix is a pure stiffness: every row,
    # the outlet's included, sums to zero
    mesh = generate_rect_mesh(1.0, 2.0, 5, 7, "alternating")
    state, p1, vec = make_state(mesh, alpha_g=0.3)
    groups = make_groups(PROPS, SCALES, CFG.c_p)
    K, _ = assemble_pressure_poisson(
        state, VelocityQP(vec.field(), vec.field(), groups), 0.01, groups)
    assert (np.max(np.abs(K @ np.ones(p1.dof_count)))
            < 1e-14 * np.max(np.abs(K.data)))
    # with uniform alpha, G = 0 and W_l = Keps/(2 Re_l)
    const = vec.interpolate(lambda x, y: (0.7, -0.3))
    w = viscous_operator(state, groups)
    assert (np.max(np.abs(w @ const.coefficients))
            < 1e-11 / (2.0 * groups.re_l))


@pytest.mark.parametrize("phase", ["liquid", "gas"])
def test_viscous_operator_annihilates_constants_for_varying_alpha(phase):
    # Keps and G(g) both act on gradients of the field, so W_q v = 0 for
    # a constant v, whatever the grad ln alpha_q in G
    mesh = generate_rect_mesh(1.0, 2.0, 5, 7, "alternating")
    state, p1, vec = make_state(mesh)
    x, y = p1.node_coords.T
    state.alpha_g = p1.field(0.05 + 0.4 * x * x * (1.0 + np.sin(3.0 * y)))
    state.alpha_l = p1.field(1.0 - state.alpha_g.coefficients)
    groups = make_groups(PROPS, SCALES, CFG.c_p)
    w = viscous_operator(state, groups, phase)
    re = groups.re_l if phase == "liquid" else groups.re_g
    g_only = 2.0 * re * w - vec.pattern.matrix(vec.keps_data)
    assert np.max(np.abs(g_only.data)) > 1e-2     # G is far from zero
    const = vec.interpolate(lambda x, y: (0.7, -0.3))
    assert (np.max(np.abs(w @ const.coefficients))
            < 1e-11 / (2.0 * re))


# ---------------------------------------------------------------------------
# tentative velocity loads

def test_gravity_only_rhs():
    mesh = generate_rect_mesh(1.0, 2.0, 3, 4, "alternating")
    state, p1, vec = make_state(mesh, alpha_g=0.3)
    groups = make_groups(PROPS, SCALES, CFG.c_p)
    _, b = tentative_system("liquid", state, 0.1, groups)
    M = mass(vec)
    grav = vec.interpolate(lambda x, y: (0.0, -1.0 / groups.fr ** 2))
    assert b == pytest.approx(M @ grav.coefficients, abs=1e-12)


def test_hydrostatic_pressure_cancels_gravity():
    # p = (h_ref - y x_s)/h_ref in scaled units balances gravity for the
    # liquid exactly (Eu_l x_s / h_ref = 1/Fr^2)
    scales = SCALES
    mesh = generate_rect_mesh(1.0, 2.0, 3, 4, "alternating")
    state, p1, vec = make_state(mesh)
    pcoef = 1.0 - state.p_l.space.node_coords[:, 1] * scales.x_s / scales.h_ref
    state.p_l.coefficients[:] = pcoef
    groups = make_groups(PROPS, scales, CFG.c_p)
    _, b = tentative_system("liquid", state, 0.1, groups)
    assert np.max(np.abs(b)) < 1e-10


def test_drag_load_matches_closed_form():
    from twofluid.physics import drag_exchange_coefficient

    mesh = generate_rect_mesh(1.0, 2.0, 4, 4, "alternating")
    groups = make_groups(PROPS, SCALES, CFG.c_p)
    state, p1, vec = make_state(mesh, alpha_g=0.02, v_g=(0.0, 0.1))
    _, b = tentative_system("liquid", state, 0.5, groups)
    M = mass(vec)
    grav = vec.interpolate(lambda x, y: (0.0, -1.0 / groups.fr ** 2))
    b_drag = b - M @ grav.coefficients
    k = drag_exchange_coefficient(0.1, groups)
    coef = (0.02 / 0.98) * k
    drag_field = vec.interpolate(lambda x, y: (0.0, coef * 0.1))
    # constant load integrates to the mass-lumped weights times the vector
    assert b_drag == pytest.approx(M @ drag_field.coefficients, abs=1e-12)


def test_gas_drag_sign_and_density_ratio():
    from twofluid.physics import drag_exchange_coefficient

    mesh = generate_rect_mesh(1.0, 1.0, 3, 3, "alternating")
    groups = make_groups(PROPS, SCALES, CFG.c_p)
    state, p1, vec = make_state(mesh, alpha_g=0.02, v_g=(0.0, 0.1))
    groups.c_p = 0.0  # isolate drag
    _, b = tentative_system("gas", state, 0.5, groups)
    M = mass(vec)
    grav = vec.interpolate(lambda x, y: (0.0, -1.0 / groups.fr ** 2))
    k = drag_exchange_coefficient(0.1, groups)
    vn = state.v_g.coefficients
    expect = (M @ grav.coefficients + M @ vn / 0.5
              + M @ vec.interpolate(
                  lambda x, y: (0.0, -groups.rho_ratio * k * 0.1)).coefficients)
    assert b == pytest.approx(expect, abs=1e-11)


@pytest.mark.parametrize("phase", ["liquid", "gas"])
def test_velocity_dependent_load_is_affine_in_c_p(phase):
    # the interfacial-pressure term is c_p times a load of its own, which
    # the c_p = 0 load leaves out; varying alpha and a varying slip make
    # that load nonzero for both phases
    mesh = generate_rect_mesh(1.0, 2.0, 4, 6, "alternating")
    state, p1, vec = make_state(mesh)
    x, y = p1.node_coords.T
    state.alpha_g = p1.field(0.05 + 0.8 * x * x + 0.2 * y)
    state.alpha_l = p1.field(1.0 - state.alpha_g.coefficients)
    state.v_l = vec.interpolate(lambda x, y: (0.1 * y, 0.2 * x * x))
    state.v_g = vec.interpolate(lambda x, y: (0.3 * x * y, 2.0 + 0.5 * y * y))
    groups = make_groups(PROPS, SCALES, CFG.c_p)
    closures = closure_inputs(state, groups, 1e-5)

    def load(c_p):
        return fem.velocity_dependent_load(
            phase, closures.qp, dataclasses.replace(groups, c_p=c_p), closures)

    zero = load(0.0)
    expect = 0.25 * (load(1.0) - zero)
    assert (np.linalg.norm(load(0.25) - zero - expect)
            <= 1e-12 * np.linalg.norm(expect))
    assert not np.array_equal(zero, load(0.25))


def test_dirichlet_rows_enforced():
    mesh = generate_rect_mesh(1.0, 2.0, 3, 4, "alternating")
    state, p1, vec = make_state(mesh)
    groups = make_groups(PROPS, SCALES, CFG.c_p)
    dofs = 2 * vec.boundary_nodes(BoundaryTag.Inlet) + 1   # y components
    values = np.full(dofs.size, 0.25)
    A, b = tentative_system("gas", state, 0.1, groups)
    x0 = np.zeros(vec.dof_count)
    x0[dofs] = values
    x = solve_bicgstab(A, b, tol=1e-12, max_iter=2000, x0=x0, fixed=dofs)
    assert np.array_equal(x[dofs], values)
    # the free rows converge against the row-replaced right-hand side
    free = np.setdiff1d(np.arange(vec.dof_count), dofs)
    replaced = b.copy()
    replaced[dofs] = values
    assert (np.linalg.norm((A @ x - b)[free])
            <= 1e-12 * np.linalg.norm(replaced))


def test_unknown_space_kind_rejected():
    mesh = generate_rect_mesh(1.0, 1.0, 2, 2, "right")
    with pytest.raises(ValueError, match="unknown space kind 'ScalarP2'"):
        FunctionSpace(kind="ScalarP2", mesh=mesh)


@pytest.mark.parametrize("kind", ["ScalarP1", "VectorP2"])
def test_field_of_the_wrong_length_rejected(kind):
    space = FunctionSpace(kind, generate_rect_mesh(1.0, 1.0, 2, 2, "right"))
    with pytest.raises(ValueError, match="does not match space dof count"):
        space.field(np.zeros(space.dof_count + 1))


def test_space_mismatch_rejected():
    mesh = generate_rect_mesh(1.0, 1.0, 2, 2, "right")
    other = generate_rect_mesh(1.0, 1.0, 2, 2, "right")
    state, p1, vec = make_state(mesh)
    state.v_g = FunctionSpace.vector_p2(other).field()
    groups = make_groups(PROPS, SCALES, CFG.c_p)
    with pytest.raises(ValueError):
        tentative_system("liquid", state, 0.1, groups)


# ---------------------------------------------------------------------------
# pressure Poisson

def test_pressure_zero_tentative_gives_zero_increment():
    mesh = generate_rect_mesh(1.0, 2.0, 4, 6, "alternating")
    state, p1, vec = make_state(mesh, alpha_g=0.2)
    groups = make_groups(PROPS, SCALES, CFG.c_p)
    A, b, outlet = pressure_system(
        state, VelocityQP(vec.field(), vec.field(), groups), 0.01, groups)
    assert np.max(np.abs(b)) == 0.0
    dp = solve_cg(A, b, tol=1e-12, max_iter=2000, fixed=outlet)
    assert np.max(np.abs(dp)) == 0.0


def test_pressure_rhs_zero_for_divergence_free_liquid():
    mesh = generate_rect_mesh(1.0, 2.0, 4, 6, "alternating")
    state, p1, vec = make_state(mesh, alpha_g=0.0)
    groups = make_groups(PROPS, SCALES, CFG.c_p)
    v_star = vec.interpolate(lambda x, y: (y, 0.0))
    _, b = assemble_pressure_poisson(
        state, VelocityQP(v_star, vec.field(), groups), 0.01, groups)
    assert np.max(np.abs(b)) < 1e-12


def test_pressure_rhs_linear_field_oracle():
    mesh = generate_rect_mesh(1.0, 2.0, 4, 6, "alternating")
    state, p1, vec = make_state(mesh, alpha_g=0.5)
    groups = make_groups(PROPS, SCALES, CFG.c_p)
    c = 0.3
    v_star = vec.interpolate(lambda x, y: (0.0, c * y))
    dt = 0.01
    _, b = assemble_pressure_poisson(
        state, VelocityQP(v_star, v_star, groups), dt, groups)
    # div(sum alpha_q v) = c everywhere; rows, the outlet's included, are
    # -c/dt * int psi_i
    expect = -c / dt * (mass(p1) @ np.ones(p1.dof_count))
    assert b == pytest.approx(expect, rel=1e-12)


def test_pressure_matrix_symmetric_and_spd():
    mesh = generate_rect_mesh(1.0, 2.0, 5, 8, "alternating")
    state, p1, vec = make_state(mesh, alpha_g=0.3)
    groups = make_groups(PROPS, SCALES, CFG.c_p)
    A, _, outlet = pressure_system(
        state, VelocityQP(vec.field(), vec.field(), groups), 0.01, groups)
    # SPD on the free nodes, the system CG solves with the outlet held
    free = np.setdiff1d(np.arange(p1.dof_count), outlet)
    dense = A.toarray()[np.ix_(free, free)]
    assert np.max(np.abs(dense - dense.T)) <= 1e-14 * np.max(np.abs(dense))
    eigs = np.linalg.eigvalsh(dense)
    assert eigs.min() > 0


def pressure_increment_error(nx):
    """L2 distance of the pressure increment from the P1 interpolant of
    q = cos(2 pi x) cos(pi y / 4) on the nx x 2nx scaled 1 x 2 column,
    with alpha_l = 1, v*_g = 0 and v*_l the P2 interpolant of
    dt Eu_l grad q.  The increment then solves -Eu_l lap dP = -Eu_l lap q:
    q is 0 at the outlet, which CG holds, and dq/dn = 0 on the inlet and
    the walls, where the Neumann condition is natural."""
    mesh = generate_rect_mesh(1.0, 2.0, nx, 2 * nx, "alternating")
    state, p1, vec = make_state(mesh, alpha_g=0.0)
    groups = make_groups(PROPS, SCALES, CFG.c_p)
    dt = 0.01
    c = dt * groups.eu_l
    v_star = vec.interpolate(lambda x, y: (
        -c * 2.0 * np.pi * np.sin(2.0 * np.pi * x) * np.cos(np.pi * y / 4.0),
        -c * np.pi / 4.0 * np.cos(2.0 * np.pi * x) * np.sin(np.pi * y / 4.0)))
    A, b, outlet = pressure_system(
        state, VelocityQP(v_star, vec.field(), groups), dt, groups)
    dp = solve_cg(A, b, tol=1e-12, max_iter=10000, fixed=outlet)
    x, y = p1.node_coords.T
    e = dp - np.cos(2.0 * np.pi * x) * np.cos(np.pi * y / 4.0)
    return float(np.sqrt(e @ (mass(p1) @ e)))


def test_pressure_increment_converges_at_second_order():
    """The L2 error orders of `pressure_increment_error` read 1.85, 1.98
    and 2.00 from 4 x 8 to 32 x 64; the two from 8 x 16 on must lie
    within 0.1 of 2."""
    errors = [pressure_increment_error(nx) for nx in (8, 16, 32)]
    orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
    assert orders == pytest.approx(2.0, abs=0.1)


# ---------------------------------------------------------------------------
# velocity update

def test_update_identity_for_zero_increment():
    mesh = generate_rect_mesh(1.0, 2.0, 3, 4, "alternating")
    state, p1, vec = make_state(mesh)
    groups = make_groups(PROPS, SCALES, CFG.c_p)
    load = assemble_velocity_update("liquid", vec, p1.field(), 0.01, groups)
    assert np.array_equal(load, np.zeros(vec.dof_count))
    stats = {}
    correction = solve_cg(vec.mass_matrix, load, tol=1e-13, max_iter=2000,
                          stats=stats)
    assert np.array_equal(correction, np.zeros(vec.dof_count))
    assert stats["iterations"] == 0


def test_update_constant_pressure_slope():
    mesh = generate_rect_mesh(1.0, 2.0, 3, 4, "alternating")
    state, p1, vec = make_state(mesh)
    groups = make_groups(PROPS, SCALES, CFG.c_p)
    s = 0.8
    dp = p1.field(s * p1.node_coords[:, 1])
    dt = 0.01
    load = assemble_velocity_update("gas", vec, dp, dt, groups)
    correction = solve_cg(vec.mass_matrix, load, tol=1e-13, max_iter=2000)
    expect = vec.interpolate(lambda x, y: (0.0, -dt * groups.eu_g * s))
    assert correction == pytest.approx(expect.coefficients, abs=1e-9)
    # held at the inlet's y dofs, as the stepper holds its Dirichlet dofs:
    # zero there, and the mass system met on every other row
    inlet_y = 2 * vec.boundary_nodes(BoundaryTag.Inlet) + 1
    held = solve_cg(vec.mass_matrix, load, tol=1e-13, max_iter=2000,
                    fixed=inlet_y)
    assert np.all(held[inlet_y] == 0.0)
    free = np.setdiff1d(np.arange(vec.dof_count), inlet_y)
    residual = (vec.mass_matrix @ held - load)[free]
    assert np.linalg.norm(residual) <= 1e-13 * np.linalg.norm(load[free])


# ---------------------------------------------------------------------------
# phase-fraction system

def test_alpha_zero_velocity_is_mass_over_dt():
    mesh = generate_rect_mesh(1.0, 2.0, 4, 5, "alternating")
    p1 = FunctionSpace.scalar_p1(mesh)
    vec = FunctionSpace.vector_p2(mesh)
    rng = np.random.default_rng(0)
    alpha_old = p1.field(rng.uniform(0.0, 0.05, p1.dof_count))
    dt = 0.02
    A, b = assemble_alpha_system(alpha_old, vec.field(), dt)
    M = mass(p1)
    assert (A / dt).toarray() == pytest.approx(M.toarray() / dt, abs=1e-13)
    x = solve_bicgstab(A, b, tol=1e-13, max_iter=2000)
    assert x == pytest.approx(alpha_old.coefficients, abs=1e-10)


def test_alpha_constant_transported_exactly():
    mesh = generate_rect_mesh(1.0, 2.0, 4, 5, "alternating")
    p1 = FunctionSpace.scalar_p1(mesh)
    vec = FunctionSpace.vector_p2(mesh)
    c = 0.4
    alpha_old = p1.field(np.full(p1.dof_count, c))
    v = vec.interpolate(lambda x, y: (0.1, 0.9))
    A, b = assemble_alpha_system(alpha_old, v, 0.05)
    resid = A @ np.full(p1.dof_count, c) - b
    assert np.max(np.abs(resid)) < 1e-12


def test_supg_tau_column():
    mesh = generate_rect_mesh(0.1, 2.0, 1, 20, "right")
    p1 = FunctionSpace.scalar_p1(mesh)
    vec = FunctionSpace.vector_p2(mesh)
    v = vec.interpolate(lambda x, y: (0.0, 1.0))
    tau = supg_tau(p1, v)
    assert tau == pytest.approx(mesh.cell_diameters / 2.0, rel=1e-13)
    # guard: zero velocity gives zero weight
    assert np.all(supg_tau(p1, vec.field()) == 0.0)


# ---------------------------------------------------------------------------
# evaluation

def test_evaluate_p1_linear():
    mesh = generate_rect_mesh(1.0, 1.0, 4, 4, "alternating")
    p1 = FunctionSpace.scalar_p1(mesh)
    f = p1.field(p1.node_coords[:, 0] + 0.5)  # x in [-0.5, 0.5]
    assert evaluate_many(f, [(-0.2, 0.7)]) == pytest.approx([0.3], abs=1e-14)


def test_evaluate_outside_domain():
    mesh = generate_rect_mesh(1.0, 1.0, 2, 2, "right")
    p1 = FunctionSpace.scalar_p1(mesh)
    with pytest.raises(OutOfDomainError):
        evaluate_many(p1.field(), [(10.0, 10.0)])


def test_evaluate_needs_the_grid_of_a_structured_mesh():
    # the same points and cells without `grid`: no cell lookup exists
    grid_mesh = generate_rect_mesh(1.0, 1.0, 2, 2, "right")
    p1 = FunctionSpace.scalar_p1(Mesh(grid_mesh.vertices, grid_mesh.cells))
    with pytest.raises(ValueError, match="grid metadata"):
        evaluate_many(p1.field(), [(0.0, 0.5)])


def test_evaluate_fails_where_the_grid_quad_holds_other_cells():
    # the grid metadata promises quad (i, j) holds cells 2(j nx + i) and
    # the next; with the cell order reversed, the quad of (0.1, 0.3)
    # holds two cells far from it, and neither contains the point
    m = generate_rect_mesh(1.0, 2.0, 2, 4, "right")
    p1 = FunctionSpace.scalar_p1(Mesh(m.vertices, m.cells[::-1], m.grid))
    with pytest.raises(OutOfDomainError, match="point location failed"):
        evaluate_many(p1.field(), [(0.1, 0.3)])


def test_evaluate_takes_only_scalar_p1_fields():
    mesh = generate_rect_mesh(1.0, 1.0, 3, 3, "alternating")
    vec = FunctionSpace.vector_p2(mesh)
    f = vec.interpolate(lambda x, y: (y, -x))
    with pytest.raises(ValueError, match="ScalarP1"):
        evaluate_many(f, [(0.25, 0.5)])


# ---------------------------------------------------------------------------
# the alpha system's row sum is the discrete gas balance

@pytest.mark.parametrize("dt", [1e-3, 0.5])
@pytest.mark.parametrize("diagonal", ["right", "left", "alternating"])
def test_alpha_residual_sums_to_the_divergence_integral(diagonal, dt):
    # alpha = 1 + x, v = (0, 1 + y) on [-1, 1] x [0, 1]: with alpha held
    # fixed, the rows of A alpha - b (mass units) sum to dt int div(alpha
    # v) = dt int (1 + x) = 2 dt, the SUPG parts cancelling and the
    # quadrature exact
    mesh = generate_rect_mesh(2.0, 1.0, 8, 4, diagonal)
    p1 = FunctionSpace.scalar_p1(mesh)
    vec = FunctionSpace.vector_p2(mesh)
    alpha = p1.field(p1.node_coords[:, 0] + 1.0)
    v = vec.interpolate(lambda x, y: (0.0, 1.0 + y))
    A, b = assemble_alpha_system(alpha, v, dt)
    residual = A @ alpha.coefficients - b
    assert abs(residual.sum() / dt - 2.0) <= 1e-11
