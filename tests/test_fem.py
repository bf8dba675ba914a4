from types import SimpleNamespace

import numpy as np
import pytest

from twofluid import fem
from twofluid.caseio import CaseConfig
from twofluid.errors import OutOfDomainError
from twofluid.fem import (FunctionSpace, VelocityQP, assemble_alpha_system,
                          assemble_pressure_poisson, assemble_velocity_update,
                          boundary_alpha_flux, closure_inputs, evaluate,
                          mass_matrix, p1_stiffness_matrix,
                          strain_stiffness_matrix, supg_tau,
                          tentative_velocity_system)
from twofluid.linalg import solve_bicgstab, solve_cg
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


def tentative_system(phase, state, dt, groups, scales=None, dirichlet=None):
    """A and b of one phase's tentative system, built by the calls the
    stepper makes; `dirichlet` is an optional (dofs, values) pair imposed
    the way the stepper imposes it."""
    closures = closure_inputs(state, PROPS, scales or SCALES,
                              groups, 1e-5)
    A, history, load = tentative_velocity_system(phase, dt, groups, closures)
    b = history + load
    if dirichlet is not None:
        dofs, values = dirichlet
        A.zero_rows(dofs)
        b[dofs] = values
    return A, b


def sampled(v_l, v_g, groups):
    return VelocityQP(v_l, v_g, PROPS, SCALES, groups)


# ---------------------------------------------------------------------------
# quadrature and static operators against symbolic integration

def sympy_reference_operators():
    import sympy as sp

    xi, eta = sp.symbols("xi eta")
    lam = [1 - xi - eta, xi, eta]
    phi = [l * (2 * l - 1) for l in lam]
    for i, j in ((1, 2), (0, 2), (0, 1)):
        phi.append(4 * lam[i] * lam[j])

    def tri_integrate(expr):
        return sp.integrate(sp.integrate(expr, (eta, 0, 1 - xi)), (xi, 0, 1))

    grad = [(sp.diff(p, xi), sp.diff(p, eta)) for p in phi]
    m6 = np.array([[float(tri_integrate(phi[i] * phi[j]))
                    for j in range(6)] for i in range(6)])
    k6 = np.array([[float(tri_integrate(grad[i][0] * grad[j][0]
                                        + grad[i][1] * grad[j][1]))
                    for j in range(6)] for i in range(6)])
    kd = np.empty((2, 2, 6, 6))
    for a in range(2):
        for b in range(2):
            kd[a, b] = [[float(tri_integrate(grad[i][a] * grad[j][b]))
                         for j in range(6)] for i in range(6)]
    return m6, k6, kd


@pytest.fixture(scope="module")
def symbolic_ops():
    return sympy_reference_operators()


def test_degree4_rule_exact_for_p2_products(symbolic_ops):
    m6_exact, _, _ = symbolic_ops
    _, _, vec = reference_triangle_spaces()
    assert vec.mass_ref6 == pytest.approx(m6_exact, abs=1e-14)


def test_quadrature_weights_sum_to_reference_area():
    rule = fem.QuadratureRule.degree4()
    assert rule.weights.sum() == pytest.approx(0.5, abs=1e-15)


def test_vector_mass_and_strain_stiffness_on_reference_cell(symbolic_ops):
    m6, k6, kd = symbolic_ops
    _, _, vec = reference_triangle_spaces()
    eye = np.eye(2)
    m12 = np.einsum("ij,ab->iajb", m6, eye).reshape(12, 12)
    keps = np.einsum("ij,ab->iajb", k6, eye)
    keps = keps + np.einsum("abji->iajb", kd)
    keps12 = keps.reshape(12, 12)
    assert mass_matrix(vec).to_dense() == pytest.approx(m12, abs=1e-14)
    assert strain_stiffness_matrix(vec).to_dense() == pytest.approx(
        keps12, abs=1e-13)


def test_tentative_velocity_matrix_is_mass_plus_viscous(symbolic_ops):
    # single reference cell, unit dt, uniform alpha and zero velocities:
    # A = M/dt + (1/(2 Re)) Keps exactly
    m6, k6, kd = symbolic_ops
    mesh, _, _ = reference_triangle_spaces()
    state, _, vec = make_state(mesh, alpha_g=0.3)
    groups = make_groups(PROPS, SCALES, CFG.c_p)
    A, _ = tentative_system("liquid", state, 1.0, groups)
    eye = np.eye(2)
    m12 = np.einsum("ij,ab->iajb", m6, eye).reshape(12, 12)
    keps12 = (np.einsum("ij,ab->iajb", k6, eye)
              + np.einsum("abji->iajb", kd)).reshape(12, 12)
    expect = m12 / 1.0 + 0.5 / groups.re_l * keps12
    assert A.to_dense() == pytest.approx(expect, abs=1e-13)


def test_p1_mass_row_sums_are_lumped_areas():
    mesh = generate_rect_mesh(2.0, 3.0, 4, 5, "alternating")
    p1 = FunctionSpace.scalar_p1(mesh)
    M = mass_matrix(p1)
    row_sums = M.matvec(np.ones(p1.dof_count))
    # row sums = int phi_i; their total is the domain area
    assert row_sums.sum() == pytest.approx(6.0, rel=1e-12)
    assert np.all(row_sums > 0)


def test_stiffness_annihilates_constants():
    mesh = generate_rect_mesh(1.0, 2.0, 5, 7, "alternating")
    p1 = FunctionSpace.scalar_p1(mesh)
    K = p1_stiffness_matrix(p1)
    assert np.max(np.abs(K.matvec(np.ones(p1.dof_count)))) < 1e-12
    vec = FunctionSpace.vector_p2(mesh)
    const = vec.interpolate(lambda x, y: (0.7, -0.3))
    Keps = strain_stiffness_matrix(vec)
    assert np.max(np.abs(Keps.matvec(const.coefficients))) < 1e-11


# ---------------------------------------------------------------------------
# tentative velocity loads

def test_gravity_only_rhs():
    mesh = generate_rect_mesh(1.0, 2.0, 3, 4, "alternating")
    state, p1, vec = make_state(mesh, alpha_g=0.3)
    groups = make_groups(PROPS, SCALES, CFG.c_p)
    _, b = tentative_system("liquid", state, 0.1, groups)
    M = mass_matrix(vec)
    grav = vec.interpolate(lambda x, y: (0.0, -1.0 / groups.fr ** 2))
    assert b == pytest.approx(M.matvec(grav.coefficients), abs=1e-12)


def test_hydrostatic_pressure_cancels_gravity():
    # p = (h_ref - y x_s)/h_ref in scaled units balances gravity for the
    # liquid exactly (Eu_l x_s / h_ref = 1/Fr^2)
    scales = SCALES
    mesh = generate_rect_mesh(1.0, 2.0, 3, 4, "alternating")
    state, p1, vec = make_state(mesh)
    pcoef = 1.0 - state.p_l.space.node_coords[:, 1] * scales.x_s / scales.h_ref
    state.p_l.coefficients[:] = pcoef
    groups = make_groups(PROPS, scales, CFG.c_p)
    _, b = tentative_system("liquid", state, 0.1, groups, scales=scales)
    assert np.max(np.abs(b)) < 1e-10


def test_drag_load_matches_closed_form():
    from twofluid.physics import drag_exchange_coefficient

    mesh = generate_rect_mesh(1.0, 2.0, 4, 4, "alternating")
    props, scales = PROPS, SCALES
    groups = make_groups(props, scales, CFG.c_p)
    state, p1, vec = make_state(mesh, alpha_g=0.02, v_g=(0.0, 0.1))
    _, b = tentative_system("liquid", state, 0.5, groups)
    M = mass_matrix(vec)
    grav = vec.interpolate(lambda x, y: (0.0, -1.0 / groups.fr ** 2))
    b_drag = b - M.matvec(grav.coefficients)
    k = drag_exchange_coefficient(0.1, props, scales, groups)
    coef = (0.02 / 0.98) * k
    drag_field = vec.interpolate(lambda x, y: (0.0, coef * 0.1))
    # constant load integrates to the mass-lumped weights times the vector
    assert b_drag == pytest.approx(M.matvec(drag_field.coefficients), abs=1e-12)


def test_gas_drag_sign_and_density_ratio():
    from twofluid.physics import drag_exchange_coefficient

    mesh = generate_rect_mesh(1.0, 1.0, 3, 3, "alternating")
    props, scales = PROPS, SCALES
    groups = make_groups(props, scales, CFG.c_p)
    state, p1, vec = make_state(mesh, alpha_g=0.02, v_g=(0.0, 0.1))
    groups.c_p = 0.0  # isolate drag
    _, b = tentative_system("gas", state, 0.5, groups)
    M = mass_matrix(vec)
    grav = vec.interpolate(lambda x, y: (0.0, -1.0 / groups.fr ** 2))
    k = drag_exchange_coefficient(0.1, props, scales, groups)
    vn = state.v_g.coefficients
    expect = (M.matvec(grav.coefficients) + M.matvec(vn) / 0.5
              + M.matvec(vec.interpolate(
                  lambda x, y: (0.0, -groups.rho_ratio * k * 0.1)).coefficients))
    assert b == pytest.approx(expect, abs=1e-11)


def test_dirichlet_rows_enforced():
    mesh = generate_rect_mesh(1.0, 2.0, 3, 4, "alternating")
    state, p1, vec = make_state(mesh)
    groups = make_groups(PROPS, SCALES, CFG.c_p)
    dofs = 2 * vec.boundary_nodes(BoundaryTag.Inlet) + 1   # y components
    values = np.full(dofs.size, 0.25)
    A, b = tentative_system("gas", state, 0.1, groups,
                            dirichlet=(dofs, values))
    x = solve_bicgstab(A, b, tol=1e-12)
    assert x[dofs] == pytest.approx(values, abs=1e-10)


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
    A, b = assemble_pressure_poisson(
        state, sampled(vec.field(), vec.field(), groups), 0.01, groups)
    assert np.max(np.abs(b)) == 0.0
    dp = solve_cg(A, b, tol=1e-12)
    assert np.max(np.abs(dp)) == 0.0


def test_pressure_rhs_zero_for_divergence_free_liquid():
    mesh = generate_rect_mesh(1.0, 2.0, 4, 6, "alternating")
    state, p1, vec = make_state(mesh, alpha_g=0.0)
    groups = make_groups(PROPS, SCALES, CFG.c_p)
    v_star = vec.interpolate(lambda x, y: (y, 0.0))
    _, b = assemble_pressure_poisson(
        state, sampled(v_star, vec.field(), groups), 0.01, groups)
    assert np.max(np.abs(b)) < 1e-12


def test_pressure_rhs_linear_field_oracle():
    mesh = generate_rect_mesh(1.0, 2.0, 4, 6, "alternating")
    state, p1, vec = make_state(mesh, alpha_g=0.5)
    groups = make_groups(PROPS, SCALES, CFG.c_p)
    c = 0.3
    v_star = vec.interpolate(lambda x, y: (0.0, c * y))
    dt = 0.01
    A, b = assemble_pressure_poisson(
        state, sampled(v_star, v_star, groups), dt, groups)
    # div(sum alpha_q v) = c everywhere; rows are -c/dt * int psi_i
    M = mass_matrix(p1)
    expect = -c / dt * M.matvec(np.ones(p1.dof_count))
    outlet = p1.boundary_nodes(BoundaryTag.Outlet)
    interior = np.setdiff1d(np.arange(p1.dof_count), outlet)
    assert b[interior] == pytest.approx(expect[interior], rel=1e-12)


def test_pressure_matrix_symmetric_and_spd():
    mesh = generate_rect_mesh(1.0, 2.0, 5, 8, "alternating")
    state, p1, vec = make_state(mesh, alpha_g=0.3)
    groups = make_groups(PROPS, SCALES, CFG.c_p)
    A, b = assemble_pressure_poisson(
        state, sampled(vec.field(), vec.field(), groups), 0.01, groups)
    dense = A.to_dense()
    assert np.max(np.abs(dense - dense.T)) <= 1e-14 * np.max(np.abs(dense))
    eigs = np.linalg.eigvalsh(dense)
    assert eigs.min() > 0


# ---------------------------------------------------------------------------
# velocity update

def test_update_identity_for_zero_increment():
    mesh = generate_rect_mesh(1.0, 2.0, 3, 4, "alternating")
    state, p1, vec = make_state(mesh)
    groups = make_groups(PROPS, SCALES, CFG.c_p)
    v_star = vec.interpolate(lambda x, y: (np.sin(x), y))
    M, b = assemble_velocity_update("liquid", v_star, p1.field(), 0.01, groups)
    v_new = solve_cg(M, b, tol=1e-13)
    assert v_new == pytest.approx(v_star.coefficients, abs=1e-10)


def test_update_constant_pressure_slope():
    mesh = generate_rect_mesh(1.0, 2.0, 3, 4, "alternating")
    state, p1, vec = make_state(mesh)
    groups = make_groups(PROPS, SCALES, CFG.c_p)
    s = 0.8
    dp = p1.field(s * p1.node_coords[:, 1])
    dt = 0.01
    M, b = assemble_velocity_update("gas", vec.field(), dp, dt, groups)
    v_new = solve_cg(M, b, tol=1e-13)
    expect = vec.interpolate(lambda x, y: (0.0, -dt * groups.eu_g * s))
    assert v_new == pytest.approx(expect.coefficients, abs=1e-9)


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
    M = mass_matrix(p1)
    assert A.to_dense() == pytest.approx(M.to_dense() / dt, abs=1e-13)
    x = solve_bicgstab(A, b, tol=1e-13)
    assert x == pytest.approx(alpha_old.coefficients, abs=1e-10)


def test_alpha_constant_transported_exactly():
    mesh = generate_rect_mesh(1.0, 2.0, 4, 5, "alternating")
    p1 = FunctionSpace.scalar_p1(mesh)
    vec = FunctionSpace.vector_p2(mesh)
    c = 0.4
    alpha_old = p1.field(np.full(p1.dof_count, c))
    v = vec.interpolate(lambda x, y: (0.1, 0.9))
    A, b = assemble_alpha_system(alpha_old, v, 0.05)
    resid = A.matvec(np.full(p1.dof_count, c)) - b
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
    assert evaluate(f, (-0.2, 0.7)) == pytest.approx(0.3, abs=1e-14)


def test_evaluate_p2_quadratic_exact():
    mesh = generate_rect_mesh(2.0, 2.0, 3, 3, "alternating")
    vec = FunctionSpace.vector_p2(mesh)
    f = vec.interpolate(lambda x, y: (x * x, x * y))
    rng = np.random.default_rng(1)
    for _ in range(20):
        x = rng.uniform(-1.0, 1.0)
        y = rng.uniform(0.0, 2.0)
        assert evaluate(f, (x, y)) == pytest.approx([x * x, x * y],
                                                    abs=1e-13)
    # edge midpoints reproduce exactly too
    xm = -1.0 + 2.0 / 6.0
    assert evaluate(f, (xm, 0.0)) == pytest.approx([xm * xm, 0.0], abs=1e-14)


def test_evaluate_outside_domain():
    mesh = generate_rect_mesh(1.0, 1.0, 2, 2, "right")
    p1 = FunctionSpace.scalar_p1(mesh)
    with pytest.raises(OutOfDomainError):
        evaluate(p1.field(), (10.0, 10.0))


def test_vector_evaluate():
    mesh = generate_rect_mesh(1.0, 1.0, 3, 3, "alternating")
    vec = FunctionSpace.vector_p2(mesh)
    f = vec.interpolate(lambda x, y: (y, -x))
    out = evaluate(f, (0.25, 0.5))
    assert out == pytest.approx([0.5, -0.25], abs=1e-13)


# ---------------------------------------------------------------------------
# boundary flux

def test_boundary_flux_uniform_flow():
    mesh = generate_rect_mesh(1.0, 2.0, 4, 6, "alternating")
    p1 = FunctionSpace.scalar_p1(mesh)
    vec = FunctionSpace.vector_p2(mesh)
    alpha = p1.field(np.full(p1.dof_count, 0.5))
    v = vec.interpolate(lambda x, y: (0.0, 2.0))
    # outlet (top): outward normal +y: flux = 0.5 * 2 * width
    out = boundary_alpha_flux(alpha, v, BoundaryTag.Outlet)
    assert out == pytest.approx(1.0, rel=1e-12)
    inl = boundary_alpha_flux(alpha, v, BoundaryTag.Inlet)
    assert inl == pytest.approx(-1.0, rel=1e-12)
    walls = boundary_alpha_flux(alpha, v, BoundaryTag.WallLeft,
                                BoundaryTag.WallRight)
    assert walls == pytest.approx(0.0, abs=1e-14)


def test_boundary_flux_quadratic_profile():
    # alpha linear, v quadratic along the outlet: integrand degree 3,
    # matches the analytic integral
    mesh = generate_rect_mesh(2.0, 1.0, 8, 4, "alternating")
    p1 = FunctionSpace.scalar_p1(mesh)
    vec = FunctionSpace.vector_p2(mesh)
    alpha = p1.field(p1.node_coords[:, 0] + 1.0)          # 1 + x
    v = vec.interpolate(lambda x, y: (0.0, 1.0 - x * x))  # parabola
    out = boundary_alpha_flux(alpha, v, BoundaryTag.Outlet)
    # int_{-1}^{1} (1+x)(1-x^2) dx = 4/3
    assert out == pytest.approx(4.0 / 3.0, rel=1e-12)
