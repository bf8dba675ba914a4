"""Function spaces, quadrature and assembly of the scheme's weak forms.

Discretization: Taylor-Hood pair with quadratic velocities (VectorP2),
linear pressure and linear phase fraction (ScalarP1), so that the box
constraints on the phase fraction act nodewise.  A fixed 6-point
degree-4 triangle rule integrates every bilinear form exactly; the
nonlinear closure terms (drag, interfacial pressure, convection) are
quadrature approximations on the same points.

A `FunctionSpace` builds everything static in its constructor: the dof
map (P2 midpoint nodes follow the mesh's edge table), its
`linalg.Pattern`, the bases and physical gradients at the quadrature
points, and the mass, strain-stiffness and G-basis operators.  Assembly
is vectorized over cells: per-step assembly only recomputes values and
scatters them with bincount, which keeps the accumulation order (and
therefore the floating-point result) deterministic.

Sub-step systems assembled here.  Only the pressure outlet (dP = 0) is
eliminated here; the other systems come back unconstrained, and
`ipcs.step` imposes their Dirichlet rows.

  tentative velocity   [M/dt + (1/2Re)(Keps - G(ln alpha))] v* = explicit
                       convection / drag / pressure / gravity loads
  pressure Poisson     < sum_q Eu_q alpha_q grad dP, grad phi >  (SPD
                       after outlet Dirichlet elimination)
  velocity update      mass solve against the pressure-increment gradient
  phase fraction       implicit advection with SUPG test functions,
                       handed to the VI solver in bounded mode
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import physics
from .errors import OutOfDomainError, SingularSystemError
from .linalg import Pattern
from .mesh import BoundaryTag, boundary_facets

# ---------------------------------------------------------------------------
# quadrature and reference bases

class QuadratureRule:
    """Reference-triangle rule: points (nq, 2) in (xi, eta), weights sum 1/2."""

    def __init__(self, points, weights, degree):
        self.points = np.asarray(points, dtype=float)
        self.weights = np.asarray(weights, dtype=float)
        self.degree = degree

    @classmethod
    def degree4(cls):
        a = 0.445948490915965
        b = 0.091576213509771
        wa = 0.223381589678011 / 2.0
        wb = 0.109951743655322 / 2.0
        pts = [(a, a), (1.0 - 2.0 * a, a), (a, 1.0 - 2.0 * a),
               (b, b), (1.0 - 2.0 * b, b), (b, 1.0 - 2.0 * b)]
        return cls(pts, [wa, wa, wa, wb, wb, wb], degree=4)


def _p1_basis(points):
    xi, eta = points[:, 0], points[:, 1]
    n = np.stack([1.0 - xi - eta, xi, eta], axis=1)
    dn = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
    return n, dn


def _p2_basis(points):
    """Six-node basis: vertices 0-2, then midpoints of edges (1,2), (0,2), (0,1)."""
    xi, eta = points[:, 0], points[:, 1]
    lam = np.stack([1.0 - xi - eta, xi, eta], axis=1)   # (nq, 3)
    dlam = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
    nq = points.shape[0]
    n = np.empty((nq, 6))
    dn = np.empty((nq, 6, 2))
    for v in range(3):
        n[:, v] = lam[:, v] * (2.0 * lam[:, v] - 1.0)
        dn[:, v] = (4.0 * lam[:, v] - 1.0)[:, None] * dlam[v]
    for k, (i, j) in enumerate(((1, 2), (0, 2), (0, 1))):
        n[:, 3 + k] = 4.0 * lam[:, i] * lam[:, j]
        dn[:, 3 + k] = 4.0 * (lam[:, j][:, None] * dlam[i]
                              + lam[:, i][:, None] * dlam[j])
    return n, dn


# ---------------------------------------------------------------------------
# function spaces and fields

class FunctionSpace:
    """Dof map over a mesh for ScalarP1 or VectorP2, with the static
    tables and operators of its assembly, all built by the constructor.

    Vector dofs interleave components node-major: dof(node, comp) =
    2*node + comp, so coefficients order as (x0, y0, x1, y1, ...).

    Every space has its CSR `pattern` and the assembled `mass_data`.
    ScalarP1 adds the reference basis at the quadrature points `n3`, the
    physical basis gradients `grad_p1` (nc, 3, 2), the measure-free
    gradient products `gg` and the integrals of the basis `int_phi`.
    VectorP2 adds `n6`, the physical gradients `dn6` (nc, nq, 6, 2), the
    basis at the centroid `n6_centroid`, the reference mass `mass_ref6`,
    the strain-stiffness data `keps_data`, the basis `g_basis` of the
    grad(ln alpha) coupling, the integrals of the basis `int_phi6`, and
    the assembled `mass_matrix` and `keps_matrix`.
    """

    def __init__(self, kind, mesh):
        self.kind = kind
        self.mesh = mesh
        self.quad = QuadratureRule.degree4()
        nverts = mesh.n_vertices
        if kind == "ScalarP1":
            self.node_cell_dofs = mesh.cells.astype(np.int64)
            self.node_coords = mesh.vertices
        elif kind == "VectorP2":
            edges = mesh.edges
            self.node_cell_dofs = np.concatenate(
                [mesh.cells.astype(np.int64), nverts + mesh.cell_edges], axis=1)
            mids = 0.5 * (mesh.vertices[edges[:, 0]] + mesh.vertices[edges[:, 1]])
            self.node_coords = np.concatenate([mesh.vertices, mids], axis=0)
        else:
            raise ValueError(f"unknown space kind '{kind}'")
        self.n_nodes = self.node_coords.shape[0]
        if kind == "VectorP2":
            self.dof_count = 2 * self.n_nodes
            nd = self.node_cell_dofs
            cd = np.empty((mesh.n_cells, 12), dtype=np.int64)
            cd[:, 0::2] = 2 * nd
            cd[:, 1::2] = 2 * nd + 1
            self.cell_dofs = cd
            self.dof_coords = np.repeat(self.node_coords, 2, axis=0)
        else:
            self.dof_count = self.n_nodes
            self.cell_dofs = self.node_cell_dofs
            self.dof_coords = self.node_coords
        self._tag_nodes = {tag: self._facet_nodes(boundary_facets(mesh, tag))
                           for tag in BoundaryTag}
        cd = self.cell_dofs
        nl = cd.shape[1]
        self.pattern = Pattern(
            np.broadcast_to(cd[:, :, None], (cd.shape[0], nl, nl)),
            np.broadcast_to(cd[:, None, :], (cd.shape[0], nl, nl)),
            self.dof_count)
        if kind == "ScalarP1":
            self._build_p1_operators()
        else:
            self._build_p2_operators()

    def _build_p1_operators(self):
        w, det = self.quad.weights, self.mesh.det
        n3, dn3 = _p1_basis(self.quad.points)
        self.n3 = n3
        self.grad_p1 = np.einsum("ik,cka->cia", dn3, self.mesh.inv)
        m3 = np.einsum("q,qi,qj->ij", w, n3, n3)
        self.mass_data = self.pattern.assemble_data(
            np.einsum("ij,c->cij", m3, det))
        # grad_i . grad_j without measure; scale by the integrated
        # coefficient when assembling variable-coefficient stiffness
        self.gg = np.einsum("cia,cja->cij", self.grad_p1, self.grad_p1)
        self.int_phi = det[:, None] * np.einsum("q,qi->i", w, n3)

    def _build_p2_operators(self):
        w, det = self.quad.weights, self.mesh.det
        n6, dn6 = _p2_basis(self.quad.points)
        dn6 = np.einsum("qik,cka->cqia", dn6, self.mesh.inv)
        self.n6 = n6
        self.dn6 = dn6
        self.n6_centroid = _p2_basis(np.full((1, 2), 1.0 / 3.0))[0][0]
        eye2 = np.eye(2)
        m6 = np.einsum("q,qi,qj->ij", w, n6, n6)
        m12 = np.einsum("ij,ab->iajb", m6, eye2).reshape(12, 12)
        k6 = np.einsum("q,cqia,cqja,c->cij", w, dn6, dn6, det)
        kd = np.einsum("q,cqia,cqjb,c->cabij", w, dn6, dn6, det)
        # Keps[(i,a),(j,b)] = dab <grad_i, grad_j> + int d_a phi_j d_b phi_i
        keps = np.einsum("cij,ab->ciajb", k6, eye2)
        keps += np.einsum("cabji->ciajb", kd)
        # T[c,a,i,j] = int phi_i d_a phi_j
        t_a = np.einsum("q,qi,cqja,c->caij", w, n6, dn6, det)
        # G is linear in the per-cell gradient g of ln(alpha'):
        # G_elem[c] = g_x B_x[c] + g_y B_y[c] with
        # B_k[(i,a),(j,b)] = dab T_k[i,j] + [b == k] T_a[i,j]
        gbasis = np.zeros((2, t_a.shape[0], 6, 2, 6, 2))
        for k in range(2):
            for a in range(2):
                gbasis[k][:, :, a, :, a] += t_a[:, k]
                gbasis[k][:, :, a, :, k] += t_a[:, a]
        self.mass_ref6 = m6
        self.mass_data = self.pattern.assemble_data(
            np.einsum("ij,c->cij", m12, det))
        self.keps_data = self.pattern.assemble_data(keps.reshape(-1, 144))
        self.g_basis = gbasis.reshape(2, -1, 144)
        self.int_phi6 = det[:, None] * np.einsum("q,qi->i", w, n6)
        self.mass_matrix = self.pattern.matrix(self.mass_data)
        self.keps_matrix = self.pattern.matrix(self.keps_data)

    @classmethod
    def scalar_p1(cls, mesh):
        return cls("ScalarP1", mesh)

    @classmethod
    def vector_p2(cls, mesh):
        return cls("VectorP2", mesh)

    def field(self, coefficients=None):
        if coefficients is None:
            coefficients = np.zeros(self.dof_count)
        return FeField(self, coefficients)

    def interpolate(self, fn):
        """Nodal interpolant of fn(x, y); fn returns a pair for vector spaces."""
        vals = np.array([fn(x, y) for x, y in self.node_coords], dtype=float)
        return FeField(self, vals.ravel())

    def _facet_nodes(self, rows):
        mesh = self.mesh
        nodes = [mesh.facet_vertices[rows].ravel().astype(np.int64)]
        if self.kind == "VectorP2":
            nodes.append(mesh.n_vertices + mesh.facet_edges[rows])
        return np.unique(np.concatenate(nodes))

    def boundary_nodes(self, *tags):
        """Sorted scalar node indices lying on facets carrying any given tag."""
        return np.unique(np.concatenate([self._tag_nodes[t] for t in tags]))

    # -- field values at quadrature points -----------------------------------

    def p1_at_qp(self, coeffs):
        return np.einsum("qi,ci->cq", self.n3, coeffs[self.mesh.cells])

    def p1_cell_gradient(self, coeffs):
        return np.einsum("cia,ci->ca", self.grad_p1, coeffs[self.mesh.cells])


@dataclass
class FeField:
    space: FunctionSpace
    coefficients: np.ndarray

    def __post_init__(self):
        self.coefficients = np.asarray(self.coefficients, dtype=float)
        if self.coefficients.shape != (self.space.dof_count,):
            raise ValueError(
                f"coefficient length {self.coefficients.shape} does not match "
                f"space dof count {self.space.dof_count}")

    def vertex_values(self):
        """Values at mesh vertices; (n_vertices,) or (n_vertices, 2)."""
        nv = self.space.mesh.n_vertices
        if self.space.kind == "VectorP2":
            return self.coefficients.reshape(-1, 2)[:nv]
        return self.coefficients[:nv]


# ---------------------------------------------------------------------------
# helpers shared by the assembly routines

def _vec_nodes(space, coeffs):
    """(nc, 6, 2) nodal values of a VectorP2 coefficient vector."""
    nd = space.node_cell_dofs
    out = np.empty((nd.shape[0], 6, 2))
    out[:, :, 0] = coeffs[2 * nd]
    out[:, :, 1] = coeffs[2 * nd + 1]
    return out


def _vec_at_qp(space, nodes):
    """v[c,q,a] at quadrature points from (nc, 6, 2) nodal values."""
    # (1, q, i) @ (c, i, a) -> (c, q, a)
    return np.matmul(space.n6[None, :, :], nodes)


def _vec_grad_at_qp(space, nodes):
    """dv[c,q,a,k] = d v_a / d x_k at quadrature points."""
    # (c, 1, a, i) @ (c, q, i, k) -> (c, q, a, k)
    return np.matmul(nodes.transpose(0, 2, 1)[:, None, :, :], space.dn6)


class VelocityQP:
    """One time level's velocities sampled once at the quadrature points:
    both phases' values and gradients, the slip v_g - v_l and the drag
    factor K(|slip|).  `coefficients` keeps each phase's dof vector for
    the viscous matrix-vector products.  Shared by the tentative loads,
    the Heun load and the pressure assembly."""

    def __init__(self, v_l, v_g, props, scales, groups):
        space = v_l.space
        if v_g.space is not space:
            raise ValueError("phase velocity fields must share one space")
        self.space = space
        self.coefficients = {"liquid": v_l.coefficients,
                             "gas": v_g.coefficients}
        nl = _vec_nodes(space, v_l.coefficients)
        ng = _vec_nodes(space, v_g.coefficients)
        self.v_l = _vec_at_qp(space, nl)
        self.v_g = _vec_at_qp(space, ng)
        self.dv_l = _vec_grad_at_qp(space, nl)
        self.dv_g = _vec_grad_at_qp(space, ng)
        self.vr = self.v_g - self.v_l
        self.vr_norm = np.linalg.norm(self.vr, axis=2)
        self.kdrag = physics.drag_exchange_coefficient(
            self.vr_norm, props, scales, groups)

    def value(self, phase):
        return self.v_l if phase == "liquid" else self.v_g

    def grad(self, phase):
        return self.dv_l if phase == "liquid" else self.dv_g


def _load_vector(space, f_qp):
    """b[(i,a)] = int f_a phi_i dx from qp samples f_qp of shape (nc, nq, 2)."""
    wn6 = space.quad.weights[:, None] * space.n6          # (q, i)
    be = np.matmul(wn6.T[None, :, :], f_qp) * space.mesh.det[:, None, None]
    return np.bincount(space.cell_dofs.ravel(), weights=be.ravel(),
                       minlength=space.dof_count)


def _const_grad_load(space, vec_cell):
    """b[(i,a)] = int g_a phi_i dx for a per-cell-constant vector g."""
    be = np.einsum("ci,ca->cia", space.int_phi6, vec_cell)
    return np.bincount(space.cell_dofs.ravel(), weights=be.ravel(),
                       minlength=space.dof_count)


def mass_matrix(space):
    """Assembled mass matrix of a ScalarP1 or VectorP2 space."""
    return space.pattern.matrix(space.mass_data.copy())


def strain_stiffness_matrix(space):
    """Assembled < tau(u), grad v > operator of a VectorP2 space, with
    tau(u) = grad u + (grad u)^T."""
    return space.pattern.matrix(space.keps_data.copy())


def p1_stiffness_matrix(space, coefficient=None):
    """< c grad u, grad v > on ScalarP1 with an optional per-cell-constant
    coefficient."""
    det = space.mesh.det
    scale = 0.5 * det if coefficient is None else 0.5 * det * coefficient
    return space.pattern.assemble(space.gg * scale[:, None, None])


def supg_tau(space, v_field, guard=1e-10):
    """Per-cell streamline weight tau = h / (2 |v|) (pure-advection factor
    z = 1); zero where the centroid speed falls below `guard`."""
    vs = v_field.space
    nodes = _vec_nodes(vs, v_field.coefficients)
    vc = np.einsum("i,cia->ca", vs.n6_centroid, nodes)
    speed = np.linalg.norm(vc, axis=1)
    h = space.mesh.cell_diameters
    tau = np.zeros_like(speed)
    ok = speed >= guard
    tau[ok] = h[ok] / (2.0 * speed[ok])
    return tau


# ---------------------------------------------------------------------------
# tentative velocity and pressure Poisson

@dataclass
class ClosureInputs:
    """Level-n inputs of both phases' tentative-velocity assembly, built
    once per step by `closure_inputs` and shared by the tentative solves
    and the Heun re-solve.

    qp holds the level-n velocities at the quadrature points; g_data maps
    each phase to the CSR data of its G(grad ln alpha_q) matrix;
    grad_ln_alpha_l is the per-cell gradient of the thresholded
    ln alpha_l, standing in for grad(alpha_l)/alpha_l; drag_ratio_l is the
    liquid drag ratio alpha_g / max(alpha_l, floor) at the quadrature
    points; pressure_load and gravity_load are the loads of grad P and of
    gravity.
    """

    qp: VelocityQP
    g_data: dict
    grad_ln_alpha_l: np.ndarray
    drag_ratio_l: np.ndarray
    pressure_load: np.ndarray
    gravity_load: np.ndarray


def closure_inputs(state, props, scales, groups, alpha_ln_floor):
    """ClosureInputs of `state`.  The phase fractions enter through
    ln(max(alpha, alpha_ln_floor)), whose per-cell gradient g gives
    G[(i,a),(j,b)] = int phi_i [(g.grad phi_j) dab + g_b d_a phi_j] dx;
    the same floor bounds the liquid fraction in the drag ratio."""
    space = state.v_l.space
    p1 = state.alpha_g.space
    gb = space.g_basis
    grad_ln = {}
    g_data = {}
    for phase, alpha in (("liquid", state.alpha_l), ("gas", state.alpha_g)):
        g = p1.p1_cell_gradient(
            np.log(np.maximum(alpha.coefficients, alpha_ln_floor)))
        grad_ln[phase] = g
        g_data[phase] = space.pattern.assemble_data(
            g[:, 0, None] * gb[0] + g[:, 1, None] * gb[1])
    alpha_g_qp = p1.p1_at_qp(state.alpha_g.coefficients)
    alpha_l_qp = p1.p1_at_qp(state.alpha_l.coefficients)
    grav = np.zeros((space.mesh.n_cells, 2))
    grav[:, 1] = -1.0 / groups.fr ** 2
    return ClosureInputs(
        qp=VelocityQP(state.v_l, state.v_g, props, scales, groups),
        g_data=g_data,
        grad_ln_alpha_l=grad_ln["liquid"],
        drag_ratio_l=alpha_g_qp / np.maximum(alpha_l_qp, alpha_ln_floor),
        pressure_load=_const_grad_load(
            space, p1.p1_cell_gradient(state.p_l.coefficients)),
        gravity_load=_const_grad_load(space, grav))


def velocity_dependent_load(phase, qp, groups, closures):
    """All velocity-dependent right-hand-side terms of one phase's
    tentative system at the velocities sampled in `qp`: convection, drag
    and interfacial pressure, the level-n pressure-gradient and gravity
    loads, and the explicit half of the viscous terms."""
    liquid = phase == "liquid"
    space = qp.space
    if liquid:
        eu, re = groups.eu_l, groups.re_l
        ratio_signed = closures.drag_ratio_l
        cp_liquid, cp_gas = groups.c_p, 0.0
    else:
        eu, re = groups.eu_g, groups.re_g
        ratio_signed = np.broadcast_to(-groups.rho_ratio, qp.kdrag.shape)
        cp_liquid, cp_gas = 0.0, 2.0 * groups.c_p * groups.rho_ratio

    v_qp = qp.value(phase)
    conv = np.matmul(qp.grad(phase), v_qp[:, :, :, None])[:, :, :, 0]
    f_qp = (ratio_signed * qp.kdrag)[:, :, None] * qp.vr - conv
    if cp_liquid != 0.0:
        f_qp = f_qp - (cp_liquid * (qp.vr_norm ** 2)[:, :, None]
                       * closures.grad_ln_alpha_l[:, None, :])
    if cp_gas != 0.0:
        dvr = qp.dv_g - qp.dv_l
        f_qp = f_qp + cp_gas * np.matmul(qp.vr[:, :, None, :], dvr)[:, :, 0, :]
    b = _load_vector(space, f_qp)
    b -= eu * closures.pressure_load
    b += closures.gravity_load
    vn = qp.coefficients[phase]
    b += 0.5 / re * (space.pattern.matrix(closures.g_data[phase]).matvec(vn)
                     - space.keps_matrix.matvec(vn))
    return b


def tentative_velocity_system(phase, dt, groups, closures):
    """Pieces of one phase's tentative solve, with the half-implicit
    viscous terms (the grad(ln alpha) . tau coupling included) in

        A = M/dt + (1/2Re)(Keps - G),

    the mass history term M v(n)/dt and the level-n velocity-dependent
    load, all without boundary constraints.  b = history + load; the Heun
    re-solve reuses A against an averaged load, so the pieces are returned
    separately."""
    if phase not in ("liquid", "gas"):
        raise ValueError(f"unknown phase '{phase}'")
    qp = closures.qp
    space = qp.space
    re = groups.re_l if phase == "liquid" else groups.re_g
    A = space.pattern.matrix(
        space.mass_data / dt
        + 0.5 / re * (space.keps_data - closures.g_data[phase]))
    history = space.mass_matrix.matvec(qp.coefficients[phase]) / dt
    load = velocity_dependent_load(phase, qp, groups, closures)
    return A, history, load


def assemble_pressure_poisson(state, qp, dt, groups):
    """SPD system for the pressure increment dP = P(n+1) - P(n), with the
    tentative velocities v* sampled in `qp`:

        < sum_q Eu_q alpha_q grad dP, grad phi > =
            - < div sum_q alpha_q v*_q, phi > / dt

    Zero-increment Neumann on inlet and walls is natural; the outlet holds
    dP = 0 and is eliminated symmetrically.
    """
    p1 = state.p_l.space
    w, det = p1.quad.weights, p1.mesh.det

    alpha_l_qp = p1.p1_at_qp(state.alpha_l.coefficients)
    alpha_g_qp = p1.p1_at_qp(state.alpha_g.coefficients)
    coef_qp = groups.eu_l * alpha_l_qp + groups.eu_g * alpha_g_qp
    cell_coef = det * (coef_qp @ w)
    A = p1.pattern.assemble(p1.gg * cell_coef[:, None, None])

    div = np.zeros((p1.mesh.n_cells, w.size))
    for alpha, v_qp, dvq in ((state.alpha_l, qp.v_l, qp.dv_l),
                             (state.alpha_g, qp.v_g, qp.dv_g)):
        ga = p1.p1_cell_gradient(alpha.coefficients)
        a_qp = p1.p1_at_qp(alpha.coefficients)
        div += np.matmul(v_qp, ga[:, :, None])[:, :, 0]
        div += a_qp * (dvq[:, :, 0, 0] + dvq[:, :, 1, 1])
    wn3 = w[:, None] * p1.n3                 # (q, i)
    be = -np.matmul(wn3.T[None, :, :], div[:, :, None])[:, :, 0] \
        * det[:, None] / dt
    b = np.bincount(p1.cell_dofs.ravel(), weights=be.ravel(),
                    minlength=p1.dof_count)

    outlet = p1.boundary_nodes(BoundaryTag.Outlet)
    if outlet.size == 0:
        raise SingularSystemError(
            "pressure system has no Dirichlet boundary (all-Neumann)")
    A.eliminate(outlet)
    b[outlet] = 0.0
    return A, b


def assemble_velocity_update(phase, v_star, delta_p, dt, groups):
    """Mass system M v(n+1) = M v* - dt Eu_q < grad dP, phi >, without
    boundary constraints."""
    if phase not in ("liquid", "gas"):
        raise ValueError(f"unknown phase '{phase}'")
    space = v_star.space
    eu = groups.eu_l if phase == "liquid" else groups.eu_g
    dp_cell = delta_p.space.p1_cell_gradient(delta_p.coefficients)
    b = space.mass_matrix.matvec(v_star.coefficients)
    b -= dt * eu * _const_grad_load(space, dp_cell)
    return space.pattern.matrix(space.mass_data.copy()), b


def assemble_alpha_system(alpha_old, v_g_new, dt):
    """Implicit advection of the gas fraction with SUPG test functions:

        < (a(n+1) - a(n))/dt, phi' > + < div(a(n+1) v), phi' > = 0,
        phi' = phi + tau v . grad phi.

    Returns (A, b) without boundary constraints.
    """
    p1 = alpha_old.space
    space = v_g_new.space
    w, n3, det, gp1 = p1.quad.weights, p1.n3, p1.mesh.det, p1.grad_p1

    nodes = _vec_nodes(space, v_g_new.coefficients)
    v_qp = _vec_at_qp(space, nodes)
    dvq = _vec_grad_at_qp(space, nodes)
    divv = dvq[:, :, 0, 0] + dvq[:, :, 1, 1]
    tau = supg_tau(p1, v_g_new)
    aold_qp = p1.p1_at_qp(alpha_old.coefficients)

    # streamline derivatives v . grad psi_i: (c,q,a) @ (c,a,i) -> (c,q,i)
    stream = np.matmul(v_qp, gp1.transpose(0, 2, 1))
    phi = np.broadcast_to(n3[None, :, :], (det.size, w.size, 3))
    phi = phi + tau[:, None, None] * stream
    trial = (n3[None, :, :] / dt + stream
             + n3[None, :, :] * divv[:, :, None])
    wphi = w[None, :, None] * phi
    elem = np.matmul(wphi.transpose(0, 2, 1), trial) * det[:, None, None]
    be = np.matmul(wphi.transpose(0, 2, 1),
                   aold_qp[:, :, None])[:, :, 0] * det[:, None] / dt
    b = np.bincount(p1.cell_dofs.ravel(), weights=be.ravel(),
                    minlength=p1.dof_count)
    return p1.pattern.assemble(elem), b


# ---------------------------------------------------------------------------
# point evaluation

def _locate(mesh, points, tol=1e-10):
    """Containing cell and barycentric coordinates for each point, by
    direct indexing into the structured grid of `mesh.grid`."""
    if mesh.grid is None:
        raise ValueError("point location needs a mesh with grid metadata")
    points = np.atleast_2d(np.asarray(points, dtype=float))
    lo, hi = mesh.bounds()
    pad = tol * max(hi[0] - lo[0], hi[1] - lo[1])
    outside = ((points[:, 0] < lo[0] - pad) | (points[:, 0] > hi[0] + pad)
               | (points[:, 1] < lo[1] - pad) | (points[:, 1] > hi[1] + pad))
    if np.any(outside):
        bad = points[np.argmax(outside)]
        raise OutOfDomainError(f"point {tuple(bad)} is outside the domain")

    def bary(cells_idx, pts):
        # (xi, eta) = J^{-1} (p - v0)
        v0 = mesh.vertices[mesh.cells[cells_idx, 0]]
        d = pts - v0
        xi = (mesh.inv[cells_idx, 0, 0] * d[:, 0]
              + mesh.inv[cells_idx, 0, 1] * d[:, 1])
        eta = (mesh.inv[cells_idx, 1, 0] * d[:, 0]
               + mesh.inv[cells_idx, 1, 1] * d[:, 1])
        return np.stack([1.0 - xi - eta, xi, eta], axis=1)

    g = mesh.grid
    nx, ny = g["nx"], g["ny"]
    dx = g["width"] / nx
    dy = g["height"] / ny
    i = np.clip(((points[:, 0] - lo[0]) / dx).astype(int), 0, nx - 1)
    j = np.clip(((points[:, 1] - lo[1]) / dy).astype(int), 0, ny - 1)
    base = 2 * (j * nx + i)
    lam0 = bary(base, points)
    lam1 = bary(base + 1, points)
    use1 = lam1.min(axis=1) > lam0.min(axis=1)
    cells_idx = np.where(use1, base + 1, base)
    lam = np.where(use1[:, None], lam1, lam0)
    if np.any(lam.min(axis=1) < -1e-8):
        raise OutOfDomainError("point location failed on the grid mesh")
    return cells_idx, np.clip(lam, 0.0, None)


def evaluate_many(field, points):
    """Evaluate a field at an (n, 2) array of points; (n,) or (n, 2) values."""
    space = field.space
    cells_idx, lam = _locate(space.mesh, points)
    if space.kind == "ScalarP1":
        vals = field.coefficients[space.mesh.cells[cells_idx]]
        return np.einsum("pi,pi->p", lam, vals)
    n6 = _p2_basis(lam[:, 1:])[0]
    nd = space.node_cell_dofs[cells_idx]
    out = np.empty((cells_idx.size, 2))
    out[:, 0] = np.einsum("pi,pi->p", n6, field.coefficients[2 * nd])
    out[:, 1] = np.einsum("pi,pi->p", n6, field.coefficients[2 * nd + 1])
    return out


def evaluate(field, point):
    """Nodal-basis interpolation at one point (exact for the space degree)."""
    return evaluate_many(field, np.asarray(point, dtype=float).reshape(1, 2))[0]


# ---------------------------------------------------------------------------
# boundary flux of alpha * (v . n): 2-point Gauss per facet, exact to degree 3

_GAUSS2 = (0.5 * (1.0 - 1.0 / np.sqrt(3.0)), 0.5 * (1.0 + 1.0 / np.sqrt(3.0)))


def _facet_quadrature(space, tags):
    """Per-facet data for boundary flux integrals over `tags`: vertex and
    midpoint node indices, unit outward normals, and lengths."""
    mesh = space.mesh
    rows = boundary_facets(mesh, *tags)
    u = mesh.facet_vertices[rows, 0].astype(np.int64)
    v = mesh.facet_vertices[rows, 1].astype(np.int64)
    mid = mesh.n_vertices + mesh.facet_edges[rows]
    tvec = mesh.vertices[v] - mesh.vertices[u]
    length = np.hypot(tvec[:, 0], tvec[:, 1])
    # counterclockwise traversal: outward normal is the -90 degree rotation
    nrm = np.column_stack([tvec[:, 1], -tvec[:, 0]]) / length[:, None]
    return u, v, mid, nrm, length


def boundary_alpha_flux(alpha, v_field, *tags):
    """Outward flux integral of (alpha v . n) over the tagged boundary
    parts, by 2-point Gauss quadrature per facet (exact to cubics)."""
    space = v_field.space
    u, v, mid, nrm, length = _facet_quadrature(space, tags)
    if u.size == 0:
        return 0.0
    coeffs = v_field.coefficients
    au, av = alpha.coefficients[u], alpha.coefficients[v]
    vu = np.column_stack([coeffs[2 * u], coeffs[2 * u + 1]])
    vv = np.column_stack([coeffs[2 * v], coeffs[2 * v + 1]])
    vm = np.column_stack([coeffs[2 * mid], coeffs[2 * mid + 1]])
    total = 0.0
    for sq in _GAUSS2:
        a = (1.0 - sq) * au + sq * av
        n0 = 2.0 * sq * sq - 3.0 * sq + 1.0
        n1 = 2.0 * sq * sq - sq
        nm = 4.0 * sq * (1.0 - sq)
        vel = n0 * vu + n1 * vv + nm * vm
        total += 0.5 * float(np.sum(length * a * np.sum(vel * nrm, axis=1)))
    return total
