"""Function spaces, quadrature and assembly of the scheme's weak forms.

Discretization: Taylor-Hood pair with quadratic velocities (VectorP2),
linear pressure and linear phase fraction (ScalarP1), so that the box
constraints on the phase fraction act nodewise.  One quadrature rule,
the 6-point degree-4 triangle rule `QUAD_POINTS`/`QUAD_WEIGHTS`,
integrates every bilinear form exactly; the nonlinear closure terms
(drag, interfacial pressure, convection) are quadrature approximations
on the same points.

A `FunctionSpace` builds everything static in its constructor: the dof
map (P2 midpoint nodes follow the mesh's edge table), its
`linalg.Pattern`, the reference bases at the quadrature points, the
vector mass and strain-stiffness data, and the P1 weights `int_phi`
(int phi_i over the domain, the P1 mass matrix's row sums), through which
every reader of int(alpha) integrates.  The VectorP2 pattern is built over
nodes and widened to the interleaved 2x2-block dof pattern.  On affine
cells every element quantity is a fixed reference tensor contracted with
a few per-cell geometry coefficients (the tensor representation of
Kirby & Logg, ACM TOMS 32, 2006): Keps is det J^-1 (x) J^-1 (16 per
cell) times a 16 x 144 table, the G(grad ln alpha) matrices are
det J^-1 g (8 per cell) times an 8 x 144 table, and a P2 field's values
and gradients at the quadrature points are one GEMM against the
reference basis followed by each cell's J^-1.  `closure_inputs` forms
each phase's viscous operator W_q = (Keps - G)/(2 Re_q) once per step.
Assembly is vectorized over cells and is two scatter-adds: element
matrices through the pattern's slot map (`Pattern.assemble_data`),
element vectors through the dof map (`FunctionSpace.scatter`).  Each
sums in a fixed order, which keeps the floating-point result
deterministic.  Every P2 load < f, phi > goes through `_load_vector`,
whether f is sampled at the quadrature points or constant on each cell.

Sub-step systems assembled here.  All four come back unconstrained,
and no matrix is written to after assembly: `ipcs.step` has the solvers
hold every Dirichlet unknown (`fixed`), the pressure outlet included.

  tentative velocity   [M/dt + W_q] v* = M v(n)/dt + c_q - W_q v(n)
                       + convection / drag / interfacial pressure loads
  pressure Poisson     < sum_q Eu_q alpha_q grad dP, grad phi >  (SPD
                       once the outlet dP = 0 is held)
  velocity update      the load of the correction's mass solve
                       M (v(n+1) - v*) = - dt Eu_q < grad dP, phi >,
                       solved on the space's shared `mass_matrix`
  phase fraction       implicit SUPG advection in mass units,
                       < a(n+1) - a(n), phi' > + dt < div(a(n+1) v), phi' >,
                       solved as a box VI whose box cfg.alpha_scheme picks
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import physics
from .errors import OutOfDomainError
from .linalg import Pattern
from .mesh import BoundaryTag

PHASES = ("liquid", "gas")   # the order of every per-phase loop and solve

_SUPG_GUARD = 1e-10     # centroid speed below which supg_tau is zero
_LOCATE_TOL = 1e-10     # _locate's bounds slack, share of the larger extent

# ---------------------------------------------------------------------------
# quadrature and reference bases

# the one rule of every form: 6 points (xi, eta) of the reference
# triangle, exact to degree 4; the weights sum to its area 1/2
_A, _B = 0.445948490915965, 0.091576213509771
QUAD_POINTS = np.array([(_A, _A), (1.0 - 2.0 * _A, _A), (_A, 1.0 - 2.0 * _A),
                        (_B, _B), (1.0 - 2.0 * _B, _B), (_B, 1.0 - 2.0 * _B)])
QUAD_WEIGHTS = np.repeat([0.223381589678011 / 2.0,
                          0.109951743655322 / 2.0], 3)


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

    Every space has its nodes `node_coords`, the per-cell node and dof
    indices `node_cell_dofs` and `cell_dofs`, the `dof_count` and its CSR
    `pattern`.  Element matrices reach the global matrix through
    `pattern.assemble_data`, element vectors through `scatter`.  Its
    nodes are tagged by the sides of the mesh's bounding box they lie on
    (`BoundaryTag`: Inlet y = y_min, Outlet y = y_max, WallLeft
    x = x_min, WallRight x = x_max, to within 1e-12 * max(width, height,
    1)), so a corner has two tags.
    A boundary node off the box gets no tag: only a rectangular outline
    is tagged all round.
    ScalarP1 adds the reference basis at the quadrature points `n3`, the
    physical basis gradients `grad_p1` (nc, 3, 2), the measure-free
    gradient products `gg` and the global weight vector `int_phi`
    (dof_count,): int phi_i over the domain, the row sums of the P1 mass
    matrix, so that int(alpha) = int_phi . alpha.
    VectorP2 adds the reference basis at the quadrature points `n6` and
    at the centroid `n6_centroid`; `qp_basis` (12, 6 nq), which takes a
    cell's 12 dofs to the values (q, a) and reference gradients
    (q, a, k) of the field at the quadrature points; `g_ref` (8, 144),
    the reference tensor of the grad(ln alpha) coupling; the
    mass and strain-stiffness data `mass_data` and `keps_data`; and the
    assembled `mass_matrix`.

    The vector mass matrix couples only equal components (m6 (x) I2), so
    half the entries of the space's pattern are exact zeros there.
    `mass_matrix` stores only the same-component entries: a copy of the
    full CSR matrix with the cross-component entries zeroed, then
    `eliminate_zeros()` (no second pattern; the copy keeps that structural
    op off the pattern's shared index arrays).  Its dense form and its
    matvec equal the full matrix's bit for bit.  Steps share it unedited
    (the velocity update's CG holds its Dirichlet dofs).  `mass_data`
    keeps the full pattern, for sums with the other operators.
    """

    def __init__(self, kind, mesh):
        self.kind = kind
        self.mesh = mesh
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
        (x0, y0), (x1, y1) = mesh.bounds()
        tol = 1e-12 * max(x1 - x0, y1 - y0, 1.0)
        x, y = self.node_coords.T
        offsets = {BoundaryTag.Inlet: y - y0, BoundaryTag.Outlet: y - y1,
                   BoundaryTag.WallLeft: x - x0, BoundaryTag.WallRight: x - x1}
        self._tag_nodes = {tag: np.flatnonzero(np.abs(d) <= tol)
                           for tag, d in offsets.items()}
        nd = self.node_cell_dofs
        nc, nl = nd.shape
        pattern = Pattern(np.broadcast_to(nd[:, :, None], (nc, nl, nl)),
                          np.broadcast_to(nd[:, None, :], (nc, nl, nl)),
                          self.node_coords.shape[0])
        if kind == "ScalarP1":
            self.dof_count = self.node_coords.shape[0]
            self.cell_dofs = nd
            self.pattern = pattern
            self._build_p1_operators()
        else:
            self.dof_count = 2 * self.node_coords.shape[0]
            self.cell_dofs = np.stack([2 * nd, 2 * nd + 1], axis=2).reshape(
                nc, 2 * nl)
            self.pattern = pattern.interleaved(nl)
            self._build_p2_operators()

    def _build_p1_operators(self):
        w, det = QUAD_WEIGHTS, self.mesh.det
        n3, dn3 = _p1_basis(QUAD_POINTS)
        self.n3 = n3
        self.grad_p1 = np.einsum("ik,cka->cia", dn3, self.mesh.inv)
        # grad_i . grad_j without measure; scale by the integrated
        # coefficient when assembling variable-coefficient stiffness
        self.gg = np.einsum("cia,cja->cij", self.grad_p1, self.grad_p1)
        self.int_phi = self.scatter(det[:, None] * np.einsum("q,qi->i", w, n3))

    def _build_p2_operators(self):
        w, det, inv = QUAD_WEIGHTS, self.mesh.det, self.mesh.inv
        n6, dn6 = _p2_basis(QUAD_POINTS)            # (q, i), (q, i, k)
        nq = w.size
        eye2 = np.eye(2)
        self.n6 = n6
        self.n6_centroid = _p2_basis(np.full((1, 2), 1.0 / 3.0))[0][0]
        # cell dofs (i, a) -> values (q, a) and reference gradients
        # (q, a, k) = d v_a / d xi_k at the quadrature points
        self.qp_basis = np.concatenate([
            np.einsum("qi,ab->iaqb", n6, eye2).reshape(12, 2 * nq),
            np.einsum("qik,ab->iaqbk", dn6, eye2).reshape(12, 4 * nq)],
            axis=1)
        # S[k,l,i,j] = int d_k phi_i d_l phi_j over the reference cell;
        # with d_a phi_i = sum_k d_k phi_i inv[k,a],
        # Keps[(i,a),(j,b)] = dab <grad_i, grad_j> + int d_a phi_j d_b phi_i
        # = E[c,(e,f,k,l)] R[(e,f,k,l),(i,a,j,b)], E = det inv[k,e] inv[l,f]
        s = np.einsum("q,qik,qjl->klij", w, dn6, dn6)
        r = (np.einsum("ef,ab,klij->efkliajb", eye2, eye2, s)
             + np.einsum("ea,fb,klji->efkliajb", eye2, eye2, s)
             ).reshape(16, 144)
        e = np.einsum("c,cke,clf->cefkl", det, inv, inv).reshape(-1, 16)
        # G (see closure_inputs) = F[c,(k,e,f)] RG[(k,e,f),(i,a,j,b)] with
        # F = det inv[k,e] g_f and T[k,i,j] = int phi_i d_k phi_j
        t = np.einsum("q,qi,qjk->kij", w, n6, dn6)
        self.g_ref = (np.einsum("ef,ab,kij->kefiajb", eye2, eye2, t)
                      + np.einsum("ea,fb,kij->kefiajb", eye2, eye2, t)
                      ).reshape(8, 144)
        m6 = np.einsum("q,qi,qj->ij", w, n6, n6)
        m12 = np.einsum("ij,ab->iajb", m6, eye2).reshape(12, 12)
        self.mass_data = self.pattern.assemble_data(
            np.einsum("ij,c->cij", m12, det))
        self.keps_data = self.pattern.assemble_data(e @ r)
        # dof parity is the component: drop entries whose row and column
        # differ, on a copy (eliminate_zeros is structural)
        mass = self.pattern.matrix(self.mass_data).copy()
        row_odd = np.repeat(np.arange(self.dof_count) % 2 == 1,
                            np.diff(mass.indptr))
        mass.data[row_odd != (mass.indices % 2 == 1)] = 0.0
        mass.eliminate_zeros()
        self.mass_matrix = mass

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

    def boundary_nodes(self, *tags):
        """Sorted scalar node indices on the given sides of the bounding box."""
        return np.unique(np.concatenate([self._tag_nodes[t] for t in tags]))

    def scatter(self, be):
        """Global vector of element vectors be (nc, cell dofs in
        `cell_dofs` order), summed in cell order (deterministic)."""
        return np.bincount(self.cell_dofs.ravel(), weights=be.ravel(),
                           minlength=self.dof_count)

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

def _vec_at_qp(space, coeffs):
    """Values v[c,q,a] and gradients dv[c,q,a,k] = d v_a / d x_k at the
    quadrature points of a VectorP2 coefficient vector: one GEMM against
    the reference basis, then each cell's inverse Jacobian."""
    nc, nq = space.cell_dofs.shape[0], QUAD_WEIGHTS.size
    ref = coeffs[space.cell_dofs] @ space.qp_basis
    dref = ref[:, 2 * nq:].reshape(nc, nq, 2, 2)
    inv = space.mesh.inv[:, None, None]
    # 2x2 products as explicit two-term sums (see velocity_dependent_load)
    dv = (dref[..., 0, None] * inv[..., 0, :]
          + dref[..., 1, None] * inv[..., 1, :])
    return ref[:, :2 * nq].reshape(nc, nq, 2).copy(), dv


class VelocityQP:
    """One time level's velocities sampled once at the quadrature points:
    each phase's values `v[phase]` and gradients `dv[phase]`, the slip
    v_g - v_l and the drag factor K(|slip|).  `coefficients` keeps each
    phase's dof vector for the viscous matrix-vector products.  Shared by
    the tentative loads, the Heun load and the pressure assembly."""

    def __init__(self, v_l, v_g, groups):
        space = v_l.space
        if v_g.space is not space:
            raise ValueError("phase velocity fields must share one space")
        self.space = space
        self.coefficients = dict(zip(PHASES, (v_l.coefficients,
                                              v_g.coefficients)))
        self.v, self.dv = {}, {}
        for phase in PHASES:
            self.v[phase], self.dv[phase] = _vec_at_qp(
                space, self.coefficients[phase])
        self.vr = self.v["gas"] - self.v["liquid"]
        self.vr_norm = np.linalg.norm(self.vr, axis=2)
        self.kdrag = physics.drag_exchange_coefficient(self.vr_norm, groups)


def _load_vector(space, f_qp):
    """b[(i,a)] = int f_a phi_i dx over the VectorP2 `space`, from samples
    f_qp of f at the quadrature points, (nc, nq, 2), or constant on each
    cell, (nc, 1, 2), which broadcast over the points."""
    wn6 = QUAD_WEIGHTS[:, None] * space.n6                # (q, i)
    f_qp = np.broadcast_to(f_qp, (f_qp.shape[0], QUAD_WEIGHTS.size, 2))
    return space.scatter(np.matmul(wn6.T[None, :, :], f_qp)
                         * space.mesh.det[:, None, None])


def supg_tau(space, v_field):
    """Per-cell streamline weight tau = h / (2 |v|) (pure-advection factor
    z = 1); zero where the centroid speed falls below `_SUPG_GUARD`."""
    vs = v_field.space
    nodes = v_field.coefficients[vs.cell_dofs].reshape(-1, 6, 2)
    vc = np.einsum("i,cia->ca", vs.n6_centroid, nodes)
    speed = np.linalg.norm(vc, axis=1)
    h = space.mesh.cell_diameters
    tau = np.zeros_like(speed)
    ok = speed >= _SUPG_GUARD
    tau[ok] = h[ok] / (2.0 * speed[ok])
    return tau


# ---------------------------------------------------------------------------
# tentative velocity and pressure Poisson

@dataclass
class ClosureInputs:
    """Level-n operands of both phases' tentative-velocity assembly, built
    once per step by `closure_inputs` and shared by the tentative solves
    and the Heun re-solve.

    qp holds the level-n velocities at the quadrature points; viscous
    maps each phase to its CSR viscous operator W_q = (Keps - G(grad ln
    alpha_q))/(2 Re_q), implicit in the tentative matrix and explicit in
    the load; constant_load maps each phase to c_q = <g - Eu_q grad P(n),
    phi>; grad_ln_alpha_l is the per-cell gradient of the thresholded
    ln alpha_l, standing in for grad(alpha_l)/alpha_l; drag_ratio maps
    each phase to the factor of its drag force K (v_g - v_l): alpha_g /
    max(alpha_l, floor) at the quadrature points for the liquid, the
    constant -rho_l/rho_g for the gas.
    """

    qp: VelocityQP
    viscous: dict
    constant_load: dict
    grad_ln_alpha_l: np.ndarray
    drag_ratio: dict


def closure_inputs(state, groups, alpha_ln_floor):
    """ClosureInputs of `state`.  The phase fractions enter through
    ln(max(alpha, alpha_ln_floor)), whose per-cell gradient g gives
    G[(i,a),(j,b)] = int phi_i [(g.grad phi_j) dab + g_b d_a phi_j] dx;
    the same floor bounds the liquid fraction in the drag ratio."""
    space = state.v_l.space
    p1 = state.alpha_g.space
    det_inv = space.mesh.det[:, None, None, None] * space.mesh.inv[..., None]
    grad_p = p1.p1_cell_gradient(state.p_l.coefficients)
    gravity = np.array([0.0, -1.0 / groups.fr ** 2])
    grad_ln = {}
    viscous = {}
    constant_load = {}
    for phase, alpha, re, eu in (
            ("liquid", state.alpha_l, groups.re_l, groups.eu_l),
            ("gas", state.alpha_g, groups.re_g, groups.eu_g)):
        g = p1.p1_cell_gradient(
            np.log(np.maximum(alpha.coefficients, alpha_ln_floor)))
        grad_ln[phase] = g
        # the 8 coefficients det inv[k,e] g_f of the reference tensor g_ref
        coef = (det_inv * g[:, None, None, :]).reshape(-1, 8)
        viscous[phase] = space.pattern.matrix(0.5 / re * (
            space.keps_data - space.pattern.assemble_data(coef @ space.g_ref)))
        constant_load[phase] = _load_vector(
            space, (gravity - eu * grad_p)[:, None, :])
    alpha_g_qp = p1.p1_at_qp(state.alpha_g.coefficients)
    alpha_l_qp = p1.p1_at_qp(state.alpha_l.coefficients)
    return ClosureInputs(
        qp=VelocityQP(state.v_l, state.v_g, groups),
        viscous=viscous,
        constant_load=constant_load,
        grad_ln_alpha_l=grad_ln["liquid"],
        drag_ratio={"liquid": alpha_g_qp / np.maximum(alpha_l_qp,
                                                      alpha_ln_floor),
                    "gas": -groups.rho_ratio})


def velocity_dependent_load(phase, qp, groups, closures):
    """All velocity-dependent right-hand-side terms of one phase's
    tentative system at the velocities sampled in `qp`: convection, drag
    and interfacial pressure, then the phase's constant load c_q and the
    explicit half of the viscous terms, -W_q v, both from `closures`."""
    space, vr = qp.space, qp.vr
    # 2x2 products per quadrature point as explicit two-term sums: a
    # batched matmul over (nc, nq) tiny matrices is several times slower
    v, dv = qp.v[phase], qp.dv[phase]
    conv = dv[..., 0] * v[..., 0, None] + dv[..., 1] * v[..., 1, None]
    # interfacial pressure: -c_p |vr|^2 grad ln alpha_l on the liquid,
    # 2 c_p rho_l/rho_g (grad vr)^T vr on the gas
    if phase == "liquid":
        interfacial = (-groups.c_p * (qp.vr_norm ** 2)[:, :, None]
                       * closures.grad_ln_alpha_l[:, None, :])
    else:
        dvr = qp.dv["gas"] - qp.dv["liquid"]
        interfacial = 2.0 * groups.c_p * groups.rho_ratio * (
            vr[..., 0, None] * dvr[..., 0, :]
            + vr[..., 1, None] * dvr[..., 1, :])
    f_qp = ((closures.drag_ratio[phase] * qp.kdrag)[:, :, None] * vr - conv
            + interfacial)
    b = _load_vector(space, f_qp)
    b += closures.constant_load[phase]
    b -= closures.viscous[phase] @ qp.coefficients[phase]
    return b


def tentative_velocity_system(phase, dt, groups, closures):
    """Pieces of one phase's tentative solve, with the half-implicit
    viscous operator W_q of `closures` in

        A = M/dt + W_q,

    the mass history term M v(n)/dt and the level-n velocity-dependent
    load, all without boundary constraints.  b = history + load; the Heun
    re-solve reuses A against an averaged load, so the pieces are returned
    separately."""
    qp = closures.qp
    space = qp.space
    A = space.pattern.matrix(
        space.mass_data / dt + closures.viscous[phase].data)
    history = space.mass_matrix @ qp.coefficients[phase] / dt
    load = velocity_dependent_load(phase, qp, groups, closures)
    return A, history, load


def assemble_pressure_poisson(state, qp, dt, groups):
    """System for the pressure increment dP = P(n+1) - P(n), with the
    tentative velocities v* sampled in `qp`:

        < sum_q Eu_q alpha_q grad dP, grad phi > =
            - < div sum_q alpha_q v*_q, phi > / dt

    without boundary constraints.  Zero-increment Neumann on inlet and
    walls is natural; the outlet's dP = 0 is left to the caller, and the
    matrix restricted to the other nodes is SPD.
    """
    p1 = state.p_l.space
    w, det = QUAD_WEIGHTS, p1.mesh.det

    alpha = dict(zip(PHASES, (state.alpha_l.coefficients,
                              state.alpha_g.coefficients)))
    alpha_qp = {phase: p1.p1_at_qp(a) for phase, a in alpha.items()}
    coef_qp = groups.eu_l * alpha_qp["liquid"] + groups.eu_g * alpha_qp["gas"]
    cell_coef = det * (coef_qp @ w)
    A = p1.pattern.assemble(p1.gg * cell_coef[:, None, None])

    div = np.zeros((p1.mesh.n_cells, w.size))
    for phase in PHASES:
        ga = p1.p1_cell_gradient(alpha[phase])
        div += np.matmul(qp.v[phase], ga[:, :, None])[:, :, 0]
        div += alpha_qp[phase] * np.trace(qp.dv[phase], axis1=2, axis2=3)
    wn3 = w[:, None] * p1.n3                 # (q, i)
    be = -np.matmul(wn3.T[None, :, :], div[:, :, None])[:, :, 0] \
        * det[:, None] / dt
    return A, p1.scatter(be)


def assemble_velocity_update(phase, space, delta_p, dt, groups):
    """Load - dt Eu_q < grad dP, phi > of the velocity correction's mass
    system M (v(n+1) - v*) = load over the VectorP2 `space`, without
    boundary constraints; M is the space's `mass_matrix`."""
    eu = groups.eu_l if phase == "liquid" else groups.eu_g
    dp_cell = delta_p.space.p1_cell_gradient(delta_p.coefficients)
    return -dt * eu * _load_vector(space, dp_cell[:, None, :])


def assemble_alpha_system(alpha_old, v_g_new, dt):
    """Implicit advection of the gas fraction with SUPG test functions,
    in mass units (the step times dt):

        < a(n+1) - a(n), phi' > + dt < div(a(n+1) v), phi' > = 0,
        phi' = phi + tau v . grad phi.

    Returns (A, b) without boundary constraints; with v = 0, A is the P1
    mass matrix and b its product with a(n).
    """
    p1 = alpha_old.space
    space = v_g_new.space
    w, n3, det, gp1 = QUAD_WEIGHTS, p1.n3, p1.mesh.det, p1.grad_p1

    v_qp, dvq = _vec_at_qp(space, v_g_new.coefficients)
    divv = dvq[:, :, 0, 0] + dvq[:, :, 1, 1]
    tau = supg_tau(p1, v_g_new)
    aold_qp = p1.p1_at_qp(alpha_old.coefficients)

    # streamline derivatives v . grad psi_i: (c,q,a) @ (c,a,i) -> (c,q,i)
    stream = np.matmul(v_qp, gp1.transpose(0, 2, 1))
    phi = np.broadcast_to(n3[None, :, :], (det.size, w.size, 3))
    phi = phi + tau[:, None, None] * stream
    trial = n3[None, :, :] + dt * (stream
                                   + n3[None, :, :] * divv[:, :, None])
    wphi = w[None, :, None] * phi
    elem = np.matmul(wphi.transpose(0, 2, 1), trial) * det[:, None, None]
    be = np.matmul(wphi.transpose(0, 2, 1),
                   aold_qp[:, :, None])[:, :, 0] * det[:, None]
    return p1.pattern.assemble(elem), p1.scatter(be)


# ---------------------------------------------------------------------------
# point evaluation

def _locate(mesh, points):
    """Containing cell and barycentric coordinates for each point, by
    direct indexing into the structured grid of `mesh.grid`."""
    if mesh.grid is None:
        raise ValueError("point location needs a mesh with grid metadata")
    points = np.atleast_2d(np.asarray(points, dtype=float))
    lo, hi = mesh.bounds()
    pad = _LOCATE_TOL * max(hi[0] - lo[0], hi[1] - lo[1])
    outside = ((points[:, 0] < lo[0] - pad) | (points[:, 0] > hi[0] + pad)
               | (points[:, 1] < lo[1] - pad) | (points[:, 1] > hi[1] + pad))
    if np.any(outside):
        bad = points[np.argmax(outside)]
        raise OutOfDomainError(f"point {tuple(bad)} is outside the domain")

    def bary(cells_idx):
        # the P1 basis at the reference point (xi, eta) = J^{-1} (p - v0)
        d = points - mesh.vertices[mesh.cells[cells_idx, 0]]
        return _p1_basis(np.einsum("pka,pa->pk", mesh.inv[cells_idx], d))[0]

    g = mesh.grid
    nx, ny = g["nx"], g["ny"]
    dx = g["width"] / nx
    dy = g["height"] / ny
    i = np.clip(((points[:, 0] - lo[0]) / dx).astype(int), 0, nx - 1)
    j = np.clip(((points[:, 1] - lo[1]) / dy).astype(int), 0, ny - 1)
    base = 2 * (j * nx + i)
    lam0, lam1 = bary(base), bary(base + 1)
    use1 = lam1.min(axis=1) > lam0.min(axis=1)
    cells_idx = np.where(use1, base + 1, base)
    lam = np.where(use1[:, None], lam1, lam0)
    if np.any(lam.min(axis=1) < -1e-8):
        raise OutOfDomainError("point location failed on the grid mesh")
    return cells_idx, np.clip(lam, 0.0, None)


def evaluate_many(field, points):
    """Values (n,) of a ScalarP1 field at an (n, 2) array of points; a
    field of any other space raises ValueError."""
    space = field.space
    if space.kind != "ScalarP1":
        raise ValueError(f"point evaluation needs a ScalarP1 field, "
                         f"not {space.kind}")
    cells_idx, lam = _locate(space.mesh, points)
    vals = field.coefficients[space.mesh.cells[cells_idx]]
    return np.einsum("pi,pi->p", lam, vals)
