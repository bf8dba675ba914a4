import numpy as np
import pytest

from twofluid.errors import NonconvergenceError, SingularMatrixError
from twofluid.linalg import Pattern, lu_solve_dense, solve_bicgstab, solve_cg


def _random_sparse(rng, n, density=0.2):
    dense = rng.standard_normal((n, n))
    dense[rng.random((n, n)) > density] = 0.0
    np.fill_diagonal(dense, rng.standard_normal(n) + 5.0)
    rows, cols = np.nonzero(dense)
    return Pattern(rows, cols, n).assemble(dense[rows, cols]), dense


def _dense_system(rows):
    dense = np.array(rows, dtype=float)
    r, c = np.nonzero(dense)
    return Pattern(r, c, dense.shape[0]).assemble(dense[r, c]), dense


def _identity(n):
    idx = np.arange(n)
    return Pattern(idx, idx, n).assemble(np.ones(n))


def test_pattern_sums_duplicates():
    A = Pattern([0, 0, 1], [1, 1, 0], 2).assemble([2.0, 3.0, 4.0])
    assert A.toarray() == pytest.approx(np.array([[0.0, 5.0], [4.0, 0.0]]))
    assert np.array_equal(A.diagonal(), [0.0, 0.0])


def test_interleaved_pattern_equals_the_coo_build():
    # 40 "cells" of 4 distinct nodes each out of 25 (nodes 23 and 24 in
    # none): the node pattern widened to 2x2 blocks equals the pattern
    # built from the interleaved dof positions (k, i, a, j, b)
    rng = np.random.default_rng(3)
    nodes = np.array([rng.choice(23, 4, replace=False) for _ in range(40)])
    k, nl = nodes.shape
    node = Pattern(np.repeat(nodes, nl, axis=1), np.tile(nodes, nl), 25)
    dofs = np.stack([2 * nodes, 2 * nodes + 1], axis=2).reshape(k, 2 * nl)
    ref = Pattern(np.repeat(dofs, 2 * nl, axis=1), np.tile(dofs, 2 * nl), 50)
    out = node.interleaved(nl)
    assert out.nnz == ref.nnz
    for name in ("indptr", "indices", "slots"):
        got, want = getattr(out, name), getattr(ref, name)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


def test_csr_invariants():
    rng = np.random.default_rng(0)
    A, dense = _random_sparse(rng, 30)
    assert np.all(np.diff(A.indptr) >= 0)
    for i in range(30):
        cols = A.indices[A.indptr[i]:A.indptr[i + 1]]
        assert np.all(np.diff(cols) > 0)
    x = rng.standard_normal(30)
    assert A @ x == pytest.approx(dense @ x, abs=1e-14)


def test_submatrix_matches_dense_slice():
    # the reduced-system extraction of the VI solver
    rng = np.random.default_rng(1)
    A, dense = _random_sparse(rng, 25)
    A[3, 3] = dense[3, 3] = 0.0    # an explicit zero stays in the pattern
    keep = rng.random(25) > 0.4
    keep[3] = True
    sub = A[keep][:, keep]
    ref = dense[np.ix_(keep, keep)]
    assert np.array_equal(sub.toarray(), ref)
    for i in range(sub.shape[0]):
        cols = sub.indices[sub.indptr[i]:sub.indptr[i + 1]]
        assert np.all(np.diff(cols) > 0)
    assert np.array_equal(sub.diagonal(), np.diag(ref))


def test_cg_identity():
    b = np.array([3.0, -1.0, 2.0])
    assert solve_cg(_identity(3), b, 1e-10, 2000) == pytest.approx(b)


def test_cg_diagonal():
    n = 5
    idx = np.arange(n)
    A = Pattern(idx, idx, n).assemble(np.arange(1.0, 6.0))
    x = solve_cg(A, np.ones(n), tol=1e-14, max_iter=2000)
    assert x == pytest.approx(1.0 / np.arange(1.0, 6.0))


def test_cg_matches_dense_lu():
    rng = np.random.default_rng(2)
    B = rng.standard_normal((50, 50))
    dense = B.T @ B + np.eye(50)
    rows, cols = np.nonzero(dense)
    A = Pattern(rows, cols, 50).assemble(dense[rows, cols])
    b = rng.standard_normal(50)
    x = solve_cg(A, b, tol=1e-12, max_iter=2000)
    assert x == pytest.approx(lu_solve_dense(dense, b), abs=1e-8)
    assert np.linalg.norm(A @ x - b) <= 1e-12 * np.linalg.norm(b)


def test_cg_converges_within_n_iterations_well_conditioned():
    rng = np.random.default_rng(3)
    n = 40
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    dense = q @ np.diag(rng.uniform(1.0, 4.0, n)) @ q.T
    rows, cols = np.nonzero(dense)
    A = Pattern(rows, cols, n).assemble(dense[rows, cols])
    b = rng.standard_normal(n)
    x = solve_cg(A, b, tol=1e-12, max_iter=n)
    assert np.linalg.norm(A @ x - b) <= 1e-12 * np.linalg.norm(b)


def _eliminated(dense, b, x0, fixed):
    """The oracle of a solve with `fixed` unknowns held at x0's values: the
    system with the fixed rows and columns removed and the columns' load
    moved to the right-hand side, dense, as A_ff x_f = b_f - A_fc x0_c."""
    free = np.setdiff1d(np.arange(b.size), fixed)
    x = x0.copy()
    x[free] = lu_solve_dense(dense[np.ix_(free, free)],
                             b[free] - dense[np.ix_(free, fixed)] @ x0[fixed])
    return x


def _check_fixed_solve(solver, A, dense, rng):
    """A solve with 6 random `fixed` unknowns against the eliminated
    system's dense solution: the fixed unknowns keep x0's values exactly
    whatever b holds there, A is not edited, and the free residual meets
    tol against the row-replaced system's right-hand side."""
    n = dense.shape[0]
    before = [a.copy() for a in (A.data, A.indices, A.indptr)]
    fixed = np.sort(rng.choice(n, size=6, replace=False))
    b = rng.standard_normal(n)           # nonzero on the fixed rows too
    x0 = rng.standard_normal(n)
    want = _eliminated(dense, b, x0, fixed)
    x = solver(A, b, tol=1e-12, max_iter=200, x0=x0, fixed=fixed)
    for a, kept in zip((A.data, A.indices, A.indptr), before):
        assert np.array_equal(a, kept)
    assert np.array_equal(x[fixed], x0[fixed])
    assert x == pytest.approx(want, abs=1e-9)
    free = np.setdiff1d(np.arange(n), fixed)
    replaced = b.copy()
    replaced[fixed] = x0[fixed]
    assert (np.linalg.norm((b - dense @ x)[free])
            <= 1e-12 * np.linalg.norm(replaced))
    # an empty `fixed` changes no bit
    assert np.array_equal(solver(A, b, 1e-12, 200, x0=x0, fixed=[]),
                          solver(A, b, 1e-12, 200, x0=x0))


@pytest.mark.parametrize("seed", range(5))
def test_cg_with_fixed_unknowns_solves_the_eliminated_system(seed):
    rng = np.random.default_rng(seed)
    n = 30
    B = rng.standard_normal((n, n))
    B[rng.random((n, n)) > 0.3] = 0.0
    A, dense = _dense_system(B.T @ B + np.eye(n))
    _check_fixed_solve(solve_cg, A, dense, rng)


@pytest.mark.parametrize("seed", range(5))
def test_bicgstab_with_fixed_unknowns_solves_the_eliminated_system(seed):
    rng = np.random.default_rng(seed)
    n = 30
    A, dense = _random_sparse(rng, n, density=0.3)
    _check_fixed_solve(solve_bicgstab, A, dense, rng)


def test_cg_with_a_load_only_on_fixed_rows_returns_zero():
    b = np.zeros(4)
    b[[1, 2]] = 5.0
    stats = {}
    # the fixed unknowns are held at x0's zeros: the row-replaced system's
    # right-hand side is zero, so is the solution, whatever x0 holds on
    # the free rows
    x = solve_cg(_identity(4), b, 1e-10, 100, x0=np.array([1.0, 0, 0, 1]),
                 stats=stats, fixed=[1, 2])
    assert np.array_equal(x, np.zeros(4)) and stats["iterations"] == 0


def test_cg_nonconvergence_carries_residual():
    rng = np.random.default_rng(4)
    B = rng.standard_normal((30, 30))
    dense = B.T @ B + np.eye(30)
    rows, cols = np.nonzero(dense)
    A = Pattern(rows, cols, 30).assemble(dense[rows, cols])
    with pytest.raises(NonconvergenceError) as exc:
        solve_cg(A, rng.standard_normal(30), tol=1e-14, max_iter=2)
    assert exc.value.residual is not None


@pytest.mark.parametrize("solver", [solve_cg, solve_bicgstab])
def test_iteration_limit_reports_iterations_performed(solver):
    # 1-D Laplacian: Jacobi-preconditioned Krylov needs far more than 3
    # iterations on 50 unknowns, so the limit is hit
    n = 50
    i = np.arange(n)
    rows = np.concatenate([i, i[:-1], i[1:]])
    cols = np.concatenate([i, i[1:], i[:-1]])
    vals = np.concatenate([np.full(n, 2.0), np.full(2 * n - 2, -1.0)])
    A = Pattern(rows, cols, n).assemble(vals)
    stats = {}
    with pytest.raises(NonconvergenceError) as exc:
        solver(A, np.ones(n), tol=1e-12, max_iter=3, stats=stats)
    assert stats["iterations"] == exc.value.iterations == 3


@pytest.mark.parametrize("solver", [solve_cg, solve_bicgstab])
def test_a_solve_converging_on_its_last_allowed_pass_returns_x(solver):
    # the convergence test at the top of pass max_iter, after the last
    # update, accepts x unchanged from a run allowed more passes
    rng = np.random.default_rng(6)
    n = 30
    B = rng.standard_normal((n, n))
    B[rng.random((n, n)) > 0.3] = 0.0
    A, _ = _dense_system(B.T @ B + np.eye(n))
    b = rng.standard_normal(n)
    stats = {}
    x_free = solver(A, b, tol=1e-10, max_iter=1000, stats=stats)
    needed = stats["iterations"]
    assert needed > 1
    x = solver(A, b, tol=1e-10, max_iter=needed, stats=stats)
    assert stats["iterations"] == needed
    assert np.array_equal(x, x_free)
    with pytest.raises(NonconvergenceError) as exc:
        solver(A, b, tol=1e-10, max_iter=needed - 1, stats=stats)
    assert stats["iterations"] == exc.value.iterations == needed - 1
    assert exc.value.residual > 1e-10 * np.linalg.norm(b)


def test_bicgstab_identity_and_hand_case():
    b = np.array([1.0, 2.0])
    assert solve_bicgstab(_identity(2), b, 1e-10, 2000) == pytest.approx(b)
    A = Pattern([0, 0, 1], [0, 1, 1], 2).assemble([2.0, 1.0, 3.0])
    x = solve_bicgstab(A, np.array([3.0, 3.0]), tol=1e-13,
                       max_iter=2000)
    assert x == pytest.approx([1.0, 1.0])


def test_bicgstab_matches_dense_lu_on_nonsymmetric():
    rng = np.random.default_rng(5)
    n = 60
    dense = rng.standard_normal((n, n)) * 0.2 + np.diag(rng.uniform(3.0, 6.0, n))
    rows, cols = np.nonzero(dense)
    A = Pattern(rows, cols, n).assemble(dense[rows, cols])
    b = rng.standard_normal(n)
    x = solve_bicgstab(A, b, tol=1e-12, max_iter=2000)
    assert x == pytest.approx(lu_solve_dense(dense, b), abs=1e-8)


@pytest.mark.parametrize("diag, convection", [(7e-5, 0.3), (7e-5, 0.0),
                                              (2.7e-3, 0.3)])
def test_bicgstab_restarts_when_the_rhs_lives_on_diagonal_only_rows(
        diag, convection):
    # The first rows hold only their diagonal (Dirichlet rows imposed by
    # row replacement) and carry the whole right-hand side.  The shadow
    # residual r0 = b then leaves the Krylov space after one step and
    # r0 . r decays to roundoff without reaching 0; the recurrence must
    # restart there.
    n, n_fixed = 100, 4
    dense = (np.diag(np.full(n, 2.0))
             + np.diag(np.full(n - 1, -1.0 - convection), -1)
             + np.diag(np.full(n - 1, -1.0 + convection), 1))
    dense[:n_fixed] = 0.0
    dense[np.arange(n_fixed), np.arange(n_fixed)] = diag
    b = np.zeros(n)
    b[:n_fixed] = diag * np.linspace(1.0, 0.5, n_fixed)
    rows, cols = np.nonzero(dense)
    A = Pattern(rows, cols, n).assemble(dense[rows, cols])
    x = solve_bicgstab(A, b, tol=1e-10, max_iter=2000)
    assert np.linalg.norm(dense @ x - b) <= 1e-10 * np.linalg.norm(b)
    assert x == pytest.approx(lu_solve_dense(dense, b), abs=1e-8)


def test_bicgstab_restarts_after_a_zero_r0_dot_v_and_converges():
    # every value up to the breakdown is a short dyadic fraction, so the
    # floating-point run is the exact one: r0 . v = 0 on the second pass,
    # the third restarts from the iterate with r0 = r and converges
    A, dense = _dense_system([[1.0, 0.0, 0.0], [2.0, 0.5, 0.0],
                              [0.0, -0.5, -2.0]])
    b = np.array([1.0, 0.0, -1.0])
    stats = {}
    x = solve_bicgstab(A, b, tol=1e-12, max_iter=50, stats=stats)
    assert x == pytest.approx(lu_solve_dense(dense, b), abs=1e-14)
    assert stats["iterations"] == 4


def test_bicgstab_fails_when_every_restart_breaks_down_again():
    # the swap matrix maps r0 = e1 to v = e2: r0 . v = 0 on every pass,
    # and each restart from the unchanged iterate meets it again
    A, _ = _dense_system([[0.0, 1.0], [1.0, 0.0]])
    stats = {}
    with pytest.raises(NonconvergenceError) as exc:
        solve_bicgstab(A, np.array([1.0, 0.0]), tol=1e-12, max_iter=7,
                       stats=stats)
    assert stats["iterations"] == exc.value.iterations == 7
    assert exc.value.residual == 1.0


def test_zero_rhs_returns_zero():
    for solver in (solve_cg, solve_bicgstab):
        x = solver(_identity(4), np.zeros(4), 1e-10, 2000)
        assert x == pytest.approx(np.zeros(4))


def test_lu_identity_and_hilbert():
    assert lu_solve_dense(np.eye(3), np.arange(3.0)) == pytest.approx(np.arange(3.0))
    H = np.array([[1 / (i + j + 1) for j in range(3)] for i in range(3)])
    x = lu_solve_dense(H, H.sum(axis=1))
    assert x == pytest.approx(np.ones(3), abs=1e-10)


def test_lu_singular_raises():
    with pytest.raises(SingularMatrixError):
        lu_solve_dense(np.array([[1.0, 1.0], [1.0, 1.0]]), np.ones(2))


@pytest.mark.parametrize("shape", [(2, 3), (3,), (1, 2, 2)])
def test_lu_rejects_what_is_not_a_square_matrix(shape):
    with pytest.raises(ValueError, match="square matrix"):
        lu_solve_dense(np.ones(shape), np.ones(2))


def test_lu_raises_on_a_solution_that_overflows():
    # no zero pivot, but the solution 1e600 is not a float
    with pytest.raises(SingularMatrixError, match="not finite"):
        lu_solve_dense(np.diag([1e-300, 1.0]), np.array([1e300, 1.0]))

