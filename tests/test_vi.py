import itertools

import numpy as np
import pytest

from twofluid.linalg import SparseMatrix
from twofluid.vi import check_vi_conditions, solve_box_vi


def _sparse_from_dense(dense):
    rows, cols = np.nonzero(dense)
    return SparseMatrix.from_coo(rows, cols, dense[rows, cols], dense.shape)


def _identity(n):
    return _sparse_from_dense(np.eye(n))


def box_qp_minimizer(dense, b):
    """Brute-force minimizer of 0.5 x'Ax - b'x over [0, 1]^n, by
    enumerating all lower/interior/upper patterns and keeping the best
    feasible KKT candidate.  Exponential; keep n <= 10."""
    n = b.size
    best, best_val = None, np.inf
    for pattern in itertools.product((-1, 0, 1), repeat=n):
        pattern = np.array(pattern)
        x = np.where(pattern == 1, 1.0, 0.0)
        interior = pattern == 0
        if np.any(interior):
            sub = dense[np.ix_(interior, interior)]
            rhs = b[interior] - dense[np.ix_(interior, ~interior)] @ x[~interior]
            try:
                x[interior] = np.linalg.solve(sub, rhs)
            except np.linalg.LinAlgError:
                continue
        if np.any(x < -1e-9) or np.any(x > 1.0 + 1e-9):
            continue
        r = dense @ x - b
        if np.any(r[pattern == -1] < -1e-9) or np.any(r[pattern == 1] > 1e-9):
            continue
        val = 0.5 * x @ dense @ x - b @ x
        if val < best_val:
            best, best_val = np.clip(x, 0.0, 1.0), val
    return best


def test_unconstrained_feasible_interior():
    n = 4
    b = np.full(n, 0.5)
    x = solve_box_vi(_identity(n), b, np.zeros(n), 1e-10)
    assert x == pytest.approx(b)


def test_diagonal_projection():
    b = np.array([-0.3, 0.5, 1.2])
    x = solve_box_vi(_identity(3), b, np.zeros(3), 1e-10)
    assert x == pytest.approx([0.0, 0.5, 1.0])
    r = _identity(3).matvec(x) - b
    assert r == pytest.approx([0.3, 0.0, -0.2])
    assert check_vi_conditions(x, r) <= 1e-10


def test_report_flags_interior_violation():
    x = np.array([0.5, 0.3, 0.4])
    r = np.array([0.3, 0.0, 0.0])  # first component off
    assert check_vi_conditions(x, r) == pytest.approx(0.3)
    # wrong residual signs at the bounds
    x = np.array([0.0, 1.0, 0.4])
    assert check_vi_conditions(x, np.array([-0.2, 0.0, 0.0])) == 0.2
    assert check_vi_conditions(x, np.array([0.0, 0.1, 0.0])) == 0.1


@pytest.mark.parametrize("seed", range(25))
def test_matches_exhaustive_qp_oracle(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9))
    q = rng.standard_normal((n, n))
    dense = q.T @ q + np.eye(n)
    b = rng.standard_normal(n) * 2.0
    a = _sparse_from_dense(dense)
    x = solve_box_vi(a, b, np.zeros(n), tol=1e-10)
    assert np.all(x >= 0.0) and np.all(x <= 1.0)
    oracle = box_qp_minimizer(dense, b)
    assert oracle is not None
    assert np.max(np.abs(x - oracle)) <= 1e-8
    assert check_vi_conditions(x, a.matvec(x) - b) <= 1e-10


def test_unconstrained_consistency():
    rng = np.random.default_rng(42)
    n = 8
    q = rng.standard_normal((n, n))
    dense = q.T @ q + n * np.eye(n)
    x_ref = rng.uniform(0.3, 0.7, n)  # strictly interior target
    b = dense @ x_ref
    x = solve_box_vi(_sparse_from_dense(dense), b, np.zeros(n), tol=1e-12)
    assert x == pytest.approx(x_ref, abs=1e-9)


def test_large_reduced_system_uses_iterative_path():
    # above the dense cutoff: diagonally dominant system, half the optimum
    # clipped at the lower bound
    rng = np.random.default_rng(7)
    n = 600
    diag = rng.uniform(4.0, 6.0, n)
    rows = np.concatenate([np.arange(n), np.arange(n - 1), np.arange(1, n)])
    cols = np.concatenate([np.arange(n), np.arange(1, n), np.arange(n - 1)])
    vals = np.concatenate([diag, np.full(n - 1, -0.5), np.full(n - 1, -0.5)])
    a = SparseMatrix.from_coo(rows, cols, vals, (n, n))
    b = rng.standard_normal(n)
    x = solve_box_vi(a, b, np.zeros(n), tol=1e-10)
    assert check_vi_conditions(x, a.matvec(x) - b) <= 1e-10
