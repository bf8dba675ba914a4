import itertools

import numpy as np
import pytest

from twofluid import vi
from twofluid.errors import NonconvergenceError
from twofluid.linalg import Pattern
from twofluid.vi import check_vi_conditions, solve_box_vi


def _sparse_from_dense(dense):
    rows, cols = np.nonzero(dense)
    return Pattern(rows, cols, dense.shape[0]).assemble(dense[rows, cols])


def _identity(n):
    return _sparse_from_dense(np.eye(n))


def kkt_points(dense, b):
    """Every solution of the VI on [0, 1]^n with residual Ax - b, by
    enumerating all lower/interior/upper patterns and keeping the
    feasible KKT candidates.  Exponential; keep n <= 10."""
    n = b.size
    points = []
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
        points.append(np.clip(x, 0.0, 1.0))
    return points


def box_qp_minimizer(dense, b):
    """Brute-force minimizer of 0.5 x'Ax - b'x over [0, 1]^n (A
    symmetric): the best of the KKT points."""
    return min(kkt_points(dense, b), default=None,
               key=lambda x: 0.5 * x @ dense @ x - b @ x)


def test_unconstrained_feasible_interior():
    n = 4
    b = np.full(n, 0.5)
    x = solve_box_vi(_identity(n), b, np.zeros(n), 1e-10)
    assert x == pytest.approx(b)


def test_diagonal_projection():
    b = np.array([-0.3, 0.5, 1.2])
    x = solve_box_vi(_identity(3), b, np.zeros(3), 1e-10)
    assert x == pytest.approx([0.0, 0.5, 1.0])
    r = _identity(3) @ x - b
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
    assert check_vi_conditions(x, a @ x - b) <= 1e-10


@pytest.mark.parametrize("seed", range(12))
def test_fixed_unknowns_are_held_and_the_rest_match_the_qp_oracle(seed):
    # the oracle is the VI of the free unknowns alone, with the fixed
    # columns moved to the right-hand side
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 11))
    q = rng.standard_normal((n, n))
    dense = q.T @ q + np.eye(n)
    b = rng.standard_normal(n) * 2.0
    fixed = np.sort(rng.choice(n, size=int(rng.integers(1, 4)),
                               replace=False))
    free = np.setdiff1d(np.arange(n), fixed)
    x0 = rng.uniform(-0.5, 1.5, n)
    x0[fixed] = rng.choice([0.0, 0.3, 0.7, 1.0], fixed.size)
    a = _sparse_from_dense(dense)
    before = a.data.copy()
    x = solve_box_vi(a, b, x0, tol=1e-10, fixed=fixed)
    assert np.array_equal(a.data, before)
    assert np.array_equal(x[fixed], x0[fixed])
    oracle = box_qp_minimizer(
        dense[np.ix_(free, free)],
        b[free] - dense[np.ix_(free, fixed)] @ x0[fixed])
    assert oracle is not None
    assert np.max(np.abs(x[free] - oracle)) <= 1e-8
    r = a @ x - b
    assert check_vi_conditions(x[free], r[free]) <= 1e-10


def test_held_unknowns_need_no_reduced_solve(monkeypatch):
    # one node held inside the box, every free node held at 0 by a
    # positive residual: one active-set pass, no reduced system
    def refused(*args, **kwargs):
        raise AssertionError("a reduced solve")

    monkeypatch.setattr(vi, "lu_solve_dense", refused)
    monkeypatch.setattr(vi, "solve_bicgstab", refused)
    n = 6
    dense = 2.0 * np.eye(n) - np.eye(n, k=-1)
    x0 = np.zeros(n)
    x0[0] = 0.4
    stats = {}
    x = solve_box_vi(_sparse_from_dense(dense), np.full(n, -1.0), x0,
                     tol=1e-10, stats=stats, fixed=[0])
    assert np.array_equal(x, x0)
    assert stats["iterations"] == 1


def test_unconstrained_consistency():
    rng = np.random.default_rng(42)
    n = 8
    q = rng.standard_normal((n, n))
    dense = q.T @ q + n * np.eye(n)
    x_ref = rng.uniform(0.3, 0.7, n)  # strictly interior target
    b = dense @ x_ref
    x = solve_box_vi(_sparse_from_dense(dense), b, np.zeros(n), tol=1e-12)
    assert x == pytest.approx(x_ref, abs=1e-9)


def test_large_reduced_system_uses_iterative_path(monkeypatch):
    # a known solution with 430 inactive nodes, above the dense cutoff:
    # 1-D diffusion-convection-reaction (a nonsymmetric M-matrix, hence a
    # P-matrix, so the VI has exactly one solution), x* stretches of a
    # clipped sine at both bounds, r* = A x* - b strictly signed there and
    # zero inside
    n = 1000
    rows = np.concatenate([np.arange(n), np.arange(n - 1), np.arange(1, n)])
    cols = np.concatenate([np.arange(n), np.arange(1, n), np.arange(n - 1)])
    vals = np.concatenate([np.full(n, 2.2), np.full(n - 1, -0.6),
                           np.full(n - 1, -1.4)])
    a = Pattern(rows, cols, n).assemble(vals)
    x_star = np.clip(0.5 + 0.8 * np.sin(6 * np.pi * np.linspace(0, 1, n)),
                     0.0, 1.0)
    at_lo, at_hi = x_star == 0.0, x_star == 1.0
    assert np.count_nonzero(~(at_lo | at_hi)) > vi._DENSE_CUTOFF
    rng = np.random.default_rng(0)
    r_star = np.zeros(n)
    r_star[at_lo] = rng.uniform(0.1, 1.0, np.count_nonzero(at_lo))
    r_star[at_hi] = -rng.uniform(0.1, 1.0, np.count_nonzero(at_hi))
    b = a @ x_star - r_star

    sizes = []

    def counted(*args, **kwargs):
        sizes.append(args[1].size)
        return solve_bicgstab(*args, **kwargs)

    def refused(*args, **kwargs):
        raise AssertionError("dense LU on a reduced system above the cutoff")

    solve_bicgstab = vi.solve_bicgstab
    monkeypatch.setattr(vi, "solve_bicgstab", counted)
    monkeypatch.setattr(vi, "lu_solve_dense", refused)
    x = solve_box_vi(a, b, np.zeros(n), tol=1e-10)
    assert sizes and min(sizes) > vi._DENSE_CUTOFF
    assert np.max(np.abs(x - x_star)) <= 1e-9


@pytest.mark.parametrize("n", [60, 1000])
def test_the_unbounded_box_is_the_linear_solve_of_the_free_unknowns(
        n, monkeypatch):
    # on (-inf, inf) no bound can become active, so one reduced solve over
    # the free unknowns (dense LU below the cutoff, BiCGStab above it) is
    # the whole VI, even though the start, the held values and the
    # solution all leave [0, 1].  A is the nonsymmetric M-matrix of the
    # iterative-path test, whose row sums 0.2 give |A_ff^-1|_inf <= 5
    rows = np.concatenate([np.arange(n), np.arange(n - 1), np.arange(1, n)])
    cols = np.concatenate([np.arange(n), np.arange(1, n), np.arange(n - 1)])
    vals = np.concatenate([np.full(n, 2.2), np.full(n - 1, -0.6),
                           np.full(n - 1, -1.4)])
    a = Pattern(rows, cols, n).assemble(vals)
    rng = np.random.default_rng(n)
    b = rng.uniform(-1.0, 1.0, n)
    fixed = np.sort(rng.choice(n, size=n // 10, replace=False))
    free = np.setdiff1d(np.arange(n), fixed)
    x0 = rng.uniform(-3.0, 3.0, n)
    branch = ("lu_solve_dense" if free.size <= vi._DENSE_CUTOFF
              else "solve_bicgstab")
    calls = []

    def counted(*args, _fn=getattr(vi, branch), **kwargs):
        calls.append(args[1].size)
        return _fn(*args, **kwargs)

    monkeypatch.setattr(vi, branch, counted)
    stats = {}
    tol = 1e-10
    x = solve_box_vi(a, b, x0, tol=tol, stats=stats, fixed=fixed,
                     box=(-np.inf, np.inf))
    dense = a.toarray()
    expect = np.linalg.solve(dense[np.ix_(free, free)],
                             b[free] - dense[np.ix_(free, fixed)] @ x0[fixed])
    assert expect.min() < -0.5 and expect.max() > 1.5
    assert calls == [free.size] and stats["iterations"] == 1
    assert np.array_equal(x[fixed], x0[fixed])
    r = (a @ x - b)[free]
    assert np.max(np.abs(r)) <= tol
    worst = check_vi_conditions(x[free], r, -np.inf, np.inf)
    assert worst == np.max(np.abs(r))
    assert np.max(np.abs(x[free] - expect)) <= 5.0 * tol


# A nonsymmetric P-matrix instance on which the active-set guesses cycle
# (draw 7,517 of default_rng(1): n = integers(2, 6), q and s standard
# normal (n, n), A = 0.2 q'q + (s - s') uniform(0, 3) + 0.1 I,
# b = 2 standard_normal(n), x0 = uniform(0, 1, n)).  Its symmetric part is
# positive definite, so the VI has exactly one solution.
CYCLING_A = np.array([
    [1.0967852010873023, -5.854402365424064, 1.1439721720537004,
     1.9518692444884174, 1.6672415758530728],
    [5.573749037611916, 0.7411669440223566, 1.9260738819514631,
     -4.690428312366583, -1.9020112150012365],
    [-0.6127221069839044, -2.2206912580134657, 0.9341654586701835,
     3.365263449972832, 3.0863682671830905],
    [-3.0808519094703266, 5.025843603241768, -3.5214338987617646,
     0.6133201627601448, 5.274498719980288],
    [-1.2474689676891824, 1.694325163534497, -2.9879875048924602,
     -5.563723263767725, 0.1574195164877746]])
CYCLING_B = np.array([-0.8796380618975607, -0.012364120236354902,
                      -4.141300180397659, 0.1758511653373288,
                      -0.9008232709717532])
CYCLING_X0 = np.array([0.42733246130686475, 0.20657701174590926,
                       0.27309815382141056, 0.7135633226481157,
                       0.6868774650644783])


def test_anti_cycling_fallback_resolves_a_cycling_instance(monkeypatch):
    revisits = []

    class SeenLog(set):
        """The solver's set of visited active-set guesses, logging each
        revisit (the trigger of the monotone-growth fallback)."""

        def __contains__(self, item):
            found = super().__contains__(item)
            if found:
                revisits.append(item)
            return found

    monkeypatch.setattr(vi, "set", SeenLog, raising=False)
    a = _sparse_from_dense(CYCLING_A)
    stats = {}
    x = solve_box_vi(a, CYCLING_B, CYCLING_X0, tol=1e-10, stats=stats)
    assert revisits                               # the guesses cycled
    assert stats["iterations"] == 7
    (oracle,) = kkt_points(CYCLING_A, CYCLING_B)
    assert np.max(np.abs(x - oracle)) <= 1e-10
    assert check_vi_conditions(x, a @ x - CYCLING_B) <= 1e-10


class _NeverSeen(set):
    """A set of visited guesses that never reports a revisit, so the
    fallback never engages."""

    def __contains__(self, item):
        return False


def test_without_the_fallback_the_cycling_instance_fails(monkeypatch):
    monkeypatch.setattr(vi, "set", _NeverSeen, raising=False)
    with pytest.raises(NonconvergenceError) as exc:
        solve_box_vi(_sparse_from_dense(CYCLING_A), CYCLING_B, CYCLING_X0,
                     tol=1e-10)
    assert exc.value.iterations == 50
