"""Box-constrained variational inequality solver for the phase-fraction update.

For an affine residual F(x) = A x - b on the box [lo, hi]^n, the solution
x* satisfies, componentwise, one of

    x*_i = lo       and  F_i(x*) >= 0,
    lo < x*_i < hi  and  F_i(x*) =  0,
    x*_i = hi       and  F_i(x*) <= 0.

The paper's box is [0, 1].  The box (-inf, inf) admits no active bound,
so the first reduced solve is the linear solve A x = b over the free
unknowns: that is the unbounded comparator scheme, on the same system
and with the same tolerance.

The solver is a reduced-space active-set Newton iteration (Hintermueller,
Ito & Kunisch, SIAM J. Optim. 13, 2002): estimate the active bounds from
the current iterate and residual signs, solve the unconstrained system
restricted to the inactive indices, project back onto the box, repeat.
For an affine F each iteration is exact on its active-set guess, so the
loop stops once the guess stops changing.  After a guess repeats, the
active set may only grow; that does not guarantee termination (most
cycling test problems still fail), and `_MAX_ITER` bounds the loop.

Dirichlet unknowns come in as `fixed` and keep x0's values, as in
`linalg`: they are no complementarity unknowns, so a step whose free
nodes all stay at a bound makes no reduced solve.

A reduced system too large for dense LU is solved by BiCGStab started
from the current iterate on the inactive indices, which changes little
between active-set iterations.
"""

from __future__ import annotations

import numpy as np

from .errors import NonconvergenceError
from .linalg import lu_solve_dense, solve_bicgstab

_DENSE_CUTOFF = 400  # reduced systems up to this size go through dense LU
_MAX_ITER = 50       # active-set iterations before NonconvergenceError


def check_vi_conditions(x, r, lo=0.0, hi=1.0):
    """Worst violation of the three complementarity cases by x in [lo, hi]
    with residual r = A x - b; the conditions hold within tol iff the
    result is <= tol."""
    at_lo = x <= lo + 1e-13
    at_hi = x >= hi - 1e-13
    interior = ~(at_lo | at_hi)
    return float(max(np.max(-r[at_lo], initial=0.0),
                     np.max(r[at_hi], initial=0.0),
                     np.max(np.abs(r[interior]), initial=0.0)))


def _reduced_solve(a, rhs, inactive, tol, x0):
    sub = a[inactive][:, inactive]
    if sub.shape[0] <= _DENSE_CUTOFF:
        return lu_solve_dense(sub.toarray(), rhs)
    return solve_bicgstab(sub, rhs, tol=tol, max_iter=4000, x0=x0)


def solve_box_vi(a, b, x0, tol, stats=None, fixed=None, box=(0.0, 1.0)):
    """Reduced-space active-set solve of the affine VI on box = (lo, hi)
    in every component, started from x0 clipped to the box.

    The unknowns `fixed` keep x0's values, which must lie in the box: they
    join no active set, their columns go to the reduced systems'
    right-hand side, and their rows are left out of the conditions.  The
    result lies in the box exactly (final projection) and the three-case
    conditions hold within tol on the free rows; otherwise
    NonconvergenceError reports the worst violation.
    """
    lo, hi = box
    n = b.size
    free = np.ones(n, dtype=bool)
    if fixed is not None:
        free[fixed] = False
    x = np.clip(x0, lo, hi)
    r = a @ x - b
    seen = set()
    grow = False
    act_lo = np.zeros(n, dtype=bool)
    act_hi = np.zeros(n, dtype=bool)
    iterations = 0
    if stats is None:
        stats = {}

    for iterations in range(1, _MAX_ITER + 1):
        stats["iterations"] = iterations
        new_lo = free & (x <= lo) & (r >= 0.0)
        new_hi = free & (x >= hi) & (r <= 0.0)
        if grow:
            # anti-cycling: only let the active set grow monotonically
            new_lo |= act_lo
            new_hi |= act_hi & ~new_lo
        act_lo, act_hi = new_lo, new_hi
        inactive = free & ~(act_lo | act_hi)

        x_try = np.where(act_lo, lo, np.where(act_hi, hi, x))
        if np.any(inactive):
            pad = np.where(inactive, 0.0, x_try)
            rhs = (b - a @ pad)[inactive]
            inner_tol = min(1e-12, tol * 1e-2 / max(1.0, np.linalg.norm(rhs)))
            x_try[inactive] = _reduced_solve(a, rhs, inactive, inner_tol,
                                             x_try[inactive])
        x = np.clip(x_try, lo, hi)

        r = a @ x - b
        worst = check_vi_conditions(x[free], r[free], lo, hi)
        if worst <= tol:
            return x

        signature = (act_lo.tobytes(), act_hi.tobytes())
        if signature in seen:
            grow = True
        seen.add(signature)

    raise NonconvergenceError(
        f"box VI solve did not converge in {_MAX_ITER} iterations "
        f"(worst complementarity violation {worst:.3e})",
        residual=worst, iterations=iterations)
