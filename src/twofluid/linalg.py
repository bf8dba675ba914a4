"""Sparse matrices and the Krylov solvers behind each sub-step.

The matrix type is scipy's `csr_matrix`.  `Pattern` owns the assembly
order: it is the one COO -> CSR builder (fem builds one over the nodes
of each function space and widens the VectorP2 one to 2x2 blocks), and
it sums duplicates in a fixed order.

No solver edits its matrix.  Each takes the Dirichlet unknowns as
`fixed` and holds them at x0's values: residuals and A-products are
zeroed on them, so A is solved with the fixed columns moved to the
right-hand side, and convergence is judged relative to the scale
||free b + held x0||_2 of `_held_start`.  Which unknowns to fix, and at
what values, is the caller's business.

Every matrix a `Pattern` returns shares the pattern's index arrays,
`indices` and `indptr` (both int32, so scipy wraps them uncopied), and
only ops that change `data` may run in place on it.  A structural op
(`eliminate_zeros`, `sort_indices`, a `setdiag` that inserts) would
silently corrupt every later matrix of the same space; run it on a
`.copy()`.  Solver logic, preconditioning and the residual contracts are
local.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as _sp

from .errors import NonconvergenceError, SingularMatrixError


class Pattern:
    """Static CSR pattern of an n x n matrix assembled from fixed COO
    positions: the COO-position -> CSR-slot map, with column indices
    sorted within each row."""

    def __init__(self, rows, cols, n):
        rows = np.asarray(rows, dtype=np.int64).ravel()
        cols = np.asarray(cols, dtype=np.int64).ravel()
        key = rows * n + cols
        uniq, slots = np.unique(key, return_inverse=True)
        urows = uniq // n
        ucols = (uniq - urows * n).astype(np.int32)
        indptr = np.zeros(n + 1, dtype=np.int32)
        np.add.at(indptr, urows + 1, 1)
        np.cumsum(indptr, out=indptr)
        self.nnz = uniq.size
        self.indptr = indptr
        self.indices = ucols
        self.slots = slots

    def interleaved(self, local):
        """Pattern of the 2x2-block matrix with unknowns interleaved:
        entry (r, s) becomes the block of rows 2r + a, columns 2s + b.
        This pattern's COO positions must run over (k, i, j) with
        i, j < `local`; the result's run over (k, i, a, j, b), and it
        equals the pattern built from those positions directly."""
        lens = np.diff(self.indptr)
        rows = np.repeat(np.arange(lens.size), lens)
        out = Pattern.__new__(Pattern)
        out.nnz = 4 * self.nnz
        row_lens = np.repeat(2 * lens, 2)
        out.indptr = np.zeros(row_lens.size + 1, dtype=self.indptr.dtype)
        np.cumsum(row_lens, out=out.indptr[1:])
        # rows 2r and 2r + 1 both hold the pairs 2s, 2s + 1 of row r's
        # columns s, which start at 2 indptr[r]
        pairs = (2 * self.indices[:, None]
                 + np.arange(2, dtype=self.indices.dtype)).ravel()
        shift = out.indptr[:-1] - 2 * np.repeat(self.indptr[:-1], 2)
        out.indices = pairs[np.arange(out.nnz) - np.repeat(shift, row_lens)]
        # so entry t of row r opens its block at 2 (indptr[r] + t) in row
        # 2r, which starts at 4 indptr[r], and 2 lens[r] further on in
        # row 2r + 1
        first = 2 * (self.indptr[rows] + np.arange(self.nnz))
        at = first[self.slots].reshape(-1, local, local)
        step = 2 * lens[rows][self.slots].reshape(at.shape)
        slots = np.empty((at.shape[0], local, 2, local, 2), dtype=np.int64)
        slots[:, :, 0, :, 0] = at
        slots[:, :, 1, :, 0] = at + step
        slots[..., 1] = slots[..., 0] + 1
        out.slots = slots.ravel()
        return out

    def assemble_data(self, values):
        """CSR data of COO values given in the pattern's COO order;
        duplicates are summed in that order (deterministic)."""
        return np.bincount(self.slots, weights=np.asarray(values).ravel(),
                           minlength=self.nnz)

    def assemble(self, values):
        return self.matrix(self.assemble_data(values))

    def matrix(self, data):
        """CSR matrix over `data` (not copied) and the pattern's
        `indices` and `indptr` (both shared: no structural op in place)."""
        n = self.indptr.size - 1
        return _sp.csr_matrix((data, self.indices, self.indptr), shape=(n, n))


# ---------------------------------------------------------------------------
# Krylov solvers

def _jacobi(A):
    d = A.diagonal()
    d[d == 0.0] = 1.0
    return 1.0 / d


def _held_start(b, x0, fixed):
    """The indices of the `fixed` unknowns (an index array or mask), b
    zeroed on them, the start x (x0 copied, else zeros) and the
    convergence scale ||free b + held x0||_2, ||free b||_2 bit for bit if
    x0 is 0 on `fixed`.  It adds held values (solution units) to the free
    load (load units): a sound relative target only while the free load
    is not far below the held data."""
    b = np.array(b, dtype=float)
    held = np.arange(b.size)[[] if fixed is None else fixed]
    b[held] = 0.0
    x = np.zeros_like(b) if x0 is None else np.array(x0, dtype=float)
    x_held = x[held]
    return held, b, x, np.sqrt(b @ b + x_held @ x_held)


def _residual(A, b, x, held):
    """b - A x, zero on the held rows."""
    r = b - A @ x
    r[held] = 0.0
    return r


def solve_cg(A, b, tol, max_iter, x0=None, stats=None, fixed=None):
    """Jacobi-preconditioned conjugate gradients for SPD systems.

    The unknowns `fixed` keep x0's values (zeros without x0), whatever b
    holds there: the residual and A p are zeroed on them, so A is solved
    with the fixed rows removed and their columns moved to the
    right-hand side, unedited.

    Returns x with ||free (b - A x)||_2 <= tol ||free b + held x0||_2
    (the recurrence residual, tested once per pass, before each of the
    max_iter updates and after the last), else raises NonconvergenceError
    carrying the true residual.  The iterations performed are
    stats["iterations"] and the error's count.
    """
    held, b, x, scale = _held_start(b, x0, fixed)
    if stats is None:
        stats = {}
    stats["iterations"] = 0
    if scale == 0.0:
        return np.zeros_like(b)
    minv = _jacobi(A)
    target = tol * scale
    r = _residual(A, b, x, held)
    z = minv * r
    p = z.copy()
    rz = r @ z
    for it in range(max_iter + 1):
        stats["iterations"] = it
        if np.linalg.norm(r) <= target:
            return x
        if it == max_iter:
            break
        Ap = A @ p
        Ap[held] = 0.0
        alpha = rz / (p @ Ap)
        x += alpha * p
        r -= alpha * Ap
        z = minv * r
        rz_new = r @ z
        p = z + (rz_new / rz) * p
        rz = rz_new
    res = np.linalg.norm(_residual(A, b, x, held))
    raise NonconvergenceError(
        f"CG did not reach tol={tol:g} in {max_iter} iterations "
        f"(relative residual {res / scale:.3e})", residual=res,
        iterations=max_iter)


def solve_bicgstab(A, b, tol, max_iter, x0=None, stats=None, fixed=None):
    """Jacobi-preconditioned BiCGStab for nonsingular (possibly
    nonsymmetric) systems.  Same `fixed`, residual and iteration-count
    contract as solve_cg.

    Convergence is tested once per pass, as in solve_cg, and a converged
    recurrence residual is confirmed against the true residual before
    returning.  A breakdown restarts the recurrence from the current
    iterate: omega or r0 . v zero, or |rho| <= eps ||r0|| ||r|| (r0
    numerically orthogonal to r, as when b lives on rows that hold only
    their diagonal).
    """
    held, b, x, scale = _held_start(b, x0, fixed)
    if stats is None:
        stats = {}
    stats["iterations"] = 0
    if scale == 0.0:
        return np.zeros_like(b)
    minv = _jacobi(A)
    target = tol * scale
    r = _residual(A, b, x, held)
    r0 = r.copy()
    nr0 = np.linalg.norm(r0)
    rho = alpha = omega = 1.0
    v = np.zeros_like(b)
    p = np.zeros_like(b)
    for it in range(max_iter + 1):
        stats["iterations"] = it
        nr = np.linalg.norm(r)
        if (nr <= target
                and np.linalg.norm(_residual(A, b, x, held)) <= target):
            return x
        if it == max_iter:
            break
        rho_new = r0 @ r
        if abs(rho_new) <= np.finfo(float).eps * nr0 * nr or omega == 0.0:
            r = _residual(A, b, x, held)
            r0 = r.copy()
            nr0 = np.linalg.norm(r0)
            rho = alpha = omega = 1.0
            v[:] = 0.0
            p[:] = 0.0
            rho_new = r0 @ r
        beta = (rho_new / rho) * (alpha / omega)
        rho = rho_new
        p = r + beta * (p - omega * v)
        ph = minv * p
        v = A @ ph
        v[held] = 0.0
        r0v = r0 @ v
        if r0v == 0.0:
            omega = 0.0  # breakdown: restart on the next pass
            continue
        alpha = rho / r0v
        s = r - alpha * v
        if np.linalg.norm(s) <= target:
            x += alpha * ph
            r = s
            continue
        sh = minv * s
        t = A @ sh
        t[held] = 0.0
        tt = t @ t
        omega = (t @ s) / tt if tt > 0.0 else 0.0
        x += alpha * ph + omega * sh
        r = s - omega * t
    res = np.linalg.norm(_residual(A, b, x, held))
    raise NonconvergenceError(
        f"BiCGStab did not reach tol={tol:g} in {max_iter} iterations "
        f"(relative residual {res / scale:.3e})", residual=res,
        iterations=max_iter)


def lu_solve_dense(A, b):
    """Dense partial-pivoting solve; the oracle for the iterative solvers.

    Raises SingularMatrixError when the factorization meets a zero pivot.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"need a square matrix, got shape {A.shape}")
    try:
        x = np.linalg.solve(A, b)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(str(exc)) from exc
    if not np.all(np.isfinite(x)):
        raise SingularMatrixError("solution is not finite")
    return x
