"""Compressed-row sparse matrices and the Krylov solvers behind each sub-step.

The CSR triplet (indptr, indices, data) is owned here; scipy.sparse is used
only as the matrix-vector product backend (zero-copy view over the same
arrays).  Solver logic, preconditioning and the residual contracts are local.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as _sp

from .errors import NonconvergenceError, SingularMatrixError


class SparseMatrix:
    """Square or rectangular CSR matrix with duplicate-summing construction."""

    def __init__(self, indptr, indices, data, shape):
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int32)
        self.data = np.asarray(data, dtype=float)
        self.shape = tuple(shape)
        self.diag_slots = None       # optional fast-diagonal cache
        self._csr = _sp.csr_matrix((self.data, self.indices, self.indptr),
                                   shape=self.shape)

    @classmethod
    def from_coo(cls, rows, cols, vals, shape):
        """Build CSR from COO triplets, summing duplicate entries.

        Uses a stable sort so the accumulation order is deterministic for a
        fixed input ordering.
        """
        rows = np.asarray(rows, dtype=np.int64).ravel()
        cols = np.asarray(cols, dtype=np.int64).ravel()
        vals = np.asarray(vals, dtype=float).ravel()
        n, m = shape
        key = rows * m + cols
        order = np.argsort(key, kind="stable")
        key = key[order]
        vals = vals[order]
        uniq, start = np.unique(key, return_index=True)
        summed = np.add.reduceat(vals, start)
        urows = uniq // m
        ucols = (uniq - urows * m).astype(np.int32)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.add.at(indptr, urows + 1, 1)
        np.cumsum(indptr, out=indptr)
        return cls(indptr, ucols, summed, shape)

    def matvec(self, x):
        return self._csr @ x

    def diagonal(self):
        if self.diag_slots is not None and np.all(self.diag_slots >= 0):
            return self.data[self.diag_slots].copy()
        return self._csr.diagonal()

    def to_dense(self):
        return self._csr.toarray()

    def with_data(self, data):
        """Same sparsity pattern, new values (shares index arrays)."""
        return SparseMatrix(self.indptr, self.indices, data, self.shape)

    def submatrix(self, keep):
        """Rows and columns restricted to the boolean mask `keep`."""
        keep = np.asarray(keep, dtype=bool)
        newid = np.cumsum(keep) - 1
        rows = np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))
        mask = keep[rows] & keep[self.indices]
        sub_rows = newid[rows[mask]]
        sub_cols = newid[self.indices[mask]]
        k = int(keep.sum())
        return SparseMatrix.from_coo(sub_rows, sub_cols, self.data[mask], (k, k))

    def zero_rows(self, rows, diag_value=1.0):
        """Replace the given rows by `diag_value` on the diagonal (in place).

        Every row must contain its diagonal entry in the pattern.
        """
        rows = np.asarray(rows, dtype=np.int64)
        if rows.size == 0:
            return
        starts = self.indptr[rows]
        lens = (self.indptr[rows + 1] - starts).astype(np.int64)
        total = int(lens.sum())
        # flat positions of every entry in the selected rows
        ends = np.cumsum(lens)
        pos = np.repeat(starts - (ends - lens), lens) + np.arange(total)
        owner = np.repeat(rows, lens)
        on_diag = self.indices[pos] == owner
        diag_pos = pos[on_diag]
        if diag_pos.size != rows.size:
            missing = np.setdiff1d(rows, owner[on_diag])
            raise ValueError(f"row {missing[0]} has no diagonal entry")
        self.data[pos] = 0.0
        self.data[diag_pos] = diag_value

    def zero_columns(self, cols, b, values):
        """Eliminate columns against prescribed values (in place).

        b is updated with b -= A[:, cols] @ values; the column entries are
        then cleared except on the diagonal.  Used to keep Dirichlet-reduced
        systems symmetric.
        """
        cols = np.asarray(cols, dtype=np.int64)
        colmask = np.zeros(self.shape[1], dtype=bool)
        colmask[cols] = True
        value_of = np.zeros(self.shape[1])
        value_of[cols] = values
        rowidx = np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))
        hit = colmask[self.indices] & (rowidx != self.indices)
        np.add.at(b, rowidx[hit], -self.data[hit] * value_of[self.indices[hit]])
        self.data[hit] = 0.0
        self._csr = _sp.csr_matrix((self.data, self.indices, self.indptr),
                                   shape=self.shape)


# ---------------------------------------------------------------------------
# Krylov solvers

def _jacobi(A):
    d = A.diagonal().copy()
    d[d == 0.0] = 1.0
    return 1.0 / d


def solve_cg(A, b, tol=1e-10, max_iter=2000, x0=None, stats=None):
    """Jacobi-preconditioned conjugate gradients for SPD systems.

    Returns x with ||A x - b||_2 <= tol * ||b||_2, else raises
    NonconvergenceError carrying the final residual.  stats["iterations"]
    and the error's iteration count are the iterations performed.
    """
    b = np.asarray(b, dtype=float)
    nb = np.linalg.norm(b)
    if stats is None:
        stats = {}
    stats["iterations"] = 0
    if nb == 0.0:
        return np.zeros_like(b)
    x = np.zeros_like(b) if x0 is None else np.array(x0, dtype=float)
    minv = _jacobi(A)
    target = tol * nb
    r = b - A.matvec(x)
    z = minv * r
    p = z.copy()
    rz = r @ z
    for it in range(max_iter):
        stats["iterations"] = it
        if np.linalg.norm(r) <= target:
            return x
        Ap = A.matvec(p)
        alpha = rz / (p @ Ap)
        x += alpha * p
        r -= alpha * Ap
        z = minv * r
        rz_new = r @ z
        p = z + (rz_new / rz) * p
        rz = rz_new
    stats["iterations"] = max_iter
    res = np.linalg.norm(b - A.matvec(x))
    if res <= target:
        return x
    raise NonconvergenceError(
        f"CG did not reach tol={tol:g} in {max_iter} iterations "
        f"(relative residual {res / nb:.3e})", residual=res, iterations=max_iter)


def solve_bicgstab(A, b, tol=1e-10, max_iter=2000, x0=None, stats=None):
    """Jacobi-preconditioned BiCGStab for nonsingular (possibly
    nonsymmetric) systems.  Same residual and iteration-count contract as
    solve_cg.

    Convergence of the recurrence residual is confirmed against the true
    residual b - A x before returning.  A breakdown (rho or omega zero)
    restarts the recurrence from the current iterate.
    """
    b = np.asarray(b, dtype=float)
    nb = np.linalg.norm(b)
    if stats is None:
        stats = {}
    stats["iterations"] = 0
    if nb == 0.0:
        return np.zeros_like(b)
    x = np.zeros_like(b) if x0 is None else np.array(x0, dtype=float)
    minv = _jacobi(A)
    target = tol * nb
    r = b - A.matvec(x)
    r0 = r.copy()
    rho = alpha = omega = 1.0
    v = np.zeros_like(b)
    p = np.zeros_like(b)
    for it in range(max_iter):
        stats["iterations"] = it
        if np.linalg.norm(r) <= target:
            true_r = np.linalg.norm(b - A.matvec(x))
            if true_r <= target:
                return x
        rho_new = r0 @ r
        if rho_new == 0.0 or omega == 0.0:
            r = b - A.matvec(x)
            r0 = r.copy()
            rho = alpha = omega = 1.0
            v[:] = 0.0
            p[:] = 0.0
            rho_new = r0 @ r
            if rho_new == 0.0:
                break
        beta = (rho_new / rho) * (alpha / omega)
        rho = rho_new
        p = r + beta * (p - omega * v)
        ph = minv * p
        v = A.matvec(ph)
        alpha = rho / (r0 @ v)
        s = r - alpha * v
        if np.linalg.norm(s) <= target:
            x += alpha * ph
            r = s
            continue
        sh = minv * s
        t = A.matvec(sh)
        tt = t @ t
        omega = (t @ s) / tt if tt > 0.0 else 0.0
        x += alpha * ph + omega * sh
        r = s - omega * t
    else:
        it = max_iter
    stats["iterations"] = it
    res = np.linalg.norm(b - A.matvec(x))
    if res <= target:
        return x
    raise NonconvergenceError(
        f"BiCGStab did not reach tol={tol:g} in {it} iterations "
        f"(relative residual {res / nb:.3e})", residual=res, iterations=it)


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
