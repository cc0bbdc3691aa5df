"""Sparse SPD storage and the certified sparse direct solver."""

import numpy as np
import pytest

import oracles
from polydarcy import linsolve, ncvem, polymesh
from polydarcy.cases import get_case
from polydarcy.linsolve import SolverError, SparseSpd


def from_dense(a: np.ndarray) -> SparseSpd:
    rows, cols = np.nonzero(a)
    return SparseSpd.from_triplets(a.shape[0], rows, cols, a[rows, cols])


def test_identity_returns_rhs():
    a = from_dense(np.eye(7))
    b = np.arange(7, dtype=float)
    assert np.array_equal(linsolve.solve(a, b), b)


def test_two_by_two_closed_form():
    a = from_dense(np.array([[2.0, 1.0], [1.0, 2.0]]))
    x = linsolve.solve(a, np.array([3.0, 3.0]))
    assert np.abs(x - 1.0).max() < 1e-12


def test_random_spd_matches_cholesky():
    rng = np.random.default_rng(0)
    m = rng.standard_normal((50, 50))
    dense = m.T @ m + np.eye(50)
    b = rng.standard_normal(50)
    x = linsolve.solve(from_dense(dense), b)
    ref = oracles.cholesky_solve(dense, b)
    assert np.abs(x - ref).max() / np.abs(ref).max() < 1e-10


def test_residual_contract():
    rng = np.random.default_rng(3)
    m = rng.standard_normal((120, 40))
    dense = m.T @ m + 0.1 * np.eye(40)
    b = rng.standard_normal(40)
    tol = 1e-12
    x = linsolve.solve(from_dense(dense), b, tol=tol)
    rel = np.linalg.norm(b - dense @ x) / np.linalg.norm(b)
    # modest headroom: the contract is measured on the Jacobi-scaled system
    assert rel < 100 * tol


def test_zero_rhs_returns_zero():
    a = from_dense(np.diag([2.0, 3.0, 4.0]))
    assert np.array_equal(linsolve.solve(a, np.zeros(3)), np.zeros(3))


def test_empty_system():
    a = SparseSpd.from_triplets(0, np.empty(0, np.int64), np.empty(0, np.int64),
                                np.empty(0))
    assert linsolve.solve(a, np.zeros(0)).shape == (0,)


def test_nonpositive_diagonal_rejected():
    a = from_dense(np.array([[1.0, 0.0], [0.0, -2.0]]))
    with pytest.raises(SolverError):
        linsolve.solve(a, np.ones(2))


def rank_deficient_gram() -> np.ndarray:
    # rank 3 in exact arithmetic; rounding leaves tiny pivots of either sign
    v = np.random.default_rng(1).standard_normal((6, 3))
    return v @ v.T


@pytest.mark.parametrize("dense", [
    np.array([[1.0, 1.0], [1.0, 1.0]]),
    rank_deficient_gram(),
    np.array([[1.0, 2.0], [2.0, 1.0]]),
], ids=["singular", "rank-deficient", "indefinite"])
def test_singular_or_indefinite_rejected(dense):
    b = np.arange(1.0, dense.shape[0] + 1.0)
    with pytest.raises(SolverError):
        linsolve.solve(from_dense(dense), b)


@pytest.mark.parametrize("n", [2, 2001])
@pytest.mark.parametrize("where", ["rhs-nan", "rhs-inf", "matrix-nan"])
def test_non_finite_input_rejected(where, n):
    # the outcome must not depend on the size of the system
    idx = np.arange(n)
    rows = np.concatenate([idx, [0, 1]])
    cols = np.concatenate([idx, [1, 0]])
    vals = np.concatenate([np.full(n, 2.0), [1.0, 1.0]])
    b = np.ones(n)
    if where == "matrix-nan":
        vals[n:] = np.nan
    else:
        b[1] = np.nan if where == "rhs-nan" else np.inf
    with pytest.raises(ValueError):
        linsolve.solve(SparseSpd.from_triplets(n, rows, cols, vals), b)


def test_rhs_length_mismatch():
    a = from_dense(np.eye(3))
    with pytest.raises(ValueError):
        linsolve.solve(a, np.ones(4))


def test_triplet_duplicates_are_summed():
    rows = np.array([0, 0, 1])
    cols = np.array([0, 0, 1])
    vals = np.array([1.0, 2.0, 5.0])
    a = SparseSpd.from_triplets(2, rows, cols, vals)
    assert np.array_equal(a.dense(), np.array([[3.0, 0.0], [0.0, 5.0]]))


def test_symmetry_gap_detects_asymmetry():
    sym = from_dense(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert sym.symmetry_gap() == 0.0
    skew = SparseSpd.from_triplets(2, np.array([0]), np.array([1]), np.array([1.0]))
    assert skew.symmetry_gap() == 1.0


def test_refine_floor_polishes_perturbed_solution():
    rng = np.random.default_rng(7)
    m = rng.standard_normal((80, 30))
    dense = m.T @ m + np.eye(30)
    b = rng.standard_normal(30)
    ref = oracles.cholesky_solve(dense, b)
    rough = ref + 1e-6 * rng.standard_normal(30)
    polished = linsolve._refine_floor(from_dense(dense), b, rough)
    assert np.abs(polished - ref).max() < 1e-12 * np.abs(ref).max()


def test_floor_accepted_solution_is_forward_accurate():
    # rhs aligned with the small end of a cond ~ 1e8 spectrum: the direct
    # solve lands on the certified residual floor, where the unpolished
    # forward error can sit near eps * cond.  Refinement must not lose
    # accuracy and must land well below that.
    rng = np.random.default_rng(11)
    n = 400
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    lam = np.ones(n)
    lam[:5] = np.logspace(-8, -6, 5)
    dense = 0.5 * ((q * lam) @ q.T + ((q * lam) @ q.T).T)
    b = q[:, 0] + 1e-4 * rng.standard_normal(n)
    ref = oracles.cholesky_solve_longdouble(dense, b)
    x = linsolve.solve(from_dense(dense), b, tol=1e-12)
    xu = linsolve.solve(from_dense(dense), b, tol=1e-12, _refine=False)
    scale = np.abs(ref).max()
    assert np.abs(x - ref).max() / scale < 1e-10
    assert np.abs(x - ref).max() <= np.abs(xu - ref).max() + 1e-15 * scale


def test_cg_matches_cholesky_on_assembled_system():
    # acceptance-scale cross-check on a real stiffness matrix, n <= 2000
    mesh = polymesh.generate_distorted_polygonal(8, 8, seed=12, distortion=0.2)
    case = get_case("bubble-sine")
    system = ncvem.assemble(mesh, case.permeability, case.forcing, 1,
                            boundary=case.pressure)
    assert system.matrix.shape[0] <= 2000
    assert system.matrix.symmetry_gap() == 0.0
    x = linsolve.solve(system.matrix, system.rhs)
    ref = oracles.cholesky_solve(system.matrix.dense(), system.rhs)
    scale = np.abs(ref).max()
    assert np.abs(x - ref).max() / scale < 1e-9


def test_high_order_solve_is_forward_accurate():
    # k = 3 on a distorted mesh is the worst-conditioned system the
    # acceptance criteria solve; compare against an extended-precision oracle
    mesh = polymesh.generate_distorted_polygonal(6, 6, seed=5, distortion=0.2)
    case = get_case("bubble-sine")
    system = ncvem.assemble(mesh, case.permeability, case.forcing, 3,
                            boundary=case.pressure)
    assert system.matrix.shape[0] == 492
    x = linsolve.solve(system.matrix, system.rhs)
    ref = oracles.cholesky_solve_longdouble(system.matrix.dense(), system.rhs)
    assert np.abs(x - ref).max() / np.abs(ref).max() < 1e-12
