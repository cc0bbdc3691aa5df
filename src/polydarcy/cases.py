"""Manufactured solutions for -div(K grad p) = f on the unit square.

Each case carries pointwise-evaluable exact pressure, its gradient,
coefficient K and forcing f; the velocity u = -K grad p is derived from
them by Darcy's law.  A finite-difference consistency check guards against
transcription slips in hand-derived gradients and forcings.  Polynomial
cases differentiate dense coefficient arrays of p, so that grad p and f
stay exactly consistent with p by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.polynomial import polyder, polyval2d

from .ncvem import tensor_field


@dataclass
class ManufacturedCase:
    """Exact p, grad p, K and f of one named case; u = -K grad p is derived.

    All callables take (n, 2) point arrays.
    """

    name: str
    pressure: callable
    permeability: object        # scalar, 2x2, or callable
    forcing: callable
    grad_pressure: callable     # (n, 2) values of grad p

    def velocity(self, pts: np.ndarray) -> np.ndarray:
        """(n, 2) values of the Darcy velocity u = -K grad p."""
        pts = np.atleast_2d(pts)
        kvals = tensor_field(self.permeability)(pts)
        return -np.einsum("nij,nj->ni", kvals, self.grad_pressure(pts))


def verify_consistency(case: ManufacturedCase, n: int = 100, seed: int = 7,
                       tol: float = 1e-6) -> float:
    """Check grad p and f = div(-K grad p) at random points by central differences.

    Returns the worst absolute deviation, raising if either check exceeds tol
    times the scale of the value it checks.
    """
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0.05, 0.95, size=(n, 2))
    h = 1e-5
    steps = h * np.eye(2)
    grad_p = np.column_stack([case.pressure(pts + e) - case.pressure(pts - e)
                              for e in steps]) / (2 * h)
    div_u = sum(case.velocity(pts + e)[:, i] - case.velocity(pts - e)[:, i]
                for i, e in enumerate(steps)) / (2 * h)
    checks = {
        "grad_pressure inconsistent with grad p": (grad_p, case.grad_pressure(pts)),
        "forcing inconsistent with -div(K grad p)": (div_u, case.forcing(pts)),
    }
    worst = 0.0
    for what, (approx, given) in checks.items():
        scale = max(float(np.abs(given).max()), 1.0)
        deviation = float(np.abs(approx - given).max())
        if deviation > tol * scale:
            raise ValueError(f"case '{case.name}': {what} (worst deviation "
                             f"{deviation:.3e}, scale {scale:.3e})")
        worst = max(worst, deviation)
    return worst


def _bubble_case(name: str, sine_coefficient: bool) -> ManufacturedCase:
    """p = x(1-x)y(1-y) with K = (1 + 0.5 sin x) I or K = I."""

    def p(pts):
        pts = np.atleast_2d(pts)
        x, y = pts[:, 0], pts[:, 1]
        return x * (1 - x) * y * (1 - y)

    def grad_p(pts):
        pts = np.atleast_2d(pts)
        x, y = pts[:, 0], pts[:, 1]
        return np.column_stack([(1 - 2 * x) * y * (1 - y),
                                x * (1 - x) * (1 - 2 * y)])

    if sine_coefficient:
        def kappa(pts):
            pts = np.atleast_2d(pts)
            return 1.0 + 0.5 * np.sin(pts[:, 0])

        def f(pts):
            pts = np.atleast_2d(pts)
            x, y = pts[:, 0], pts[:, 1]
            lap_terms = y * (1 - y) + x * (1 - x)
            return (-0.5 * np.cos(x) * (1 - 2 * x) * y * (1 - y)
                    + 2.0 * (1.0 + 0.5 * np.sin(x)) * lap_terms)

        perm = kappa
    else:
        def f(pts):
            pts = np.atleast_2d(pts)
            x, y = pts[:, 0], pts[:, 1]
            return 2.0 * (y * (1 - y) + x * (1 - x))

        perm = 1.0
    return ManufacturedCase(name=name, pressure=p, permeability=perm,
                            forcing=f, grad_pressure=grad_p)


def _polynomial(coeffs: np.ndarray):
    """Evaluator of sum coeffs[i, j] x^i y^j at (n, 2) points.

    A trailing axis of length m in coeffs stacks m polynomials, whose values
    come out as (n, m).
    """

    def evaluate(pts):
        pts = np.atleast_2d(pts)
        return polyval2d(pts[:, 0], pts[:, 1], coeffs).T

    return evaluate


def _derivative(coeffs: np.ndarray, axis: int) -> np.ndarray:
    """d/dx (axis 0) or d/dy (axis 1) coefficients, zero-padded to coeffs' shape."""
    d = polyder(coeffs, axis=axis)
    return np.pad(d, [(0, n - m) for n, m in zip(coeffs.shape, d.shape)])


def polynomial_case(k: int, seed: int = 0) -> ManufacturedCase:
    """Exact solution with p in P_{k+1} and K = [[2, 0.5], [0.5, 1.5]].

    Deterministic small-integer coefficients; used by patch tests, where the
    scheme must reproduce p, u and all recovered data to machine precision.
    """
    rng = np.random.default_rng([11, k, seed])
    coeffs = np.zeros((k + 2, k + 2))
    for i in range(k + 2):
        for j in range(k + 2 - i):
            coeffs[i, j] = rng.integers(-3, 4)
    # keep every top-degree layer populated so the test has full content
    coeffs[k + 1, 0] = max(1.0, abs(coeffs[k + 1, 0]))
    coeffs[0, k + 1] = max(1.0, abs(coeffs[0, k + 1]))
    kmat = np.array([[2.0, 0.5], [0.5, 1.5]])
    px, py = _derivative(coeffs, 0), _derivative(coeffs, 1)
    ux = -kmat[0, 0] * px + -kmat[0, 1] * py
    uy = -kmat[1, 0] * px + -kmat[1, 1] * py
    # f = -div(K grad p) = div u
    f_coeffs = _derivative(ux, 0) + _derivative(uy, 1)
    return ManufacturedCase(
        name=f"poly-{k + 1}",
        pressure=_polynomial(coeffs),
        permeability=kmat,
        forcing=_polynomial(f_coeffs),
        grad_pressure=_polynomial(np.stack([px, py], axis=-1)),
    )


CASES = {
    "bubble-sine": _bubble_case("bubble-sine", sine_coefficient=True),
    "bubble-unit": _bubble_case("bubble-unit", sine_coefficient=False),
}


def get_case(name: str) -> ManufacturedCase:
    try:
        return CASES[name]
    except KeyError:
        known = ", ".join(sorted(CASES))
        raise KeyError(f"unknown case '{name}' (known: {known})") from None
