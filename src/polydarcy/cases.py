"""Manufactured solutions for -div(K grad p) = f on the unit square.

Each case carries pointwise-evaluable exact pressure, its gradient, velocity
u = -K grad p, coefficient K and forcing f.  A finite-difference consistency
check guards against transcription slips in hand-derived forcings;
polynomial cases are generated from a small dense-coefficient polynomial
helper so that p, u and f stay exactly consistent by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.polynomial import polyval2d


@dataclass
class Poly2:
    """Dense bivariate polynomial sum c[i, j] x^i y^j."""

    coeffs: np.ndarray

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(pts)
        return polyval2d(pts[:, 0], pts[:, 1], self.coeffs)

    def dx(self) -> "Poly2":
        c = self.coeffs
        if c.shape[0] == 1:
            return Poly2(np.zeros((1, 1)))
        out = c[1:, :] * np.arange(1, c.shape[0])[:, None]
        return Poly2(out)

    def dy(self) -> "Poly2":
        c = self.coeffs
        if c.shape[1] == 1:
            return Poly2(np.zeros((1, 1)))
        out = c[:, 1:] * np.arange(1, c.shape[1])[None, :]
        return Poly2(out)

    def scaled(self, a: float) -> "Poly2":
        return Poly2(a * self.coeffs)

    def plus(self, other: "Poly2") -> "Poly2":
        n = max(self.coeffs.shape[0], other.coeffs.shape[0])
        m = max(self.coeffs.shape[1], other.coeffs.shape[1])
        out = np.zeros((n, m))
        out[:self.coeffs.shape[0], :self.coeffs.shape[1]] += self.coeffs
        out[:other.coeffs.shape[0], :other.coeffs.shape[1]] += other.coeffs
        return Poly2(out)


@dataclass
class ManufacturedCase:
    """Named exact solution bundle; all callables take (n, 2) point arrays."""

    name: str
    pressure: callable
    velocity: callable          # (n, 2) values of -K grad p
    permeability: object        # scalar, 2x2, or callable
    forcing: callable
    grad_pressure: callable     # (n, 2) values of grad p


def verify_consistency(case: ManufacturedCase, n: int = 100, seed: int = 7,
                       tol: float = 1e-6) -> float:
    """Check f = div(-K grad p) = div u at random points by central differences.

    Returns the worst absolute deviation, raising if it exceeds tol times the
    local forcing scale.
    """
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0.05, 0.95, size=(n, 2))
    h = 1e-5
    ex = np.array([h, 0.0])
    ey = np.array([0.0, h])
    div_u = (
        (case.velocity(pts + ex)[:, 0] - case.velocity(pts - ex)[:, 0])
        + (case.velocity(pts + ey)[:, 1] - case.velocity(pts - ey)[:, 1])
    ) / (2 * h)
    fvals = case.forcing(pts)
    scale = max(float(np.abs(fvals).max()), 1.0)
    worst = float(np.abs(div_u - fvals).max())
    if worst > tol * scale:
        raise ValueError(
            f"case '{case.name}': forcing inconsistent with -div(K grad p) "
            f"(worst deviation {worst:.3e}, scale {scale:.3e})"
        )
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

        def u(pts):
            return -kappa(pts)[:, None] * grad_p(pts)

        def f(pts):
            pts = np.atleast_2d(pts)
            x, y = pts[:, 0], pts[:, 1]
            lap_terms = y * (1 - y) + x * (1 - x)
            return (-0.5 * np.cos(x) * (1 - 2 * x) * y * (1 - y)
                    + 2.0 * (1.0 + 0.5 * np.sin(x)) * lap_terms)

        perm = kappa
    else:
        def u(pts):
            return -grad_p(pts)

        def f(pts):
            pts = np.atleast_2d(pts)
            x, y = pts[:, 0], pts[:, 1]
            return 2.0 * (y * (1 - y) + x * (1 - x))

        perm = 1.0
    return ManufacturedCase(name=name, pressure=p, velocity=u,
                            permeability=perm, forcing=f, grad_pressure=grad_p)


def polynomial_case(k: int, seed: int = 0,
                    K: np.ndarray | float = None) -> ManufacturedCase:
    """Exact solution with p in P_{k+1} and constant symmetric K.

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
    p = Poly2(coeffs)
    if K is None:
        kmat = np.array([[2.0, 0.5], [0.5, 1.5]])
    else:
        kmat = np.asarray(K, dtype=float)
        if kmat.ndim == 0:
            kmat = float(kmat) * np.eye(2)
    px, py = p.dx(), p.dy()
    ux = px.scaled(-kmat[0, 0]).plus(py.scaled(-kmat[0, 1]))
    uy = px.scaled(-kmat[1, 0]).plus(py.scaled(-kmat[1, 1]))
    # f = -div(K grad p) = div u
    f_poly = ux.dx().plus(uy.dy())

    def velocity(pts):
        pts = np.atleast_2d(pts)
        return np.column_stack([ux(pts), uy(pts)])

    def grad_p(pts):
        pts = np.atleast_2d(pts)
        return np.column_stack([px(pts), py(pts)])

    return ManufacturedCase(
        name=f"poly-{k + 1}",
        pressure=p,
        velocity=velocity,
        permeability=kmat,
        forcing=f_poly,
        grad_pressure=grad_p,
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
