"""Manufactured solution bundles."""

import numpy as np
import pytest

from polydarcy.cases import (CASES, ManufacturedCase, get_case, polynomial_case,
                             verify_consistency)


def test_known_case_names():
    assert set(CASES) == {"bubble-sine", "bubble-unit"}
    assert get_case("bubble-sine").name == "bubble-sine"
    with pytest.raises(KeyError):
        get_case("no-such-case")


def test_bubble_pressure_values():
    case = get_case("bubble-sine")
    pts = np.array([[0.5, 0.5], [0.25, 0.5], [0.0, 0.3], [1.0, 0.7]])
    # p = x(1-x) y(1-y): 1/16 at the center, zero on the boundary
    expected = np.array([1.0 / 16.0, 3.0 / 64.0, 0.0, 0.0])
    assert np.abs(case.pressure(pts) - expected).max() < 1e-15


def test_bubble_velocity_is_minus_k_grad_p():
    case = get_case("bubble-sine")
    rng = np.random.default_rng(2)
    pts = rng.uniform(0.1, 0.9, size=(50, 2))
    x, y = pts[:, 0], pts[:, 1]
    gp = np.column_stack([(1 - 2 * x) * y * (1 - y), x * (1 - x) * (1 - 2 * y)])
    kv = 1.0 + 0.5 * np.sin(x)
    assert np.abs(case.velocity(pts) + kv[:, None] * gp).max() < 1e-14
    assert np.abs(case.grad_pressure(pts) - gp).max() < 1e-14


@pytest.mark.parametrize("name", sorted(CASES))
def test_forcing_consistent_with_velocity(name):
    worst = verify_consistency(get_case(name))
    assert worst < 1e-5


def test_inconsistent_case_rejected():
    case = get_case("bubble-sine")
    broken = type(case)(
        name="broken",
        pressure=case.pressure,
        permeability=case.permeability,
        forcing=lambda pts: case.forcing(pts) + 1.0,
        grad_pressure=case.grad_pressure,
    )
    with pytest.raises(ValueError):
        verify_consistency(broken)


def test_shifted_pressure_gradient_rejected():
    # with K constant, div(-K(grad p + c)) = div(-K grad p): only a check of
    # grad_pressure against p itself sees the shift that error_norms would read
    case = get_case("bubble-unit")
    shifted = ManufacturedCase(
        name="shifted-gradient",
        pressure=case.pressure,
        permeability=case.permeability,
        forcing=case.forcing,
        grad_pressure=lambda pts: case.grad_pressure(pts) + np.array([1.0, 0.0]),
    )
    with pytest.raises(ValueError, match="grad_pressure inconsistent"):
        verify_consistency(shifted)


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_polynomial_case_degrees(k):
    case = polynomial_case(k, seed=3)
    # p in P_{k+1}: its (k+2)-th directional difference vanishes
    rng = np.random.default_rng(4)
    base = rng.uniform(0.2, 0.4, size=(5, 2))
    step = np.array([0.05, 0.031])
    total = np.zeros(5)
    from math import comb
    for j in range(k + 3):
        pts = base + j * step[None, :]
        total += (-1.0) ** j * comb(k + 2, j) * case.pressure(pts)
    assert np.abs(total).max() < 1e-9
    assert verify_consistency(case) < 1e-4
    km = np.asarray(case.permeability, float)
    assert km.shape == (2, 2)
    assert np.array_equal(km, km.T)
    assert np.linalg.eigvalsh(km)[0] > 0.0


def test_polynomial_case_deterministic():
    a = polynomial_case(2, seed=9)
    b = polynomial_case(2, seed=9)
    pts = np.array([[0.3, 0.7], [0.9, 0.1]])
    assert np.array_equal(a.pressure(pts), b.pressure(pts))
    assert np.array_equal(np.asarray(a.permeability), np.asarray(b.permeability))


def test_case_without_pressure_gradient_refused():
    # error_norms reads grad_pressure, so a case must carry it when built
    case = get_case("bubble-unit")
    with pytest.raises(TypeError, match="grad_pressure"):
        ManufacturedCase(name="no-gradient", pressure=case.pressure,
                         permeability=case.permeability, forcing=case.forcing)
