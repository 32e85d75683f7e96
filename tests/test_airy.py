import cmath
import math

import mpmath
import numpy as np
import pytest

from hypflow.airy import (J, WRONSKIAN_CONST, airy_ai, airy_envelope,
                          conjugated_flow_compare, vector_airy,
                          verify_airy_bounds, wronskian)


def test_ai_zero_value():
    v = airy_ai(0.0)
    assert abs(v.ai - 0.3550280538878172) < 1e-15


def test_against_mpmath_over_sectors():
    # 40-digit oracle at 300 seeded points of |z| <= 40, all phases
    rng = np.random.default_rng(40)
    with mpmath.workdps(40):
        for _ in range(300):
            z = complex(rng.uniform(0.0, 40.0) * np.exp(1j * rng.uniform(-np.pi, np.pi)))
            v = airy_ai(z)
            ai = complex(mpmath.airyai(z))
            aip = complex(mpmath.airyai(z, derivative=1))
            assert abs(v.ai - ai) <= 1e-12 * abs(ai), z
            assert abs(v.aip - aip) <= 1e-12 * abs(aip), z


def test_out_of_range_rejected():
    with pytest.raises(ValueError):
        airy_ai(41.0)


def test_positive_asymptotic_form():
    # Ai(t) 2 sqrt(pi) e^{(2/3)t^{3/2}} t^{1/4} -> 1 with O(t^{-3/2}) remainder
    for t in (12.0, 20.0, 30.0):
        v = airy_ai(t)
        norm = v.ai * 2 * math.sqrt(math.pi) * math.exp((2.0 / 3.0) * t ** 1.5) * t ** 0.25
        assert abs(norm - 1.0) < 0.2 * t ** -1.5


def test_rotated_asymptotic_form():
    for t in (12.0, 25.0):
        v = airy_ai(J * t)
        norm = v.ai * 2 * math.sqrt(math.pi) * math.exp(-(2.0 / 3.0) * t ** 1.5) \
            * t ** 0.25 * cmath.exp(1j * math.pi / 6.0)
        assert abs(norm - 1.0) < 0.2 * t ** -1.5


def test_wronskian_constancy():
    for tau in np.linspace(-40.0, 40.0, 81):
        w = wronskian(float(tau))
        assert abs(w - WRONSKIAN_CONST) <= 1e-12 * abs(WRONSKIAN_CONST)


def test_airy_ode_residual():
    # |Ai''(t) - t Ai(t)| <= 1e-8 via a sixth-order seven-point stencil;
    # h balances O(h^6) truncation against sub-1e-12 value noise over h^2
    h = 2e-2
    w = np.array([2.0, -27.0, 270.0, -490.0, 270.0, -27.0, 2.0]) / 180.0
    for t in np.linspace(-9.9, 9.9, 81):
        vals = np.array([airy_ai(t + k * h).ai.real for k in range(-3, 4)])
        d2 = float(w @ vals) / (h * h)
        assert abs(d2 - t * vals[3]) < 1e-8


def test_vector_airy_identity_and_det():
    for tau in (0.0, 1.3, 5.0):
        Z = vector_airy(tau, tau).Z
        assert np.max(np.abs(Z - np.eye(2))) < 1e-10
    assert abs(np.linalg.det(vector_airy(0.0, 5.0).Z) - 1.0) < 1e-9


def test_vector_airy_vs_ode_oracle():
    # independent RK4 integration of Z' + [[0,1],[t,0]] Z = 0
    def rk4(z, t, dt):
        def f(tt, zz):
            return -np.array([[0.0, 1.0], [tt, 0.0]]) @ zz
        k1 = f(t, z)
        k2 = f(t + dt / 2, z + dt / 2 * k1)
        k3 = f(t + dt / 2, z + dt / 2 * k2)
        k4 = f(t + dt, z + dt * k3)
        return z + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)

    z = np.eye(2, dtype=complex)
    n = 12000
    dt = 4.0 / n
    for i in range(n):
        z = rk4(z, i * dt, dt)
    z_formula = vector_airy(0.0, 4.0).Z
    assert np.max(np.abs(z - z_formula)) < 1e-7


def test_envelope_values_and_multiplicativity():
    assert airy_envelope(3.3, 3.3) == 1.0
    assert abs(airy_envelope(0.0, 4.0) - math.exp(16.0 / 3.0)) < 1e-12
    rng = np.random.default_rng(2)
    for _ in range(200):
        a, b, c = np.sort(rng.uniform(-2.0, 6.0, size=3))
        lhs = airy_envelope(a, b) * airy_envelope(b, c)
        rhs = airy_envelope(a, c)
        assert abs(lhs - rhs) <= 1e-12 * rhs


def test_airy_bounds_report():
    rep = verify_airy_bounds(np.linspace(0.25, 20.0, 25))
    assert rep.C_upper <= 2.0
    assert rep.c_lower >= 0.05
    assert rep.ok
    # oscillatory side |Ai(-t)| <= C t^{-1/4}
    assert rep.C_oscillatory <= 1.2 / math.sqrt(math.pi)


def _per_pair_bounds(t_grid):
    """The fits of `verify_airy_bounds`, pair by pair from `vector_airy`."""
    ts = np.sort(np.asarray(t_grid, dtype=float))
    C_up = 0.0
    for i, tau in enumerate(ts):
        for t in ts[i:]:
            env = airy_envelope(tau, t) * (1 + tau) ** 0.25 * (1 + t) ** 0.25
            C_up = max(C_up, float(np.max(np.abs(vector_airy(tau, t).Z))) / env)
    pos = [t for t in ts if t > 0.0]
    c_low = min(abs(vector_airy(0.0, t).Z[0, 1]) / airy_envelope(0.0, t) for t in pos)
    C_osc = max(abs(airy_ai(-t).ai) * t ** 0.25 for t in pos)
    return C_up, c_low, C_osc


def test_airy_bounds_match_per_pair_fits():
    # the CLI grid, a grid without 0 (c_lower is still taken at tau = 0), an
    # unsorted one reaching |t| = 40 (where exp((2/3) t^1.5) magnifies a last
    # bit of t^1.5 past 1e-14) and one of small t (where the two terms of each
    # entry of Z are alike in size)
    for grid in (np.linspace(0.0, 20.0, 21), np.linspace(0.25, 20.0, 25),
                 np.random.default_rng(15).uniform(0.0, 40.0, 16),
                 np.random.default_rng(16).permutation(np.linspace(0.0, 2.0, 9))):
        rep = verify_airy_bounds(grid)
        got = (rep.C_upper, rep.c_lower, rep.C_oscillatory)
        for g, ref in zip(got, _per_pair_bounds(grid)):
            assert abs(g - ref) <= 1e-14 * ref, (grid, got)
    with pytest.raises(ValueError):
        verify_airy_bounds([0.0, 40.5])
    with pytest.raises(ValueError):
        verify_airy_bounds([-0.5, 1.0])


def test_airy_bounds_without_positive_point_are_vacuous():
    rep = verify_airy_bounds([0.0, 0.0])
    assert rep.c_lower == math.inf and rep.C_oscillatory == 0.0
    assert abs(rep.C_upper - 1.0) < 1e-12


def test_conjugated_flow_compare():
    assert conjugated_flow_compare(1e-4, 1.0, 0.0, 1.0, 1.0) == 0.0
    res = conjugated_flow_compare(1e-4, 1.0, 0.0, 0.0, 3.0)
    assert res < 1e-6


def test_d_conjugation_entry_scaling():
    eps, f0 = 1e-4, 1.3
    D = np.diag([-1j * (eps * f0) ** (1.0 / 3.0), 1.0])
    Z = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
    M = np.linalg.inv(D) @ Z @ D
    assert abs(M[0, 1] - 1j * (eps * f0) ** (-1.0 / 3.0) * Z[0, 1]) < 1e-12 * abs(M[0, 1])
    assert abs(M[1, 0] + 1j * (eps * f0) ** (1.0 / 3.0) * Z[1, 0]) < 1e-15
