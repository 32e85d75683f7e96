import numpy as np
import pytest

from hypflow.classifier import classify
from hypflow.examples import burgers1d, get_state, kgz, van_der_waals
from hypflow.system_model import (CotangentPoint, Domain,
                                  ReferenceSolution, SymbolField,
                                  TaylorExtendedSolution, as_field,
                                  charpoly_coeffs, eval_principal_symbol,
                                  spectrum)


def _charpoly_at(a, lam):
    """det(lambda I - A) by LU factorization, independent of charpoly_coeffs."""
    a = np.asarray(a)
    return complex(np.linalg.det(lam * np.eye(a.shape[0]) - a.astype(complex)))


def _kgz_charpoly(lam, u, v, alpha, c):
    """Closed-form quartic (lam^2 - c^2)(lam^2 - 1) - alpha^2 lam^2 + 2 alpha c (v + u lam)."""
    return (lam ** 2 - c ** 2) * (lam ** 2 - 1.0) - alpha ** 2 * lam ** 2 \
        + 2.0 * alpha * c * (v + u * lam)


def _hyperbolic(a, tol=1e-9):
    """All eigenvalues real up to `tol`."""
    return bool(np.max(np.abs(spectrum(a).imag)) <= tol)


def const_phi(values, d=1):
    vals = np.asarray(values, dtype=float)
    return ReferenceSolution(initial=lambda x: vals, domain=Domain(2 * np.pi, d),
                             value=lambda t, x: vals)


def test_principal_symbol_vdw():
    sysv = van_der_waals()
    phi = const_phi((0.7, 0.1))
    ev = eval_principal_symbol(sysv, phi, 0.0, [0.0], [1.0])
    pprime = 0.7 ** 2 - 1.0
    assert np.allclose(ev, [[0.0, 1.0], [pprime, 0.0]])


def test_principal_symbol_rejects_zero_xi():
    sysv = van_der_waals()
    with pytest.raises(ValueError):
        eval_principal_symbol(sysv, const_phi((0.0, 0.0)), 0.0, [0.0], [0.0])


def test_principal_symbol_burgers():
    sysb = burgers1d(1.0)
    phi = const_phi((0.4, 0.3))
    ev = eval_principal_symbol(sysb, phi, 0.0, [0.0], [1.0])
    assert np.allclose(ev, [[0.4, -0.3], [0.3, 0.4]])


def test_charpoly_rotation():
    a = np.array([[0.0, 1.0], [-1.0, 0.0]])
    assert abs(_charpoly_at(a, 1j)) < 1e-14


def test_charpoly_kgz_witness_root():
    alpha, c = 1.0, 0.5
    sysk = kgz(alpha, c)
    phi = const_phi((0.0, -c / (2 * alpha), 0.0, 0.0))
    ev = eval_principal_symbol(sysk, phi, 0.0, [0.0], [1.0])
    assert abs(_charpoly_at(ev, 0.0)) < 1e-14


def test_charpoly_matches_coefficient_expansion():
    rng = np.random.default_rng(7)
    for _ in range(30):
        a = rng.normal(size=(4, 4))
        lam = complex(*rng.normal(size=2))
        c = charpoly_coeffs(a)
        direct = _charpoly_at(a, lam)
        poly = np.polynomial.polynomial.polyval(lam, c)
        assert abs(direct - poly) <= 1e-10 * max(1.0, abs(poly))


def test_spectrum_basic_and_examples():
    assert np.allclose(spectrum(np.array([[0.0, 1.0], [-1.0, 0.0]])), [-1j, 1j])
    # Burgers eigenvalues phi1 +- i phi2 b
    sysb = burgers1d(1.0)
    ev = eval_principal_symbol(sysb, const_phi((0.4, 0.3)), 0.0, [0.0], [1.0])
    vals = spectrum(ev)
    assert np.allclose(sorted(vals.imag), [-0.3, 0.3], atol=1e-12)
    assert np.allclose(vals.real, 0.4, atol=1e-12)
    # KGZ with alpha = 0: {+-1, +-c}
    sysk = kgz(0.0, 0.5)
    ev = eval_principal_symbol(sysk, const_phi((0.1, 0.2, 0.0, 0.0)), 0.0, [0.0], [1.0])
    assert np.allclose(spectrum(ev), [-1.0, -0.5, 0.5, 1.0], atol=1e-10)
    # double eigenvalues: a Jordan block and a multiple of the identity
    for a, lam in ((np.array([[0.0, 1.0], [0.0, 0.0]]), 0.0), (2.0 * np.eye(2), 2.0)):
        vals = spectrum(a)
        assert vals.shape == (2,) and np.allclose(vals, lam, atol=1e-12)
        assert np.max(np.abs(vals.imag)) <= 1e-7


def test_hyperbolicity():
    sym = np.array([[0.3, 0.7], [0.7, -0.2]])
    assert _hyperbolic(sym)
    sysb = burgers1d(1.0)
    ev = eval_principal_symbol(sysb, const_phi((0.0, 0.5)), 0.0, [0.0], [1.0])
    assert not _hyperbolic(ev)
    sysv = van_der_waals()
    ev = eval_principal_symbol(sysv, const_phi((2.0, 0.0)), 0.0, [0.0], [1.0])
    # roots +-sqrt(p') real for p' > 0 (companion-root check)
    roots = np.roots([1.0, 0.0, -(2.0 ** 2 - 1.0)])
    assert np.allclose(roots.imag, 0.0)
    assert _hyperbolic(ev)


def test_homogeneity_in_xi():
    rng = np.random.default_rng(11)
    sysb = burgers1d(1.0, (0.0, 1.0))
    phi = const_phi((0.4, 0.3))
    for _ in range(100):
        c = rng.uniform(-3.0, 3.0)
        if abs(c) < 1e-3:
            continue
        xi = rng.uniform(0.2, 2.0)
        a1 = eval_principal_symbol(sysb, phi, 0.0, [0.0], [c * xi])
        a2 = c * eval_principal_symbol(sysb, phi, 0.0, [0.0], [xi])
        assert np.max(np.abs(a1 - a2)) <= 1e-12 * max(1.0, np.max(np.abs(a2)))


def test_spectrum_conjugate_pairs():
    rng = np.random.default_rng(13)
    for _ in range(100):
        n = rng.integers(2, 7)
        a = rng.normal(size=(n, n))
        vals = spectrum(a)
        for lam in vals:
            if abs(lam.imag) > 1e-9:
                assert np.min(np.abs(vals - np.conj(lam))) < 1e-9 * (1 + abs(lam))


def test_det_agreement_with_eigen_product():
    rng = np.random.default_rng(17)
    for _ in range(25):
        a = rng.normal(size=(4, 4))
        lam = complex(*rng.normal(size=2))
        vals = spectrum(a)
        prod = np.prod(lam - vals)
        assert abs(_charpoly_at(a, lam) - prod) <= 1e-8 * max(1.0, abs(prod))


# ---------------------------------------------------------------------------
# jets
# ---------------------------------------------------------------------------

def test_jet_vdw_trivial():
    sysv = van_der_waals()
    phi = const_phi((1.0, 0.0))   # p'(1) = 0
    jet = as_field(sysv, phi).jet(CotangentPoint([0.0], [1.0], 0.0))
    assert abs(jet.P_lam) < 1e-12
    assert abs(jet.P_lamlam - 2.0) < 1e-12


def test_jet_noise_warning_only_on_nonzero_roundoff_increments():
    # vdw elliptic: the coefficients do not depend on t, so their increments
    # are exactly 0 and the t-derivatives exactly 0, not noise
    b = get_state("vdw", "elliptic")
    cl = classify(b.sys, b.phi, b.search_region)
    assert cl.jet.noise_warning is False
    assert cl.jet.P_t == 0.0 and cl.jet.P_tt == 0.0
    # a t-dependence of 1e-10 moves the coefficients by 1e-14 at the step
    # 1e-4, below the roundoff floor
    field = SymbolField(lambda t, x, xi: np.array([[0.0, 1.0], [-(1.0 + 1e-10 * t), 0.0]]), 1, 2)
    assert field.jet(CotangentPoint([0.0], [1.0], 0.0)).noise_warning is True


def test_jet_burgers_second_order():
    # phi2(0,.) = 0: P_t = 0 and P_tt P_ll - P_tl^2 = 4 b^2 F2^2
    sysb = burgers1d(1.0, (0.0, 1.0))
    vals = np.array([0.3, 0.0])
    phi = ReferenceSolution(initial=lambda x: vals, domain=Domain(2 * np.pi, 1),
                            value=lambda t, x: vals + t * np.array([0.0, 1.0]))
    jet = as_field(sysb, phi).jet(CotangentPoint([0.0], [1.0], 0.3))
    assert abs(jet.P_t) < 1e-9
    lhs = np.real(jet.P_tt * jet.P_lamlam - jet.P_tlam ** 2)
    assert abs(lhs - 4.0) < 1e-6


def test_jet_kgz_identity():
    alpha, c, dxu = 1.0, 0.5, 1.0
    sysk = kgz(alpha, c)

    def init(x):
        return np.array([np.sin(x[0]) * dxu, -c / (2 * alpha), 0.0, 0.0])

    phi = ReferenceSolution(initial=init, domain=Domain(2 * np.pi, 1))
    jet = as_field(sysk, phi).jet(CotangentPoint([0.0], [1.0], 0.0))
    # dP/dlam^2 of the quartic is twice its quadratic cofactor at a double root
    closed = 2.0 * (2.0 * alpha * c * dxu) * (1.0 + c ** 2 + alpha ** 2)
    got = np.real(jet.P_t * jet.P_lamlam)
    assert abs(got - closed) <= 1e-6 * abs(closed)


def test_jet_lambda_derivative_order_regression():
    # the jet's analytic P_lam agrees with centered FD of its P entry to
    # O(step^2): the fitted convergence order over a step ladder must be >= 1.9
    sysk = kgz(0.7, 0.4)
    phi = const_phi((0.2, -0.3, 0.1, 0.05))
    field = as_field(sysk, phi)

    def jet(lam):
        return field.jet(CotangentPoint([0.0], [1.0], lam))

    lam = 0.37
    exact = jet(lam).P_lam
    steps = np.array([0.1, 0.05, 0.025, 0.0125])
    errs = []
    for s in steps:
        fd = (jet(lam + s).P - jet(lam - s).P) / (2 * s)
        errs.append(abs(fd - exact))
    order = np.polyfit(np.log(steps), np.log(errs), 1)[0]
    assert order >= 1.9


def test_taylor_extension_matches_closed_form():
    sysb = burgers1d(1.0, (0.0, 1.0))
    vals = np.array([0.3, 0.2])
    phi = ReferenceSolution(initial=lambda x: vals, domain=Domain(2 * np.pi, 1))
    ext = TaylorExtendedSolution(sysb, phi)
    for t in (1e-4, -1e-4, 5e-4):
        expected = vals + t * np.array([0.0, 1.0])
        assert np.max(np.abs(ext(t, [0.0]) - expected)) < 1e-10


def test_taylor_extension_vdw_second_order():
    # phi1' = -dx phi2, phi2' = -p'(phi1) dx phi1; second order must match
    sysv = van_der_waals()

    def init(x):
        return np.array([2.0 - np.cos(x[0]), 0.5 * np.sin(x[0])])

    phi = ReferenceSolution(initial=init, domain=Domain(2 * np.pi, 1))
    ext = TaylorExtendedSolution(sysv, phi)
    x = np.array([0.3])
    t = 2e-3
    # manual second-order Taylor from the PDE at this point
    u0 = init(x)
    dxu = np.array([np.sin(x[0]), 0.5 * np.cos(x[0])])
    g = -np.array([[0.0, 1.0], [u0[0] ** 2 - 1.0, 0.0]]) @ dxu
    num = ext(t, x)
    assert np.max(np.abs(num - (u0 + t * g))) < 2e-5   # t^2 correction scale


def test_taylor_extension_vdw_t2_coefficient():
    # the extension is quadratic in t, so its second difference at t = +-1 is
    # d_t^2 phi(0,x) exactly; by hand from phi1' = -dx phi2 and
    # phi2' = -p'(phi1) dx phi1 with p'(u) = u^2 - 1:
    #   phi1'' = 2 phi1 (dx phi1)^2 + p'(phi1) dxx phi1
    #   phi2'' = 2 phi1 dx phi1 dx phi2 + p'(phi1) dxx phi2
    sysv = van_der_waals()

    def init(x):
        return np.array([2.0 - np.cos(x[0]), 0.5 * np.sin(x[0])])

    def init_dx(x):
        return np.array([[np.sin(x[0])], [0.5 * np.cos(x[0])]])

    x = np.array([0.3])
    p1, p1x, p1xx = 2.0 - np.cos(x[0]), np.sin(x[0]), np.cos(x[0])
    p2x, p2xx = 0.5 * np.cos(x[0]), -0.5 * np.sin(x[0])
    dp = p1 ** 2 - 1.0
    exact = np.array([2.0 * p1 * p1x ** 2 + dp * p1xx, 2.0 * p1 * p1x * p2x + dp * p2xx])
    # without initial_dx, d_x g is a difference of a difference: ~3 digits fewer
    for dx, bound in ((init_dx, 1e-11), (None, 1e-8)):
        phi = ReferenceSolution(initial=init, domain=Domain(2 * np.pi, 1), initial_dx=dx)
        ext = TaylorExtendedSolution(sysv, phi)
        second = ext(1.0, x) - 2.0 * ext(0.0, x) + ext(-1.0, x)
        assert np.max(np.abs(second - exact)) < bound


def test_jet_method_tag_and_kgz_dual_eval():
    alpha, c = 1.0, 0.5
    sysk = kgz(alpha, c)
    rng = np.random.default_rng(23)
    for _ in range(100):
        u, v, lam = rng.normal(size=3)
        phi = const_phi((u, v, 0.0, 0.0))
        ev = eval_principal_symbol(sysk, phi, 0.0, [0.0], [1.0])
        assert abs(_charpoly_at(ev, lam) - _kgz_charpoly(lam, u, v, alpha, c)) < 1e-10
    jet = as_field(sysk, const_phi((0.1, 0.2, 0.0, 0.0))).jet(
        CotangentPoint([0.0], [1.0], 0.0))
    assert "analytic-coefficients" in jet.method
