import numpy as np
import pytest

from hypflow import branching
from hypflow.branching import (GrowthEnvelope, compute_branch_data, eval_growth,
                               growth_rate, solve_mu_star)
from hypflow.classifier import classify
from hypflow.examples import get_state
from hypflow.system_model import CotangentPoint, SymbolField, as_field


def _branch_eigenvalues(branch, t):
    """lambda+- = mu +- i((t-tau*) f0)^(1/2) past the transition, real before it."""
    dt = t - branch.tau_star
    s = 1j * np.sqrt(dt * branch.f0) if dt >= 0.0 else np.sqrt(-dt * branch.f0)
    return complex(branch.mu + s), complex(branch.mu - s)


def vdw_model_field(alpha=1.0, beta=1.0):
    # p'(phi1(t,x)) = alpha x^2 - beta t locally: tau* = alpha x^2 / beta
    def sym(t, x, xi):
        return xi[0] * np.array([[0.0, 1.0], [alpha * x[0] ** 2 - beta * t, 0.0]])
    return SymbolField(sym, 1, 2)


def test_mu_star_trivial_and_examples():
    field = vdw_model_field()
    assert abs(solve_mu_star(field.coeffs(0.1, [0.2], [1.0]), 0.3)) < 1e-10
    b = get_state("burgers1d", "elliptic")   # phi = (0.3, 0.2 + t)
    mu = solve_mu_star(as_field(b.sys, b.phi).coeffs(0.05, [0.0], [1.0]), 0.2)
    assert abs(mu - 0.3) < 1e-10             # mu* = phi1
    bk = get_state("kgz", "witness")
    assert abs(solve_mu_star(as_field(bk.sys, bk.phi).coeffs(0.0, [0.0], [1.0]), 0.05)) < 1e-9


def test_tau_star_closed_form_model():
    field = vdw_model_field(alpha=0.8, beta=1.7)
    for x in (0.0, 0.1, 0.25):
        tau = compute_branch_data(field, None, [x], [1.0], lam_init=0.0).tau_star
        assert abs(tau - 0.8 * x * x / 1.7) < 1e-9


def test_tau_star_witness_and_gradient():
    b = get_state("vdw", "witness")
    field = as_field(b.sys, b.phi)
    assert abs(compute_branch_data(field, None, [0.0], [1.0], lam_init=0.0).tau_star) < 1e-9
    # gradient of tau* vanishes at the witness (it is a minimum)
    d = 1e-3
    tp = compute_branch_data(field, None, [d], [1.0], lam_init=0.0).tau_star
    tm = compute_branch_data(field, None, [-d], [1.0], lam_init=0.0).tau_star
    assert abs(tp - tm) / (2 * d) <= 1e-4


def test_e_factor_values():
    # model p' = -t: P = lam^2 + t: f0 = P_t / (P_lamlam / 2) = 1
    field = SymbolField(lambda t, x, xi: xi[0] * np.array([[0.0, 1.0], [-t, 0.0]]), 1, 2)
    f0 = compute_branch_data(field, None, [0.0], [1.0], lam_init=0.0).f0
    assert abs(f0 - 1.0) < 1e-8
    for name in ("vdw", "kgz"):
        b = get_state(name, "witness")
        assert compute_branch_data(b.sys, b.phi, [0.0], [1.0], lam_init=0.0).f0 > 0
    # KGZ: f0 = P_t / (P_lamlam / 2) at the witness, jet oracle
    bk = get_state("kgz", "witness")
    jet = as_field(bk.sys, bk.phi).jet(CotangentPoint([0.0], [1.0], 0.0))
    expected = np.real(jet.P_t) / (np.real(jet.P_lamlam) / 2.0)
    f0 = compute_branch_data(bk.sys, bk.phi, [0.0], [1.0], lam_init=0.0).f0
    assert abs(f0 - expected) < 1e-6 * abs(expected)
    assert abs(expected - 4.0 / 9.0) < 1e-6


def test_branch_data_takes_one_difference_per_newton_iterate(monkeypatch):
    # each Newton iterate makes one 5-point Richardson difference of the
    # coefficients and nothing more; tau* = 0 at the witnesses (x = 0): one iterate
    iterates = []
    mu_star = branching.solve_mu_star

    def counted_mu_star(*args):
        iterates.append(1)
        return mu_star(*args)

    monkeypatch.setattr(branching, "solve_mu_star", counted_mu_star)
    for name, x in (("vdw", 0.0), ("kgz", 0.0), ("vdw", 0.3), ("kgz", -0.4)):
        b = get_state(name, "witness")
        field = as_field(b.sys, b.phi)
        evals = []
        coeffs = field.coeffs

        def counted_coeffs(t, x, xi, coeffs=coeffs):
            evals.append(1)
            return coeffs(t, x, xi)

        monkeypatch.setattr(field, "coeffs", counted_coeffs)
        iterates.clear()
        compute_branch_data(field, None, [x], [1.0], lam_init=0.0)
        assert len(evals) == 5 * len(iterates)
        if x == 0.0:
            assert len(iterates) == 1


def test_branch_eigenvalues():
    field = SymbolField(lambda t, x, xi: xi[0] * np.array([[0.0, 1.0], [-t, 0.0]]), 1, 2)
    data = compute_branch_data(field, None, [0.0], [1.0], lam_init=0.0)
    lp, lm = _branch_eigenvalues(data, data.tau_star)
    assert lp == lm == data.mu
    for t in (0.05, 0.2):
        lp, lm = _branch_eigenvalues(data, t)
        assert abs(lp - 1j * np.sqrt(t)) < 1e-8
        assert abs(lm + 1j * np.sqrt(t)) < 1e-8


def test_negative_tau_star_warns_and_flags():
    # P = lam^2 + t + 0.1: the pair has already split at t = 0, tau* = -0.1
    field = SymbolField(lambda t, x, xi: xi[0] * np.array([[0.0, 1.0], [-(t + 0.1), 0.0]]), 1, 2)
    with pytest.warns(UserWarning, match="already violated"):
        data = compute_branch_data(field, None, [0.0], [1.0], lam_init=0.0)
    assert abs(data.tau_star + 0.1) < 1e-9 and data.negative_tau_flag
    assert not compute_branch_data(vdw_model_field(), None, [0.0], [1.0], lam_init=0.0).negative_tau_flag


def test_branch_eigenvalues_kgz_vs_quartic():
    bk = get_state("kgz", "witness")
    field = as_field(bk.sys, bk.phi)
    data = compute_branch_data(field, None, [0.0], [1.0], lam_init=0.0)
    for dt in (0.002, 0.005, 0.01):
        t = data.tau_star + dt
        lp, _ = _branch_eigenvalues(data, t)
        roots = field.spectrum_at(t, [0.0], [1.0])
        root = roots[np.argmax(roots.imag)]
        assert abs(lp.imag - root.imag) <= 0.1 * abs(root.imag)


def test_branch_consistency_identity():
    # the branch lam+ = mu + i((t - tau*) f0)^(1/2) meets the top eigenvalue
    # lam of the symbol: |(lam+ - mu)^2 - (lam - mu)^2| <= 1e-6 near the
    # witness, and the gap scales quadratically in the time offset further out
    b = get_state("vdw", "witness")
    field = as_field(b.sys, b.phi)
    data = compute_branch_data(field, None, [0.05], [1.0], lam_init=0.0)

    def gap(dt):
        t = data.tau_star + dt
        lp, _ = _branch_eigenvalues(data, t)
        roots = field.spectrum_at(t, [0.05], [1.0])
        lam = roots[np.argmax(roots.imag)]
        return abs((lp - data.mu) ** 2 - (lam - data.mu) ** 2)

    for dt in (2e-4, 1e-3):
        assert gap(dt) <= 1e-6
    resids = [gap(dt) for dt in (0.01, 0.02, 0.04)]
    order = np.polyfit(np.log([0.01, 0.02, 0.04]), np.log(resids), 1)[0]
    assert order >= 1.8


def test_double_root_tracking_near_witness():
    b = get_state("vdw", "witness")
    field = as_field(b.sys, b.phi)
    for x in (-0.08, 0.0, 0.06):
        data = compute_branch_data(field, None, [x], [1.0], lam_init=0.0)
        c = field.coeffs(data.tau_star, [x], [1.0])
        p = np.polynomial.polynomial.polyval(data.mu, c)
        dp = np.polynomial.polynomial.polyval(data.mu, np.polynomial.polynomial.polyder(c))
        assert abs(p) <= 1e-8 and abs(dp) <= 1e-8


def test_growth_rates_by_regime():
    # ell = 1/2 with f0 = 1
    env_data = compute_branch_data(
        SymbolField(lambda t, x, xi: xi[0] * np.array([[0.0, 1.0], [-t, 0.0]]), 1, 2),
        None, [0.0], [1.0], lam_init=0.0)
    b = get_state("vdw", "witness")
    cl = classify(b.sys, b.phi, b.search_region)
    gm, gp = growth_rate(cl, env_data)
    assert abs(gm - 2.0 / 3.0) < 1e-9 and gm == gp
    # ell = 0 at the center: both rates equal Im lam0 = phi2 b = 0.2
    be = get_state("burgers1d", "elliptic")
    cle = classify(be.sys, be.phi, be.search_region)
    gm, gp = growth_rate(cle, None)
    assert abs(gm - 0.2) < 1e-9 and abs(gp - 0.2) < 1e-9
    # ell = 1 model P = lam^2 + t^2: gamma = Im dt lam+ / 2 = 1/2
    field1 = SymbolField(lambda t, x, xi: xi[0] * np.array([[0.0, t], [-t, 0.0]]), 1, 2)
    cl1 = classify(field1, None, b.search_region)
    assert cl1.ell == 1.0
    gm, gp = growth_rate(cl1, None)
    assert abs(gm - 0.5) < 1e-6
    # no rate in the persistent regime
    bp = get_state("burgers1d", "persistent")
    clp = classify(bp.sys, bp.phi, bp.search_region)
    with pytest.raises(ValueError):
        growth_rate(clp, None)


def test_eval_growth_and_multiplicativity():
    env = GrowthEnvelope(2.0 / 3.0, 2.0 / 3.0, 0.5, 0.0)
    assert eval_growth(env, "plus", 1.7, 1.7) == 1.0
    assert abs(eval_growth(env, "plus", 0.0, 4.0) - np.exp(16.0 / 3.0)) < 1e-9
    rng = np.random.default_rng(4)
    for _ in range(200):
        ell = rng.choice([0.0, 0.5, 1.0])
        gamma = rng.uniform(0.1, 2.0)
        ts = rng.uniform(0.0, 0.5)
        env = GrowthEnvelope(gamma, gamma, ell, ts)
        a, b, c = np.sort(rng.uniform(0.0, 5.0, size=3))
        lhs = eval_growth(env, "plus", a, b) * eval_growth(env, "plus", b, c)
        rhs = eval_growth(env, "plus", a, c)
        assert abs(lhs - rhs) <= 1e-12 * rhs


def test_newton_failure_paths():
    from hypflow.branching import NewtonError
    # dP/dlam has no zero reachable by Newton: P linear in lambda
    lin = SymbolField(lambda t, x, xi: np.array([[0.3]]), 1, 1)
    with pytest.raises(NewtonError):
        solve_mu_star(lin.coeffs(0.0, [0.0], [1.0]), 0.0)
    # degenerate quadratic part: P = lambda^3 on the 3x3 Jordan block, so
    # tau* = mu = 0 and P_lamlam / 2 = 0
    jordan = SymbolField(lambda t, x, xi: np.eye(3, k=1), 1, 3)
    with pytest.raises(ValueError, match="degenerate quadratic"):
        compute_branch_data(jordan, None, [0.0], [1.0], lam_init=0.0)
