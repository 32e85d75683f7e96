"""Acceptance suite: one test per criterion, each printing a PASS line with the
measured quantity (run with `pytest -s tests/test_acceptance.py` to see them)."""

import math
import time

import numpy as np
import pytest

from hypflow import airy
from hypflow.branching import GrowthEnvelope, eval_growth
from hypflow.classifier import (ELLIPTIC, NONSEMISIMPLE, PERSISTENT,
                                SEMISIMPLE, classify,
                                discriminant_jet_crosscheck)
from hypflow.examples import burgers1d, get_state
from hypflow.pde_sim import (HadamardParams, free_solution_compare,
                             run_instability_experiment)
from hypflow.semiclassical import (Grid1D, GridFunction, WavePacketSpec,
                                   build_wavepacket,
                                   composition_residual, op_eps_apply,
                                   sobolev_norm)
from hypflow.symbolic_flow import (FlowConfig, integrate_symbolic_flow,
                                   make_a_star_sampler)
from hypflow.system_model import (CotangentPoint, Domain, ReferenceSolution,
                                  SymbolField, SystemSpec, as_field,
                                  eval_principal_symbol, spectrum)


def report(n, desc, value):
    print(f"ACCEPTANCE {n} PASS: {desc} ({value})")


def test_criterion_01_wronskian_constant():
    t0 = time.time()
    worst = 0.0
    for tau in (-10.0, -5.0, 0.0, 5.0, 10.0):
        w = airy.wronskian(tau)
        worst = max(worst, abs(w - airy.WRONSKIAN_CONST) / abs(airy.WRONSKIAN_CONST))
    assert worst <= 1e-8
    assert time.time() - t0 < 1.0
    report(1, "Wronskian constant to 1e-8 on {-10,-5,0,5,10}",
           f"max rel dev {worst:.2e}")


def test_criterion_02_airy_asymptotic_fit():
    t0 = time.time()
    ts = np.linspace(10.0, 30.0, 41)
    c_direct = 0.0
    c_rotated = 0.0
    for t in ts:
        v = airy.airy_ai(t)
        dev = abs(v.ai * 2 * math.sqrt(math.pi)
                  * math.exp((2.0 / 3.0) * t ** 1.5) * t ** 0.25 - 1.0)
        c_direct = max(c_direct, dev * t ** 1.5)
        vr = airy.airy_ai(airy.J * t)
        devr = abs(vr.ai * 2 * math.sqrt(math.pi) * math.exp(-(2.0 / 3.0) * t ** 1.5)
                   * t ** 0.25 * np.exp(1j * math.pi / 6.0) - 1.0)
        c_rotated = max(c_rotated, devr * t ** 1.5)
    assert c_direct <= 0.2 and c_rotated <= 0.2
    assert time.time() - t0 < 1.0
    report(2, "asymptotic remainder constants <= 0.2 on [10,30]",
           f"C_direct {c_direct:.3f}, C_rotated {c_rotated:.3f}")


def test_criterion_03_airy_flow_equivalence():
    t0 = time.time()
    worst = 0.0
    for t in (0.5, 1.0, 2.0, 3.0, 4.0):
        worst = max(worst, airy.conjugated_flow_compare(1e-4, 1.0, 0.0, 0.0, t))
    assert worst <= 1e-6
    assert time.time() - t0 < 5.0
    report(3, "flow vs closed-form Airy conjugation, rel 1e-6 on [0,4]",
           f"max entrywise dev {worst:.2e}")


def test_criterion_04_growth_exponent_laws():
    t0 = time.time()
    # (a) ell = 1/2 model at eps = 1e-6
    eps = 1e-6
    cfg = FlowConfig(eps=eps, ell=0.5, T_star=18.0, rtol=1e-6, max_step=0.02)
    T = cfg.T_eps
    res = integrate_symbolic_flow(airy.model_block_sampler(eps, 1.0, 0.0),
                                  cfg, 0.0, T, check_flow_property=False)
    ratio = math.log(float(np.max(np.abs(res.final)))) / ((2.0 / 3.0) * T ** 1.5)
    assert 0.97 <= ratio <= 1.03

    # (b) ell = 1 semisimple model through the advected-symbol path
    eps1 = 1e-4
    atil = np.array([[0.0, 1.0], [-1.0, 0.0]])
    pert = np.array([[0.2, 0.1], [0.0, -0.2]])
    field = SymbolField(
        lambda t, x, xi: xi[0] * (0.7 * np.eye(2) + t * atil + 0.3 * t * t * pert),
        1, 2)
    sampler = make_a_star_sampler(field, eps1, 1.0, [0.0], [0.0], [1.0],
                                  mu=lambda t, x, xi: 0.7 * xi[0])
    cfg1 = FlowConfig(eps=eps1, ell=1.0, T_star=10.0, rtol=1e-8, max_step=0.02)
    T1 = cfg1.T_eps
    res1 = integrate_symbolic_flow(sampler, cfg1, 0.0, T1, check_flow_property=False)
    mask = res1.times >= 0.5 * T1
    slope1 = np.polyfit(res1.times[mask] ** 2,
                        [math.log(np.max(np.abs(s))) for s in res1.samples[mask]], 1)[0]
    gamma1 = 0.5
    assert abs(slope1 - gamma1) <= 0.02 * gamma1

    # (c) ell = 0 constant elliptic block, rate Im lam0 = 1
    eps0 = 1e-4
    field0 = SymbolField(lambda t, x, xi: xi[0] * atil, 1, 2)
    sampler0 = make_a_star_sampler(field0, eps0, 0.0, [0.0], [0.0], [1.0])
    cfg0 = FlowConfig(eps=eps0, ell=0.0, T_star=1.0, rtol=1e-8, max_step=0.05)
    T0 = cfg0.T_eps
    res0 = integrate_symbolic_flow(sampler0, cfg0, 0.0, T0, check_flow_property=False)
    mask = res0.times >= 0.5 * T0
    slope0 = np.polyfit(res0.times[mask],
                        [math.log(np.max(np.abs(s))) for s in res0.samples[mask]], 1)[0]
    assert abs(slope0 - 1.0) <= 0.05
    assert time.time() - t0 < 30.0
    report(4, "growth exponents: Airy 3/2-law, quadratic, linear",
           f"ratio_a {ratio:.4f}, slope_b {slope1:.4f}, slope_c {slope0:.4f}")


def test_criterion_05_classification_table():
    t0 = time.time()
    expectations = [
        ("burgers1d", "elliptic", ELLIPTIC),          # phi2 != 0
        ("burgers1d", "semisimple", SEMISIMPLE),      # phi2 = 0, F2 != 0
        ("burgers1d", "persistent", PERSISTENT),      # F2 = 0
        ("burgers2d", "semisimple", SEMISIMPLE),      # xi1 + xi2 != 0 directions
        ("vdw", "elliptic", ELLIPTIC),                # p' < 0
        ("vdw", "witness", NONSEMISIMPLE),            # p' = 0, p'' dx phi2 > 0
        ("vdw", "decaying", PERSISTENT),              # opposite sign
        ("kgz", "witness", NONSEMISIMPLE),            # coupling witness
        ("kgz", "hyperbolic", PERSISTENT),            # alpha = 0
    ]
    for name, state, expected in expectations:
        b = get_state(name, state)
        cl = classify(b.sys, b.phi, b.search_region)
        assert cl.regime == expected, f"{name}/{state}: {cl.regime} != {expected}"
    assert time.time() - t0 < 5.0
    report(5, "all documented regimes reproduced", f"{len(expectations)} verdicts")


def test_criterion_06_kgz_jet_identity():
    t0 = time.time()
    alpha, c, dxu = 1.0, 0.5, 1.0
    b = get_state("kgz", "witness", alpha=alpha, c=c)
    jet = as_field(b.sys, b.phi).jet(CotangentPoint([0.0], [1.0], 0.0))
    got = float(np.real(jet.P_t * jet.P_lamlam))
    # P_lamlam of the full quartic is twice the quadratic cofactor at the
    # double root, hence the factor 2 on the displayed closed form
    closed = 2.0 * (2.0 * alpha * c * dxu) * (1.0 + c ** 2 + alpha ** 2)
    assert abs(got - closed) <= 1e-6 * abs(closed)
    assert time.time() - t0 < 1.0
    report(6, "KGZ jet identity to rel 1e-6",
           f"P_t*P_ll {got:.9f} vs closed form {closed:.9f}")


def test_criterion_07_discriminant_identities():
    t0 = time.time()
    worst = 0.0
    for name, state in (("burgers1d", "semisimple"), ("vdw", "witness")):
        b = get_state(name, state)
        rep = discriminant_jet_crosscheck(as_field(b.sys, b.phi), [0.0], [1.0])
        worst = max(worst, rep.resid_first, rep.resid_second)
    assert worst <= 1e-6
    assert time.time() - t0 < 1.0
    report(7, "discriminant jet identities on Burgers and VdW blocks",
           f"max residual {worst:.2e}")


@pytest.mark.slow
def test_criterion_08_hadamard_experiment():
    t0 = time.time()
    ladder = [1e-2, 1e-3, 1e-4]
    params = HadamardParams(K=3.0, alpha=1.0, m=1.25, delta=0.7, T_star=9.0,
                            h=0.5, gamma_minus=0.5)
    b = get_state("burgers1d", "semisimple")
    cl = classify(b.sys, b.phi, b.search_region)
    rep = run_instability_experiment(
        b.sys, b.phi, cl, params, ladder, xi0=1.0, x0=0.0, e_vec=b.e_vec,
        phi_traj_vec=b.phi_traj_vec, length=np.pi / 2.0, linf_cap=1.0)
    ratios = {r.eps: r.ratio for r in rep.rows}
    growth_factor = ratios[1e-4] / ratios[1e-2]
    assert growth_factor >= 10.0

    ctrl = get_state("symmetric-control", "default")
    rep_c = run_instability_experiment(
        ctrl.sys, ctrl.phi, None, params, ladder, xi0=1.0, x0=0.0,
        e_vec=ctrl.e_vec, phi_traj_vec=ctrl.phi_traj_vec,
        length=np.pi / 2.0, linf_cap=1.0, control=True)
    cr = [r.ratio for r in rep_c.rows]
    slope = abs(np.polyfit(np.log(ladder), np.log(cr), 1)[0])
    assert slope <= 0.1
    elapsed = time.time() - t0
    assert elapsed < 600.0, f"criterion 8 took {elapsed:.0f}s"
    report(8, "Hadamard ratio grows >= 10x while the control stays flat",
           f"factor {growth_factor:.3g}, control slope {slope:.3f}, {elapsed:.0f}s")


def test_criterion_09_free_solution_validation():
    t0 = time.time()
    J = np.array([[0.0, 1.0], [-1.0, 0.0]])

    def mk(a1fn, a1vec, name):
        return SystemSpec(name, 1, 2,
                          (a1fn,), lambda t, x, u: np.zeros(2),
                          fluxes_vec=(a1vec,),
                          source_vec=lambda t, xs, us: np.zeros((us.shape[0], 2)))

    phi = ReferenceSolution(initial=lambda x: np.zeros(2),
                            domain=Domain(2 * np.pi, 1),
                            value=lambda t, x: np.zeros(2))
    phiv = lambda t, xs: np.zeros((np.atleast_1d(xs).size, 2))
    sys_const = mk(lambda t, x, u: J,
                   lambda t, xs, us: np.broadcast_to(J, (us.shape[0], 2, 2)), "const")
    rep = free_solution_compare(sys_const, phi, 1e-2, None, 2.0,
                                e_vec=(1.0, 1j), phi_vec=phiv, dt_safety=0.06)
    assert rep.rel_error <= 1e-8

    sys_slow = mk(lambda t, x, u: (1 + 0.3 * np.sin(x[0])) * J,
                  lambda t, xs, us: (1 + 0.3 * np.sin(xs))[:, None, None] * J,
                  "slow")
    ladder = [1e-2, 10 ** -2.5, 1e-3]
    errs = [free_solution_compare(sys_slow, phi, eps, None, 2.0,
                                  e_vec=(1.0, 1j), phi_vec=phiv).rel_error
            for eps in ladder]
    order = np.polyfit(np.log(ladder), np.log(errs), 1)[0]
    assert order >= 0.5
    elapsed = time.time() - t0
    assert elapsed < 120.0, f"criterion 9 took {elapsed:.0f}s"
    report(9, "free solution: exact multipliers, eps-order on slow symbols",
           f"const err {rep.rel_error:.2e}, fitted order {order:.2f}, {elapsed:.0f}s")


def test_criterion_10_semiclassical_residuals():
    t0 = time.time()
    grid = Grid1D(256, 2 * np.pi)
    rng = np.random.default_rng(0)
    vals = sum(rng.normal() / k ** 2 * np.exp(1j * k * grid.nodes)
               for k in range(1, 9))
    probe = GridFunction(grid, np.real(vals) + 0.2)
    ident = op_eps_apply(lambda x, xi, e: 1.0, probe, 1e-3, 2.0 / 3.0)
    id_err = GridFunction(grid, ident.values - probe.values).l2_norm() / probe.l2_norm()
    assert id_err <= 1e-12

    h = 2.0 / 3.0
    a = lambda x, xi, e: np.tanh(xi) + 2.0
    b_slow = lambda x, xi, e: 1.0 + e ** (1 - h) * np.sin(x)
    comp = composition_residual(a, b_slow, [1e-2, 1e-3, 1e-4, 1e-5], h, probe)
    assert comp.fitted_order >= 0.9

    m, hh, xi0 = 2.0, 0.5, 4.0
    ladder = [1e-2, 10 ** -2.5, 1e-3, 10 ** -3.5]
    norms = []
    for eps in ladder:
        n = 1 << int(np.ceil(np.log2(8 * xi0 / eps)))
        g = Grid1D(n, 2 * np.pi, x_left=-np.pi)
        spec = WavePacketSpec(K=0.0, xi0=xi0, x0=0.0, eps=eps, h=hh, delta=0.7)
        norms.append(sobolev_norm(build_wavepacket(spec, g, frame="original"), m))
    slope = np.polyfit(np.log(ladder), np.log(norms), 1)[0]
    predicted = -m + (1.0 - hh) / 2.0
    assert abs(slope - predicted) <= 0.02 * abs(predicted)
    assert time.time() - t0 < 60.0
    report(10, "quantization identity, slow-x order, packet norm slope",
           f"id {id_err:.1e}, order {comp.fitted_order:.3f}, slope {slope:.4f} "
           f"vs {predicted}")


def test_criterion_11_invariant_suites():
    t0 = time.time()
    rng = np.random.default_rng(42)

    # flow composition + Liouville determinant, 100 random generators
    cfg = FlowConfig(eps=1e-2, ell=0.0, T_star=1.0, rtol=1e-8, max_step=0.1)
    worst_flow, worst_liou = 0.0, 0.0
    for _ in range(100):
        a0 = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        a1 = rng.normal(size=(2, 2))
        res = integrate_symbolic_flow(lambda t, a0=a0, a1=a1: a0 + t * a1,
                                      cfg, 0.0, 0.6)
        worst_flow = max(worst_flow, res.flow_residual)
        worst_liou = max(worst_liou, res.liouville_residual)
    assert worst_flow <= 10 * cfg.rtol and worst_liou <= 10 * cfg.rtol

    # envelope multiplicativity, 200 random triples
    worst_env = 0.0
    for _ in range(200):
        ell = rng.choice([0.0, 0.5, 1.0])
        env = GrowthEnvelope(rng.uniform(0.1, 2.0), rng.uniform(0.1, 2.0),
                             ell, rng.uniform(0.0, 0.4))
        a, b, c = np.sort(rng.uniform(0.0, 4.0, size=3))
        lhs = eval_growth(env, "plus", a, b) * eval_growth(env, "plus", b, c)
        rhs = eval_growth(env, "plus", a, c)
        worst_env = max(worst_env, abs(lhs - rhs) / rhs)
    assert worst_env <= 1e-12

    # conjugate-pair spectra, 120 random real matrices
    for _ in range(120):
        n = rng.integers(2, 7)
        vals = spectrum(rng.normal(size=(n, n)))
        for lam in vals:
            if abs(lam.imag) > 1e-9:
                assert np.min(np.abs(vals - np.conj(lam))) <= 1e-9 * (1 + abs(lam))

    # xi-homogeneity on the registry symbols, 100 samples
    bundles = [get_state("burgers1d", "elliptic"), get_state("vdw", "witness"),
               get_state("kgz", "witness")]
    for _ in range(100):
        b = bundles[rng.integers(len(bundles))]
        field = as_field(b.sys, b.phi)
        x = rng.uniform(-0.5, 0.5, size=1)
        xi = rng.uniform(0.3, 2.0, size=1)
        cscale = rng.uniform(0.2, 3.0)
        a1 = field.symbol(0.0, x, cscale * xi)
        a2 = cscale * field.symbol(0.0, x, xi)
        assert np.max(np.abs(a1 - a2)) <= 1e-12 * max(1.0, np.max(np.abs(a2)))
    elapsed = time.time() - t0
    assert elapsed < 60.0
    report(11, "flow/Liouville/envelope/conjugacy/homogeneity invariants",
           f"resid {worst_flow:.1e}/{worst_liou:.1e}/{worst_env:.1e}, {elapsed:.0f}s")
