import numpy as np

from hypflow.classifier import (ELLIPTIC, INDETERMINATE, NONSEMISIMPLE,
                                PERSISTENT, SEMISIMPLE, SearchRegion,
                                check_semisimple_transition,
                                classify, discriminant_jet_crosscheck,
                                scales_for_ell)
from hypflow import system_model
from hypflow.examples import burgers1d, get_state, van_der_waals
from hypflow.system_model import (CotangentPoint, Domain, ReferenceSolution,
                                  SymbolField, as_field)

# the single region point x = 0, xi = 1
ORIGIN = SearchRegion(np.array([[0.0]]), np.array([[1.0]]))


def const_phi(values, d=1, rate=None):
    vals = np.asarray(values, dtype=float)
    value = None if rate is None else (lambda t, x: vals + t * np.asarray(rate))
    return ReferenceSolution(initial=lambda x: vals, domain=Domain(2 * np.pi, d),
                             value=value)


def test_check_ellipticity_burgers():
    sysb = burgers1d(1.0)
    cl = classify(sysb, const_phi((0.4, 0.3)), ORIGIN)
    assert cl.regime == ELLIPTIC
    assert abs(cl.witness.lam - (0.4 + 0.3j)) < 1e-10


def test_check_ellipticity_vdw_and_symmetric():
    sysv = van_der_waals()
    cl = classify(sysv, const_phi((0.0, 0.0)), ORIGIN)
    assert cl.regime == ELLIPTIC and abs(cl.witness.lam - 1j) < 1e-10   # lam0 = i sqrt(-p'(0))
    sym = SymbolField(lambda t, x, xi: xi[0] * np.array([[0.3, 0.7], [0.7, 0.1]]), 1, 2)
    assert classify(sym, None, ORIGIN).regime != ELLIPTIC


def test_classify_solves_each_region_spectrum_once(monkeypatch):
    # both passes of classify read one spectrum per region point
    calls = []
    spectrum = system_model.spectrum

    def counted(a):
        calls.append(1)
        return spectrum(a)

    monkeypatch.setattr(system_model, "spectrum", counted)
    b = get_state("burgers1d", "persistent")
    cl = classify(b.sys, b.phi, b.search_region)
    assert cl.regime == PERSISTENT
    assert len(b.search_region.xs) * len(b.search_region.xis) == 3
    assert len(calls) == 3


def test_check_semisimple_burgers_cases():
    b = get_state("burgers1d", "semisimple")
    omega = CotangentPoint([0.0], [1.0], 0.0)
    assert check_semisimple_transition(as_field(b.sys, b.phi), omega)
    sys0 = burgers1d(1.0, (0.0, 0.0))
    assert not check_semisimple_transition(
        as_field(sys0, const_phi((0.0, 0.0), rate=(0.0, 0.0))), omega)


def test_check_semisimple_burgers2d():
    b = get_state("burgers2d", "semisimple")
    omega = CotangentPoint([0.0, 0.0], [1.0, 0.0], 0.2)
    assert check_semisimple_transition(as_field(b.sys, b.phi), omega)


def test_classify_registry_table():
    expectations = [
        ("burgers1d", "elliptic", ELLIPTIC),
        ("burgers1d", "semisimple", SEMISIMPLE),
        ("burgers1d", "persistent", PERSISTENT),
        ("burgers2d", "semisimple", SEMISIMPLE),
        ("vdw", "elliptic", ELLIPTIC),
        ("vdw", "witness", NONSEMISIMPLE),
        ("vdw", "decaying", PERSISTENT),
        ("kgz", "witness", NONSEMISIMPLE),
        ("kgz", "hyperbolic", PERSISTENT),
    ]
    for name, state, expected in expectations:
        b = get_state(name, state)
        cl = classify(b.sys, b.phi, b.search_region)
        assert cl.regime == expected, f"{name}/{state}: {cl.regime} != {expected}"


def test_scale_coupling():
    for ell, h, zeta in ((0.0, 1.0, 0.0), (0.5, 2.0 / 3.0, 1.0 / 3.0), (1.0, 0.5, 0.0)):
        assert scales_for_ell(ell) == (h, zeta)
    b = get_state("kgz", "witness")
    cl = classify(b.sys, b.phi, b.search_region)
    assert cl.h == 1.0 / (1.0 + cl.ell)
    assert cl.zeta == (1.0 / 3.0 if cl.ell == 0.5 else 0.0)


def test_mutual_exclusion_on_witness_jets():
    # the same jet never satisfies both the ell=1/2 and the ell=1 gate
    for name, state in (("vdw", "witness"), ("kgz", "witness"),
                        ("burgers1d", "semisimple")):
        b = get_state(name, state)
        cl = classify(b.sys, b.phi, b.search_region)
        jet = cl.jet
        nss = abs(jet.P_lam) <= 1e-8 and np.real(jet.P_lamlam * jet.P_t) > 1e-12
        ss_gate = abs(jet.P_t) <= 1e-6 and \
            np.real(jet.P_tlam) ** 2 < np.real(jet.P_tt * jet.P_lamlam) - 1e-6
        assert not (nss and ss_gate)


def test_xi_scaling_invariance():
    for name, state in (("burgers1d", "elliptic"), ("burgers1d", "semisimple"),
                        ("vdw", "witness")):
        b = get_state(name, state)
        scaled = SearchRegion(b.search_region.xs, 2.7 * b.search_region.xis)
        cl1 = classify(b.sys, b.phi, b.search_region)
        cl2 = classify(b.sys, b.phi, scaled)
        assert cl1.regime == cl2.regime


def test_discriminant_crosscheck_vdw():
    b = get_state("vdw", "witness")
    rep = discriminant_jet_crosscheck(as_field(b.sys, b.phi), [0.0], [1.0])
    assert max(rep.resid_first, rep.resid_second) <= 1e-6
    # oracle: Delta = 4 p'(phi1), d_t Delta(0) = 4 p'' d_t phi1 = -4 p'' dx phi2
    assert abs(rep.d1_fd - (-4.0 * 2.0 * 0.5)) < 1e-4
    assert abs(rep.d1_jet + 4.0 * np.real(
        as_field(b.sys, b.phi).jet(CotangentPoint([0.0], [1.0], 0.0)).P_t)) < 1e-9


def test_discriminant_crosscheck_burgers():
    b = get_state("burgers1d", "semisimple")
    rep = discriminant_jet_crosscheck(as_field(b.sys, b.phi), [0.0], [1.0])
    assert max(rep.resid_first, rep.resid_second) <= 1e-6
    # Delta = -4 b^2 phi2^2: first derivative 0, second -8 b^2 F2^2
    assert abs(rep.d1_fd) < 1e-6
    assert abs(rep.d2_fd + 8.0) < 1e-4


def test_discriminant_crosscheck_constant_block():
    field = SymbolField(lambda t, x, xi: xi[0] * np.array([[0.1, 1.0], [0.3, -0.1]]), 1, 2)
    rep = discriminant_jet_crosscheck(field, [0.0], [1.0])
    assert abs(rep.d1_fd) < 1e-9 and abs(rep.d2_fd) < 1e-6
    assert max(rep.resid_first, rep.resid_second) <= 1e-6


def test_exnot_indeterminate_at_origin():
    # xi [[0,1],[g,0]], g = x^2 t - t^2: the eigenvalues cross along t = x^2,
    # so the jet at the origin is too degenerate to decide
    field = SymbolField(lambda t, x, xi: xi[0] * np.array(
        [[0.0, 1.0], [x[0] ** 2 * t - t * t, 0.0]]), 1, 2)
    region = SearchRegion(np.array([[0.0], [0.3], [-0.3]]), np.array([[1.0]]))
    cl = classify(field, None, region)
    assert cl.regime == INDETERMINATE
