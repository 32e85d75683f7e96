import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hypflow.classifier import PERSISTENT, classify
from hypflow.examples import (burgers1d, burgers2d, get_state, get_states, kgz,
                              list_examples, van_der_waals)
from hypflow.system_model import SystemSpec, _richardson, eval_principal_symbol, spectrum


def _charpoly_at(a, lam):
    """det(lambda I - A) by LU factorization, independent of charpoly_coeffs."""
    a = np.asarray(a)
    return complex(np.linalg.det(lam * np.eye(a.shape[0]) - a.astype(complex)))


def _kgz_charpoly(lam, u, v, alpha, c):
    """Closed-form quartic (lam^2 - c^2)(lam^2 - 1) - alpha^2 lam^2 + 2 alpha c (v + u lam)."""
    return (lam ** 2 - c ** 2) * (lam ** 2 - 1.0) - alpha ** 2 * lam ** 2 \
        + 2.0 * alpha * c * (v + u * lam)


def test_registry_gate():
    # every entry and every documented parameter regime reproduces its verdict;
    # the burgers1d source (0, F2) leaves `semisimple` persistent at F2 = 0
    cases = [(name, {}) for name in list_examples()]
    cases += [("burgers1d", {"F2": F2}) for F2 in (0.0, 0.5, 2.0)]
    for name, params in cases:
        for sname, bundle in get_states(name, **params).items():
            cl = classify(bundle.sys, bundle.phi, bundle.search_region)
            assert cl.regime == bundle.expected_regime, f"{name}/{sname} {params}"
    assert get_state("burgers1d", "semisimple", F2=0.0).expected_regime == PERSISTENT


def test_dual_polynomial_evaluation():
    rng = np.random.default_rng(31)
    alpha, c = 1.0, 0.5
    sysk = kgz(alpha, c)
    sysb = burgers1d(1.0)
    sysv = van_der_waals()
    for _ in range(100):
        u, v, lam = rng.normal(size=3)
        phi_k = lambda t, x: np.array([u, v, 0.0, 0.0])
        a = eval_principal_symbol(sysk, phi_k, 0.0, [0.0], [1.0])
        assert abs(_charpoly_at(a, lam) - _kgz_charpoly(lam, u, v, alpha, c)) <= 1e-10
        p1, p2 = rng.normal(size=2)
        phi_b = lambda t, x: np.array([p1, p2])
        ab = eval_principal_symbol(sysb, phi_b, 0.0, [0.0], [1.0])
        assert abs(_charpoly_at(ab, lam) - ((lam - p1) ** 2 + p2 ** 2)) <= 1e-10
        av = eval_principal_symbol(sysv, phi_b, 0.0, [0.0], [1.0])
        assert abs(_charpoly_at(av, lam) - (lam ** 2 - (p1 ** 2 - 1.0))) <= 1e-10


def test_burgers_eigenvalues_and_2d():
    sysb = burgers1d(2.0)   # b = 2
    phi = lambda t, x: np.array([0.4, 0.3])
    vals = spectrum(eval_principal_symbol(sysb, phi, 0.0, [0.0], [1.0]))
    assert np.allclose(np.sort(vals.imag), [-0.6, 0.6], atol=1e-10)
    sys2 = burgers2d(1.0)
    phi2 = lambda t, x: np.array([0.4, 0.3])
    for xi in ([1.0, 0.0], [0.3, 0.7], [1.0, -1.0]):
        vals = spectrum(eval_principal_symbol(sys2, phi2, 0.0, [0.0, 0.0], xi))
        expected_im = (xi[0] + xi[1]) * 0.3
        # double real root at xi1 + xi2 = 0 carries sqrt(eps)-level noise
        tol = 1e-10 if abs(expected_im) > 1e-6 else 1e-7
        assert abs(np.max(vals.imag) - abs(expected_im)) < tol
        assert np.allclose(vals.real, xi[0] * 0.4, atol=tol)


def test_kgz_requires_subsonic():
    with pytest.raises(ValueError):
        kgz(1.0, 1.0)


def test_reference_solutions_consistent_at_t0():
    # closed-form time extensions agree with the initial datum at t = 0
    rng = np.random.default_rng(3)
    for name in list_examples():
        for sname, bundle in get_states(name).items():
            if bundle.phi.value is None:
                continue
            for _ in range(5):
                x = rng.uniform(-1.0, 1.0, size=bundle.phi.domain.dim)
                a = bundle.phi(0.0, x)
                b = bundle.phi.at0(x)
                assert np.max(np.abs(a - b)) < 1e-14


def test_trajectories_solve_their_pde():
    # a state's phi_traj_vec stands in for the evolved reference, so it must
    # solve d_t phi + A(phi) d_x phi = F(phi); every such state is affine in
    # t, so the Richardson differences leave only roundoff
    xs = np.array([-1.3, 0.0, 0.4, 2.9])
    solved = []
    for name in list_examples():
        for sname, b in get_states(name).items():
            if b.phi_traj_vec is None:
                continue
            for t in (0.0, 0.35, 1.7):
                phi = np.asarray(b.phi_traj_vec(t, xs))
                dt_phi = _richardson(lambda s: np.asarray(b.phi_traj_vec(s, xs)), t, 1e-2)[0]
                dx_phi = _richardson(lambda s: np.asarray(b.phi_traj_vec(t, xs + s)),
                                     0.0, 1e-2)[0]
                a = b.sys.fluxes_vec[0](t, xs, phi)
                f = b.sys.source_vec(t, xs, phi)
                res = dt_phi + np.einsum("nij,nj->ni", a, dx_phi) - f
                assert np.max(np.abs(res)) < 1e-12 * max(1.0, np.max(np.abs(f))), \
                    (name, sname, t)
            solved.append(f"{name}/{sname}")
    assert sorted(solved) == ["burgers1d/elliptic", "burgers1d/ill-posed-all-data",
                      "burgers1d/persistent", "burgers1d/semisimple",
                      "symmetric-control/default", "vdw/elliptic"]


def test_burgers_source_vec_matches_per_node():
    # the batched source equals the per-node source on every burgers1d state
    rng = np.random.default_rng(5)
    n = 17
    xs = rng.uniform(-np.pi, np.pi, size=n)
    us = rng.normal(size=(n, 2))
    states = get_states("burgers1d")
    assert set(states) == {"elliptic", "semisimple", "persistent", "ill-posed-all-data"}
    for sname, bundle in states.items():
        sys = bundle.sys
        got = sys.source_vec(0.3, xs, us)
        assert got.shape == (n, 2), sname
        assert got.dtype == np.float64, sname
        ref = np.array([sys.eval_source(0.3, xs[i:i + 1], us[i]) for i in range(n)])
        assert np.array_equal(got, ref), sname


_BATCHED_SYSTEMS = {f"{name}/{sname}": bundle.sys for name in list_examples()
                    for sname, bundle in get_states(name).items()}
_BATCHED_SYSTEMS["burgers2d/callable"] = burgers2d(lambda u: 1.0 + u[..., 1] ** 2,
                                                   lambda u: (0.0, u[..., 0] ** 2))


@pytest.mark.parametrize("name", sorted(_BATCHED_SYSTEMS))
@settings(max_examples=25, deadline=None)
@given(data=st.data(), t=st.floats(-1.0, 1.0))
def test_point_forms_are_rows_of_the_batch(name, data, t):
    # flux()/eval_source() at one node equal that node's row of the batched call
    sys = _BATCHED_SYSTEMS[name]
    n = data.draw(st.integers(1, 6))
    d, N = sys.space_dim, sys.state_dim
    xs = data.draw(arrays(float, (n,) if d == 1 else (n, d), elements=st.floats(-3.0, 3.0)))
    us = data.draw(arrays(float, (n, N), elements=st.floats(-2.0, 2.0)))
    src = sys.source_vec(t, xs, us)
    assert src.shape == (n, N)
    for j in range(d):
        a = sys.fluxes_vec[j](t, xs, us)
        assert a.shape == (n, N, N)
        for i in range(n):
            assert np.array_equal(sys.flux(j, t, xs[i], us[i]), a[i]), (name, j, i)
    for i in range(n):
        assert np.array_equal(sys.eval_source(t, xs[i], us[i]), src[i]), (name, i)


def test_system_without_batched_forms_rejected():
    a1 = lambda t, x, u: np.eye(2)
    src = lambda t, x, u: np.zeros(2)
    with pytest.raises(ValueError):
        SystemSpec("point_only", 1, 2, (a1,), src)
    with pytest.raises(ValueError):
        SystemSpec("no_source_vec", 1, 2, (a1,), src,
                   fluxes_vec=(lambda t, xs, us: np.broadcast_to(np.eye(2), (len(us), 2, 2)),))
