import numpy as np
import pytest

from hypflow.airy import model_block_sampler, vector_airy
from hypflow.branching import GrowthEnvelope, compute_branch_data, eval_growth
from hypflow.examples import get_state
from hypflow.pde_sim import _ModeGenerator
from hypflow.symbolic_flow import (FlowConfig, _adaptive_rk4, _block_weights,
                                   block_reduce_2x2, assemble_A_star,
                                   integrate_symbolic_flow, ladder_fit,
                                   make_a_star_sampler, verify_lower_bound,
                                   verify_upper_bound)
from hypflow.system_model import SymbolField, as_field


def test_flow_config_scales():
    cfg = FlowConfig(eps=1e-3, ell=0.5, T_star=4.0, max_step=0.02)
    assert abs(cfg.T_eps ** 1.5 - 4.0 * abs(np.log(1e-3))) < 1e-12
    assert cfg.h == 2.0 / 3.0 and cfg.zeta == 1.0 / 3.0
    with pytest.raises(ValueError):
        FlowConfig(eps=2.0, ell=0.0, T_star=1.0, max_step=0.02)


# ---------------------------------------------------------------------------
# block reduction
# ---------------------------------------------------------------------------

def test_block_reduce_trivial_and_vdw():
    t = 0.15
    a = np.array([[0.3, 1.0], [-t, 0.3]])
    q, a0, a1 = block_reduce_2x2(a, 0.3)
    assert np.allclose(a0, [[0.0, 1.0], [-t, 0.0]], atol=1e-12)
    # VdW symbol is already companion: star entry = p'(phi1)
    pprime = -0.2
    q, a0, _ = block_reduce_2x2(np.array([[0.0, 1.0], [pprime, 0.0]]), 0.0)
    assert abs(a0[1, 0] - pprime) < 1e-12


def test_block_reduce_star_entry_is_minus_eigenproduct():
    rng = np.random.default_rng(9)
    for _ in range(40):
        b = rng.normal(size=(2, 2))
        b[1, 1] = -b[0, 0]   # trace-free pair
        if max(abs(b[0, 1]), abs(b[1, 0])) < 1e-2:
            continue
        q, a0, _ = block_reduce_2x2(b, 0.0)
        lam = np.linalg.eigvals(b)
        assert abs(a0[0, 0]) < 1e-9 and abs(a0[1, 1]) < 1e-9
        assert abs(a0[0, 1] - 1.0) < 1e-9
        assert abs(a0[1, 0] + lam[0] * lam[1]) < 1e-8 * max(1.0, abs(lam[0] * lam[1]))


def test_block_reduce_kgz_full_matrix():
    b = get_state("kgz", "witness")
    field = as_field(b.sys, b.phi)
    a = field.symbol(0.005, [0.0], [1.0])   # slightly past the touch point
    q, a0, a1 = block_reduce_2x2(a, 0.0)
    full = q @ a @ np.linalg.inv(q)
    assert np.max(np.abs(full[:2, 2:])) < 1e-8
    assert np.max(np.abs(full[2:, :2])) < 1e-8
    pair = np.linalg.eigvals(a0)
    assert abs(a0[0, 1] - 1.0) < 1e-9
    assert abs(a0[1, 0] + pair[0] * pair[1]) < 1e-7


def test_block_reduce_smooth_spectrum_rejected():
    with pytest.raises(ValueError):
        block_reduce_2x2(np.diag([0.0, 0.0]), 0.0)


# ---------------------------------------------------------------------------
# advected symbol
# ---------------------------------------------------------------------------

def test_assemble_a_star_elliptic_constant():
    a_const = np.array([[0.0, 1.0], [-1.0, 0.0]])
    field = SymbolField(lambda t, x, xi: xi[0] * a_const, 1, 2)
    for t in (0.0, 3.0):
        a = assemble_A_star(field, None, None, 1e-3, t, [0.1], [1.0],
                            [0.0], 0.0)
        assert np.allclose(a, a_const)


def test_assemble_a_star_vdw_block_structure():
    # eps^(-1/3) A*: top right eps^(-1/3), bottom left -eps^(1/3)(t - t*) f0 + O(eps^(2/3))
    b = get_state("vdw", "witness")
    field = as_field(b.sys, b.phi)
    eps = 1e-4
    data = compute_branch_data(field, None, [0.0], [1.0], lam_init=0.0)
    for t in (0.5, 2.0):
        a = assemble_A_star(field, None, lambda tt, x, xi: 0.0,
                            eps, t, [0.3], [1.0], [0.0], 0.5)
        scaled = eps ** (-1.0 / 3.0) * a
        assert abs(scaled[0, 1] - eps ** (-1.0 / 3.0)) < 1e-10
        t_star = 0.0  # theta* has a second-order zero at the witness
        predicted = -eps ** (1.0 / 3.0) * (t - t_star) * data.f0
        assert abs(scaled[1, 0] - predicted) <= 5.0 * eps ** (2.0 / 3.0)


def test_assemble_a_star_semisimple_cancellation():
    # (A - mu)(eps^(1/2) t) = eps^(1/2) t Atilde + O(eps t^2)
    atil = np.array([[0.0, 1.0], [-1.0, 0.0]])
    field = SymbolField(lambda t, x, xi: xi[0] * (0.7 * np.eye(2) + t * atil
                                                  + 0.5 * t ** 2 * np.eye(2)), 1, 2)
    eps = 1e-6
    for t in (1.0, 3.0):
        a = assemble_A_star(field, None, lambda tt, x, xi: 0.7 * xi[0],
                            eps, t, [0.0], [1.0], [0.0], 1.0)
        lead = eps ** (-0.5) * a
        assert np.max(np.abs(lead - t * atil)) <= 1.0 * eps ** 0.5 * t ** 2


# ---------------------------------------------------------------------------
# flow integration
# ---------------------------------------------------------------------------

def test_flow_zero_generator_and_scalar_exponential():
    cfg = FlowConfig(eps=1e-2, ell=0.0, T_star=1.0, rtol=1e-10, max_step=0.05)
    res = integrate_symbolic_flow(lambda t: np.zeros((2, 2)), cfg, 0.0, 2.0)
    assert np.max(np.abs(res.final - np.eye(2))) < 1e-14
    res = integrate_symbolic_flow(lambda t: np.array([[1j]]), cfg, 0.0, 3.0)
    assert abs(abs(res.final[0, 0]) - np.exp(3.0)) <= 1e-8 * np.exp(3.0)


def test_flow_records_every_accepted_step():
    # 5,000 steps at the 1e-3 cap: a sample per step, none dropped
    cfg = FlowConfig(eps=1e-2, ell=0.0, T_star=1.0, max_step=1e-3)
    res = integrate_symbolic_flow(lambda t: np.zeros((2, 2)), cfg, 0.0, 5.0)
    assert res.n_steps > 4000
    assert len(res.times) == len(res.samples) == res.n_steps + 1
    assert np.all(np.diff(res.times) > 0) and res.times[-1] == pytest.approx(5.0)


def test_flow_samples_start_once():
    # the sample that sizes the identity is also the first step's generator
    tau, seen = 0.3, []

    def sampler(t):
        seen.append(t)
        return np.array([[1.0, t], [0.0, -1.0]])

    cfg = FlowConfig(eps=1e-2, ell=0.0, T_star=1.0, max_step=0.05)
    res = integrate_symbolic_flow(sampler, cfg, tau, 1.0, check_flow_property=False)
    assert seen.count(tau) == 1 and seen[0] == tau
    assert len(seen) == 1 + 4 * (res.n_steps + res.n_rejected)


def test_flow_composition_and_liouville_random():
    rng = np.random.default_rng(21)
    cfg = FlowConfig(eps=1e-2, ell=0.0, T_star=1.0, rtol=1e-9, max_step=0.05)
    for _ in range(100):
        a0 = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        a1 = rng.normal(size=(2, 2))

        def sampler(t, a0=a0, a1=a1):
            return a0 + t * a1

        res = integrate_symbolic_flow(sampler, cfg, 0.0, 0.8)
        assert res.flow_residual <= 10 * cfg.rtol
        assert res.liouville_residual <= 10 * cfg.rtol
        assert np.max(np.abs(res.samples[0] - np.eye(2))) == 0.0


def _textbook_step_doubling(g, s, t0, t1, rtol, max_step, min_step):
    """S' = -g(t) S by classical RK4 with step doubling: a step of dt against
    two of dt/2, accepting s_two + (s_two - s_one)/15 when the local error
    passes, with the step controller of `_adaptive_rk4`.  Returns (s,
    accepted steps, rejected steps)."""
    def rk4(s, dt, g0, gm, g1):
        k1 = -(g0 @ s)
        k2 = -(gm @ (s + dt / 2 * k1))
        k3 = -(gm @ (s + dt / 2 * k2))
        k4 = -(g1 @ (s + dt * k3))
        return s + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)

    t, n_steps, n_rej = t0, 0, 0
    dt = min(max_step, max((t1 - t0) / 16.0, min_step))
    while t < t1 - 1e-15 * max(1.0, abs(t1)):
        dt = min(dt, t1 - t)
        g0, gq, gm, g3, g1 = (g(t + f * dt) for f in (0.0, 0.25, 0.5, 0.75, 1.0))
        s_one = rk4(s, dt, g0, gm, g1)
        s_two = rk4(rk4(s, dt / 2, g0, gq, gm), dt / 2, gm, g3, g1)
        scale = max(1.0, float(np.max(np.abs(s_two))))
        err = float(np.max(np.abs(s_two - s_one))) / scale
        tol = rtol + 1e-13 / scale
        if err <= tol:
            s, t, n_steps = s_two + (s_two - s_one) / 15, t + dt, n_steps + 1
        else:
            n_rej += 1
        fac = 0.9 * (tol / err) ** 0.2 if err > 0 else 4.0
        dt = min(max_step, max(min_step, dt * min(4.0, max(0.1, fac))))
    return s, n_steps, n_rej


def test_adaptive_rk4_matches_textbook_step_doubling():
    # the stepper integrates S' = M S; fed M = -G it must reproduce the
    # textbook S' = -G S bit for bit, rejected steps included
    rng = np.random.default_rng(31)
    c = rng.normal(size=(3, 2, 2)) + 1j * rng.normal(size=(3, 2, 2))

    def g(t):
        return 4.0 * (c[0] + t * c[1] + np.sin(5.0 * t) * c[2])

    scale = 1j * np.array([0.5, 2.0, 7.0])
    a = rng.normal(size=(2, 4, 2, 2))
    s_modes = rng.normal(size=(4, 2, 3)) + 1j * rng.normal(size=(4, 2, 3))

    def modes(scale):
        return lambda t: _ModeGenerator(scale, a[0] + np.cos(3.0 * t) * a[1])

    cases = [(g, lambda t: -g(t), np.eye(2, dtype=complex)),
             (modes(scale), modes(-scale), s_modes)]
    for minus_gen, gen, s0 in cases:
        want = _textbook_step_doubling(minus_gen, s0, 0.0, 2.0, 1e-9, 0.5, 1e-12)
        got = _adaptive_rk4(gen, s0, 0.0, 2.0, 1e-9, 0.5, 1e-12, lambda *step: None)
        assert np.array_equal(got[0], want[0]) and got[1:] == want[1:]
        assert got[2] > 0


def test_adaptive_rk4_makes_eleven_products_per_attempt():
    # the full step and the first half step share their first slope
    products = []

    class Counted:
        def __init__(self, m):
            self.m = m

        def __matmul__(self, s):
            products.append(1)
            return self.m @ s

    g = np.array([[0.0, 30.0], [-30.0, 1.0]], dtype=complex)
    _, n_steps, n_rej = _adaptive_rk4(lambda t: Counted((1.0 + t) * g),
                                      np.eye(2, dtype=complex), 0.0, 1.0, 1e-10,
                                      0.5, 1e-12, lambda *step: None)
    assert n_rej > 0
    assert len(products) == 11 * (n_steps + n_rej)


def _scalars(m):
    """A 2x2 matrix as the scalar kernel holds it: four complex numbers, row by row."""
    return tuple(np.asarray(m, dtype=complex).ravel().tolist())


def test_scalar_kernel_matches_array_kernel():
    # a tuple state steps on the 2x2 scalar kernel, an array on the array one
    eye = np.eye(2, dtype=complex)

    def both(gen, t1, rtol, max_step):
        args = (0.0, t1, rtol, max_step, 1e-12, lambda *step: None)
        arr = _adaptive_rk4(gen, eye, *args)
        sca = _adaptive_rk4(lambda t: _scalars(gen(t)), _scalars(eye), *args)
        assert isinstance(sca[0], tuple) and sca[1:] == arr[1:]
        return np.reshape(sca[0], (2, 2)), arr[0], arr[2]

    # the model block: every product's sum meets an exact zero, so both
    # kernels round alike, on [0, 2] at 1e-3 and on the whole `hypflow
    # flow` rung at 1e-6 (where a changed association order shows)
    for eps, t1 in ((1e-3, 2.0), (1e-6, None)):
        cfg = FlowConfig(eps=eps, ell=0.5, T_star=4.0, rtol=1e-8, max_step=0.02)
        pref = -1j * cfg.eps ** (cfg.h - 1.0)
        a_star = model_block_sampler(eps, 1.0, 0.0)
        sca, arr, _ = both(lambda t: pref * np.reshape(a_star(t), (2, 2)),
                           t1 or cfg.T_eps, cfg.rtol, cfg.max_step)
        assert np.array_equal(sca, arr), eps

    # a dense, time-dependent generator with rejected steps: the products
    # round differently, so the states agree to rounding only
    rng = np.random.default_rng(17)
    c = rng.normal(size=(3, 2, 2)) + 1j * rng.normal(size=(3, 2, 2))
    sca, arr, n_rej = both(lambda t: 4.0 * (c[0] + t * c[1] + np.sin(5.0 * t) * c[2]),
                           2.0, 1e-9, 0.5)
    assert n_rej > 0
    assert np.max(np.abs(sca - arr)) <= 1e-12 * np.max(np.abs(arr))


def test_tuple_sampler_matches_array_sampler():
    # the model block's row-major 4-tuple steps as its 2x2 matrix does, here
    # with t* != 0 and a start tau < t*
    sampler = model_block_sampler(1e-3, 1.0, 0.5)
    cfg = FlowConfig(eps=1e-3, ell=0.5, T_star=4.0, rtol=1e-8, max_step=0.02)
    tup = integrate_symbolic_flow(sampler, cfg, 0.0, 3.0)
    arr = integrate_symbolic_flow(lambda t: np.reshape(sampler(t), (2, 2)), cfg, 0.0, 3.0)
    assert isinstance(sampler(0.0), tuple)
    assert np.array_equal(tup.times, arr.times) and np.array_equal(tup.samples, arr.samples)
    assert (tup.n_steps, tup.n_rejected) == (arr.n_steps, arr.n_rejected)
    assert tup.flow_residual == arr.flow_residual
    assert tup.liouville_residual == arr.liouville_residual


def test_trace_free_block_unimodular():
    cfg = FlowConfig(eps=1e-3, ell=0.5, T_star=2.0, rtol=1e-9, max_step=0.01)
    res = integrate_symbolic_flow(model_block_sampler(1e-3, 1.0, 0.0), cfg, 0.0, 2.0)
    dets = np.abs(np.linalg.det(res.samples))
    assert np.max(np.abs(dets - 1.0)) <= 10 * cfg.rtol


def test_model_block_matches_vector_airy():
    # model block [[0,1],[-t,0]] at eps-free scaling conjugates to the Airy system
    cfg = FlowConfig(eps=0.5, ell=0.0, T_star=1.0, rtol=1e-10, max_step=0.01)
    res = integrate_symbolic_flow(lambda t: np.array([[0.0, 1.0], [-t, 0.0]]),
                                  cfg, 0.0, 2.5)
    d = np.diag([-1j, 1.0])
    z = vector_airy(0.0, 2.5).Z
    target = np.linalg.inv(d) @ z @ d
    assert np.max(np.abs(res.final - target)) < 1e-7 * np.max(np.abs(target))


def test_ell_one_quadratic_exponent():
    # |log|S(0;t)| - gamma t^2| / (gamma t^2) <= 0.02 at t = T(eps), eps = 1e-6
    eps = 1e-6
    atil = np.array([[0.0, 1.0], [-1.0, 0.0]])
    field = SymbolField(lambda t, x, xi: xi[0] * (0.3 * np.eye(2) + t * atil), 1, 2)
    sampler = make_a_star_sampler(field, eps, 1.0, [0.0], [0.0], [1.0],
                                  mu=lambda t, x, xi: 0.3 * xi[0])
    cfg = FlowConfig(eps=eps, ell=1.0, T_star=30.0, rtol=1e-8, max_step=0.02)
    T = cfg.T_eps
    res = integrate_symbolic_flow(sampler, cfg, 0.0, T, check_flow_property=False)
    gamma = 0.5
    logmag = np.log(np.max(np.abs(res.final)))
    assert abs(logmag - gamma * T ** 2) / (gamma * T ** 2) <= 0.02


# ---------------------------------------------------------------------------
# envelope bounds
# ---------------------------------------------------------------------------

def _model_run(eps, T_star=3.0, gamma_scale=1.0):
    cfg = FlowConfig(eps=eps, ell=0.5, T_star=T_star, rtol=1e-8, max_step=0.02)
    T = cfg.T_eps
    res = integrate_symbolic_flow(model_block_sampler(eps, 1.0, 0.0), cfg, 0.0, T,
                                  check_flow_property=False)
    g = gamma_scale * 2.0 / 3.0
    env = GrowthEnvelope(g, g, 0.5, 0.0)
    return res, env, T


def test_envelope_sandwich_on_models():
    for eps in (1e-2, 1e-3):
        res, env, T = _model_run(eps)
        up = verify_upper_bound(res, env)
        low = verify_lower_bound([(0.0, res.final)], env,
                                 lambda x: np.array([0.0, 1.0]),
                                 eps, 1.0 / 3.0, T)
        assert np.isfinite(up.max_ratio) and up.max_ratio < 50.0
        assert low.min_ratio > 0.05


def test_upper_bound_equals_per_sample_loop():
    rng = np.random.default_rng(23)
    a0 = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    a1 = rng.normal(size=(2, 2))
    cfg = FlowConfig(eps=1e-2, ell=0.5, T_star=1.0, max_step=0.05)
    res = integrate_symbolic_flow(lambda t: a0 + t * a1, cfg, 0.2, 1.5,
                                  check_flow_property=False)
    env = GrowthEnvelope(0.3, 0.4, 0.5, 0.6)
    w = _block_weights(2, res.zeta, res.eps)
    worst = 0.0
    for t, s in zip(res.times, res.samples):
        e = eval_growth(env, "plus", res.tau, float(t))
        worst = max(worst, float(np.max(np.abs(s) / (w * e))))
    assert res.times.size > 10 and worst > 0.0
    assert verify_upper_bound(res, env).max_ratio == worst


def test_upper_bound_envelope_clamps_before_t_star():
    # a flow from tau = 0 < t* = 1 that grows before t* and oscillates after:
    # the worst ratio sits where (t - t*)_+ has just left 0, so a wrong clamp
    # moves it
    cfg = FlowConfig(eps=1e-3, ell=0.5, T_star=4.0, rtol=1e-8, max_step=0.02)
    res = integrate_symbolic_flow(model_block_sampler(1e-3, -1.0, 1.0), cfg, 0.0, 2.0,
                                  check_flow_property=False)
    env = GrowthEnvelope(1.0, 1.0, 0.5, t_star=1.0)
    w = _block_weights(2, res.zeta, res.eps)
    e = np.array([eval_growth(env, "plus", res.tau, float(t)) for t in res.times])
    assert res.times[0] == 0.0 and np.any(res.times < 1.0) and np.any(res.times > 1.0)
    ref = float(np.max(np.abs(res.samples) / (w * e[:, None, None])))
    assert abs(verify_upper_bound(res, env).max_ratio - ref) <= 1e-15 * ref


def test_envelope_sanity_inversion_detected():
    ladder = [1e-2, 1e-3, 1e-4]
    good, bad = [], []
    for eps in ladder:
        res, env, T = _model_run(eps, T_star=4.0)
        good.append(verify_upper_bound(res, env).max_ratio)
        res, env_bad, T = _model_run(eps, T_star=4.0, gamma_scale=0.9)
        bad.append(verify_upper_bound(res, env_bad).max_ratio)
    assert ladder_fit(ladder, good).upper_bounded
    assert not ladder_fit(ladder, bad).upper_bounded


def test_lower_bound_degenerate_direction_flagged():
    ladder = [1e-2, 1e-3]
    ratios = []
    for eps in ladder:
        res, env, T = _model_run(eps)
        # direction orthogonal to the amplified column
        low = verify_lower_bound([(0.0, res.final)], env,
                                 lambda x: np.array([1.0, 0.0]),
                                 eps, 1.0 / 3.0, T)
        ratios.append(low.min_ratio)
    fit = ladder_fit(ladder, ratios)
    assert not fit.lower_bounded


def test_vdw_flow_matches_airy_end_to_end():
    # full ell = 1/2 pipeline on the real system at a nonzero offset x:
    # branch data -> advected symbol -> integrated flow vs the Airy closed
    # form with Theta(s) = f0^(1/3) (s - t*), agreement at the O(eps^(2/3))
    # level of the block expansion remainder
    from hypflow.airy import vector_airy
    from hypflow.examples import get_state

    b = get_state("vdw", "witness")
    field = as_field(b.sys, b.phi)
    eps = 1e-4
    x = 0.4
    y = eps ** (1.0 / 3.0) * x
    data = compute_branch_data(field, None, [y], [1.0], lam_init=0.0)
    f0 = data.f0
    t_star = eps ** (-2.0 / 3.0) * max(data.tau_star, 0.0)
    sampler = make_a_star_sampler(field, eps, 0.5, [0.0], [x], [1.0],
                                  mu=lambda t, xs, xi: 0.0)
    cfg = FlowConfig(eps=eps, ell=0.5, T_star=2.0, rtol=1e-9, max_step=0.01)
    t_end = 3.0
    res = integrate_symbolic_flow(sampler, cfg, t_star, t_end,
                                  check_flow_property=False)
    d = np.diag([-1j * (eps * f0) ** (1.0 / 3.0), 1.0])
    theta = lambda s: f0 ** (1.0 / 3.0) * (s - t_star)
    z = vector_airy(theta(t_star), theta(t_end)).Z
    s_cf = np.linalg.inv(d) @ z @ d
    dev = np.abs(res.final - s_cf) / np.maximum(np.abs(s_cf),
                                                1e-12 * np.max(np.abs(s_cf)))
    assert np.max(dev) <= 30.0 * eps ** (2.0 / 3.0)


def test_flow_unreachable_tolerance_raises():
    cfg = FlowConfig(eps=1e-2, ell=0.0, T_star=1.0, rtol=1e-14,
                     max_step=0.5, min_step=0.2)
    stiff = lambda t: 80.0 * np.array([[0.0, 1.0], [-1.0, 0.0]]) * (1 + np.sin(9 * t))
    with pytest.raises(RuntimeError, match="achieved local residual"):
        integrate_symbolic_flow(stiff, cfg, 0.0, 2.0)
