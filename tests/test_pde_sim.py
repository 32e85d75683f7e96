import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm

from hypflow import pde_sim
from hypflow.classifier import classify
from hypflow.cli import EXIT_NUMERICAL, main
from hypflow.examples import burgers1d, get_state, kgz
from hypflow.pde_sim import (BoxLengthError, HadamardParams, SolverConfig,
                             _check_period, _frozen_synthesis, _stepped_synthesis,
                             _tail_weights, _wrap_dist, breakdown_detector, evolve,
                             evolve_linearized, free_solution_compare,
                             run_instability_experiment, w1inf_ball)
from hypflow.semiclassical import (Grid1D, GridFunction, WavePacketSpec, build_wavepacket,
                                   load_grid_function)
from hypflow.system_model import Domain, ReferenceSolution, SystemSpec

SRC = Path(__file__).resolve().parent.parent / "src"


def scalar_burgers():
    def a1(t, x, u):
        return np.array([[u[0]]])

    def src(t, x, u):
        return np.zeros(1)

    def a1v(t, xs, us):
        return us[:, 0].reshape(-1, 1, 1)

    def srcv(t, xs, us):
        return np.zeros((us.shape[0], 1))

    return SystemSpec("scalar_burgers", 1, 1, (a1,), src,
                      fluxes_vec=(a1v,), source_vec=srcv)


def constant_symmetric():
    a = np.array([[0.2, 0.5], [0.5, 0.2]])

    def a1(t, x, u):
        return a

    def src(t, x, u):
        return np.zeros(2)

    def a1v(t, xs, us):
        return np.broadcast_to(a, (us.shape[0], 2, 2))

    def srcv(t, xs, us):
        return np.zeros((us.shape[0], 2))

    return SystemSpec("const_sym", 1, 2, (a1,), src, fluxes_vec=(a1v,), source_vec=srcv)


def _sampled(sys, u0, cfg):
    """evolve with an observer that keeps every sample: (trajectory, times, fields)."""
    times, fields = [], []
    traj = evolve(sys, u0, cfg, observer=lambda t, v: (times.append(t), fields.append(v.copy())))
    return traj, np.asarray(times), fields


def test_traveling_wave_l2_conserved():
    sysc = constant_symmetric()
    n = 256
    grid = Grid1D(n, 2 * np.pi)
    evec = np.array([1.0, 1.0]) / np.sqrt(2)   # eigenvector, speed 0.7
    vals = np.outer(np.cos(3 * grid.nodes), evec)
    u0 = GridFunction(grid, vals)
    cfg = SolverConfig(n=n, dt=2e-3, t_final=1.0, max_speed=1.0, sample_count=5)
    traj, times, fields = _sampled(sysc, u0, cfg)
    assert traj.breakdown is None
    l2 = [np.sqrt(grid.dx * np.sum(s ** 2)) for s in fields]
    assert abs(l2[-1] - l2[0]) <= 1e-6 * l2[0]
    # and the profile is the initial one advected by 0.7 t
    shift = np.outer(np.cos(3 * (grid.nodes - 0.7 * times[-1])), evec)
    assert np.max(np.abs(fields[-1].T - shift)) < 1e-4
    assert traj.t_stop == times[-1] and np.array_equal(traj.final, fields[-1])


def test_traveling_wave_takes_its_box_from_the_grid():
    # on a pi box a default SolverConfig once took the wavenumbers of a 2 pi
    # box, so every derivative was halved and the wave moved at half speed
    sysc = constant_symmetric()
    n = 256
    grid = Grid1D(n, np.pi)
    evec = np.array([1.0, 1.0]) / np.sqrt(2)   # eigenvector, speed 0.7
    u0 = GridFunction(grid, np.outer(np.cos(6 * grid.nodes), evec))
    cfg = SolverConfig(n=n, dt=1e-3, t_final=0.5, max_speed=1.0, sample_count=2)
    traj = evolve(sysc, u0, cfg)
    assert traj.breakdown is None and traj.t_stop == 0.5
    shift = np.outer(np.cos(6 * (grid.nodes - 0.7 * 0.5)), evec)
    assert np.max(np.abs(traj.final.T - shift)) < 1e-4


def test_scalar_burgers_characteristics():
    sysb = scalar_burgers()
    n = 512
    grid = Grid1D(n, 2 * np.pi)
    u0f = lambda x: 0.5 + 0.2 * np.sin(x)
    u0 = GridFunction(grid, u0f(grid.nodes).reshape(-1, 1))
    t_end = 1.0   # shock at t = 1/0.2 = 5
    cfg = SolverConfig(n=n, dt=5e-4, t_final=t_end, max_speed=0.8, sample_count=3)
    traj = evolve(sysb, u0, cfg)
    # method of characteristics: solve x = xc + u0(xc) t per node
    exact = np.empty(n)
    for i, x in enumerate(grid.nodes):
        xc = x
        for _ in range(60):
            f = xc + u0f(xc) * t_end - x
            fp = 1.0 + 0.2 * np.cos(xc) * t_end
            xc -= f / fp
        exact[i] = u0f(xc)
    assert np.max(np.abs(traj.final[0] - exact)) < 1e-5


def test_kgz_alpha0_stable():
    sysk = kgz(0.0, 0.5)
    n = 256
    grid = Grid1D(n, 2 * np.pi)
    vals = np.column_stack([0.1 * np.sin(grid.nodes), 0.05 * np.cos(grid.nodes),
                            0.02 * np.sin(grid.nodes), np.zeros(n)])
    cfg = SolverConfig(n=n, dt=2e-3, t_final=1.0, max_speed=1.5, sample_count=5,
                       linf_cap=5.0)
    traj = evolve(sysk, GridFunction(grid, vals), cfg)
    assert traj.breakdown is None
    assert np.max(np.abs(traj.final)) < 1.0


def test_breakdown_detector_cases():
    n = 1024
    cfg = SolverConfig(n=n, dt=1e-3, t_final=1.0, max_speed=0.5, linf_cap=2.0)
    grid = Grid1D(n, 2 * np.pi)

    def verdict(values):
        with np.errstate(invalid="ignore"):     # the transform of an infinite value
            vh = np.fft.rfft(values)
        return breakdown_detector(values, vh, cfg, *_tail_weights(n))

    smooth = np.cos(grid.nodes).reshape(1, -1)
    assert verdict(smooth) is None
    bad = smooth.copy()
    for value in (np.nan, np.inf, -np.inf):
        bad[0, 5] = value
        assert verdict(bad) == "nan"
    assert verdict(3.0 * smooth) == "linf_cap"
    # k^2-weighted power piled into the top third of the kept band [227, 341]:
    # 300^2 * 1e-4 against 1 for the carrier; the same ripple at k = 200 lies
    # below the band and passes
    assert verdict(smooth + 1e-2 * np.cos(300 * grid.nodes)) == "spectral_tail"
    assert verdict(smooth + 1e-2 * np.cos(200 * grid.nodes)) is None
    # a constant field on 2000 nodes: its rfft leaves about 1e-14 in every
    # mode, roundoff and no pile-up
    flat = np.full((2, 2000), 0.3)
    cfg = SolverConfig(n=2000, dt=1e-4, t_final=1.0, max_speed=0.5, linf_cap=2.0)
    assert breakdown_detector(flat, np.fft.rfft(flat), cfg, *_tail_weights(2000)) is None


def test_evolve_transform_budget(monkeypatch):
    # per RK4 step: one inverse transform (field and derivative) and one
    # forward transform (dealiased product) per stage, with the step's last
    # inverse shared by the breakdown check and the next step's first stage
    calls = []
    for name in ("fft", "ifft", "rfft", "irfft"):
        def counted(*args, _orig=getattr(np.fft, name), **kwargs):
            calls.append(1)
            return _orig(*args, **kwargs)
        monkeypatch.setattr(np.fft, name, counted)
    sysb = scalar_burgers()
    n = 64
    grid = Grid1D(n, 2 * np.pi)
    u0 = GridFunction(grid, (0.5 + 0.2 * np.sin(grid.nodes)).reshape(-1, 1))
    cfg = SolverConfig(n=n, dt=1e-2, t_final=0.2, max_speed=0.8, sample_count=3)
    traj = evolve(sysb, u0, cfg)
    assert traj.breakdown is None and traj.t_stop == pytest.approx(0.2)
    assert len(calls) <= 9 * 20


def test_breakdown_near_shock_time():
    sysb = scalar_burgers()
    n = 1024
    grid = Grid1D(n, 2 * np.pi)
    u0f = lambda x: 0.5 + 0.2 * np.sin(x)
    t_shock = 1.0 / 0.2
    cfg = SolverConfig(n=n, dt=2e-4, t_final=1.2 * t_shock, max_speed=0.9,
                       linf_cap=5.0, sample_count=10)
    traj = evolve(sysb, GridFunction(grid, u0f(grid.nodes).reshape(-1, 1)), cfg)
    assert traj.breakdown is not None
    assert abs(traj.breakdown.time - t_shock) <= 0.05 * t_shock


def test_evolve_sizes_steps_from_the_field(monkeypatch):
    # the cfg the instability experiment builds for the symmetric control at
    # eps 10^-2.5 is sized for the cap: speed 1.2 (max|phi0| + 1 + cap) =
    # 2.76, where A(phi0) has row-sum norm 0.4.  Stepping the constant state
    # phi0 takes at most a third of the fixed steps, and lands exactly on the
    # sample times
    ctrl = get_state("symmetric-control", "default")
    params = HadamardParams(K=3.0, alpha=1.0, m=1.25, delta=0.7, T_star=9.0,
                            h=0.5, gamma_minus=0.5)
    runs = []
    monkeypatch.setattr(pde_sim, "evolve", lambda sys, u0, cfg, **kw:
                        runs.append((u0.grid, cfg)) or evolve(sys, u0, cfg, **kw))
    run_instability_experiment(ctrl.sys, ctrl.phi, None, params, [10 ** -2.5],
                               e_vec=ctrl.e_vec, phi_traj_vec=ctrl.phi_traj_vec,
                               length=np.pi / 2.0, linf_cap=1.0, control=True)
    ((grid, cfg),) = runs
    calls = []

    def flux(t, xs, us):
        calls.append(1)
        return ctrl.sys.fluxes_vec[0](t, xs, us)

    phi0 = np.asarray(ctrl.phi_traj_vec(0.0, grid.nodes))
    traj, times, _ = _sampled(dataclasses.replace(ctrl.sys, fluxes_vec=(flux,)),
                              GridFunction(grid, phi0), cfg)
    m = cfg.sample_count
    assert traj.breakdown is None
    np.testing.assert_array_equal(times, cfg.t_final * np.arange(m) / (m - 1))
    assert 3 * len(calls) <= 4 * math.ceil(cfg.t_final / cfg.dt)


# ---------------------------------------------------------------------------
# linearized evolution
# ---------------------------------------------------------------------------

def _packet(grid, eps, h, e_vec, K=0.0, delta=1.0):
    spec = WavePacketSpec(K=K, xi0=1.0, x0=0.0, eps=eps, h=h, delta=delta,
                          e_vec=np.asarray(e_vec))
    return build_wavepacket(spec, grid, frame="rescaled")


def _flux_gen(sys, phi_vec, grid):
    """The generator A1(t, x, phi(t, x)) on the grid's nodes, (N, N, n)."""
    xs = grid.nodes
    return lambda t: sys.fluxes_vec[0](t, xs, phi_vec(t, xs)).transpose(1, 2, 0)


def test_linearized_constant_transport_fourier_exact():
    sysb = burgers1d(1.0, (0.0, 0.0))
    eps, h = 1e-2, 1.0
    phi_vec = lambda t, xs: np.broadcast_to([0.3, 0.0], (np.atleast_1d(xs).size, 2))
    n = 1 << 10
    grid = Grid1D(n, 2 * np.pi, x_left=-np.pi)
    v0 = _packet(grid, eps, h, (1.0, 0.0))
    t_end = 0.5 * eps
    cfg = SolverConfig(n=n, dt=t_end / 400, t_final=t_end, max_speed=1.0,
                       filter_strength=0.0, sample_count=2)
    traj = evolve_linearized(_flux_gen(sysb, phi_vec, grid), v0, cfg)
    # Fourier-exact: each mode multiplied by exp(-i k t A(phi)) with A = 0.3 I
    a = np.array([[0.3, 0.0], [0.0, 0.3]])
    vh = v0.hat()
    out = np.empty_like(vh)
    for i, k in enumerate(grid.freqs):
        w, v = np.linalg.eig(-1j * k * t_end * a)
        out[i] = (v @ np.diag(np.exp(w)) @ np.linalg.inv(v)) @ vh[i]
    exact = np.fft.ifft(out, axis=0)
    assert np.max(np.abs(traj.final.T - exact)) <= 1e-8 * np.max(np.abs(exact))


def test_linearized_rejects_filter():
    sysb = burgers1d(1.0, (0.0, 0.0))
    phi_vec = lambda t, xs: np.zeros((np.atleast_1d(xs).size, 2))
    n = 256
    grid = Grid1D(n, 2 * np.pi, x_left=-np.pi)
    v0 = _packet(grid, 1e-1, 1.0, (1.0, 0.0))
    cfg = SolverConfig(n=n, dt=1e-3, t_final=1e-2, max_speed=1.0)
    with pytest.raises(ValueError, match="filter_strength = 36"):
        evolve_linearized(_flux_gen(sysb, phi_vec, grid), v0, cfg)


def _band_amplitude(values, grid, k0, width):
    vh = np.fft.fft(values, axis=-1)
    k_idx = np.fft.fftfreq(grid.n) * grid.n
    band = np.abs(np.abs(k_idx) - k0) <= width
    return np.sqrt(np.sum(np.abs(vh[:, band]) ** 2)) / grid.n


def test_linearized_elliptic_amplitude_law():
    # packet grows like e^{Im lam0 t / eps}; fitted exponent within 5%
    sysb = burgers1d(1.0, (0.0, 0.0))
    eps, h = 1e-2, 1.0
    phi = np.array([0.2, 0.3])        # Im lam0 = 0.3
    phi_vec = lambda t, xs: np.broadcast_to(phi, (np.atleast_1d(xs).size, 2))
    n = 1 << 10
    grid = Grid1D(n, 2 * np.pi, x_left=-np.pi)
    v0 = _packet(grid, eps, h, (1j, 1.0))
    k0 = int(round(1.0 / eps))
    gen = _flux_gen(sysb, phi_vec, grid)
    # the run hands out only its final field: one run to each end time
    times = 3.0 * eps * np.arange(7) / 6
    amps = [_band_amplitude(v0.values.T, grid, k0, 12)]
    for t_end in times[1:]:
        cfg = SolverConfig(n=n, dt=eps / 300, t_final=t_end, max_speed=1.0,
                           filter_strength=0.0, sample_count=2)
        amps.append(_band_amplitude(evolve_linearized(gen, v0, cfg).final, grid, k0, 12))
    slope = np.polyfit(times / eps, np.log(amps), 1)[0]
    assert abs(slope - 0.3) <= 0.05 * 0.3


# ---------------------------------------------------------------------------
# Hadamard machinery
# ---------------------------------------------------------------------------

def test_params_gates():
    ok = HadamardParams(K=3.0, alpha=1.0, m=1.25, delta=0.7, T_star=9.0,
                        h=0.5, gamma_minus=0.5)
    assert ok.K_prime == 1.75
    with pytest.raises(ValueError, match="amplitude gate"):
        HadamardParams(K=3.0, alpha=0.6, m=2.0, delta=0.7, T_star=40.0,
                       h=0.5, gamma_minus=0.5)
    with pytest.raises(ValueError, match="observation-time gate"):
        HadamardParams(K=3.0, alpha=1.0, m=1.25, delta=0.7, T_star=5.0,
                       h=0.5, gamma_minus=0.5)
    with pytest.raises(ValueError, match="alpha"):
        HadamardParams(K=3.0, alpha=0.4, m=1.0, delta=0.7, T_star=20.0,
                       h=0.5, gamma_minus=0.5)


def test_w1inf_ball_requires_nodes():
    grid = Grid1D(64, 2 * np.pi)
    ball = _wrap_dist(grid.nodes, 0.049, grid.length) <= 1e-6
    with pytest.raises(ValueError):
        w1inf_ball(np.zeros((1, 64)), 1j * grid.freqs, ball)


def test_experiment_rejects_stable_regime():
    b = get_state("burgers1d", "persistent")
    cl = classify(b.sys, b.phi, b.search_region)
    params = HadamardParams(K=3.0, alpha=1.0, m=1.25, delta=0.7, T_star=9.0,
                            h=0.5, gamma_minus=0.5)
    with pytest.raises(ValueError, match="regime"):
        run_instability_experiment(b.sys, b.phi, cl, params, [1e-2])


def test_experiment_rejects_e_vec_of_wrong_length():
    b = get_state("kgz", "witness")
    cl = classify(b.sys, b.phi, b.search_region)
    params = HadamardParams(K=3.0, alpha=1.0, m=1.25, delta=0.7, T_star=9.0,
                            h=2.0 / 3.0, gamma_minus=0.5)
    with pytest.raises(ValueError, match="2 components.*state dimension 4"):
        run_instability_experiment(b.sys, b.phi, cl, params, [1e-2], e_vec=(1.0, 0.0))


def test_experiment_refuses_a_box_that_is_not_a_period():
    # the witnesses are 2 pi-periodic and not constant: on a pi box the
    # periodized datum jumps at the box edge, which stopped the run at once
    # on a spectral_tail breakdown that passed for a finding
    params = HadamardParams(K=3.0, alpha=1.0, m=1.25, delta=0.7, T_star=9.0,
                            h=2.0 / 3.0, gamma_minus=0.5)
    for name in ("vdw", "kgz"):
        b = get_state(name, "witness")
        cl = classify(b.sys, b.phi, b.search_region)
        with pytest.raises(BoxLengthError, match="not a period"):
            run_instability_experiment(b.sys, b.phi, cl, params, [1e-2], length=np.pi)
        _check_period(b.phi, 0.0, 2.0 * np.pi)
    _check_period(get_state("burgers1d", "semisimple").phi, 0.0, 0.3)   # constant: any box


def test_experiment_raises_past_the_reference_breakdown(monkeypatch, tmp_path):
    # a witness has no closed-form trajectory, so phi is evolved on the grid;
    # past that run's breakdown phi_at used to serve its last stored state.
    # Each rung evolves its reference first, then the experiment
    real = pde_sim.evolve
    calls = []

    def reference_breaks_at_first_sample(sys, u0, cfg, **kw):
        calls.append(1)
        traj = real(sys, u0, cfg, **kw)
        if len(calls) % 2 == 0:
            return traj
        t1 = cfg.t_final / (cfg.sample_count - 1)
        return pde_sim.Trajectory(t1, traj.final, pde_sim.BreakdownInfo(t1, "linf_cap"))
    monkeypatch.setattr(pde_sim, "evolve", reference_breaks_at_first_sample)
    b = get_state("vdw", "witness")
    cl = classify(b.sys, b.phi, b.search_region)
    params = HadamardParams(K=3.0, alpha=1.0, m=1.25, delta=0.7, T_star=9.0,
                            h=2.0 / 3.0, gamma_minus=0.5)
    with pytest.raises(RuntimeError, match=r"reference run broke down \(linf_cap\)"):
        run_instability_experiment(b.sys, b.phi, cl, params, [1e-2], length=2.0 * np.pi)
    # simulate reports it as a numerical failure and writes nothing
    code = main(["simulate", "--example", "vdw", "--state", "witness", "--eps-ladder",
                 "1e-2", "--length", str(2.0 * np.pi), "--out", str(tmp_path)])
    assert code == EXIT_NUMERICAL
    assert not list(tmp_path.iterdir())


def test_ratio_dt_convergence():
    # halving dt (same grid) changes the reported ratio by <= 2%
    b = get_state("burgers1d", "semisimple")
    cl = classify(b.sys, b.phi, b.search_region)
    params = HadamardParams(K=3.0, alpha=1.0, m=1.25, delta=0.7, T_star=9.0,
                            h=0.5, gamma_minus=0.5)
    ratios = []
    for dt_safety in (1.0, 0.5):
        rep = run_instability_experiment(
            b.sys, b.phi, cl, params, [1e-2], xi0=1.0, x0=0.0,
            e_vec=b.e_vec, phi_traj_vec=b.phi_traj_vec, length=np.pi,
            dt_safety=dt_safety)
        ratios.append(rep.rows[0].ratio)
    assert abs(ratios[1] - ratios[0]) <= 0.02 * ratios[0]


def test_experiment_dumps_the_datum_and_the_last_observed_field(monkeypatch, tmp_path):
    # criterion 8's 1e-2 rung with dump_dir: the datum, and the field of the
    # run's last observation (here the linf_cap stop)
    b = get_state("burgers1d", "semisimple")
    cl = classify(b.sys, b.phi, b.search_region)
    params = HadamardParams(K=3.0, alpha=1.0, m=1.25, delta=0.7, T_star=9.0,
                            h=0.5, gamma_minus=0.5)
    last = {}

    def watched(sys, u0, cfg, observer, **kw):
        def seen(t, vals):
            last.update(t=t, vals=vals.copy())
            observer(t, vals)
        return evolve(sys, u0, cfg, observer=seen, **kw)
    monkeypatch.setattr(pde_sim, "evolve", watched)
    (row,) = run_instability_experiment(
        b.sys, b.phi, cl, params, [1e-2], e_vec=b.e_vec, phi_traj_vec=b.phi_traj_vec,
        length=np.pi / 2.0, linf_cap=1.0, dump_dir=str(tmp_path)).rows
    grid = Grid1D(row.n_nodes, np.pi / 2.0, x_left=-np.pi / 4.0)
    spec = WavePacketSpec(K=3.0, xi0=1.0, x0=0.0, eps=1e-2, h=0.5, delta=0.7,
                          e_vec=np.asarray(b.e_vec))
    datum = (np.asarray(b.phi_traj_vec(0.0, grid.nodes))
             + np.real(build_wavepacket(spec, grid, frame="original").values))
    t0 = load_grid_function(str(tmp_path / "burgers1d_eps0.01_t0.hypgrid"))
    final = load_grid_function(str(tmp_path / "burgers1d_eps0.01_final.hypgrid"))
    assert t0.grid == grid == final.grid
    np.testing.assert_array_equal(t0.values, datum)
    assert row.breakdown_reason == "linf_cap"
    assert last["t"] == row.t_final == row.breakdown_time
    np.testing.assert_array_equal(final.values, last["vals"].T)


def test_free_solution_smoke_and_sanity():
    sysc = constant_symmetric()
    phi = ReferenceSolution(initial=lambda x: np.zeros(2),
                            domain=Domain(2 * np.pi, 1),
                            value=lambda t, x: np.zeros(2))
    phiv = lambda t, xs: np.zeros((np.atleast_1d(xs).size, 2))
    rep = free_solution_compare(sysc, phi, 1e-2, None, 1.5,
                                e_vec=(1.0, 1.0), phi_vec=phiv, dt_safety=0.1)
    assert rep.rel_error < 1e-8
    bad = free_solution_compare(sysc, phi, 1e-2, None, 1.5,
                                e_vec=(1.0, 1.0), phi_vec=phiv, sign=-1.0)
    assert bad.rel_error > 0.1


_J = np.array([[0.0, 1.0], [-1.0, 0.0]])
_ZERO_PHI = ReferenceSolution(initial=lambda x: np.zeros(2),
                              domain=Domain(2 * np.pi, 1),
                              value=lambda t, x: np.zeros(2))


def _zero_phi_vec(t, xs):
    return np.zeros((np.atleast_1d(xs).size, 2))


def _scaled_j(name, scale):
    """A1 = scale(t, x) J with no source."""
    return SystemSpec(
        name, 1, 2, (lambda t, x, u: scale(t, x[0]) * _J,),
        lambda t, x, u: np.zeros(2),
        fluxes_vec=(lambda t, xs, us:
                    (scale(t, xs) * np.ones(us.shape[0]))[:, None, None] * _J,),
        source_vec=lambda t, xs, us: np.zeros((us.shape[0], 2)))


def test_free_solution_frozen_synthesis_pinned():
    # criterion-9 inputs at eps 1e-2 (n = 800); reference values from
    # assembling each mode's flow matrix exp(-i eps t xi_k A1(x)) explicitly
    # (`_synthesis_oracle` in place of `_frozen_synthesis`)
    kw = dict(e_vec=(1.0, 1j), phi_vec=_zero_phi_vec)
    const = _scaled_j("const", lambda t, x: 1.0)
    rep = free_solution_compare(const, _ZERO_PHI, 1e-2, None, 2.0, dt_safety=0.06, **kw)
    assert rep.n_nodes == 800
    assert abs(rep.rel_error - 1.6464154987088505e-09) <= 1e-13
    slow = _scaled_j("slow", lambda t, x: 1.0 + 0.3 * np.sin(x))
    rep = free_solution_compare(slow, _ZERO_PHI, 1e-2, None, 2.0, **kw)
    assert rep.rel_error == pytest.approx(0.005774025579109308, rel=1e-9, abs=0.0)


def _synthesis_oracle(a0, uh, ks, grid, scale):
    # one matrix exponential per mode and node, summed directly; for 2 x 2
    # a0, expm(M) = R.T expm(R M R.T) R with one fixed rotation R, so that a
    # triangular a0 does not send scipy's expm down its per-matrix branch
    out = np.zeros((uh.shape[1], grid.n), dtype=complex)
    rel = grid.nodes - grid.x_left
    c, s = np.cos(0.3), np.sin(0.3)
    rot = np.array([[c, -s], [s, c]])
    turned = rot @ a0 @ rot.T
    for k in ks:
        xi = grid.freqs[k]
        flow = rot.T @ expm(scale * xi * turned) @ rot              # (n, N, N)
        out += (flow @ uh[k]).T * np.exp(1j * xi * rel)
    return out / grid.n


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_frozen_synthesis_matches_per_mode_sum(sign):
    # modes on both sides of xi = 0 with gaps, and an A1 whose eigenvectors
    # turn with x, against a matrix exponential per mode
    grid = Grid1D(64, 2 * np.pi, x_left=-np.pi)
    x = grid.nodes
    a0 = np.zeros((grid.n, 2, 2))
    a0[:, 0, 1] = 1.0 + 0.3 * np.sin(x)
    a0[:, 1, 0] = -1.0
    rng = np.random.default_rng(3)
    uh = np.zeros((grid.n, 2), dtype=complex)
    ks = np.array([2, 3, 4, 6, 7, grid.n - 3, grid.n - 5, grid.n - 6])
    uh[ks] = rng.normal(size=(ks.size, 2)) + 1j * rng.normal(size=(ks.size, 2))
    scale = -sign * 1j * 0.1 * 1.5
    got = _frozen_synthesis(*np.linalg.eig(a0), uh, ks, grid, scale)
    want = _synthesis_oracle(a0, uh, ks, grid, scale)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("scale", [-0.3j, -1j])
def test_frozen_synthesis_matches_per_mode_sum_when_oscillating(scale):
    # real eigenvalues that vary with x, so the flow oscillates and its
    # exponent spreads over the grid: 199 modes on both sides of xi = 0 take
    # 25 blocks at -0.3i and 67 at -1i; one series over all of them misses
    # the oracle by 9e-7 and 2e21 (measured)
    grid = Grid1D(256, 2 * np.pi, x_left=-np.pi)
    x = grid.nodes
    a0 = np.zeros((grid.n, 2, 2))
    a0[:, 0, 0] = 1.0 + 0.9 * np.sin(x)
    a0[:, 0, 1] = 0.3
    a0[:, 1, 1] = -0.5 + 0.4 * np.cos(x)
    rng = np.random.default_rng(11)
    uh = np.zeros((grid.n, 2), dtype=complex)
    ks = np.r_[1:100, 156:256]
    uh[ks] = rng.normal(size=(ks.size, 2)) + 1j * rng.normal(size=(ks.size, 2))
    got = _frozen_synthesis(*np.linalg.eig(a0), uh, ks, grid, scale)
    want = _synthesis_oracle(a0, uh, ks, grid, scale)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_frozen_synthesis_overflow_raises():
    grid = Grid1D(64, 2 * np.pi, x_left=-np.pi)
    a0 = np.broadcast_to(_J, (grid.n, 2, 2))
    uh = np.zeros((grid.n, 2), dtype=complex)
    ks = np.array([5, 30])
    uh[ks] = 1.0
    with pytest.raises(RuntimeError, match="overflow"):
        _frozen_synthesis(*np.linalg.eig(a0), uh, ks, grid, -1j * 100.0)


@pytest.mark.parametrize("n, eps", [(64, 0.2), (80, 0.1), (400, 0.05), (512, 0.02)])
def test_stepped_synthesis_matches_separable_oracle(n, eps):
    # A1 = c(eps t) a(x) J with a = 1 + 0.3 sin x: at each x the mode flows
    # commute in time, so S_k(T, x) = exp(-pref xi_k a(x) J int_0^T c(eps t) dt)
    # and the stepped sum equals the frozen one at that scale.  At n = 64 and
    # 80 the modes are stepped on the grid's own nodes; at n = 400 and 512 on
    # 128 coarser ones, interpolated to the grid.
    grid = Grid1D(n, 2 * np.pi, x_left=-np.pi)
    t_end, pref = 1.5, 1j * eps

    def a1(t, xs):
        return ((1.0 + 20.0 * eps * t) * (1.0 + 0.3 * np.sin(xs)))[:, None, None] * _J

    rng = np.random.default_rng(5)
    uh = np.zeros((n, 2), dtype=complex)
    ks = np.array([1, 2, 3, 5, 8, n - 2, n - 4, n - 7])
    uh[ks] = rng.normal(size=(ks.size, 2)) + 1j * rng.normal(size=(ks.size, 2))
    got = _stepped_synthesis(a1, uh, ks, grid, pref, t_end)
    integral = t_end + 10.0 * eps * t_end ** 2
    want = _frozen_synthesis(*np.linalg.eig(a1(0.0, grid.nodes)), uh, ks, grid,
                             -pref * integral)
    # measured 1.8e-10 (eps 0.2) and 2.8e-12 (eps 0.02), the same on every
    # grid: the stepper's error; the bound is its rtol
    assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want)


def test_import_loads_no_scipy_interpolate():
    code = "import sys, hypflow; print('scipy.interpolate' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(SRC)})
    assert out.stdout.strip() == "False"


def test_e_vec_defaults_to_first_unit_vector():
    # omitting e_vec polarizes the packet along the first state component;
    # an e_vec of the wrong length is refused by name
    const = _scaled_j("const", lambda t, x: 1.0)
    rep = free_solution_compare(const, _ZERO_PHI, 1e-2, None, 2.0, phi_vec=_zero_phi_vec)
    assert rep.rel_error < 1e-6
    with pytest.raises(ValueError, match="3 components.*state dimension 2"):
        free_solution_compare(const, _ZERO_PHI, 1e-2, None, 2.0, phi_vec=_zero_phi_vec,
                              e_vec=(1.0, 0.0, 0.0))
    b = get_state("burgers1d", "semisimple")
    params = HadamardParams(K=3.0, alpha=1.0, m=1.25, delta=0.7, T_star=9.0,
                            h=0.5, gamma_minus=0.5)
    rep = run_instability_experiment(b.sys, b.phi, None, params, [1e-2],
                                     phi_traj_vec=b.phi_traj_vec, length=np.pi / 2.0,
                                     linf_cap=1.0)
    assert np.isfinite(rep.rows[0].ratio) and rep.rows[0].ratio > 0


def test_free_solution_samples_a_frozen_flux_four_times():
    # the frozen test's four samples are the only flux calls: the linearized
    # run steps the first sample, and the synthesis decomposes it
    const = _scaled_j("const", lambda t, x: 1.0)
    times = []

    def counted(t, xs, us):
        times.append(t)
        return const.fluxes_vec[0](t, xs, us)

    counted_sys = dataclasses.replace(const, fluxes_vec=(counted,))
    rep = free_solution_compare(counted_sys, _ZERO_PHI, 0.1, None, 2.0, e_vec=(1.0, 1j),
                                phi_vec=_zero_phi_vec)
    assert len(times) == 4
    assert rep.rel_error < 1e-3


def test_free_solution_time_dependent_flux():
    # A1 = (1 + 20 t) J is not frozen, so the mode flows are stepped adaptively,
    # and the linearized step must follow the speed at the end of the run,
    # four times the speed at t = 0
    grow = _scaled_j("grow", lambda t, x: 1.0 + 20.0 * t)
    kw = dict(e_vec=(1.0, 1j), phi_vec=_zero_phi_vec)
    rep = free_solution_compare(grow, _ZERO_PHI, 0.1, None, 1.5, **kw)
    assert rep.rel_error < 1e-3
    bad = free_solution_compare(grow, _ZERO_PHI, 0.1, None, 1.5, sign=-1.0, **kw)
    assert bad.rel_error > 0.5


def test_free_solution_raises_on_linearized_breakdown():
    # a flux that turns NaN for t > 0 must stop the comparison, not leave a
    # finite error measured against the datum
    j = np.array([[0.0, 1.0], [-1.0, 0.0]])

    def a1v(t, xs, us):
        return np.broadcast_to(j * (np.nan if t > 0 else 1.0), (us.shape[0], 2, 2))

    sysn = SystemSpec("nan_after_0", 1, 2, (lambda t, x, u: j,),
                      lambda t, x, u: np.zeros(2), fluxes_vec=(a1v,),
                      source_vec=lambda t, xs, us: np.zeros((us.shape[0], 2)))
    phi = ReferenceSolution(initial=lambda x: np.zeros(2),
                            domain=Domain(2 * np.pi, 1),
                            value=lambda t, x: np.zeros(2))
    phiv = lambda t, xs: np.zeros((np.atleast_1d(xs).size, 2))

    eps, h, n = 1e-2, 1.0, 1024
    grid = Grid1D(n, 2 * np.pi, x_left=-np.pi)
    v0 = _packet(grid, eps, h, (1.0, 1j))
    cfg = SolverConfig(n=n, dt=1e-4, t_final=1e-3, max_speed=1.0,
                       filter_strength=0.0, sample_count=2)
    traj = evolve_linearized(_flux_gen(sysn, phiv, grid), v0, cfg)
    assert traj.breakdown is not None and traj.breakdown.reason == "nan"
    assert traj.t_stop == traj.breakdown.time == pytest.approx(1e-4)
    assert not np.all(np.isfinite(traj.final))

    with pytest.raises(RuntimeError, match="broke down"):
        free_solution_compare(sysn, phi, 1e-2, None, 1.5, e_vec=(1.0, 1j),
                              phi_vec=phiv)


def test_solver_config_cfl_gate():
    # both solvers check dt * max_speed * n / length <= 0.5 against the box
    # of the grid they run on: 3.26 on a 2 pi box, 0.41 on a 16 pi one
    n = 1024
    cfg = SolverConfig(n=n, dt=1e-2, t_final=0.02, max_speed=2.0, filter_strength=0.0,
                       sample_count=2)
    gen = lambda t: np.ones((1, 1, n))
    for length in (2 * np.pi, 16 * np.pi):
        grid = Grid1D(n, length)
        u0 = GridFunction(grid, np.cos(2 * np.pi * grid.nodes / length))
        if length < 10:
            with pytest.raises(ValueError, match="CFL violated"):
                evolve(scalar_burgers(), u0, cfg)
            with pytest.raises(ValueError, match="CFL violated"):
                evolve_linearized(gen, u0, cfg)
        else:
            assert evolve(scalar_burgers(), u0, cfg).breakdown is None
            assert evolve_linearized(gen, u0, cfg).breakdown is None


def test_solvers_refuse_a_config_for_another_grid():
    grid = Grid1D(64, 2 * np.pi)
    u0 = GridFunction(grid, np.cos(grid.nodes))
    cfg = SolverConfig(n=128, dt=1e-3, t_final=1e-2, max_speed=1.0, filter_strength=0.0)
    with pytest.raises(ValueError, match="node count mismatch"):
        evolve(scalar_burgers(), u0, cfg)
    with pytest.raises(ValueError, match="node count mismatch"):
        evolve_linearized(lambda t: np.ones((1, 1, 64)), u0, cfg)
