"""1D periodic pseudospectral solver and the wave-packet instability experiment.

One RK4 loop drives both spectral solvers; it lands exactly on the sample
times.  The nonlinear evolution holds the rfft of its state, so 2/3-rule
dealiasing and the exponential filter (strength recorded in every report) are
multiplies; it sizes each step from the flux of the field it steps, and stops
on an L-infinity cap, an unresolved-gradient proxy or NaN.  The linearized
evolution d_t v + G(t) d_x v = 0, for a generator G sampled on the grid,
steps in physical space, unfiltered, in uniform steps, and stops on NaN.  On
top: the Hoelder-ratio measurement on shrinking balls, the ladder experiment,
and the free-solution comparison against the quantized symbolic flow, where a
frozen symbol is sampled and decomposed once and time-dependent mode flows
take the adaptive stepper of `symbolic_flow`.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .classifier import PERSISTENT, INDETERMINATE
from .semiclassical import (Grid1D, GridFunction, WavePacketSpec, _fast_grid_len,
                            build_wavepacket, sobolev_norm)
from .symbolic_flow import _adaptive_rk4
from .system_model import SystemSpec


# ---------------------------------------------------------------------------
# solver configuration and breakdown
# ---------------------------------------------------------------------------

@dataclass
class SolverConfig:
    """Time-stepping parameters; construction enforces the CFL-type bound
    dt * max_speed * n / length <= 0.5.

    `max_speed` bounds the spectral radius of A(u) over every field the run
    may reach, so `dt` is safe up to the breakdown stop.  `evolve` takes
    longer steps while the field allows them (see `_march`), never a target
    below `dt`; `evolve_linearized` steps uniformly at most `dt`.  Both land
    exactly on the `sample_count` times j * t_final / (sample_count - 1).
    `filter_strength` is a damping rate per unit time at the top mode."""

    n: int
    dt: float
    t_final: float
    max_speed: float
    length: float = 2.0 * np.pi
    filter_strength: float = 36.0
    linf_cap: float = np.inf
    sample_count: int = 60

    def __post_init__(self):
        if self.dt * self.max_speed * self.n / self.length > 0.5 + 1e-12:
            raise ValueError(
                f"CFL violated: dt*max_speed*n/L = "
                f"{self.dt * self.max_speed * self.n / self.length:.3f} > 0.5")


@dataclass(frozen=True)
class BreakdownInfo:
    time: float
    reason: str


@dataclass
class Trajectory:
    times: np.ndarray
    states: np.ndarray          # (m, N, n)
    breakdown: Optional[BreakdownInfo] = None

    @property
    def final(self) -> np.ndarray:
        return self.states[-1]


def _tail_weights(n: int) -> tuple[np.ndarray, slice]:
    """The k^2 weights of the rfft modes of an n-node grid and the slice of
    its top kept third, as `breakdown_detector` takes them."""
    keep_max = n // 3
    return np.arange(n // 2 + 1, dtype=float) ** 2, slice((2 * keep_max) // 3, keep_max + 1)


def breakdown_detector(values: np.ndarray, vh: np.ndarray, cfg: SolverConfig,
                       k2: np.ndarray, tail: slice) -> Optional[str]:
    """NaN/Inf, L-infinity cap, or derivative energy piling up at the top of
    the kept band (a gradient the grid no longer resolves: the W^{1,inf} exit
    proxy), read off `vh`, the rfft of `values`.  The tail fraction weights
    modes by k^2 so that a forming shock (|u^_k| ~ 1/k) registers as an O(1)
    fraction independent of resolution; a fraction above the fixed 0.1 stops
    the run, unless every tail coefficient lies within the transform's
    roundoff, n * eps * max|values| (a constant field has no derivative
    energy, and its roundoff is no pile-up).  `k2` and `tail` come from
    `_tail_weights(cfg.n)`, built once per run."""
    peak = np.max(np.abs(values))       # NaN if any value is NaN, inf if any is infinite
    if not np.isfinite(peak):
        return "nan"
    if peak > cfg.linf_cap:
        return "linf_cap"
    power = np.abs(vh) ** 2
    dpow = np.sum(k2 * power, axis=0)
    if np.sum(dpow[tail]) > 0.1 * np.sum(dpow) and \
            np.max(power[:, tail]) > (values.shape[-1] * np.finfo(float).eps * peak) ** 2:
        return "spectral_tail"
    return None


def _march(rhs: Callable, state: np.ndarray, grid: Grid1D, cfg: SolverConfig,
           values: Callable, filter_k: np.ndarray | None, check: Callable,
           observer: Callable | None, store_states: bool,
           step_bound: Callable | None) -> Trajectory:
    """RK4 for d_t state = rhs(t, values(state)), 0 <= t <= t_final.

    The run lands exactly on the sample times t_j = j * t_final / (m - 1),
    m = sample_count: each interval [t_j, t_j+1] is split evenly into the
    fewest steps no longer than the target step, which is cfg.dt or, when
    `step_bound` is given, `step_bound()`, called right after each step's
    first stage rhs(t, values(state)) to size the step from the field at t.
    The split is made at the start of the interval, and made again over what
    is left of it when the target falls below the planned step; so a step
    grows only at a sample time.  Without `step_bound` the one interval of
    sample_count = 2 takes t_final / ceil(t_final / cfg.dt) steps.
    `values(state)` is a stack whose first entry is the (N, n) grid values;
    after a step it also feeds `check(values, state)`, whose non-None verdict
    stops the run as the breakdown, and `observer(t, values)`, called at t = 0
    and at every sample time.  A step that ends in a breakdown other than
    "nan" is bisected four times from its start, so the run stops at the
    first breakdown state to within a sixteenth of the step: a quantity
    read at the stop (the instability ratio at the L-infinity cap) then
    moves by at most a sixteenth of one step's growth with the step grid.
    A state of Fourier coefficients at wavenumbers `filter_k` (None:
    physical space) is multiplied after each step of length dt by
    exp(-filter_strength dt (k / kmax)^16), a damping rate per unit time at
    the top mode, so the step leaves the filtered dynamics unchanged; its
    order is 8.
    """
    n = grid.n
    n_int = max(1, cfg.sample_count - 1)
    profile = None
    if filter_k is not None and cfg.filter_strength > 0:
        profile = (np.abs(filter_k) / np.max(np.abs(filter_k))) ** 16

    # the stages k1..k4 outlive the step, each replaced by the next step's:
    # dropping three of them at every step's end lets malloc return the top
    # of the heap and fault it back in on the next step (the linearized runs
    # of the `free` benchmark on a 2-core Xeon: 9,000 page faults per pass
    # against 1,600, and about 20% slower)
    stages = [None] * 4

    def advance(t, state, dt):      # one filtered step; stages[0] = rhs(t, values(state))
        k1 = stages[0]
        stages[1] = k2 = rhs(t + dt / 2, values(state + dt / 2 * k1))
        stages[2] = k3 = rhs(t + dt / 2, values(state + dt / 2 * k2))
        stages[3] = k4 = rhs(t + dt, values(state + dt * k3))
        state = state + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        if profile is not None:
            state *= np.exp(-cfg.filter_strength * dt * profile)
        return state, values(state)

    w = values(state)
    times = [0.0]
    states = [w[0].copy()] if store_states else []
    if observer is not None:
        observer(0.0, w[0])
    breakdown = None
    t = 0.0
    for t_end in (cfg.t_final * np.arange(1, n_int + 1) / n_int).tolist():
        steps = 0           # no split of this interval yet
        while breakdown is None and t != t_end:
            stages[0] = rhs(t, w)
            target = cfg.dt if step_bound is None else step_bound()
            if not steps or target < dt:
                base, taken = t, 0
                steps = max(1, math.ceil((t_end - t) / target))
                dt = (t_end - t) / steps
            new, w_new = advance(t, state, dt)
            taken += 1
            t_new = t_end if taken == steps else base + taken * dt
            reason = check(w_new[0], new)
            if reason not in (None, "nan"):
                length = dt
                for _ in range(4):          # the first breakdown state, to dt / 16
                    length /= 2
                    mid, w_mid = advance(t, state, length)
                    verdict = check(w_mid[0], mid)
                    if verdict is None:
                        t, state, w = t + length, mid, w_mid
                        stages[0] = rhs(t, w)
                    else:
                        t_new, new, w_new, reason = t + length, mid, w_mid, verdict
            if reason is not None:
                breakdown = BreakdownInfo(t_new, reason)
            t, state, w = t_new, new, w_new
        times.append(t)
        if store_states:
            states.append(w[0].copy())
        if observer is not None and np.all(np.isfinite(w[0])):
            observer(t, w[0])
        if breakdown is not None:
            break
    return Trajectory(np.asarray(times),
                      np.asarray(states) if store_states else np.zeros((0, state.shape[0], n)),
                      breakdown)


def evolve(sys: SystemSpec, u0: GridFunction, cfg: SolverConfig,
           observer: Callable | None = None,
           store_states: bool = True) -> Trajectory:
    """Nonlinear evolution d_t u + A(u) d_x u = F(u) (one space dimension).

    The state is the rfft of the (N, n) field.  The nonlinear term is dealiased
    by the 2/3 rule; the state is filtered each step and checked by
    `breakdown_detector`.  `observer(t, values)` gets the (N, n) field,
    letting callers record reduced observables without storing full snapshots.

    Each step's target is max(cfg.dt, (2/3) cfg.dt cfg.max_speed / s(u)) for
    the field u it steps, s(u) = 1.2 max_x ||A(u(x))||_inf: the row-sum norm
    bounds the spectral radius, and it is read off the A(u) that the step's
    first stage builds.  That is a CFL number dt s n / length of 2/3 of the
    configured one (0.3 dt_safety in the instability experiment) while it
    allows a step longer than cfg.dt.  The source does not enter the step.
    """
    if sys.space_dim != 1:
        raise ValueError("evolve supports one space dimension")
    grid = u0.grid
    n = grid.n
    if n != cfg.n:
        raise ValueError("grid/config node count mismatch")
    xs = grid.nodes
    k = 2.0 * np.pi * np.fft.rfftfreq(n, d=cfg.length / n)
    ik = 1j * k
    deal = np.arange(k.size) <= n // 3
    flux = sys.fluxes_vec[0]
    src = sys.source_vec
    k2, tail = _tail_weights(n)
    vh0 = np.fft.rfft(np.real(u0.values).T, axis=-1)
    stack = np.empty((2,) + vh0.shape, dtype=complex)
    a = None            # the flux of the latest stage, (N, N, n)

    def values(vh):     # the field and its derivative from one transform
        stack[0] = vh
        np.multiply(ik, vh, out=stack[1])
        return np.fft.irfft(stack, n=n, axis=-1)

    def rhs(t, w):
        nonlocal a
        v, vx = w
        a = np.ascontiguousarray(flux(t, xs, v.T).transpose(1, 2, 0))
        out = src(t, xs, v.T).T - np.einsum("ijx,jx->ix", a, vx)
        return np.fft.rfft(out, axis=-1) * deal

    def step_bound():
        s = 1.2 * float(np.max(np.sum(np.abs(a), axis=1)))
        return cfg.dt * max(1.0, (2.0 / 3.0) * cfg.max_speed / s) if s > 0 else math.inf

    return _march(rhs, vh0, grid, cfg, values, k,
                  lambda v, vh: breakdown_detector(v, vh, cfg, k2, tail),
                  observer, store_states, step_bound)


def evolve_linearized(gen: Callable, v0: GridFunction, cfg: SolverConfig) -> Trajectory:
    """Linearized evolution d_t v + G(t) d_x v = 0 on v0's grid, where
    gen(t) -> (N, N, n) is the generator G sampled on that grid's nodes.

    There is no filter (cfg.filter_strength must be 0); a non-finite state
    stops the run as a "nan" breakdown.
    """
    if cfg.filter_strength > 0:
        raise ValueError(f"no filter here: filter_strength = {cfg.filter_strength:g}")
    grid = v0.grid
    ik = 1j * grid.freqs

    def rhs(t, ws):
        (w,) = ws
        wx = np.fft.ifft(ik * np.fft.fft(w, axis=-1), axis=-1)
        return -np.einsum("ijx,jx->ix", gen(t), wx)

    return _march(rhs, v0.values.T.astype(complex).copy(), grid, cfg,
                  lambda w: (w,), None,
                  lambda w, _: None if np.all(np.isfinite(w)) else "nan",
                  None, True, None)


# ---------------------------------------------------------------------------
# Hadamard instability experiment
# ---------------------------------------------------------------------------

@dataclass
class HadamardParams:
    """Amplitude exponent K, Hoelder exponent alpha, Sobolev index m, ball
    radius delta, observation scale T_star, spatial scale h, and the lower
    growth rate used in the T_star gate.  Construction enforces the admissible
    range of every paper-constrained inequality, in space dimension d = 1."""

    K: float
    alpha: float
    m: float
    delta: float
    T_star: float
    h: float
    gamma_minus: float

    def __post_init__(self):
        if not (0.5 < self.alpha <= 1.0):
            raise ValueError("alpha must lie in (1/2, 1]")
        lhs = (2 * self.alpha - 1) * self.K
        rhs = 2 * self.alpha * self.m + (1 - self.alpha) * (1 - self.h)
        if not lhs > rhs:
            raise ValueError(
                f"amplitude gate violated: (2a-1)K = {lhs:.3f} must exceed "
                f"2am + (1-a)(1-h) = {rhs:.3f}")
        if not 2 * self.K_prime > self.K:
            raise ValueError(f"derived exponent gate violated: 2K' = "
                             f"{2 * self.K_prime:.3f} must exceed K = {self.K:.3f}")
        if not self.gamma_minus * self.T_star > self.K:
            raise ValueError(
                f"observation-time gate violated: gamma- * T_star = "
                f"{self.gamma_minus * self.T_star:.3f} must exceed K = {self.K:.3f}")

    @property
    def K_prime(self) -> float:
        return self.alpha * (self.K - self.m) - (1 - self.alpha) * (1 - self.h) / 2.0

    @property
    def ell(self) -> float:
        return 1.0 / self.h - 1.0

    def T_eps(self, eps: float) -> float:
        return (self.T_star * abs(math.log(eps))) ** (1.0 / (1.0 + self.ell))


@dataclass
class HadamardRow:
    eps: float
    T_eps: float
    t_final: float
    numerator: float
    denominator: float
    ratio: float
    growth_exponent_fit: float
    predicted_gamma: float
    breakdown_time: float | None
    breakdown_reason: str | None
    n_nodes: int

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass
class HadamardReport:
    rows: list
    metadata: dict

    def to_json(self) -> str:
        return json.dumps({"metadata": self.metadata,
                           "rows": [r.as_dict() for r in self.rows]},
                          sort_keys=True, default=str)


def _wrap_dist(x: np.ndarray, x0: float, length: float) -> np.ndarray:
    d = np.abs((x - x0 + length / 2.0) % length - length / 2.0)
    return d


def w1inf_ball(values: np.ndarray, ik: np.ndarray, ball: np.ndarray) -> float:
    """W^{1,inf} norm of (N, n) values on the nodes where `ball` is true, first
    derivative spectral: `ik` is i times the grid's angular frequencies."""
    if not np.any(ball):
        raise ValueError("observation ball contains no grid node")
    vh = np.fft.fft(values, axis=-1)
    vx = np.fft.ifft(ik * vh, axis=-1)
    return float(np.max(np.abs(values[:, ball])) + np.max(np.abs(vx[:, ball])))


def _fit_growth_exponent(times, amps, ell, eps, cap):
    """Slope of log(amp) against t^(1+ell)/eps over the linear-growth window
    (above the packet's own scale, below the onset of nonlinear steepening)."""
    times = np.asarray(times)
    amps = np.asarray(amps)
    a0 = amps[0]
    lo, hi = 5.0 * a0, 1e-3 * cap
    mask = (amps > lo) & (amps < hi) & (times > 0)
    if np.sum(mask) < 3:
        mask = (amps > 2.0 * a0) & (times > 0)
    if np.sum(mask) < 2:
        return np.nan
    xvar = times[mask] ** (1.0 + ell) / eps
    return float(np.polyfit(xvar, np.log(amps[mask]), 1)[0])


def _packet_direction(sys: SystemSpec, e_vec) -> np.ndarray:
    """The packet's polarization; None is the first unit vector of the state."""
    e_vec = np.eye(sys.state_dim)[0] if e_vec is None else e_vec
    if len(e_vec) != sys.state_dim:
        raise ValueError(f"e_vec has {len(e_vec)} components but system {sys.name!r} "
                         f"has state dimension {sys.state_dim}")
    return np.asarray(e_vec, dtype=complex)


class BoxLengthError(ValueError):
    """The periodic box is not a period of the reference state."""


def _check_period(phi, x0: float, length: float) -> None:
    """Refuse a box whose two ends see different phi(0): the datum would jump there."""
    ends = np.array([phi(0.0, [x0 + s * length / 2.0]) for s in (-1.0, 1.0)], dtype=float)
    if not np.allclose(ends[0], ends[1], rtol=1e-8, atol=1e-8):
        raise BoxLengthError(f"box length {length:.17g} is not a period of the reference: "
                             f"phi(0) is {ends[0]} and {ends[1]} at its two ends")


def run_instability_experiment(sys: SystemSpec, phi, classification,
                               params: HadamardParams, ladder: Sequence[float],
                               *, xi0: float = 1.0, x0: float = 0.0,
                               e_vec=None, phi_traj_vec: Callable | None = None,
                               length: float = 2.0 * np.pi, control: bool = False,
                               filter_strength: float = 1e4,
                               linf_cap: float | None = None, dt_safety: float = 1.0,
                               dump_dir: str | None = None) -> HadamardReport:
    """Wave-packet instability experiment across an eps ladder.

    Builds the datum phi(0) + packet along `e_vec` (default: the first unit
    vector), evolves to eps^h T(eps), and reports the Hoelder ratio, the fitted
    packet growth exponent, and breakdowns (which count as instability
    findings, not failures).  The box must be a period of phi(0), else
    BoxLengthError.  Without `phi_traj_vec`, phi is evolved on the grid, and
    an observation past that reference run's breakdown is a RuntimeError.
    `control=True` runs a stable system through the identical pipeline,
    borrowing the scales in `params`.  The grid has the
    fewest nodes, an even 2^a 3^b 5^c count (at least 16), that give the
    carrier at least 8 nodes per oscillation and the observation ball at least
    16 nodes; the filter has order 8, and the observer samples at the 60
    times j t_final / 59 and at the breakdown.  The configured step
    dt_safety * 0.45 length / (n speed), speed = 1.2 (max|phi0| + 1 + cap),
    is safe for every field below the cap; `evolve` steps longer while the
    field allows, at a CFL number of 0.3 dt_safety against its own flux.
    The ratio at an L-infinity-cap stop is read at the first state past the
    cap, located to a sixteenth of a step, so it is set only to within that
    much of one step's growth past the cap.  The run draws no random
    numbers, so it needs no seed.
    """
    if not control and classification is not None and \
            classification.regime in (PERSISTENT, INDETERMINATE):
        raise ValueError(f"no instability experiment in regime {classification.regime}")
    e_vec = _packet_direction(sys, e_vec)
    _check_period(phi, x0, length)
    h = params.h
    ell = params.ell
    gamma = params.gamma_minus
    rows = []
    for eps in ladder:
        k0 = max(1, int(round(xi0 / eps * length / (2.0 * np.pi))))
        radius = eps ** (1.0 - h) * params.delta
        n = _fast_grid_len(max(16, 8 * k0, math.ceil(8.0 * length / radius)))
        grid = Grid1D(n, length, x_left=x0 - length / 2.0)
        xs = grid.nodes
        if phi_traj_vec is not None:
            phi0 = np.asarray(phi_traj_vec(0.0, xs)).T
        else:
            phi0 = np.stack([np.asarray(phi(0.0, [x]), dtype=float) for x in xs]).T
        spec = WavePacketSpec(K=params.K, xi0=xi0, x0=x0, eps=eps, h=h,
                              delta=params.delta, e_vec=e_vec)
        packet = build_wavepacket(spec, grid, frame="original")
        u0 = GridFunction(grid, (phi0.T + np.real(packet.values)))
        lam_scale = float(np.max(np.abs(phi0)) + 1.0)
        cap = linf_cap if linf_cap is not None else 2.0 * lam_scale
        # spectral radius of A(u) stays below ~sqrt(N) max|u|; fields are
        # capped at `cap`, so this covers the run up to the breakdown stop
        speed = 1.2 * (lam_scale + cap)
        t_final = eps ** h * params.T_eps(eps)
        dt_nominal = 0.45 * length / (n * speed)
        dt = dt_safety * dt_nominal
        # filter_strength is quoted per nominal step; SolverConfig wants a rate
        cfg = SolverConfig(n=n, dt=dt, t_final=t_final, max_speed=speed,
                           length=length, filter_strength=filter_strength / dt_nominal,
                           linf_cap=cap)
        if phi_traj_vec is not None:
            def phi_at(t):
                return np.asarray(phi_traj_vec(t, xs)).T
        else:
            phi_traj = evolve(sys, GridFunction(grid, phi0.T), cfg)

            def phi_at(t):
                stop = phi_traj.breakdown
                if stop is not None and t > stop.time:
                    raise RuntimeError(f"the reference run broke down ({stop.reason}) at "
                                       f"t = {stop.time:.6g}, before t = {t:.6g}")
                idx = int(np.argmin(np.abs(phi_traj.times - t)))
                return phi_traj.states[idx]

        obs_times, ball_norms, amps = [], [], []
        last_state = {}
        ik = 1j * grid.freqs
        ball = _wrap_dist(xs, x0, length) <= radius

        def observer(t, vals):
            diff = vals - phi_at(t)
            obs_times.append(t)
            ball_norms.append(w1inf_ball(diff, ik, ball))
            amps.append(float(np.max(np.abs(diff[:, ball]))))
            if dump_dir is not None:
                last_state["t"] = t
                last_state["vals"] = vals.copy()

        traj = evolve(sys, u0, cfg, observer=observer, store_states=False)
        if dump_dir is not None:
            from .semiclassical import save_grid_function
            import os as _os
            _os.makedirs(dump_dir, exist_ok=True)
            tag = f"{sys.name}_eps{eps:g}"
            save_grid_function(u0, _os.path.join(dump_dir, f"{tag}_t0.hypgrid"))
            save_grid_function(GridFunction(grid, last_state["vals"].T),
                               _os.path.join(dump_dir, f"{tag}_final.hypgrid"))
        den = sobolev_norm(GridFunction(grid, np.real(packet.values)),
                           params.m) ** params.alpha
        num = float(np.max(ball_norms))
        gfit = _fit_growth_exponent(obs_times, amps, ell, eps, cap)
        rows.append(HadamardRow(
            eps, params.T_eps(eps), float(traj.times[-1]), num, den,
            num / den if den > 0 else np.inf, gfit, gamma,
            traj.breakdown.time if traj.breakdown else None,
            traj.breakdown.reason if traj.breakdown else None, n))
    meta = {
        "system": sys.name, "control": control, "xi0": xi0, "x0": x0,
        "K": params.K, "alpha": params.alpha, "m": params.m,
        "delta": params.delta, "T_star": params.T_star, "h": h,
        "gamma_minus": gamma, "filter_strength": filter_strength,
        "filter_order": 8, "nodes_per_osc": 8, "length": length,
    }
    return HadamardReport(rows, meta)


# ---------------------------------------------------------------------------
# free-solution comparison (quantized symbolic flow vs direct evolution)
# ---------------------------------------------------------------------------

class _ModeGenerator:
    """Generators scale[k] * a(x) of the per-mode flows; `@` applies them to
    an (nc, N, modes) stack of mode vectors without forming one matrix per
    mode."""

    def __init__(self, scale: np.ndarray, a: np.ndarray):
        self.scale = scale          # (modes,)
        self.a = a                  # (nc, N, N)

    def __matmul__(self, s: np.ndarray) -> np.ndarray:
        out = self.a @ s
        out *= self.scale       # in place: a second temporary made this 4x slower
        return out


def _frozen_synthesis(lam: np.ndarray, vecs: np.ndarray, uh: np.ndarray, ks: np.ndarray,
                      grid: Grid1D, scale: complex) -> np.ndarray:
    """Kohn-Nirenberg sum sum_k exp(scale xi_k a0(x)) u^_k exp(i xi_k (x - x_left)) / n
    over the FFT indices `ks`, for u^ (n, N) and a0 (n, N, N) given by its
    decomposition lam, vecs = np.linalg.eig(a0); returns (N, n).  A complex
    `lam` is overwritten.

    With a0 = V diag(lambda) V^-1 and xi_k = (2 pi / L) m_k, mode k carries
    exp(m_k sigma_j) omega^m_k at node p in eigen-coordinate j, where
    sigma_j = (2 pi / L) scale lambda_j and omega = exp(2 pi i p / n).  Split
    sigma_j into its midrange sigma0_j over the grid (real and imaginary
    parts apart) and delta_j = sigma_j - sigma0_j, and the integer range of
    the modes into contiguous blocks, all but the last of equal length, with
    centres m_b and half-widths h_b <= h, cut so that h max|delta| <= 1.  With
    mu = (m - m_b) / h, a block sums to

        exp(m_b delta_j) sum_q (h delta_j)^q IFFT_m[c_{m,l} exp(m sigma0_j) mu^q / q!],

    whose terms fall at least like 1/q!: one series over the whole mode
    range would have terms far larger than its sum, which cancel.  A block's
    series stops at the first Q with (h_b max|delta|)^Q / Q! <= 1e-17 and is
    summed by nested multiplication from q = Q - 1 down, so the cost is Q
    inverse FFTs of N^2 length-n rows per block: it follows the spread of the
    exponent over the grid, not the number of modes.  A non-finite sum
    raises RuntimeError.
    """
    n = grid.n
    vinv = np.linalg.inv(vecs).transpose(1, 2, 0)                       # (N, N, n)
    ms = (ks + n // 2) % n - n // 2                                     # signed FFT index
    m_lo = int(ms.min())
    coef = np.zeros((uh.shape[1], int(ms.max()) - m_lo + 1), dtype=complex)
    coef[:, ms - m_lo] = uh[ks].T                                       # (N, modes), absent ones zero
    # sigma overwrites the (complex) eigenvalues, delta overwrites sigma, and
    # u = h delta overwrites delta: with the spectrum, its transform and the
    # block's sum, each (N, N, n), this sets the peak memory of
    # free_solution_compare
    u = lam.T.astype(complex, copy=False)
    u *= (2.0 * np.pi / grid.length) * scale
    mid = 0.5 * (u.real.max(axis=1) + u.real.min(axis=1)
                 + 1j * (u.imag.max(axis=1) + u.imag.min(axis=1)))      # sigma0 (N,)
    u -= mid[:, None]
    spread = float(np.max(np.abs(u)))                                   # max|delta|
    size = -(-coef.shape[1] // max(1, math.ceil((coef.shape[1] - 1) * spread / 2.0)))
    h = max(0.5 * (size - 1), 0.5)          # a block of one mode has half-width 0
    u *= h
    nodes = np.arange(n)
    spec = np.zeros(vinv.shape, dtype=complex)
    block = np.empty_like(spec)
    total = np.zeros(u.shape, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, coef.shape[1], size):
            m = m_lo + start + np.arange(min(size, coef.shape[1] - start))
            half = 0.5 * (m[-1] - m[0])
            n_terms, term = 1, half * spread
            while term > 1e-17:
                n_terms += 1
                term *= half * spread / n_terms
            taylor = np.ones((n_terms, m.size))     # mu^q / q!
            np.cumprod(np.multiply.outer(1.0 / np.arange(1, n_terms), (m - m[0] - half) / h),
                       axis=0, out=taylor[1:])
            c = np.exp(np.multiply.outer(mid, m))[:, None, :] * coef[:, start:start + m.size]
            block.fill(0.0)
            for row in taylor[::-1]:
                block *= u[:, None, :]
                np.multiply(c, row, out=spec[..., :m.size])
                block += np.fft.ifft(spec, axis=-1)
            spec[..., :m.size] = 0.0
            # slot 0 of the block's spectrum holds wavenumber m[0]: shift it there
            shift = (2j * np.pi / n) * (m[0] * nodes % n)
            total += np.exp(((m[0] + half) / h) * u + shift) * np.einsum("jlx,jlx->jx", vinv, block)
        out = np.einsum("xij,jx->ix", vecs, total)
    if not np.all(np.isfinite(out)):
        raise RuntimeError("frozen synthesis overflowed: the flow grows past "
                           "floating point over the selected modes")
    return out


def _stepped_synthesis(a1: Callable, uh: np.ndarray, ks: np.ndarray, grid: Grid1D,
                       pref: complex, t_end: float) -> np.ndarray:
    """Kohn-Nirenberg sum sum_k S_k(x) u^_k exp(i xi_k (x - x_left)) / n over the
    FFT indices `ks`, where S_k solves S' = -pref xi_k a1(t, x) S from S = Id
    at t = 0 to t_end, for a1(t, xs) -> (len(xs), N, N) and u^ (n, N); returns
    (N, n).

    The vectors S_k u^_k of all modes are stepped together by `_adaptive_rk4`
    (rtol 1e-9, no step cap) on min(128, n) coarse nodes.  Their trigonometric
    interpolant enters the sum through its spectrum: coarse wavenumber m of
    mode k lands on grid wavenumber m + k (mod n), and one inverse FFT sums
    every mode.
    """
    nc = min(128, grid.n)
    xc = Grid1D(nc, grid.length, x_left=grid.x_left).nodes
    scale = -pref * grid.freqs[ks]                                      # S' = scale a1 S
    s = np.ascontiguousarray(np.broadcast_to(
        uh[ks].T, (nc, uh.shape[1], ks.size)), dtype=complex)          # (nc, N, modes)
    s, _, _ = _adaptive_rk4(lambda t: _ModeGenerator(scale, a1(t, xc)), s, 0.0, t_end,
                            1e-9, t_end, 1e-12, lambda *step: None)
    sh = np.fft.fft(s, axis=0)
    sh[nc // 2] *= 0.5          # the Nyquist coefficient, split between -nc/2 and nc/2
    sh = np.concatenate([sh, sh[nc // 2:nc // 2 + 1]])
    m = np.append(np.fft.fftfreq(nc, 1.0 / nc).astype(int), nc // 2)
    spec = np.zeros((grid.n, uh.shape[1]), dtype=complex)
    np.add.at(spec, (m[:, None] + ks) % grid.n, sh.transpose(0, 2, 1))
    return np.fft.ifft(spec, axis=0).T / nc


@dataclass
class FreeSolutionReport:
    eps: float
    rel_error: float
    n_nodes: int
    n_modes: int


def free_solution_compare(sys: SystemSpec, phi, eps: float, classification,
                          t_end: float, *, phi_vec: Callable, e_vec=None,
                          dt_safety: float = 0.25,
                          sign: float = 1.0) -> FreeSolutionReport:
    """Relative error between the linearized evolution of a wave packet and the
    action of the quantized symbolic flow op_eps(S(0;t_end)) on the datum.

    Elliptic frame (ell = 0) on the periodic box [-pi, pi): the packet has
    carrier xi0 = 1 and a cutoff of radius 1 about x0 = 0, and the advected
    symbol is A(eps t, x, xi) with Q = Id, mu = 0.  The grid has the fewest
    nodes, an even 2^a 3^b 5^c count (at least 64), that give the carrier at
    least 8 nodes per oscillation.  `sign=-1` deliberately integrates the
    flow of -A* as a detection sanity check.  The reference solution is
    sampled only through phi_vec(t, xs) -> (n, N); `phi` is not read.
    """
    if classification is not None and classification.ell not in (0.0, None):
        raise NotImplementedError("free-solution comparison implemented for the elliptic frame")
    e_vec = _packet_direction(sys, e_vec)
    h = 1.0
    length = 2.0 * np.pi
    k0 = max(1, int(round(1.0 / eps ** h)))
    n = _fast_grid_len(max(64, 8 * k0))
    grid = Grid1D(n, length, x_left=-length / 2.0)
    spec = WavePacketSpec(K=0.0, xi0=1.0, x0=0.0, eps=eps, h=h, e_vec=e_vec)
    v0 = build_wavepacket(spec, grid, frame="rescaled")

    flux = sys.fluxes_vec[0]
    xs = grid.nodes
    tau_end = eps ** h * t_end

    def a1(tau, x):
        return flux(tau, x, phi_vec(tau, x))

    # A1 on the grid at 0, 0.37, 0.81 and 1 x tau_end: the frozen test, and
    # the step size, which takes the largest speed among these samples so a
    # flux that grows in time does not under-resolve the run (a non-finite
    # sample is left to the linearized run, which stops on it; a frozen
    # symbol is finite, as a non-finite sample fails the test)
    samples = [a1(f * tau_end, xs) for f in (0.0, 0.37, 0.81, 1.0)]    # (n, N, N) each
    a0 = samples[0]
    frozen = all(np.max(np.abs(a - a0)) < 1e-13 * max(1.0, np.max(np.abs(a0)))
                 for a in samples[1:])
    if frozen:
        lam, vecs = np.linalg.eig(a0)                   # (n, N), (n, N, N)
        amax = float(np.max(np.abs(lam)))
        g0 = np.ascontiguousarray(a0.transpose(1, 2, 0))
        gen = lambda t: g0
    else:
        amax = max((float(np.max(np.abs(np.linalg.eigvals(a)))) for a in samples
                    if np.all(np.isfinite(a))), default=0.0)
        gen = lambda t: np.ascontiguousarray(a1(t, xs).transpose(1, 2, 0))

    # direct linearized run, original time to eps^h * t_end (h = 1: G = A1)
    speed = eps ** (h - 1.0) * 1.2 * (amax + 0.1)
    dt = dt_safety * 0.5 * length / (n * speed)
    cfg = SolverConfig(n=n, dt=dt, t_final=tau_end, max_speed=speed,
                       length=length, filter_strength=0.0, sample_count=2)
    traj = evolve_linearized(gen, v0, cfg=cfg)
    if traj.breakdown is not None:
        raise RuntimeError(f"linearized run broke down ({traj.breakdown.reason}) "
                           f"at t = {traj.breakdown.time:.6g}")
    v_lin = traj.final                      # (N, n) complex

    # symbolic-flow side, applied to the datum mode by mode: the generator of
    # mode k is i eps^(h-1) A(eps t, x, eps^h xi_k) = i eps^(2h-1) xi_k
    # A1(eps t, x) by 1-homogeneity, and the Kohn-Nirenberg sum is
    # sum_k S_k(x) u^_k exp(i xi_k (x - x_left)) / n.
    uh = v0.hat()
    mags = np.max(np.abs(uh), axis=1)
    ks = np.nonzero(mags > 1e-12 * np.max(mags))[0]
    pref = sign * 1j * eps ** (2.0 * h - 1.0)
    if frozen:
        out = _frozen_synthesis(lam, vecs, uh, ks, grid, -pref * t_end)
    else:
        out = _stepped_synthesis(lambda t, x: a1(eps * t, x), uh, ks, grid, pref, t_end)

    err = np.linalg.norm(v_lin - out) / np.linalg.norm(v_lin)
    return FreeSolutionReport(eps, float(err), n, ks.size)
