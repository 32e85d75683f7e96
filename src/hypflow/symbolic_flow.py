"""Symbolic flow dS/dt + i eps^(h-1) A* S = 0 at a fixed phase-space label.

Provides the building blocks of the growth-envelope verification: the 2x2
reduction of the coalescing pair, assembly of the rescaled advected symbol A*
at the label (x, xi), matrix flow integration with flow and Liouville
diagnostics by the adaptive RK4 stepper that every symbolic flow shares, and
the upper/lower envelope bound reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
import scipy.linalg

from .branching import GrowthEnvelope, eval_growth
from .classifier import scales_for_ell


@dataclass
class FlowConfig:
    """Scales and integrator knobs for one flow run.

    T(eps) obeys T^{ell+1} = T_star |log eps|.  `max_step` caps the adaptive
    step; the local error test is relative (`rtol`) plus an absolute 1e-13.
    """

    eps: float
    ell: float
    T_star: float
    max_step: float
    rtol: float = 1e-8
    min_step: float = 1e-12

    def __post_init__(self):
        if not (0 < self.eps < 1):
            raise ValueError("eps must lie in (0,1)")
        self.h, self.zeta = scales_for_ell(self.ell)
        if not (0 < self.h <= 1 and 0 <= self.zeta < self.h):
            raise ValueError("invalid scales")

    @property
    def T_eps(self) -> float:
        return (self.T_star * abs(math.log(self.eps))) ** (1.0 / (1.0 + self.ell))


# ---------------------------------------------------------------------------
# 2x2 reduction of the coalescing pair
# ---------------------------------------------------------------------------

_SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])


def _companion_transform(b0: np.ndarray, tol: float) -> np.ndarray:
    """Q0 with Q0 B0 Q0^-1 = [[0,1],[s,0]]; s = -det B0 = -(lam+ lam-)."""
    if max(abs(b0[1, 0]), abs(b0[0, 1])) < tol:
        raise ValueError("both off-diagonal entries vanish: the pair's spectrum "
                         "is smooth in time, no branching block exists")
    v = np.array([1.0, 0.0], dtype=complex) if abs(b0[1, 0]) >= abs(b0[0, 1]) \
        else np.array([0.0, 1.0], dtype=complex)
    tmat = np.column_stack([v, b0 @ v])
    return np.linalg.inv(tmat @ _SWAP)


def block_reduce_2x2(a: np.ndarray, mu: float):
    """Split off the coalescing pair of `a` near eigenvalue mu.

    Returns (Q, A0, A1) with Q (A - mu) Q^-1 = diag(A0, A1), where the 2x2
    block A0 is in companion form [[0,1],[s,0]].  The pair subspace is the
    invariant subspace of the two eigenvalues closest to mu, obtained from an
    ordered Schur form plus a Sylvester decoupling.
    """
    a = np.asarray(a, dtype=complex)
    n = a.shape[0]
    b = a - mu * np.eye(n)
    tol = 1e-9
    scale = max(1.0, float(np.max(np.abs(a))))
    if n == 2:
        q0 = _companion_transform(b, tol * scale)
        a0 = q0 @ b @ np.linalg.inv(q0)
        return q0, a0, np.zeros((0, 0), dtype=complex)
    vals = np.linalg.eigvals(b)
    order = np.argsort(np.abs(vals))
    if n > 3:
        r2, r3 = np.abs(vals[order[1]]), np.abs(vals[order[2]])
        thresh = 0.5 * (r2 + r3)
        if r3 - r2 <= tol * scale:
            raise ValueError("coalescing pair is not separated from the rest of the spectrum")
    else:
        thresh = 0.5 * (np.abs(vals[order[1]]) + np.abs(vals[order[2]]))
    t, z, sdim = scipy.linalg.schur(b, output="complex",
                                    sort=lambda lam: abs(lam) < thresh)
    if sdim != 2:
        raise ValueError(f"expected a pair cluster, Schur sort selected {sdim} eigenvalues")
    t11, t12, t22 = t[:2, :2], t[:2, 2:], t[2:, 2:]
    r = scipy.linalg.solve_sylvester(t11, -t22, -t12)
    v = np.eye(n, dtype=complex)
    v[:2, 2:] = r
    w = z @ v                       # b = w diag(t11, t22) w^-1
    q_pre = np.linalg.inv(w)
    q0 = _companion_transform(t11, tol * scale)
    q = np.eye(n, dtype=complex)
    q[:2, :2] = q0
    q = q @ q_pre
    a0 = q0 @ t11 @ np.linalg.inv(q0)
    return q, a0, t22


def assemble_A_star(field, Q, mu, eps: float, t: float, x, xi,
                    x0, ell: float) -> np.ndarray:
    """Rescaled advected symbol (Q (A - mu) Q^-1) at
    (eps^h t, x0 + eps^(1-h) x, xi), the label (x, xi) held fixed.

    Q and mu are callables of (t, x, xi) (or None / 0 for the elliptic case,
    where the expression collapses to A(eps t, x0 + x, xi)).
    """
    h, _ = scales_for_ell(ell)
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    ts = eps ** h * t
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    xis = np.atleast_1d(np.asarray(xi, dtype=float))
    xpt = x0 + eps ** (1.0 - h) * xs
    a = field.symbol(ts, xpt, xis).astype(complex)
    n = a.shape[0]
    if mu is not None:
        muv = mu(ts, xpt, xis) if callable(mu) else float(mu)
        a = a - muv * np.eye(n)
    if Q is not None:
        qv = Q(ts, xpt, xis) if callable(Q) else np.asarray(Q, dtype=complex)
        if abs(np.linalg.det(qv)) < 1e-14:
            raise ValueError("change of basis Q is singular at the evaluation point")
        a = qv @ a @ np.linalg.inv(qv)
    return a


def make_a_star_sampler(field, eps: float, ell: float, x0, x, xi,
                        Q=None, mu=None) -> Callable:
    """Bind assemble_A_star to a (x, xi) label; returns t -> N x N complex."""

    def sampler(t: float) -> np.ndarray:
        return assemble_A_star(field, Q, mu, eps, t, x, xi, x0, ell)

    return sampler


# ---------------------------------------------------------------------------
# Flow integration
# ---------------------------------------------------------------------------

@dataclass
class SymbolicFlowResult:
    times: np.ndarray
    samples: np.ndarray          # (m, N, N), S(tau; times[k])
    tau: float
    eps: float
    zeta: float
    liouville_residual: float
    flow_residual: float
    n_steps: int
    n_rejected: int

    @property
    def final(self) -> np.ndarray:
        return self.samples[-1]


def _rk4(s: np.ndarray, k1: np.ndarray, dt: float, gm, g1) -> np.ndarray:
    """One RK4 step of S' = M S from the first slope k1 = M0 s and the
    generator samples at t + dt/2 and t + dt.

    s + dt/6 (k1 + 2 k2 + 2 k3 + k4) with k2 = Mm (s + dt/2 k1),
    k3 = Mm (s + dt/2 k2), k4 = M1 (s + dt k3), evaluated in place in that
    association order, so the result is bit-identical to the expression.
    Each stage's argument goes to one buffer and its slope into the running
    sum, and each slope is dropped before the next product is made, so the
    allocator hands its memory straight back instead of faulting in fresh
    pages.  The ufuncs take `out` positionally (the keyword form is slower on
    small matrix flows), and a slope is doubled by adding it to itself,
    exact like the product by 2 but with no scalar to convert.  Neither `s`
    nor `k1` is modified.
    """
    arg = np.multiply(0.5 * dt, k1)
    arg += s
    acc = gm @ arg                              # k2
    np.multiply(0.5 * dt, acc, arg)
    arg += s
    acc += acc                                  # 2 k2, exactly
    acc += k1
    k = gm @ arg                                # k3
    np.multiply(dt, k, arg)
    arg += s
    k += k
    acc += k
    del k
    k = g1 @ arg                                # k4
    del arg
    acc += k
    del k
    np.multiply(dt / 6.0, acc, acc)
    acc += s
    return acc


def _attempt(s: np.ndarray, dt: float, g0, gq, gm, g3, g1):
    """One attempted step of `_adaptive_rk4` on an array state: a full RK4
    step against two half steps, the first two sharing their first slope, so
    the attempt makes 11 generator products.  Returns (s_two + (s_two -
    s_one) / 15, max|s_two - s_one| / scale, scale), scale = max(1, max|s_two|).
    """
    k1 = g0 @ s
    s_one = _rk4(s, k1, dt, gm, g1)
    sh = _rk4(s, k1, 0.5 * dt, gq, gm)
    del k1
    s_two = _rk4(sh, gm @ sh, 0.5 * dt, g3, g1)
    del sh
    diff = s_two - s_one
    del s_one
    scale = max(1.0, float(np.abs(s_two).max()))
    err = float(np.abs(diff).max()) / scale
    diff /= 15.0
    return np.add(s_two, diff, out=diff), err, scale


def _rk4_2x2(s, k, dt: float, gm, g1):
    """`_rk4` on a 2x2 state, slope and generators, each held as four complex
    scalars row by row, in the same association order."""
    s0, s1, s2, s3 = s
    k0, k1, k2, k3 = k
    m0, m1, m2, m3 = gm
    h = 0.5 * dt
    a0, a1, a2, a3 = h * k0 + s0, h * k1 + s1, h * k2 + s2, h * k3 + s3
    b0, b1, b2, b3 = (m0 * a0 + m1 * a2, m0 * a1 + m1 * a3,             # k2
                      m2 * a0 + m3 * a2, m2 * a1 + m3 * a3)
    a0, a1, a2, a3 = h * b0 + s0, h * b1 + s1, h * b2 + s2, h * b3 + s3
    c0, c1, c2, c3 = b0 + b0 + k0, b1 + b1 + k1, b2 + b2 + k2, b3 + b3 + k3
    b0, b1, b2, b3 = (m0 * a0 + m1 * a2, m0 * a1 + m1 * a3,             # k3
                      m2 * a0 + m3 * a2, m2 * a1 + m3 * a3)
    a0, a1, a2, a3 = dt * b0 + s0, dt * b1 + s1, dt * b2 + s2, dt * b3 + s3
    c0, c1, c2, c3 = c0 + (b0 + b0), c1 + (b1 + b1), c2 + (b2 + b2), c3 + (b3 + b3)
    m0, m1, m2, m3 = g1
    b0, b1, b2, b3 = (m0 * a0 + m1 * a2, m0 * a1 + m1 * a3,             # k4
                      m2 * a0 + m3 * a2, m2 * a1 + m3 * a3)
    d = dt / 6.0
    return (d * (c0 + b0) + s0, d * (c1 + b1) + s1,
            d * (c2 + b2) + s2, d * (c3 + b3) + s3)


def _attempt_2x2(s, dt: float, g0, gq, gm, g3, g1):
    """`_attempt` on a 2x2 state and generators, each held as four complex
    scalars row by row.  Where every product's sum meets an exact zero term
    and every entry is real or imaginary, as on the model block, it rounds
    as `_attempt` does: Python's complex products and abs then round like
    numpy's, and numpy divides by 15 as a product by 1/15.  On a dense
    generator the two agree to rounding."""
    s0, s1, s2, s3 = s
    m0, m1, m2, m3 = g0
    k = m0 * s0 + m1 * s2, m0 * s1 + m1 * s3, m2 * s0 + m3 * s2, m2 * s1 + m3 * s3
    o0, o1, o2, o3 = _rk4_2x2(s, k, dt, gm, g1)
    sh = h0, h1, h2, h3 = _rk4_2x2(s, k, 0.5 * dt, gq, gm)
    m0, m1, m2, m3 = gm
    k = m0 * h0 + m1 * h2, m0 * h1 + m1 * h3, m2 * h0 + m3 * h2, m2 * h1 + m3 * h3
    w0, w1, w2, w3 = _rk4_2x2(sh, k, 0.5 * dt, g3, g1)
    d0, d1, d2, d3 = w0 - o0, w1 - o1, w2 - o2, w3 - o3
    scale = max(1.0, abs(w0), abs(w1), abs(w2), abs(w3))
    err = max(abs(d0), abs(d1), abs(d2), abs(d3)) / scale
    r = 1.0 / 15.0
    return (w0 + d0 * r, w1 + d1 * r, w2 + d2 * r, w3 + d3 * r), err, scale


def _adaptive_rk4(gen: Callable, s, t0: float, t1: float, rtol: float,
                  max_step: float, min_step: float, on_accept: Callable):
    """Step S' = gen(t) S from t0 to t1 by RK4 with step doubling and local
    Richardson extrapolation; the one step-size controller of the package.

    The state's type picks the attempt kernel.  A tuple is a 2x2 state held
    as four complex scalars row by row, and gen(t) returns its generator the
    same way (`_attempt_2x2`); any other state is an array, and gen(t) need
    only support `@` on it (`_attempt`, 11 generator products an attempt).
    The local error test is relative (`rtol`) plus an absolute 1e-13, both
    against max(1, max|S|).  Every accepted step calls on_accept(t, dt, s,
    gm, g1) with the new time and state and the generators at the step's
    middle and end (the end one is the next step's start).  Returns (s,
    accepted steps, rejected steps).
    """
    attempt = _attempt_2x2 if isinstance(s, tuple) else _attempt
    t = t0
    dt = min(max_step, max((t1 - t0) / 16.0, min_step))
    n_steps = 0
    n_rej = 0
    g0 = gen(t)
    while t < t1 - 1e-15 * max(1.0, abs(t1)):
        dt = min(dt, t1 - t)
        gq = gen(t + 0.25 * dt)
        gm = gen(t + 0.5 * dt)
        g3 = gen(t + 0.75 * dt)
        g1 = gen(t + dt)
        s_new, err, scale = attempt(s, dt, g0, gq, gm, g3, g1)
        tol = rtol + 1e-13 / scale
        if err > tol and dt <= min_step * 4:
            raise RuntimeError(
                f"flow tolerance {tol:.1e} unreachable at the step floor; "
                f"achieved local residual {err:.3e}")
        if err <= tol:
            s = s_new
            t += dt
            n_steps += 1
            on_accept(t, dt, s, gm, g1)
            g0 = g1
        else:
            n_rej += 1
        del s_new
        fac = 0.9 * (tol / err) ** 0.2 if err > 0 else 4.0
        dt = min(max_step, max(min_step, dt * min(4.0, max(0.1, fac))))
        if n_steps + n_rej > 5_000_000:
            raise RuntimeError(f"flow integration stalled; achieved error {err:.2e}")
    return s, n_steps, n_rej


def integrate_symbolic_flow(a_star_sampler: Callable, cfg: FlowConfig,
                            tau: float, t_end: float,
                            check_flow_property: bool = True) -> SymbolicFlowResult:
    """Adaptive RK4 (`_adaptive_rk4`) for the matrix flow.

    Records S at every accepted step, the accumulated trace integral (for the
    Liouville check) and, when requested, a midpoint flow-property residual
    ||S(tau;t) - S(t';t) S(tau;t')||.
    """
    if t_end < tau:
        raise ValueError("t_end must be >= tau")
    pref = -1j * cfg.eps ** (cfg.h - 1.0)

    def generator(a) -> np.ndarray:
        """M(t) = -i eps^(h-1) A*(t) from the sample a = A*(t), the flow being S' = M S."""
        return pref * np.asarray(a, dtype=complex)

    a_tau = a_star_sampler(tau)
    # a sampler may return a 2x2 A*(t) as its row-major 4-tuple
    n = 2 if isinstance(a_tau, tuple) else np.shape(a_tau)[0]
    s = np.eye(n, dtype=complex)
    trace = np.trace
    if n == 2:
        # an unbatched 2x2 flow steps on four complex scalars, row by row;
        # pref's real part is 0, so pref * a rounds once, as in numpy
        def generator(a) -> tuple:
            if not isinstance(a, tuple):
                a = np.asarray(a, dtype=complex).ravel().tolist()
            a0, a1, a2, a3 = a
            return pref * a0, pref * a1, pref * a2, pref * a3

        def trace(g: tuple) -> complex:
            return g[0] + g[3]

        s = tuple(s.ravel().tolist())
    g_tau = generator(a_tau)
    times = [tau]
    samples = [s]
    traces = [0.0 + 0.0j]   # int tr(M)
    tr0 = trace(g_tau)      # tr M at the start of the next step

    def record(t, dt, s, gm, g1):
        nonlocal tr0
        tr1 = trace(g1)
        times.append(t)
        samples.append(s)
        traces.append(traces[-1] + dt / 6.0 * (tr0 + 4.0 * trace(gm) + tr1))
        tr0 = tr1

    # the sample that sized the identity is the stepper's first generator
    _, n_steps, n_rej = _adaptive_rk4(
        lambda t: g_tau if t == tau else generator(a_star_sampler(t)), s, tau, t_end,
        cfg.rtol, cfg.max_step, cfg.min_step, record)

    times = np.asarray(times)
    samples = np.asarray(samples).reshape(-1, n, n)
    traces = np.asarray(traces)
    # Liouville: det S(tau;t) = exp(int tr(M)) exactly for the continuous flow
    dets = np.abs(np.linalg.det(samples))
    pred = np.exp(traces.real)
    liou = float(np.max(np.abs(dets - pred) / np.maximum(pred, 1e-300)))

    flow_res = 0.0
    if check_flow_property and times.size >= 3 and t_end > tau:
        k = int(np.searchsorted(times, 0.5 * (tau + t_end)))
        k = min(max(k, 1), times.size - 2)
        t_mid = float(times[k])
        sub = integrate_symbolic_flow(a_star_sampler, cfg, t_mid, t_end,
                                      check_flow_property=False)
        prod = sub.final @ samples[k]
        flow_res = float(np.max(np.abs(samples[-1] - prod))
                         / max(1.0, float(np.max(np.abs(samples[-1])))))

    return SymbolicFlowResult(times, samples, tau, cfg.eps, cfg.zeta,
                              liou, flow_res, n_steps, n_rej)


# ---------------------------------------------------------------------------
# Envelope bound reports
# ---------------------------------------------------------------------------

def _block_weights(n: int, zeta: float, eps: float) -> np.ndarray:
    if n == 2 and zeta > 0:
        return np.array([[1.0, eps ** (-zeta)], [eps ** zeta, 1.0]])
    return np.ones((n, n))


@dataclass
class UpperBoundReport:
    max_ratio: float


def verify_upper_bound(result: SymbolicFlowResult, env: GrowthEnvelope) -> UpperBoundReport:
    """Per-entry ratios |S_ij| / (W_ij e_gamma+), W = [[1, eps^-zeta],[eps^zeta, 1]]."""
    n = result.samples.shape[1]
    w = _block_weights(n, result.zeta, result.eps)
    # `eval_growth` over all times, with libm's pow: numpy's may round otherwise
    ts, p = float(env.t_star), env.ell + 1.0
    grow = np.array([max(t - ts, 0.0) ** p for t in result.times.tolist()])
    e = np.exp(float(env.gamma_plus) * (grow - max(result.tau - ts, 0.0) ** p))
    return UpperBoundReport(float(np.max(np.abs(result.samples) / (w * e[:, None, None]))))


@dataclass
class LowerBoundReport:
    min_ratio: float


def verify_lower_bound(finals: Sequence[tuple[float, np.ndarray]],
                       env: GrowthEnvelope, e_sampler: Callable,
                       eps: float, zeta: float, T: float,
                       tau: float = 0.0) -> LowerBoundReport:
    """min over x of |S(0;T,x,xi0) e(x)| eps^zeta / e_gamma-(0;T,x,xi0)."""
    ratios = []
    for xval, s in finals:
        evec = np.asarray(e_sampler(xval), dtype=complex)
        evec = evec / np.linalg.norm(evec)
        num = float(np.linalg.norm(s @ evec)) * eps ** zeta
        ratios.append(num / eval_growth(env, "minus", tau, T))
    return LowerBoundReport(float(np.min(ratios)))


@dataclass
class LadderFit:
    """Power-law and log-log diagnostics of a ratio across an eps ladder.

    Polylogarithmic prefactors (|log eps|^p with moderate p) count as
    constants; a ratio drifting like a power of eps shows up as |C'| well
    above 1 on desk-scale ladders, which is what the bounded flags test.
    """

    power_slope: float      # d log(value) / d log(eps)
    C: float                # value ~ C |log eps|^C'
    C_prime: float

    @property
    def upper_bounded(self) -> bool:
        # a genuine upper bound does not blow up as a power of 1/eps
        return self.C_prime <= 1.0

    @property
    def lower_bounded(self) -> bool:
        # a genuine lower bound does not vanish as a power of eps
        return self.C_prime >= -1.0


def ladder_fit(eps_values, values) -> LadderFit:
    e = np.asarray(eps_values, dtype=float)
    if np.unique(e).size < 2:
        raise ValueError("a ladder fit needs at least two distinct eps values")
    v = np.maximum(np.asarray(values, dtype=float), 1e-300)
    lv = np.log(v)
    slope = float(np.polyfit(np.log(e), lv, 1)[0])
    ll = np.log(np.abs(np.log(e)))
    cprime, logc = np.polyfit(ll, lv, 1)
    return LadderFit(slope, float(np.exp(logc)), float(cprime))
