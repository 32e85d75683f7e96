"""Airy function Ai, the 2x2 vector Airy fundamental solution, and envelope checks.

Ai and Ai' come from scipy.special.airy on |z| <= 40.  The vector
solution Z(tau;t) of Z' + [[0,1],[t,0]] Z = 0 is assembled from Ai at rotated
arguments; its Wronskian is the constant (-sqrt(3)+i)/(4 pi), which serves as a
golden value throughout the tests.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
from scipy import special

J = cmath.exp(2j * math.pi / 3)
WRONSKIAN_CONST = (-math.sqrt(3.0) + 1j) / (4.0 * math.pi)

MAX_ABS = 40.0


@dataclass(frozen=True)
class AiryValue:
    ai: complex
    aip: complex


@dataclass(frozen=True)
class VectorAiry:
    """Fundamental solution Z(tau;t) of Z' + [[0,1],[t,0]] Z = 0, Z(tau;tau) = Id."""

    Z: np.ndarray


def airy_ai(z: complex) -> AiryValue:
    """Ai(z) and Ai'(z) from scipy.special.airy (AMOS); |z| > 40 raises ValueError."""
    z = complex(z)
    if abs(z) > MAX_ABS:
        raise ValueError(f"airy_ai documented for |z| <= {MAX_ABS}, got |z| = {abs(z):g}")
    ai, aip, _, _ = special.airy(z)
    return AiryValue(complex(ai), complex(aip))


def wronskian(tau: float) -> complex:
    """W(tau) = Ai(j tau) Ai'(tau) - j Ai'(j tau) Ai(tau); constant (-sqrt3 + i)/(4 pi)."""
    a = airy_ai(tau)
    aj = airy_ai(J * tau)
    return aj.ai * a.aip - J * aj.aip * a.ai


def vector_airy(tau: float, t: float) -> VectorAiry:
    """Closed-form Z(tau;t) built from Ai at arguments tau, t, j*tau, j*t."""
    if max(abs(tau), abs(t)) > MAX_ABS:
        raise ValueError("vector_airy documented for |tau|, |t| <= 40")
    a_t, a_tau = airy_ai(t), airy_ai(tau)
    a_jt, a_jtau = airy_ai(J * t), airy_ai(J * tau)
    w = a_jtau.ai * a_tau.aip - J * a_jtau.aip * a_tau.ai
    Z = np.array([
        [-J * a_jtau.aip * a_t.ai + a_tau.aip * a_jt.ai,
         -a_jtau.ai * a_t.ai + a_tau.ai * a_jt.ai],
        [J * a_jtau.aip * a_t.aip - J * a_tau.aip * a_jt.aip,
         a_jtau.ai * a_t.aip - J * a_tau.ai * a_jt.aip],
    ], dtype=complex) / w
    return VectorAiry(Z)


def airy_envelope(tau: float, t: float) -> float:
    """Growth envelope e_Ai(tau;t) = exp((2/3)(t_+^{3/2} - tau_+^{3/2}))."""
    tp = max(t, 0.0) ** 1.5
    taup = max(tau, 0.0) ** 1.5
    return math.exp((2.0 / 3.0) * (tp - taup))


@dataclass(frozen=True)
class AiryBoundsReport:
    C_upper: float
    c_lower: float
    C_oscillatory: float

    @property
    def ok(self) -> bool:
        return self.C_upper <= 2.0 and self.c_lower >= 0.05


def verify_airy_bounds(t_grid) -> AiryBoundsReport:
    """Fit the envelope constants over all ordered pairs of a time grid.

    C_upper: smallest C with |Z(tau;t)| <= C (1+tau)^(1/4) (1+t)^(1/4) e_Ai(tau;t);
    c_lower: largest c with |Z(0;t)_{12}| >= c e_Ai(0;t), fitted over t > 0 only
    (the entry vanishes identically at t = 0, where the bound is vacuous);
    C_oscillatory: max of |Ai(-t)| t^(1/4) over the positive grid values.
    """
    ts = np.sort(np.asarray(t_grid, dtype=float))
    if np.any(ts < 0):
        raise ValueError("verify_airy_bounds expects 0 <= tau <= t")
    C_up = 0.0
    c_low = math.inf
    for i, tau in enumerate(ts):
        for t in ts[i:]:
            Z = vector_airy(tau, t).Z
            env = airy_envelope(tau, t) * (1 + tau) ** 0.25 * (1 + t) ** 0.25
            C_up = max(C_up, float(np.max(np.abs(Z))) / env)
    for t in ts:
        if t <= 0.0:
            continue
        z12 = abs(vector_airy(0.0, t).Z[0, 1])
        c_low = min(c_low, z12 / airy_envelope(0.0, t))
    C_osc = max(abs(airy_ai(-t).ai) * t ** 0.25 for t in ts if t > 0)
    return AiryBoundsReport(C_up, c_low, C_osc)


def model_block_sampler(eps: float, f0: float, t_star: float):
    """Canonical non-semisimple block: A(t) with i eps^{-1/3} A = the Airy generator.

    Returns a callable t -> 2x2 complex so that the symbolic-flow equation
    dS/dt + i eps^{-1/3} A(t) S = 0 conjugates to Z' + [[0,1],[t,0]] Z = 0 under
    D = diag(-i (eps f0)^{1/3}, 1) and Theta(s) = f0^{1/3} (s - t_star).
    """
    def a_star(t: float) -> np.ndarray:
        return np.array([[0.0, 1.0],
                         [-eps ** (2.0 / 3.0) * (t - t_star) * f0, 0.0]], dtype=complex)
    return a_star


def conjugated_flow_compare(eps: float, f0: float, t_star: float,
                            tau: float, t: float) -> float:
    """Max entrywise relative deviation between the integrated model-block flow
    and the closed form D^-1 Z(Theta(tau); Theta(t)) D."""
    from . import symbolic_flow as sf

    if t == tau:
        return 0.0
    cfg = sf.FlowConfig(eps=eps, ell=0.5, T_star=max(1.0, t ** 1.5 / max(1e-9, abs(math.log(eps)))),
                        rtol=1e-9, max_step=min(0.02, 0.25 / (1 + abs(t))))
    res = sf.integrate_symbolic_flow(model_block_sampler(eps, f0, t_star), cfg, tau, t)
    s_num = res.final
    theta = lambda s: f0 ** (1.0 / 3.0) * (s - t_star)
    D = np.diag([-1j * (eps * f0) ** (1.0 / 3.0), 1.0])
    Z = vector_airy(theta(tau), theta(t)).Z
    s_cf = np.linalg.inv(D) @ Z @ D
    floor = 1e-12 * np.max(np.abs(s_cf))
    return float(np.max(np.abs(s_num - s_cf) / np.maximum(np.abs(s_cf), floor)))
