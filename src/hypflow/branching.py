"""Branching data of a coalescing eigenvalue pair and the associated growth rates.

Near a transition point P factors as (lambda - mu)^2 = -(t - tau_star) e: one
Newton pass gives mu_star (dP/dlambda = 0) and tau_star (P(mu_star) = 0 in t),
and at (tau_star, mu) the e-factor is f0 = 2 P_t / P_lamlam.  From these come
the rates gamma+- and the envelopes exp(gamma ((t - t*)_+^{l+1} - (tau - t*)_+^{l+1})).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from .system_model import _richardson, as_field


class NewtonError(RuntimeError):
    def __init__(self, msg, residual):
        super().__init__(f"{msg} (residual {residual:.3e})")
        self.residual = residual


@dataclass(frozen=True)
class BranchData:
    """Implicit branching data frozen at one (x, xi)."""

    mu: float
    tau_star: float
    f0: float
    newton_residual: float
    negative_tau_flag: bool = False

    def as_dict(self) -> dict:
        return {"mu": self.mu, "tau_star": self.tau_star, "f0": self.f0,
                "newton_residual": self.newton_residual,
                "negative_tau_flag": self.negative_tau_flag}


@dataclass
class GrowthEnvelope:
    """Rates gamma- <= gamma+ and the transition time entering the envelope."""

    gamma_minus: float
    gamma_plus: float
    ell: float
    t_star: float


# the mu_star and tau_star Newton iterations stop at |residual| <= _NEWTON_TOL
# and fail after _NEWTON_MAXITER steps
_NEWTON_MAXITER = 50
_NEWTON_TOL = 1e-11


def solve_mu_star(c, lam_init) -> float:
    """Newton on lambda -> dP/dlambda from lam_init, for P with ascending
    coefficients c."""
    c1 = npoly.polyder(c)
    c2 = npoly.polyder(c, 2)
    lam = float(np.real(lam_init))
    for _ in range(_NEWTON_MAXITER):
        g = float(np.real(npoly.polyval(lam, c1)))
        if abs(g) <= _NEWTON_TOL:
            return lam
        gp = float(np.real(npoly.polyval(lam, c2)))
        if gp == 0.0:
            raise NewtonError("mu_star Newton hit a vanishing second derivative", abs(g))
        lam -= g / gp
        if not np.isfinite(lam):
            raise NewtonError("mu_star Newton diverged", np.inf)
    raise NewtonError("mu_star Newton did not converge", abs(float(np.real(npoly.polyval(lam, c1)))))


def compute_branch_data(sys, phi, x, xi, lam_init) -> BranchData:
    """Newton on t -> P(t, x, xi, mu_star(t)) from t = 0 and lam_init.

    Each iterate takes c(t) and c_t(t) from one Richardson difference and
    solves mu_star on c(t) from the previous mu, so g'(t) = P_t(t, mu_star).
    At the converged (tau*, mu) the e-factor is f0 = P_t / (P_lamlam / 2).
    """
    field = as_field(sys, phi)
    t = 0.0
    mu = float(lam_init)
    for _ in range(_NEWTON_MAXITER):
        c_t, _, c, _ = _richardson(lambda s: field.coeffs(s, x, xi), t, 1e-4)
        mu = solve_mu_star(c, mu)
        g = float(np.real(npoly.polyval(mu, c)))
        p_t = float(np.real(npoly.polyval(mu, c_t)))
        if abs(g) <= _NEWTON_TOL:
            break
        if p_t == 0.0 or not np.isfinite(p_t):
            raise NewtonError("tau_star Newton hit a vanishing time derivative", abs(g))
        t -= g / p_t
        if not np.isfinite(t):
            raise NewtonError("tau_star Newton diverged", np.inf)
    else:
        raise NewtonError("tau_star Newton did not converge", abs(g))
    negative_tau = bool(t < -10 * _NEWTON_TOL)
    if negative_tau:
        warnings.warn(f"tau_star = {t:.3e} < 0: hyperbolicity already violated at t = 0")
    half_p_lamlam = 0.5 * float(np.real(npoly.polyval(mu, npoly.polyder(c, 2))))
    if abs(half_p_lamlam) < 1e-12:
        raise ValueError(f"degenerate quadratic part: |P_lamlam / 2| = {abs(half_p_lamlam):.3e} < 1e-12")
    return BranchData(mu=mu, tau_star=t, f0=p_t / half_p_lamlam, newton_residual=abs(g),
                      negative_tau_flag=negative_tau)


def growth_rate(classification, branch: BranchData | None,
                field=None) -> tuple[float, float]:
    """(gamma-, gamma+) for the classified regime.

    ell = 0:   both equal Im lambda0 at the witness;
    ell = 1/2: both equal (2/3) f0^{1/2};
    ell = 1:   both equal Im(dt lambda+)/2, from the quadratic (p3) in dt lambda.
    `field` is not read.
    """
    regime = classification.regime
    if regime in ("HyperbolicPersistent", "Indeterminate"):
        raise ValueError(f"no growth rate in regime {regime}")
    w = classification.witness
    if classification.ell == 0.0:
        g = complex(w.lam).imag
        return g, g
    if classification.ell == 0.5:
        if branch is None:
            raise ValueError("ell = 1/2 rate requires branch data")
        g = (2.0 / 3.0) * np.sqrt(branch.f0)
        return float(g), float(g)
    jet = classification.jet
    disc = np.real(jet.P_tt * jet.P_lamlam - jet.P_tlam ** 2)
    if disc <= 0:
        raise ValueError("jet discriminant is not positive; no branching rate")
    im_dt_lam = np.sqrt(disc) / abs(np.real(jet.P_lamlam))
    g = 0.5 * im_dt_lam
    return float(g), float(g)


def eval_growth(env: GrowthEnvelope, gamma_choice: str, tau: float, t: float) -> float:
    """Envelope value exp(gamma ((t - t*)_+^{l+1} - (tau - t*)_+^{l+1})), tau <= t."""
    if tau > t:
        raise ValueError("eval_growth requires tau <= t")
    g = float(env.gamma_minus if gamma_choice == "minus" else env.gamma_plus)
    ts = float(env.t_star)
    p = env.ell + 1.0
    return float(np.exp(g * (max(t - ts, 0.0) ** p - max(tau - ts, 0.0) ** p)))
