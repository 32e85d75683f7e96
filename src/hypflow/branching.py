"""Branching data of a coalescing eigenvalue pair and the associated growth rates.

Near a transition point the characteristic polynomial factors as
(lambda - mu)^2 = -(t - tau_star) e(t,x,xi,lambda): mu_star solves
dP/dlambda = 0, tau_star solves P(mu_star) = 0 in t, and the e-factor is a
ratio of two explicit integrals of jet entries.  From these come the
degeneracy-dependent growth rates gamma+- and the growth envelopes exp(gamma ((t - t*)_+^{l+1} - (tau - t*)_+^{l+1})).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from .system_model import _richardson, as_field

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
_GL01_NODES = 0.5 * (_GL_NODES + 1.0)
_GL01_WEIGHTS = 0.5 * _GL_WEIGHTS


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


def _dcoeffs_dt(field, t, x, xi):
    return _richardson(lambda s: field.coeffs(s, x, xi), t, 1e-4)[0]


def solve_mu_star(field, t, x, xi, lam_init) -> float:
    """Newton on lambda -> dP/dlambda(t,x,xi,lambda) starting from lam_init."""
    c = field.coeffs(t, x, xi)
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


def solve_tau_star(field, x, xi, lam_init) -> float:
    """Newton on t -> P(t, x, xi, mu_star(t,x,xi)), from t = 0 and lam_init.

    On the Newton path dP/dlambda(mu_star) = 0, so dP/dt matters alone:
    g'(t) = P_t(t, x, xi, mu_star(t)).
    """
    t = 0.0
    mu = float(lam_init)
    for _ in range(_NEWTON_MAXITER):
        mu = solve_mu_star(field, t, x, xi, mu)
        g = float(np.real(npoly.polyval(mu, field.coeffs(t, x, xi))))
        if abs(g) <= _NEWTON_TOL:
            if t < -_NEWTON_TOL * 10:
                warnings.warn(f"tau_star = {t:.3e} < 0: hyperbolicity already violated at t = 0")
            return t
        gp = float(np.real(npoly.polyval(mu, _dcoeffs_dt(field, t, x, xi))))
        if gp == 0.0 or not np.isfinite(gp):
            raise NewtonError("tau_star Newton hit a vanishing time derivative", abs(g))
        t -= g / gp
        if not np.isfinite(t):
            raise NewtonError("tau_star Newton diverged", np.inf)
    raise NewtonError("tau_star Newton did not converge", abs(g))


def eval_e_factor(field, t, x, xi, lam, mu: float, tau_star: float) -> float:
    """e = e1/e2 with the two 16-node Gauss-Legendre integrals of the lemma:
    e1 = int_0^1 P_t((1-s) tau* + s t, x, xi, mu) ds,
    e2 = int_0^1 (1-s) P_lamlam(t, x, xi, (1-s) mu + s lam) ds.
    """
    e1 = 0.0
    for s, w in zip(_GL01_NODES, _GL01_WEIGHTS):
        ts = (1.0 - s) * tau_star + s * t
        pt = float(np.real(npoly.polyval(mu, _dcoeffs_dt(field, ts, x, xi))))
        e1 += w * pt
    e2 = 0.0 + 0.0j
    c2 = npoly.polyder(field.coeffs(t, x, xi), 2)
    for s, w in zip(_GL01_NODES, _GL01_WEIGHTS):
        lam_s = (1.0 - s) * mu + s * lam
        e2 += w * (1.0 - s) * npoly.polyval(lam_s, c2)
    if abs(e2) < 1e-12:
        raise ValueError(f"degenerate quadratic part: |e2| = {abs(e2):.3e} < 1e-12")
    e = e1 / e2
    return float(np.real(e))


def compute_branch_data(sys, phi, x, xi, lam_init) -> BranchData:
    """Solve mu_star/tau_star from lam_init and freeze the e-factor at lambda = mu:
    f0 = e(tau_star, x, xi, mu)."""
    field = as_field(sys, phi)
    tau = solve_tau_star(field, x, xi, lam_init=lam_init)
    mu = solve_mu_star(field, tau, x, xi, lam_init)
    f0 = eval_e_factor(field, tau, x, xi, mu, mu=mu, tau_star=tau)
    resid = abs(float(np.real(npoly.polyval(mu, field.coeffs(tau, x, xi)))))
    return BranchData(mu=mu, tau_star=tau, f0=f0, newton_residual=resid,
                      negative_tau_flag=bool(tau < -10 * _NEWTON_TOL))


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
