"""Regime classification of the hyperbolic-to-elliptic transition.

Decides, from the jet of the characteristic polynomial at t = 0, which
instability regime holds at a point: initial ellipticity (ell = 0),
non-semisimple branching (ell = 1/2), semisimple branching (ell = 1),
persistence of hyperbolicity, or Indeterminate when the jet is too degenerate
to decide at the working tolerance.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dfield
from typing import Optional

import numpy as np

from .branching import NewtonError, solve_mu_star
from .system_model import CharPolyJet, CotangentPoint, _richardson, as_field

ELLIPTIC = "Elliptic"
NONSEMISIMPLE = "NonSemisimpleTransition"
SEMISIMPLE = "SemisimpleTransition"
PERSISTENT = "HyperbolicPersistent"
INDETERMINATE = "Indeterminate"

_ELL = {ELLIPTIC: 0.0, NONSEMISIMPLE: 0.5, SEMISIMPLE: 1.0}


def scales_for_ell(ell: float) -> tuple[float, float]:
    """(h, zeta) for a degeneracy index: h = 1/(1+ell), zeta = 1/3 iff ell = 1/2."""
    h = 1.0 / (1.0 + ell)
    zeta = 1.0 / 3.0 if ell == 0.5 else 0.0
    return h, zeta


class IndeterminateSignal(RuntimeError):
    """Root tracking or rank decisions failed; the point cannot be classified."""


@dataclass
class Classification:
    regime: str
    witness: Optional[CotangentPoint]
    jet: Optional[CharPolyJet]
    tol: float
    details: dict = dfield(default_factory=dict)
    ell: Optional[float] = dfield(default=None, init=False)
    h: Optional[float] = dfield(default=None, init=False)
    zeta: Optional[float] = dfield(default=None, init=False)

    def __post_init__(self):
        if self.regime in _ELL:
            self.ell = _ELL[self.regime]
            self.h, self.zeta = scales_for_ell(self.ell)

    def as_dict(self) -> dict:
        out = {
            "regime": self.regime,
            "ell": self.ell, "h": self.h, "zeta": self.zeta,
            "tol": self.tol,
            "witness": None, "jet": None,
            "details": self.details,
        }
        if self.witness is not None:
            out["witness"] = {"x": list(map(float, self.witness.x)),
                              "xi": list(map(float, self.witness.xi)),
                              "lambda": [complex(self.witness.lam).real,
                                         complex(self.witness.lam).imag]}
        if self.jet is not None:
            out["jet"] = self.jet.as_dict()
        return out

    def to_json(self, **kw) -> str:
        return json.dumps(self.as_dict(), sort_keys=True, **kw)


def _semisimple_rank_ok(a: np.ndarray, lam0: float, tol: float) -> bool:
    """rank(A - lam0 I) == N - 2, numerically via singular values."""
    n = a.shape[0]
    s = np.linalg.svd(a - lam0 * np.eye(n), compute_uv=False)
    scale = max(s[0], 1.0)
    small = int(np.sum(s <= max(tol, 1e-10) * scale))
    return small == 2


def _ring_offsets(dim: int, count: int, radius: float) -> np.ndarray:
    """Deterministic unit directions in R^dim scaled to `radius`."""
    if dim == 2:
        ang = 2.0 * np.pi * np.arange(count) / count
        return radius * np.column_stack([np.cos(ang), np.sin(ang)])
    rng = np.random.default_rng(20)
    v = rng.normal(size=(count, dim))
    v /= np.linalg.norm(v, axis=1)[:, None]
    return radius * v


def check_semisimple_transition(field, omega0: CotangentPoint, tol: float = 1e-8) -> bool:
    """Semisimple branching: P_t = 0 with (P_tlam)^2 < P_tt P_lamlam, the pair
    semisimple, and both conditions persisting on a ring of 8 points at
    radius 1e-2 around omega0."""
    d = field.space_dim

    def conditions_at(x, xi, lam):
        jet = field.jet(CotangentPoint(x, xi, lam))
        if abs(jet.P) > 1e2 * tol or abs(jet.P_lam) > 1e2 * tol:
            raise IndeterminateSignal("double root lost while tracking the branch")
        p_tt = np.real(jet.P_tt)
        p_ll = np.real(jet.P_lamlam)
        p_tl = np.real(jet.P_tlam)
        cond_i = (abs(jet.P_t) <= 1e2 * tol) and (p_tl ** 2 < p_tt * p_ll - tol)
        cond_ii = _semisimple_rank_ok(field.symbol(0.0, x, xi), float(np.real(lam)), 1e-6)
        return cond_i and cond_ii

    x0 = omega0.x
    xi0 = omega0.xi
    lam0 = float(np.real(omega0.lam))
    if not conditions_at(x0, xi0, lam0):
        return False
    offs = _ring_offsets(2 * d, 8, 1e-2)
    for o in offs:
        x = x0 + o[:d]
        xi = xi0 + o[d:]
        try:
            lam = solve_mu_star(field.coeffs(0.0, x, xi), lam0)
        except NewtonError as exc:
            raise IndeterminateSignal(f"root tracking failed on the ring: {exc}")
        if not conditions_at(x, xi, lam):
            return False
    return True


@dataclass(frozen=True)
class SearchRegion:
    """Finite sample grid over positions x and directions xi/|xi|."""

    xs: np.ndarray   # (m, d)
    xis: np.ndarray  # (k, d)


def _coalescing_candidates(vals_real: np.ndarray, pair_tol: float):
    """Clusters of nearly equal real eigenvalues; (mean, size) per cluster."""
    v = np.sort(vals_real)
    clusters = []
    start = 0
    for i in range(1, v.size + 1):
        if i == v.size or v[i] - v[i - 1] > pair_tol:
            if i - start >= 2:
                clusters.append((float(np.mean(v[start:i])), i - start))
            start = i
    return clusters


_STRICT = 1e-6      # margin of the sign tests on Im lambda and on the jet
_PAIR_TOL = 1e-5    # real eigenvalues closer than this form a coalescing pair


def classify(sys, phi, search_region: SearchRegion, tol: float = 1e-8) -> Classification:
    """Scan the region and return the first regime whose conditions hold.

    Ellipticity is decided first (it needs no transition structure); then
    non-semisimple coalescence, then the semisimple branch condition.  Real
    double roots that move or split along the real axis count as persistence;
    jets too degenerate to decide at the tolerance yield Indeterminate.
    """
    field = as_field(sys, phi)
    points = [(x, xi, field.spectrum_at(0.0, x, xi))
              for x in search_region.xs for xi in search_region.xis]

    # pass 1: ellipticity anywhere in the region, the witness of largest
    # Im lambda (the first point and eigenvalue on a tie)
    top = max(points, key=lambda p: p[2].imag.max(), default=None)
    if top is not None:
        x, xi, vals = top
        lam = vals[np.argmax(vals.imag)]
        if lam.imag > _STRICT:
            best = CotangentPoint(x, xi, complex(lam))
            return Classification(ELLIPTIC, best, field.jet(best), tol)

    indeterminate = False
    notes = []
    for x, xi, vals in points:
        for lam0, size in _coalescing_candidates(vals.real, _PAIR_TOL):
            omega = CotangentPoint(x, xi, complex(lam0))
            jet = field.jet(omega)
            if size > 2 or abs(jet.P_lamlam) <= tol:
                indeterminate = True
                notes.append(f"multiplicity {size} at x={x}, xi={xi}")
                continue
            p_ll = float(np.real(jet.P_lamlam))
            p_t = float(np.real(jet.P_t))
            if p_ll * p_t > _STRICT * abs(p_ll):
                return Classification(NONSEMISIMPLE, omega, jet, tol)
            if p_ll * p_t < -_STRICT * abs(p_ll):
                continue  # eigenvalues stay real for small t > 0
            disc = float(np.real(jet.P_tlam) ** 2 - np.real(jet.P_tt) * p_ll)
            if disc < -_STRICT:
                try:
                    ok = check_semisimple_transition(field, omega, tol=tol)
                except IndeterminateSignal as exc:
                    indeterminate = True
                    notes.append(str(exc))
                    continue
                if ok:
                    return Classification(SEMISIMPLE, omega, jet, tol)
                indeterminate = True
                notes.append(f"branching jet without semisimple structure at x={x}, xi={xi}")
            elif disc > _STRICT:
                continue  # real splitting of the pair
            else:
                # fully degenerate second-order jet: a glued semisimple pair
                # moves along the real axis; a non-semisimple one is undecidable
                if _semisimple_rank_ok(field.symbol(0.0, x, xi), lam0, 1e-6):
                    continue
                indeterminate = True
                notes.append(f"degenerate non-semisimple jet at x={x}, xi={xi}")
    if indeterminate:
        return Classification(INDETERMINATE, None, None, tol, details={"notes": notes})
    return Classification(PERSISTENT, None, None, tol)


@dataclass(frozen=True)
class DiscriminantReport:
    resid_first: float
    resid_second: float
    d1_fd: float
    d1_jet: float
    d2_fd: float
    d2_jet: float


def discriminant_jet_crosscheck(field, x, xi) -> DiscriminantReport:
    """Check d_t Delta(0) = -4 P0_t and d_t^2 Delta(0) = 2 P0_tlam^2 - 2 P0_ll P0_tt
    for a 2x2 block, Delta = tr^2 - 4 det sampled in t.

    Relative residuals are measured against the scale of the compared values.
    """
    if field.state_dim != 2:
        raise ValueError("discriminant crosscheck expects a 2x2 block")

    def delta(t):
        c = field.coeffs(t, x, xi)   # lambda^2 + c1 lambda + c0
        return float(np.real(c[1] ** 2 - 4.0 * c[0]))

    d1_fd, d2_fd, _, _ = _richardson(delta, 0.0, 1e-3)
    c0 = field.coeffs(0.0, x, xi)
    lam0 = float(np.real(-c0[1] / 2.0))  # double-root location of the block
    jet = field.jet(CotangentPoint(x, xi, complex(lam0)))
    d1_jet = -4.0 * float(np.real(jet.P_t))
    d2_jet = 2.0 * float(np.real(jet.P_tlam)) ** 2 \
        - 2.0 * float(np.real(jet.P_lamlam)) * float(np.real(jet.P_tt))
    scale1 = max(abs(d1_fd), abs(d1_jet), 1.0)
    scale2 = max(abs(d2_fd), abs(d2_jet), 1.0)
    return DiscriminantReport(abs(d1_fd - d1_jet) / scale1, abs(d2_fd - d2_jet) / scale2,
                              d1_fd, d1_jet, d2_fd, d2_jet)
