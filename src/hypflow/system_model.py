"""Quasilinear first-order systems: principal symbol, characteristic polynomial and its jet.

A system  d_t u + sum_j A_j(t,x,u) d_{x_j} u = F(t,x,u)  is described by a
:class:`SystemSpec`.  Linearizing about a reference solution phi gives the
principal symbol A(t,x,xi) = sum_j xi_j A_j(t,x,phi(t,x)); the classification
machinery works on the characteristic polynomial P = det(lambda I - A) and its
first and second partial derivatives in (t, lambda) at t = 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.polynomial import polynomial as npoly


def as_vec(x, dim: int) -> np.ndarray:
    """Coerce a scalar or sequence to a float vector of length `dim`."""
    a = np.atleast_1d(np.asarray(x, dtype=float))
    if a.shape != (dim,):
        raise ValueError(f"expected vector of length {dim}, got shape {a.shape}")
    return a


@dataclass(frozen=True)
class Domain:
    """Periodic box [0, length)^dim."""

    length: float
    dim: int = 1


def _richardson(f: Callable, t: float, step: float):
    """First and second derivatives of f at t: centered differences with
    steps `step` and `step/2`, combined by one Richardson level.

    Returns (d1, d2, f(t), f(t + step)); f is evaluated five times.
    """
    f0 = f(t)
    samples = [(s, f(t + s), f(t - s)) for s in (step / 2, step)]
    d1 = [(fp - fm) / (2 * s) for s, fp, fm in samples]
    d2 = [(fp - 2 * f0 + fm) / (s * s) for s, fp, fm in samples]
    return (4.0 * d1[0] - d1[1]) / 3.0, (4.0 * d2[0] - d2[1]) / 3.0, f0, samples[1][1]


@dataclass(frozen=True)
class SystemSpec:
    """Fluxes A_j(t,x,u) and source F(t,x,u) of a system.

    A system is defined by its node-batched callables: ``fluxes_vec[j](t, xs,
    us)`` returns the real matrices A_j as an (n, N, N) array and
    ``source_vec(t, xs, us)`` the vectors F as an (n, N) array, for states
    ``us`` of shape (n, N) and nodes ``xs`` of shape (n,) in one space
    dimension and (n, d) otherwise.  Both are required.

    The per-point forms ``fluxes[j](t, x, u)`` (N x N) and ``source(t, x, u)``
    (N) are derived from them as batches of one unless given.  A system supplies
    no Jacobians: derivatives are Richardson differences (:func:`_richardson`).
    """

    name: str
    space_dim: int
    state_dim: int
    fluxes: tuple | None = None
    source: Callable | None = None
    fluxes_vec: tuple | None = None
    source_vec: Callable | None = None

    def __post_init__(self):
        if self.fluxes_vec is None or self.source_vec is None:
            raise ValueError(f"system {self.name!r} needs batched fluxes_vec and source_vec")
        if self.fluxes is None:
            object.__setattr__(self, "fluxes", tuple(
                _batch_of_one(f, self.space_dim) for f in self.fluxes_vec))
        if self.source is None:
            object.__setattr__(self, "source", _batch_of_one(self.source_vec, self.space_dim))

    def flux(self, j: int, t: float, x, u) -> np.ndarray:
        x = as_vec(x, self.space_dim)
        u = as_vec(u, self.state_dim)
        return np.asarray(self.fluxes[j](t, x, u), dtype=float)

    def eval_source(self, t: float, x, u) -> np.ndarray:
        x = as_vec(x, self.space_dim)
        u = as_vec(u, self.state_dim)
        return np.asarray(self.source(t, x, u), dtype=float)


def _batch_of_one(fn_vec: Callable, space_dim: int) -> Callable:
    """Per-point form fn(t, x, u), for float vectors x and u, of a
    node-batched callable."""
    xs_shape = (1,) if space_dim == 1 else (1, space_dim)

    def one(t, x, u):
        return fn_vec(t, x.reshape(xs_shape), u.reshape(1, -1))[0]
    return one


@dataclass
class ReferenceSolution:
    """Reference state phi about which the system is linearized.

    ``initial(x)`` samples phi(0,x).  When the full ``value(t,x)`` is known in
    closed form it is used directly; otherwise time derivatives of phi are
    reconstructed from the PDE itself (see :class:`TaylorExtendedSolution`).
    ``initial_dx`` may supply the exact spatial Jacobian (N,d) of phi(0,.).
    """

    initial: Callable
    domain: Domain
    value: Callable | None = None
    initial_dx: Callable | None = None

    def at0(self, x) -> np.ndarray:
        return np.asarray(self.initial(as_vec(x, self.domain.dim)), dtype=float)

    def __call__(self, t: float, x) -> np.ndarray:
        if self.value is None:
            if t == 0.0:
                return self.at0(x)
            raise ValueError("reference solution has no time extension; "
                             "wrap it with TaylorExtendedSolution or supply `value`")
        return np.asarray(self.value(t, as_vec(x, self.domain.dim)), dtype=float)


class TaylorExtendedSolution:
    """Second-order time extension of phi(0,.) consistent with the PDE.

    With R(t, u, d_x u) = F(t,x,u) - sum_j A_j(t,x,u) d_{x_j} u, g = d_t phi(0,.)
    = R(0, phi0, d_x phi0), and g2 = d_t^2 phi(0,.) is the derivative of R along
    the solution, of s -> R(s, phi0 + s g, d_x phi0 + s d_x g) at 0, a Richardson
    difference like the x-derivatives.  phi(t,x) = phi0 + t g + t^2/2 g2 + O(t^3)
    is meant for |t| << 1, which is all the jet evaluation needs.
    """

    def __init__(self, sys: SystemSpec, phi: ReferenceSolution):
        self.sys = sys
        self.phi = phi
        self._cache: dict[bytes, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}

    def _dx(self, f: Callable, x: np.ndarray) -> np.ndarray:
        """(N, d) x-Jacobian of f at x."""
        return np.stack([_richardson(lambda s: f(x + s * e), 0.0, 1e-4)[0]
                         for e in np.eye(self.sys.space_dim)], axis=-1)

    def _dx_phi0(self, x: np.ndarray) -> np.ndarray:
        if self.phi.initial_dx is not None:
            return np.asarray(self.phi.initial_dx(x), dtype=float).reshape(
                self.sys.state_dim, self.sys.space_dim)
        return self._dx(self.phi.at0, x)

    def _rhs(self, t: float, x: np.ndarray, u: np.ndarray, dxu: np.ndarray) -> np.ndarray:
        """R(t, u, d_x u) = F(t,x,u) - sum_j A_j(t,x,u) d_{x_j} u."""
        out = self.sys.eval_source(t, x, u).copy()
        for j in range(self.sys.space_dim):
            out -= self.sys.flux(j, t, x, u) @ dxu[:, j]
        return out

    def _g(self, x: np.ndarray) -> np.ndarray:
        """d_t phi(0,x) from the PDE."""
        return self._rhs(0.0, x, self.phi.at0(x), self._dx_phi0(x))

    def _coeffs(self, x: np.ndarray):
        key = x.tobytes()
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        u = self.phi.at0(x)
        dxu = self._dx_phi0(x)
        g = self._rhs(0.0, x, u, dxu)
        dxg = self._dx(self._g, x)
        g2 = _richardson(lambda s: self._rhs(s, x, u + s * g, dxu + s * dxg), 0.0, 1e-4)[0]
        out = (u, g, g2)
        self._cache[key] = out
        return out

    def __call__(self, t: float, x) -> np.ndarray:
        x = as_vec(x, self.sys.space_dim)
        u, g, g2 = self._coeffs(x)
        return u + t * g + 0.5 * t * t * g2


@dataclass(frozen=True)
class CotangentPoint:
    """A point omega = (x, xi, lambda) in the cotangent bundle, xi != 0."""

    x: np.ndarray
    xi: np.ndarray
    lam: complex

    def __post_init__(self):
        object.__setattr__(self, "x", np.atleast_1d(np.asarray(self.x, dtype=float)))
        object.__setattr__(self, "xi", np.atleast_1d(np.asarray(self.xi, dtype=float)))
        if np.linalg.norm(self.xi) == 0.0:
            raise ValueError("cotangent point requires xi != 0")


@dataclass(frozen=True)
class CharPolyJet:
    """P and its partials (P_lam, P_lamlam exact; P_t, P_tt, P_tlam by FD)."""

    P: complex
    P_lam: complex
    P_lamlam: complex
    P_t: complex
    P_tt: complex
    P_tlam: complex
    method: str
    t_step: float
    noise_warning: bool = False

    def as_dict(self) -> dict:
        return {
            "P": _c2pair(self.P), "P_lam": _c2pair(self.P_lam),
            "P_lamlam": _c2pair(self.P_lamlam), "P_t": _c2pair(self.P_t),
            "P_tt": _c2pair(self.P_tt), "P_tlam": _c2pair(self.P_tlam),
            "method": self.method, "t_step": self.t_step,
            "noise_warning": self.noise_warning,
        }


def _c2pair(z: complex):
    z = complex(z)
    return [z.real, z.imag]


# ---------------------------------------------------------------------------
# Characteristic polynomial machinery
# ---------------------------------------------------------------------------

def charpoly_coeffs(a: np.ndarray) -> np.ndarray:
    """Monic characteristic polynomial of `a` by the Faddeev-LeVerrier recursion.

    Returns ascending coefficients c with det(lambda I - a) = sum_k c[k] lambda^k,
    c[N] = 1.  Exact in terms of traces, no eigendecomposition involved.
    """
    a = np.asarray(a)
    n = a.shape[0]
    dt = complex if np.iscomplexobj(a) else float
    c = np.zeros(n + 1, dtype=dt)
    c[n] = 1.0
    m = np.eye(n, dtype=dt)
    for k in range(1, n + 1):
        am = a @ m
        ck = -np.trace(am) / k
        c[n - k] = ck
        m = am + ck * np.eye(n, dtype=dt)
    return c


def spectrum(a: np.ndarray) -> np.ndarray:
    """Eigenvalues with multiplicity (LAPACK, `np.linalg.eigvals`) in a
    deterministic order: lexicographic by (real, imag)."""
    vals = np.asarray(np.linalg.eigvals(a), dtype=complex)
    return vals[np.lexsort((vals.imag, vals.real))]


# ---------------------------------------------------------------------------
# Symbol fields: common interface for (system, phi) pairs and closed forms
# ---------------------------------------------------------------------------

def eval_principal_symbol(sys: SystemSpec, phi: ReferenceSolution | Callable,
                          t: float, x, xi) -> np.ndarray:
    """A(t,x,xi) = sum_j xi_j A_j(t, x, phi(t,x))."""
    x = as_vec(x, sys.space_dim)
    xi = as_vec(xi, sys.space_dim)
    if np.linalg.norm(xi) == 0.0:
        raise ValueError("principal symbol requires xi != 0")
    u = np.asarray(phi(t, x), dtype=float)
    mat = np.zeros((sys.state_dim, sys.state_dim))
    for j in range(sys.space_dim):
        if xi[j] != 0.0:
            mat += xi[j] * sys.flux(j, t, x, u)
    return mat


class _BaseField:
    """Characteristic coefficients, spectrum and jet of a `symbol(t,x,xi)`."""

    state_dim: int
    space_dim: int

    def coeffs(self, t: float, x, xi) -> np.ndarray:
        return charpoly_coeffs(self.symbol(t, x, xi))

    def spectrum_at(self, t: float, x, xi) -> np.ndarray:
        return spectrum(self.symbol(t, x, xi))

    def jet(self, omega: CotangentPoint) -> CharPolyJet:
        """Six-entry jet of P at (t, omega), t = 0.

        lambda-derivatives come exactly from the characteristic coefficients;
        t-derivatives from centered differences of the coefficients with one
        Richardson level (steps 1e-4 and 5e-5).
        """
        t, step = 0.0, 1e-4
        x, xi, lam = omega.x, omega.xi, omega.lam
        c1, c2, c0, c_step = _richardson(lambda s: self.coeffs(s, x, xi), t, step)
        # noise heuristic: coefficient increments below the roundoff floor
        incr = np.max(np.abs(c_step - c0))
        noise = bool(incr < 1e3 * np.finfo(float).eps * max(1.0, np.max(np.abs(c0))))
        return CharPolyJet(
            P=complex(npoly.polyval(lam, c0)),
            P_lam=complex(npoly.polyval(lam, npoly.polyder(c0))),
            P_lamlam=complex(npoly.polyval(lam, npoly.polyder(c0, 2))),
            P_t=complex(npoly.polyval(lam, c1)),
            P_tt=complex(npoly.polyval(lam, c2)),
            P_tlam=complex(npoly.polyval(lam, npoly.polyder(c1))),
            method="analytic-coefficients/fd-time(richardson2)",
            t_step=step, noise_warning=noise,
        )


class SymbolField(_BaseField):
    """Field of a matrix symbol A(t,x,xi): a closed form, or a system
    linearized at phi (:func:`as_field`)."""

    def __init__(self, symbol: Callable, space_dim: int, state_dim: int):
        self._symbol = symbol
        self.space_dim = space_dim
        self.state_dim = state_dim

    def symbol(self, t: float, x, xi) -> np.ndarray:
        x = as_vec(x, self.space_dim)
        xi = as_vec(xi, self.space_dim)
        return np.asarray(self._symbol(t, x, xi))


def as_field(sys_or_field, phi: ReferenceSolution | None) -> _BaseField:
    """The field of a (SystemSpec, phi) pair, its symbol linearized at phi
    (closed-form phi(t,x) when available, else the PDE-Taylor extension); a
    ready-made field passes through."""
    if isinstance(sys_or_field, _BaseField):
        return sys_or_field
    if isinstance(sys_or_field, SystemSpec):
        if phi is None:
            raise ValueError("a reference solution is required with a SystemSpec")
        sys = sys_or_field
        phi_t = phi if phi.value is not None else TaylorExtendedSolution(sys, phi)
        return SymbolField(lambda t, x, xi: eval_principal_symbol(sys, phi_t, t, x, xi),
                           sys.space_dim, sys.state_dim)
    raise TypeError(f"cannot build a symbol field from {type(sys_or_field)!r}")
