"""Registry of the example systems: Burgers (1D/2D), Van der Waals gas dynamics
and Klein-Gordon-wave couplings, each with reference states that realize the
documented regimes at the origin."""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dfield
from typing import Callable, Optional

import numpy as np

from .classifier import (ELLIPTIC, NONSEMISIMPLE, PERSISTENT, SEMISIMPLE,
                         SearchRegion)
from .system_model import Domain, ReferenceSolution, SystemSpec


# ---------------------------------------------------------------------------
# system factories
# ---------------------------------------------------------------------------

def _burgers_fluxes(b: Callable | float, F: Callable | tuple):
    """Batched A_1 = [[u1, -b^2 u2], [u2, u1]], A_2 = A_1 - u1 I and F."""
    b_of = b if callable(b) else (lambda u: float(b))
    f_of = F if callable(F) else (lambda u: F)

    def a2(t, xs, us):
        out = np.zeros((us.shape[0], 2, 2))
        out[:, 0, 1] = -b_of(us) ** 2 * us[:, 1]
        out[:, 1, 0] = us[:, 1]
        return out

    def a1(t, xs, us):
        out = a2(t, xs, us)
        out[:, 0, 0] = us[:, 0]
        out[:, 1, 1] = us[:, 0]
        return out

    def src(t, xs, us):
        out = np.empty(us.shape)
        out[:, 0], out[:, 1] = f_of(us)
        return out

    return a1, a2, src


def burgers1d(b: Callable | float = 1.0, F: Callable | tuple = (0.0, 0.0)) -> SystemSpec:
    """2x2 Burgers-type system with flux matrix [[u1, -b(u)^2 u2],[u2, u1]].

    A callable ``b(u)`` or ``F(u)`` reads the state components as
    ``u[..., k]``, so the same callable serves one state (shape (2,)) and a
    node batch (shape (n, 2)); ``F`` returns its two components, each a
    scalar or an array of the batch shape.
    """
    a1, _, src = _burgers_fluxes(b, F)
    return SystemSpec("burgers1d", 1, 2, fluxes_vec=(a1,), source_vec=src)


def burgers2d(b: Callable | float = 1.0, F: Callable | tuple = (0.0, 0.0)) -> SystemSpec:
    """Two-dimensional Burgers system; classification only, no 2D evolution.
    ``b`` and ``F`` follow the :func:`burgers1d` contract."""
    a1, a2, src = _burgers_fluxes(b, F)
    return SystemSpec("burgers2d", 2, 2, fluxes_vec=(a1, a2), source_vec=src)


def _zero_source(t, xs, us):
    return np.zeros(us.shape)


def van_der_waals() -> SystemSpec:
    """Isentropic Euler in Lagrangian coordinates, flux [[0,1],[p'(u1),0]].

    The Van der Waals pressure p(u) = u^3/3 - u has p' = u^2 - 1: negative on
    (-1, 1), vanishing at +-1, realizing both the elliptic and the
    non-semisimple regime.
    """
    def a1(t, xs, us):
        out = np.zeros((us.shape[0], 2, 2))
        out[:, 0, 1] = 1.0
        out[:, 1, 0] = us[:, 0] ** 2 - 1.0
        return out

    return SystemSpec("van_der_waals", 1, 2, fluxes_vec=(a1,), source_vec=_zero_source)


def kgz(alpha: float, c: float) -> SystemSpec:
    """Klein-Gordon operator coupled to a wave operator with velocity c,
    state (u, v, n, m); acoustic interaction strength alpha."""
    if abs(c) == 1.0:
        raise ValueError("acoustic velocity |c| = 1 resonates with the Klein-Gordon cone")

    def a1(t, xs, us):
        out = np.zeros((us.shape[0], 4, 4))
        out[:, 0, 1] = 1.0; out[:, 0, 2] = alpha
        out[:, 1, 0] = 1.0
        out[:, 2, 0] = alpha; out[:, 2, 3] = c
        out[:, 3, 0] = -2.0 * us[:, 0]
        out[:, 3, 1] = -2.0 * us[:, 1]
        out[:, 3, 2] = c
        return out

    def src(t, xs, us):
        out = np.zeros((us.shape[0], 4))
        out[:, 0] = (us[:, 2] + 1.0) * us[:, 1]
        out[:, 1] = -(us[:, 2] + 1.0) * us[:, 0]
        return out

    return SystemSpec("kgz", 1, 4, fluxes_vec=(a1,), source_vec=src)


def symmetric_control() -> SystemSpec:
    """Symmetric (hence hyperbolic) 2x2 system used as the stable control."""
    def a1(t, xs, us):
        out = np.empty((us.shape[0], 2, 2))
        out[:, 0, 0] = us[:, 0]
        out[:, 0, 1] = us[:, 1]
        out[:, 1, 0] = us[:, 1]
        out[:, 1, 1] = us[:, 0]
        return out

    return SystemSpec("symmetric_control", 1, 2, fluxes_vec=(a1,), source_vec=_zero_source)


# ---------------------------------------------------------------------------
# reference states and the registry
# ---------------------------------------------------------------------------

@dataclass
class StateBundle:
    """A system plus a reference state hitting one documented regime."""

    sys: SystemSpec
    phi: ReferenceSolution
    expected_regime: str
    x0: np.ndarray
    xi0: np.ndarray
    search_region: SearchRegion
    phi_traj_vec: Optional[Callable] = None
    e_vec: Optional[np.ndarray] = None
    gamma_minus: Optional[float] = None
    notes: str = ""


def constant_reference(values, dvalues_dt=None):
    vals = np.asarray(values, dtype=float)

    if dvalues_dt is None:
        value = lambda t, x: vals
        vec = lambda t, xs: np.broadcast_to(vals, (np.atleast_1d(xs).shape[0], vals.size))
    else:
        dv = np.asarray(dvalues_dt, dtype=float)
        value = lambda t, x: vals + t * dv

        def vec(t, xs):
            return np.broadcast_to(vals + t * dv,
                                   (np.atleast_1d(xs).shape[0], vals.size))
    return ReferenceSolution(initial=lambda x: vals, domain=Domain(2 * np.pi, 1),
                             value=value), vec


REGION_1D = SearchRegion(np.array([[0.0], [0.5], [-0.5]]), np.array([[1.0]]))


def _burgers_states(F2):
    """The source (0, F2) of `elliptic` and `semisimple` decides the transition
    at the origin: semisimple for F2 != 0, persistent hyperbolicity at F2 = 0."""
    states = {}
    sys_f = burgers1d(1.0, (0.0, F2))
    phi, vec = constant_reference((0.3, 0.2), dvalues_dt=(0.0, F2))
    states["elliptic"] = StateBundle(sys_f, phi, ELLIPTIC, np.zeros(1), np.ones(1),
                                     REGION_1D, vec, e_vec=np.array([1j, 1.0]) / np.sqrt(2))
    phi, vec = constant_reference((0.0, 0.0), dvalues_dt=(0.0, F2))
    states["semisimple"] = StateBundle(sys_f, phi, SEMISIMPLE if F2 != 0 else PERSISTENT,
                                       np.zeros(1), np.ones(1), REGION_1D, vec,
                                       e_vec=np.array([1j, 1.0]) / np.sqrt(2))
    sys_f0 = burgers1d(1.0, (0.0, 0.0))
    phi, vec = constant_reference((0.3, 0.0))
    states["persistent"] = StateBundle(sys_f0, phi, PERSISTENT, np.zeros(1), np.ones(1),
                                       REGION_1D, vec)
    sys_ill = burgers1d(lambda u: 1.0 + u[..., 1] ** 2, lambda u: (0.0, u[..., 0] ** 2))
    phi, vec = constant_reference((0.5, 0.0), dvalues_dt=(0.0, 0.25))
    states["ill-posed-all-data"] = StateBundle(sys_ill, phi, SEMISIMPLE, np.zeros(1),
                                               np.ones(1), REGION_1D, vec,
                                               gamma_minus=0.125,
                                               notes="b = 1 + u2^2, F = (0, u1^2)")
    return states


def _burgers2d_states():
    xi_grid = np.array([(1.0, 0.0), (0.0, 1.0), (0.7071067811865476, 0.7071067811865476),
                        (0.7071067811865476, -0.7071067811865476)])
    region = SearchRegion(np.array([(0.0, 0.0), (0.4, -0.2)]), xi_grid)
    sys2 = burgers2d(1.0, (0.0, 1.0))
    vals = np.array([0.2, 0.0])
    dv = np.array([0.0, 1.0])
    phi = ReferenceSolution(initial=lambda x: vals, domain=Domain(2 * np.pi, 2),
                            value=lambda t, x: vals + t * dv)
    return {"semisimple": StateBundle(sys2, phi, SEMISIMPLE, np.zeros(2),
                                      np.array([1.0, 0.0]), region,
                                      notes="ell = 1 at every direction with xi1 + xi2 != 0")}


def _vdw_states():
    states = {}
    sysv = van_der_waals()
    phi, vec = constant_reference((0.0, 0.0))
    states["elliptic"] = StateBundle(sysv, phi, ELLIPTIC, np.zeros(1), np.ones(1),
                                     REGION_1D, vec, e_vec=np.array([1.0, 1j]) / np.sqrt(2))

    def make_witness(sign):
        def init(x):
            return np.array([2.0 - math.cos(x[0]), sign * 0.5 * math.sin(x[0])])

        def init_dx(x):
            return np.array([[math.sin(x[0])], [sign * 0.5 * math.cos(x[0])]])
        return ReferenceSolution(initial=init, domain=Domain(2 * np.pi, 1),
                                 initial_dx=init_dx)

    states["witness"] = StateBundle(sysv, make_witness(+1.0), NONSEMISIMPLE,
                                    np.zeros(1), np.ones(1), REGION_1D,
                                    notes="p'(phi1(0,0)) = 0, p'' dx phi2 > 0")
    states["decaying"] = StateBundle(sysv, make_witness(-1.0), PERSISTENT,
                                     np.zeros(1), np.ones(1), REGION_1D,
                                     notes="opposite sign: eigenvalues stay real")
    return states


def _kgz_states(alpha, c):
    states = {}
    sysk = kgz(alpha, c)

    def init(x):
        return np.array([math.sin(x[0]), -c / (2.0 * alpha), 0.0, 0.0])

    def init_dx(x):
        return np.array([[math.cos(x[0])], [0.0], [0.0], [0.0]])

    phi = ReferenceSolution(initial=init, domain=Domain(2 * np.pi, 1),
                            initial_dx=init_dx)
    states["witness"] = StateBundle(sysk, phi, NONSEMISIMPLE, np.zeros(1), np.ones(1),
                                    REGION_1D,
                                    notes="u(0,x0) = 0, v(0,x0) = -c/(2 alpha), alpha c dx u > 0")
    sys0 = kgz(0.0, c)

    def init0(x):
        return np.array([0.1 * math.sin(x[0]), 0.05 * math.cos(x[0]), 0.0, 0.0])

    phi0 = ReferenceSolution(initial=init0, domain=Domain(2 * np.pi, 1))
    states["hyperbolic"] = StateBundle(sys0, phi0, PERSISTENT, np.zeros(1), np.ones(1),
                                       REGION_1D, notes="alpha = 0: spectrum {+-1, +-c}")
    return states


def _control_states():
    sysc = symmetric_control()
    phi, vec = constant_reference((0.3, 0.1))
    return {"default": StateBundle(sysc, phi, PERSISTENT, np.zeros(1), np.ones(1),
                                   REGION_1D, vec,
                                   e_vec=np.array([1j, 1.0]) / np.sqrt(2))}


@dataclass
class ExampleRegistryEntry:
    description: str
    make_states: Callable
    default_state: str          # the state `--state` names when it is omitted
    default_params: dict = dfield(default_factory=dict)
    symbol_only: bool = False


REGISTRY = {
    "burgers1d": ExampleRegistryEntry(
        "2x2 Burgers family [[u1,-b^2 u2],[u2,u1]]", _burgers_states, "semisimple",
        default_params={"F2": 1.0}),
    "burgers2d": ExampleRegistryEntry(
        "two-dimensional Burgers family (classification only)", _burgers2d_states,
        "semisimple", symbol_only=True),
    "vdw": ExampleRegistryEntry(
        "isentropic Euler with a Van der Waals pressure", _vdw_states, "witness"),
    "kgz": ExampleRegistryEntry(
        "Klein-Gordon coupled to a wave equation, states (u,v,n,m)", _kgz_states,
        "witness", default_params={"alpha": 1.0, "c": 0.5}),
    "symmetric-control": ExampleRegistryEntry(
        "symmetric hyperbolic control system", _control_states, "default"),
}


def list_examples() -> list[str]:
    return sorted(REGISTRY)


def get_states(name: str, **params) -> dict[str, StateBundle]:
    """The states of example `name`; `params` override its default_params,
    and a parameter the example does not take is a KeyError."""
    if name not in REGISTRY:
        raise KeyError(f"unknown example {name!r}; known: {', '.join(list_examples())}")
    entry = REGISTRY[name]
    unknown = sorted(set(params) - set(entry.default_params))
    if unknown:
        raise KeyError(f"example {name!r} takes no parameter {', '.join(unknown)}; "
                       f"its parameters: {sorted(entry.default_params) or 'none'}")
    kw = dict(entry.default_params)
    kw.update(params)
    return entry.make_states(**kw)


def get_state(name: str, state: str, **params) -> StateBundle:
    states = get_states(name, **params)
    if state not in states:
        raise KeyError(f"example {name!r} has states {sorted(states)}, not {state!r}")
    return states[state]
