"""The four workloads: seeded inputs, one pass of fixed work, and the gates
that decide whether each operation of the pass succeeded.

Seed 0 reproduces the acceptance-test and CLI-default inputs exactly.  Other
seeds perturb phases or parameters only; grid sizes, eps ladders and the
number of operations never depend on the seed.
"""

from __future__ import annotations

import math
from time import perf_counter

import numpy as np
from hypflow import (airy, branching, classifier, examples, pde_sim,
                     symbolic_flow, system_model)


def _draw(seed: int, lo: float, hi: float, size: int):
    """`size` uniform draws on [lo, hi); None for seed 0 (the defaults)."""
    if seed == 0:
        return None
    return np.random.default_rng(seed).uniform(lo, hi, size)


def _phase(seed: int) -> complex:
    draws = _draw(seed, 0.0, 2.0 * math.pi, 1)
    return 1.0 if draws is None else complex(np.exp(1j * draws[0]))


def _finite(*values) -> bool:
    return all(v is not None and math.isfinite(v) for v in values)


class Pass:
    """One pass of a workload: its operations, their gates and the physics
    numbers they produced."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.ops: list[dict] = []
        self.physics: dict = {}
        self.wall = 0.0
        self.modes_work = 0          # sum of n * modes over free_solution_compare
        self.modes_seconds = 0.0

    def op(self, group: str, fn):
        """Run one operation; its result, or None when it raised."""
        sid = self.tracer.begin("bench." + group) if self.tracer else None
        t0 = perf_counter()
        try:
            out, err = fn(), None
        except Exception as exc:      # a raising operation is a failed one
            out, err = None, f"{type(exc).__name__}: {exc}"
        finally:
            seconds = perf_counter() - t0
            if sid is not None:
                self.tracer.finish(sid)
        self.ops.append({"group": group, "seconds": seconds, "failed": err})
        return out

    def gate(self, first: int, ok: bool, what: str) -> None:
        """Fail every operation from index `first` on when `ok` is false."""
        if not ok:
            for o in self.ops[first:]:
                o["failed"] = o["failed"] or f"gate: {what}"

    def group_seconds(self, group: str) -> float:
        return sum(o["seconds"] for o in self.ops if o["group"] == group)

    def system(self, sys):
        return self.tracer.system(sys) if self.tracer else sys


# ---------------------------------------------------------------------------
# ladder: criterion 8 without the 1e-4 rung
# ---------------------------------------------------------------------------

LADDER_EPS = (1e-2, 10 ** -2.5, 1e-3)


def ladder_setup(seed: int) -> dict:
    b = examples.get_state("burgers1d", "semisimple")
    ctrl = examples.get_state("symmetric-control", "default")
    phase = _phase(seed)
    return {
        "b": b, "ctrl": ctrl,
        "cl": classifier.classify(b.sys, b.phi, b.search_region),
        "params": pde_sim.HadamardParams(K=3.0, alpha=1.0, m=1.25, delta=0.7,
                                         T_star=9.0, h=0.5, gamma_minus=0.5),
        "e_exp": b.e_vec * phase, "e_ctl": ctrl.e_vec * phase,
    }


def ladder_pass(st: dict, p: Pass) -> None:
    sides = (("experiment", st["b"], st["cl"], st["e_exp"], False),
             ("control", st["ctrl"], None, st["e_ctl"], True))
    for group, bundle, cl, e_vec, control in sides:
        sys = p.system(bundle.sys)
        first = len(p.ops)
        rows = []
        for eps in LADDER_EPS:
            rep = p.op(group, lambda: pde_sim.run_instability_experiment(
                sys, bundle.phi, cl, st["params"], [eps], xi0=1.0, x0=0.0,
                e_vec=e_vec, phi_traj_vec=bundle.phi_traj_vec,
                length=np.pi / 2.0, linf_cap=1.0, control=control))
            rows.append(rep.rows[0] if rep is not None else None)
        ratios = [r.ratio if r is not None else None for r in rows]
        p.physics[group] = [r.as_dict() if r is not None else None for r in rows]
        if not _finite(*ratios) or min(ratios) <= 0.0:
            p.gate(first, False, f"{group} ratios finite and positive")
            continue
        if control:
            slope = abs(float(np.polyfit(np.log(LADDER_EPS), np.log(ratios), 1)[0]))
            p.physics["control_slope"] = slope
            p.gate(first, slope <= 0.1, "control |log-log slope| <= 0.1")
        else:
            growth = ratios[-1] / ratios[0]
            p.physics["growth_factor"] = growth
            p.gate(first, growth >= 10.0, "ratio(1e-3)/ratio(1e-2) >= 10")


# ---------------------------------------------------------------------------
# free: criterion 9
# ---------------------------------------------------------------------------

FREE_EPS = (1e-2, 10 ** -2.5, 1e-3)
_J = np.array([[0.0, 1.0], [-1.0, 0.0]])


def _free_system(a1fn, a1vec, name):
    return system_model.SystemSpec(
        name, 1, 2, (a1fn,), lambda t, x, u: np.zeros(2), fluxes_vec=(a1vec,),
        source_vec=lambda t, xs, us: np.zeros((us.shape[0], 2)))


def free_setup(seed: int) -> dict:
    draws = _draw(seed, 0.0, 2.0 * math.pi, 2)
    shift = 0.0 if draws is None else float(draws[0])
    phase = 1.0 if draws is None else complex(np.exp(1j * draws[1]))
    phi = system_model.ReferenceSolution(
        initial=lambda x: np.zeros(2), domain=system_model.Domain(2 * np.pi, 1),
        value=lambda t, x: np.zeros(2))
    const = _free_system(lambda t, x, u: _J,
                         lambda t, xs, us: np.broadcast_to(_J, (us.shape[0], 2, 2)),
                         "const")
    slow = _free_system(lambda t, x, u: (1 + 0.3 * np.sin(x[0] + shift)) * _J,
                        lambda t, xs, us: (1 + 0.3 * np.sin(xs + shift))[:, None, None] * _J,
                        "slow")
    return {"phi": phi, "const": const, "slow": slow,
            "phi_vec": lambda t, xs: np.zeros((np.atleast_1d(xs).size, 2)),
            "e_vec": (1.0 * phase, 1j * phase)}


def free_pass(st: dict, p: Pass) -> None:
    def compare(sys, eps, **kw):
        rep = pde_sim.free_solution_compare(sys, st["phi"], eps, None, 2.0,
                                            e_vec=st["e_vec"], phi_vec=st["phi_vec"], **kw)
        p.modes_work += rep.n_nodes * rep.n_modes
        return rep

    const = p.system(st["const"])
    rep = p.op("const", lambda: compare(const, 1e-2, dt_safety=0.06))
    err = rep.rel_error if rep is not None else None
    p.physics["const_rel_error"] = err
    p.gate(0, _finite(err) and err <= 1e-8, "constant-system rel. error <= 1e-8")

    slow = p.system(st["slow"])
    first = len(p.ops)
    reps = [p.op("slow", lambda: compare(slow, eps)) for eps in FREE_EPS]
    errs = [r.rel_error if r is not None else None for r in reps]
    p.physics["slow"] = [{"eps": r.eps, "rel_error": r.rel_error, "n_nodes": r.n_nodes,
                          "n_modes": r.n_modes} if r is not None else None for r in reps]
    p.modes_seconds = sum(o["seconds"] for o in p.ops)
    if not _finite(*errs) or min(errs) <= 0.0:
        p.gate(first, False, "slow-system rel. errors finite and positive")
        return
    order = float(np.polyfit(np.log(FREE_EPS), np.log(errs), 1)[0])
    p.physics["fitted_order"] = order
    p.gate(first, order >= 0.5, "fitted order >= 0.5")


# ---------------------------------------------------------------------------
# symbol: classify -> branch -> flow -> envelope, and the Airy table
# ---------------------------------------------------------------------------

FLOW_EPS = (1e-2, 1e-3, 1e-4, 1e-6)      # `hypflow flow` default ladder
_RATED = (classifier.ELLIPTIC, classifier.NONSEMISIMPLE, classifier.SEMISIMPLE)


def symbol_setup(seed: int) -> dict:
    draws = _draw(seed, 0.0, 1.0, 3)
    if draws is None:
        alpha, c, f0 = 1.0, 0.5, 1.0
    else:
        # witness band: alpha c > 0 and |c| != 1 keep the kgz coalescence
        alpha, c, f0 = 0.75 + 0.5 * draws[0], 0.3 + 0.4 * draws[1], 0.75 + 0.5 * draws[2]
    bundles = []
    for name in examples.list_examples():
        kw = {"alpha": alpha, "c": c} if name == "kgz" else {}
        for state, b in sorted(examples.get_states(name, **kw).items()):
            bundles.append((f"{name}/{state}", b))
    return {"bundles": bundles, "alpha": float(alpha), "c": float(c), "f0": float(f0)}


def _rates(b, cl):
    data = None
    if cl.ell == 0.5:
        data = branching.compute_branch_data(b.sys, b.phi, cl.witness.x, cl.witness.xi,
                                             lam_init=float(np.real(cl.witness.lam)))
    gm, gp = branching.growth_rate(cl, data, field=system_model.as_field(b.sys, b.phi))
    return data, gm, gp


def _flow_rung(eps, f0, env, tracer):
    t_star = 0.0
    cfg = symbolic_flow.FlowConfig(eps=eps, ell=0.5, T_star=4.0, rtol=1e-8, max_step=0.02)
    T = cfg.T_eps
    sampler = airy.model_block_sampler(eps, f0, t_star)
    if tracer is not None:
        sampler = tracer.sampler(sampler)
    res = symbolic_flow.integrate_symbolic_flow(sampler, cfg, t_star, T)
    up = symbolic_flow.verify_upper_bound(res, env)
    low = symbolic_flow.verify_lower_bound([(0.0, res.final)], env,
                                           lambda x: np.array([0.0, 1.0]),
                                           eps, cfg.zeta, T, tau=t_star)
    return res, up, low


def _airy_table():
    """The `hypflow airy` table (81 points on [0, 20]) without the CSV."""
    ratios, devs = [], []
    for t in np.linspace(0.0, 20.0, 81):
        airy.airy_ai(t)
        z12 = abs(airy.vector_airy(0.0, t).Z[0, 1])
        ratios.append(z12 / airy.airy_envelope(0.0, t))
        w = airy.wronskian(min(t, 10.0))
        devs.append(abs(w - airy.WRONSKIAN_CONST) / abs(airy.WRONSKIAN_CONST))
    return ratios, max(devs), airy.verify_airy_bounds(np.linspace(0.0, 20.0, 21))


def symbol_pass(st: dict, p: Pass) -> None:
    regimes, rates = {}, {}
    for label, b in st["bundles"]:
        first = len(p.ops)
        cl = p.op("classify", lambda: classifier.classify(b.sys, b.phi, b.search_region))
        regimes[label] = cl.regime if cl is not None else None
        p.gate(first, cl is not None and cl.regime == b.expected_regime,
               f"{label} regime == {b.expected_regime}")
        if cl is None or cl.regime not in _RATED:
            continue
        first = len(p.ops)
        out = p.op("rates", lambda: _rates(b, cl))
        if out is None:
            continue
        data, gm, gp = out
        rates[label] = {"gamma_minus": gm, "gamma_plus": gp,
                        "branch": data.as_dict() if data is not None else None}
        p.gate(first, _finite(gm, gp) and gm > 0.0, f"{label} growth rate finite, > 0")
    p.physics.update(regimes=regimes, rates=rates)

    f0 = st["f0"]
    gamma = (2.0 / 3.0) * math.sqrt(f0)
    env = branching.GrowthEnvelope(gamma, gamma, 0.5, 0.0)
    first = len(p.ops)
    rungs = [p.op("flow", lambda: _flow_rung(eps, f0, env, p.tracer)) for eps in FLOW_EPS]
    if all(r is not None for r in rungs):
        upper = [up.max_ratio for _, up, _ in rungs]
        lower = [low.min_ratio for _, _, low in rungs]
        fit_up = symbolic_flow.ladder_fit(FLOW_EPS, upper)
        fit_low = symbolic_flow.ladder_fit(FLOW_EPS, lower)
        failure = (not fit_up.upper_bounded) or (not fit_low.lower_bounded)
        p.physics["flow"] = {
            "upper_ratios": upper, "lower_ratios": lower,
            "upper_fit": [fit_up.C, fit_up.C_prime, fit_up.power_slope],
            "lower_fit": [fit_low.C, fit_low.C_prime, fit_low.power_slope],
            "liouville_residual": [r.liouville_residual for r, _, _ in rungs],
            "flow_residual": [r.flow_residual for r, _, _ in rungs],
            "steps": [r.n_steps for r, _, _ in rungs],
            "rejected": [r.n_rejected for r, _, _ in rungs],
            "failure_flag": failure}
        p.gate(first, not failure, "flow failure_flag is false")

    first = len(p.ops)
    out = p.op("airy", _airy_table)
    if out is not None:
        ratios, wdev, bounds = out
        p.physics["airy"] = {"lower_envelope_ratios": ratios, "wronskian_max_dev": wdev,
                             "C_upper": bounds.C_upper, "c_lower": bounds.c_lower,
                             "C_oscillatory": bounds.C_oscillatory}
        p.gate(first, wdev <= 1e-8 and bounds.ok, "Wronskian deviation <= 1e-8, bounds ok")


# ---------------------------------------------------------------------------
# callable: the one registry state with Python-callable flux and source
# ---------------------------------------------------------------------------

def callable_setup(seed: int) -> dict:
    b = examples.get_state("burgers1d", "ill-posed-all-data")
    cl = classifier.classify(b.sys, b.phi, b.search_region)
    gamma = b.gamma_minus
    K = 3.0                       # `hypflow simulate` defaults
    params = pde_sim.HadamardParams(K=K, alpha=1.0, m=1.25, delta=0.7,
                                    T_star=1.5 * K / gamma,
                                    h=cl.h if cl.h is not None else 0.5,
                                    gamma_minus=gamma)
    return {"b": b, "cl": cl, "params": params,
            "e_vec": np.array([1.0, 0.0]) * _phase(seed)}


def callable_pass(st: dict, p: Pass) -> None:
    b, cl = st["b"], st["cl"]
    sys = p.system(b.sys)
    rep = p.op("experiment", lambda: pde_sim.run_instability_experiment(
        sys, b.phi, cl, st["params"], [1e-2], xi0=float(b.xi0[0]), x0=float(b.x0[0]),
        e_vec=st["e_vec"], phi_traj_vec=b.phi_traj_vec, filter_strength=1e4,
        length=float(np.pi)))
    row = rep.rows[0] if rep is not None else None
    p.physics["regime"] = cl.regime
    p.physics["row"] = row.as_dict() if row is not None else None
    p.gate(0, cl.regime == classifier.SEMISIMPLE and row is not None
           and _finite(row.ratio) and row.breakdown_reason != "nan",
           "regime SemisimpleTransition, finite ratio, breakdown reason not nan")


WORKLOADS = {
    "ladder": (ladder_setup, ladder_pass),
    "free": (free_setup, free_pass),
    "symbol": (symbol_setup, symbol_pass),
    "callable": (callable_setup, callable_pass),
}
