"""Span tracing from outside the program.

The tracer wraps public functions of the hypflow modules in the module that
looks each name up, plus the flux/source/sampler callables the benchmark hands
to the program.  Every call becomes a span (name, start, end, parent) kept in
compact in-memory arrays; numpy.fft and numpy.roots calls are counted against
the innermost open span.  Nothing inside `src/` is edited.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from array import array
from time import perf_counter

# (module, class or None, attribute, span name): the attribute is replaced on
# the module, or on the class when one is named.
PATCHES = [
    ("pde_sim", None, "evolve", "pde_sim.evolve"),
    ("pde_sim", None, "evolve_linearized", "pde_sim.evolve_linearized"),
    ("pde_sim", None, "breakdown_detector", "pde_sim.breakdown_detector"),
    ("pde_sim", None, "w1inf_ball", "pde_sim.w1inf_ball"),
    ("pde_sim", None, "free_solution_compare", "pde_sim.free_solution_compare"),
    ("pde_sim", None, "run_instability_experiment", "pde_sim.run_instability_experiment"),
    # pde_sim imports these two by name, so they are looked up there
    ("pde_sim", None, "build_wavepacket", "semiclassical.build_wavepacket"),
    ("pde_sim", None, "sobolev_norm", "semiclassical.sobolev_norm"),
    ("system_model", "_BaseField", "jet", "system_model.jet"),
    ("system_model", None, "charpoly_coeffs", "system_model.charpoly_coeffs"),
    ("system_model", None, "aberth_roots", "system_model.aberth_roots"),
    ("classifier", None, "classify", "classifier.classify"),
    ("classifier", None, "check_semisimple_transition",
     "classifier.check_semisimple_transition"),
    ("branching", None, "compute_branch_data", "branching.compute_branch_data"),
    ("branching", None, "growth_rate", "branching.growth_rate"),
    ("symbolic_flow", None, "integrate_symbolic_flow",
     "symbolic_flow.integrate_symbolic_flow"),
    ("symbolic_flow", None, "verify_upper_bound", "symbolic_flow.verify_bounds"),
    ("symbolic_flow", None, "verify_lower_bound", "symbolic_flow.verify_bounds"),
    ("airy", None, "airy_ai", "airy.airy_ai"),
    ("airy", None, "vector_airy", "airy.vector_airy"),
]

MODULES = ("pde_sim", "examples", "semiclassical", "system_model", "classifier",
           "branching", "symbolic_flow", "airy")

FFT_FUNCS = ("fft", "ifft", "rfft", "irfft")


def evolve_steps(cfg, traj) -> int:
    """RK4 steps an `evolve`/`evolve_linearized` call took: the solver's
    n_steps = ceil(t_final / dt) with dt shrunk to divide t_final, cut short
    at the breakdown time when there is one."""
    n_steps = max(1, int(math.ceil(cfg.t_final / cfg.dt)))
    if traj.breakdown is None:
        return n_steps
    return int(round(traj.breakdown.time / (cfg.t_final / n_steps)))


class Tracer:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self, hypflow_pkg, numpy_mod):
        self._pkg = hypflow_pkg
        self._np = numpy_mod
        self.names: list[str] = []
        self._idx: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.nested = array("b")      # a span of the same name is open above it
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._open: list[int] = []    # open-span count per name index
        self.fft: dict[int, int] = {}
        self.qr: dict[int, int] = {}
        self.nodes: dict[int, int] = {}
        self.steps: dict[int, int] = {}
        self.rejected: dict[int, int] = {}
        self.errors = {m: 0 for m in MODULES}
        self.missing: set[str] = set()
        self._saved: list = []

    # -- span store --------------------------------------------------------
    def _name_index(self, name: str) -> int:
        i = self._idx.get(name)
        if i is None:
            i = self._idx[name] = len(self.names)
            self.names.append(name)
            self._open.append(0)
        return i

    def begin(self, name: str) -> int:
        i = self._name_index(name)
        sid = len(self.start)
        self.name.append(i)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.nested.append(1 if self._open[i] else 0)
        self._open[i] += 1
        self._stack.append(sid)
        self.end.append(0.0)
        self.start.append(perf_counter())
        return sid

    def finish(self, sid: int) -> None:
        self.end[sid] = perf_counter()
        self._stack.pop()
        self._open[self.name[sid]] -= 1

    def _count(self, table: dict) -> None:
        if self._stack:
            sid = self._stack[-1]
            table[sid] = table.get(sid, 0) + 1

    # -- wrappers ------------------------------------------------------------
    def wrap(self, fn, span: str, after=None):
        """`fn` traced as `span`; `after(sid, args, kwargs, result)` records
        counts read from the arguments or the result."""
        module = span.split(".", 1)[0]
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = tracer.begin(span)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                tracer.errors[module] += 1
                raise
            finally:
                tracer.finish(sid)
            if after is not None:
                after(sid, args, kwargs, out)
            return out
        return traced

    def system(self, sys):
        """The SystemSpec with its batched flux and source callables traced."""
        def nodes(sid, args, kwargs, out):
            self.nodes[sid] = int(args[2].shape[0])
        return dataclasses.replace(
            sys,
            fluxes_vec=tuple(self.wrap(f, "examples.flux_vec", nodes)
                             for f in sys.fluxes_vec),
            source_vec=self.wrap(sys.source_vec, "examples.source_vec", nodes))

    def sampler(self, fn):
        return self.wrap(fn, "symbolic_flow.a_star_sampler")

    def _after_evolve(self, sid, args, kwargs, traj):
        self.steps[sid] = evolve_steps(args[2] if len(args) > 2 else kwargs["cfg"], traj)

    def _after_linearized(self, sid, args, kwargs, traj):
        self.steps[sid] = evolve_steps(args[6] if len(args) > 6 else kwargs["cfg"], traj)

    def _after_flow(self, sid, args, kwargs, res):
        self.steps[sid] = int(res.n_steps)
        self.rejected[sid] = int(res.n_rejected)

    def install(self) -> None:
        """Swap the wrappers in; `uninstall` restores every original."""
        np = self._np
        after = {"pde_sim.evolve_linearized": self._after_linearized,
                 "symbolic_flow.integrate_symbolic_flow": self._after_flow}
        for mod_name, cls_name, attr, span in PATCHES:
            owner = getattr(self._pkg, mod_name)
            if cls_name is not None:
                owner = getattr(owner, cls_name, None)
            orig = getattr(owner, attr, None)
            if orig is None:          # layer gone: its metrics read 0
                self.missing.add(f"{mod_name}.{cls_name + '.' if cls_name else ''}{attr}")
                continue
            if span == "pde_sim.evolve":
                new = self._traced_evolve(orig)
            else:
                new = self.wrap(orig, span, after.get(span))
            self._saved.append((owner, attr, orig))
            setattr(owner, attr, new)
        for name in FFT_FUNCS:
            orig = getattr(np.fft, name)
            self._saved.append((np.fft, name, orig))
            setattr(np.fft, name, self._counting(orig, self.fft))
        self._saved.append((np, "roots", np.roots))
        np.roots = self._counting(np.roots, self.qr)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    def _counting(self, fn, table):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self._count(table)
            return fn(*args, **kwargs)
        return counted

    def _traced_evolve(self, orig):
        """evolve, with the observer it is handed traced as its own span so
        that evolve's self time excludes it."""
        inner = self.wrap(orig, "pde_sim.evolve", self._after_evolve)

        def evolve(*args, **kwargs):
            obs = kwargs.get("observer")
            if obs is not None:
                kwargs["observer"] = self.wrap(obs, "pde_sim.observer")
            return inner(*args, **kwargs)
        return functools.wraps(orig)(evolve)

    # -- derived numbers -----------------------------------------------------
    def arrays(self):
        np = self._np
        name = np.frombuffer(self.name, dtype=np.int32).copy()
        parent = np.frombuffer(self.parent, dtype=np.int32).copy()
        nested = np.frombuffer(self.nested, dtype=np.int8).astype(bool)
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        root = np.arange(dur.size)
        for i in range(dur.size):         # parents precede their children
            if parent[i] >= 0:
                root[i] = root[parent[i]]
        return name, parent, nested, dur, dur - child, root

    def save(self, path: str) -> None:
        np = self._np
        np.savez_compressed(path, names=np.asarray(self.names),
                            name=np.frombuffer(self.name, dtype=np.int32),
                            parent=np.frombuffer(self.parent, dtype=np.int32),
                            start=np.frombuffer(self.start, dtype=float),
                            end=np.frombuffer(self.end, dtype=float))


class EvolveProbe:
    """Untraced passes: the time and node-steps of the `evolve` calls only,
    one timer pair per call, so that node_steps_per_s needs no tracing.
    `readings` gets one (seconds, node-steps) pair per pass."""

    def __init__(self, pde_sim):
        self._mod = pde_sim
        self._orig = None
        self.seconds = 0.0
        self.node_steps = 0
        self.readings: list[tuple[float, int]] = []

    def install(self) -> None:
        orig = self._orig = self._mod.evolve
        self.seconds = 0.0
        self.node_steps = 0

        def evolve(*args, **kwargs):
            t0 = perf_counter()
            traj = orig(*args, **kwargs)
            self.seconds += perf_counter() - t0
            cfg = args[2] if len(args) > 2 else kwargs["cfg"]
            self.node_steps += cfg.n * evolve_steps(cfg, traj)
            return traj
        self._mod.evolve = functools.wraps(orig)(evolve)

    def uninstall(self) -> None:
        self._mod.evolve = self._orig
        self.readings.append((self.seconds, self.node_steps))


# (name, unit, better): every per-layer metric of a traced run, per pass.
LAYER_METRICS = [
    ("pde_sim.evolve.calls", "count", "lower"),
    ("pde_sim.evolve.busy_s", "s", "lower"),
    ("pde_sim.evolve.self_s", "s", "lower"),
    ("pde_sim.evolve.steps", "count", "lower"),
    ("pde_sim.evolve.fft_calls", "count", "lower"),
    ("pde_sim.evolve.fft_per_step", "count", "lower"),
    ("pde_sim.breakdown_detector.calls", "count", "lower"),
    ("pde_sim.breakdown_detector.busy_s", "s", "lower"),
    ("pde_sim.w1inf_ball.calls", "count", "lower"),
    ("pde_sim.w1inf_ball.busy_s", "s", "lower"),
    ("pde_sim.observer.busy_s", "s", "lower"),
    ("pde_sim.evolve_linearized.busy_s", "s", "lower"),
    ("pde_sim.evolve_linearized.steps", "count", "lower"),
    ("pde_sim.free_solution_compare.self_s", "s", "lower"),
    ("pde_sim.run_instability_experiment.self_s", "s", "lower"),
    ("pde_sim.errors", "count", "lower"),
    ("examples.flux_vec.calls", "count", "lower"),
    ("examples.flux_vec.busy_s", "s", "lower"),
    ("examples.flux_vec.ns_per_node", "ns", "lower"),
    ("examples.source_vec.calls", "count", "lower"),
    ("examples.source_vec.busy_s", "s", "lower"),
    ("examples.source_vec.ns_per_node", "ns", "lower"),
    ("examples.source_vec.experiment_share", "ratio", "lower"),
    ("examples.source_vec.control_share", "ratio", "lower"),
    ("examples.errors", "count", "lower"),
    ("semiclassical.build_wavepacket.busy_s", "s", "lower"),
    ("semiclassical.sobolev_norm.busy_s", "s", "lower"),
    ("semiclassical.errors", "count", "lower"),
    ("system_model.jet.calls", "count", "lower"),
    ("system_model.jet.busy_s", "s", "lower"),
    ("system_model.charpoly_coeffs.calls", "count", "lower"),
    ("system_model.charpoly_coeffs.busy_s", "s", "lower"),
    ("system_model.aberth_roots.calls", "count", "lower"),
    ("system_model.aberth_roots.busy_s", "s", "lower"),
    ("system_model.aberth_roots.qr_fallbacks", "count", "lower"),
    ("system_model.errors", "count", "lower"),
    ("classifier.classify.calls", "count", "lower"),
    ("classifier.classify.busy_s", "s", "lower"),
    ("classifier.classify.self_s", "s", "lower"),
    ("classifier.check_semisimple_transition.busy_s", "s", "lower"),
    ("classifier.errors", "count", "lower"),
    ("branching.compute_branch_data.calls", "count", "lower"),
    ("branching.compute_branch_data.busy_s", "s", "lower"),
    ("branching.growth_rate.busy_s", "s", "lower"),
    ("branching.errors", "count", "lower"),
    ("symbolic_flow.integrate_symbolic_flow.calls", "count", "lower"),
    ("symbolic_flow.integrate_symbolic_flow.busy_s", "s", "lower"),
    ("symbolic_flow.integrate_symbolic_flow.self_s", "s", "lower"),
    ("symbolic_flow.integrate_symbolic_flow.steps", "count", "lower"),
    ("symbolic_flow.integrate_symbolic_flow.rejected", "count", "lower"),
    ("symbolic_flow.integrate_symbolic_flow.accept_ratio", "ratio", "higher"),
    ("symbolic_flow.a_star_sampler.calls", "count", "lower"),
    ("symbolic_flow.a_star_sampler.busy_s", "s", "lower"),
    ("symbolic_flow.verify_bounds.busy_s", "s", "lower"),
    ("symbolic_flow.errors", "count", "lower"),
    ("airy.airy_ai.calls", "count", "lower"),
    ("airy.airy_ai.busy_s", "s", "lower"),
    ("airy.vector_airy.busy_s", "s", "lower"),
    ("airy.errors", "count", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.untraced_wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.self_sum_s", "s", "lower"),
    ("trace.outside_s", "s", "lower"),
]

# per-pass ratios: not divided by the number of traced passes
_RATIOS = ("ns_per_node", "fft_per_step", "accept_ratio", "_share")


def layer_metrics(tr: Tracer, n_passes: int, traced_wall: float,
                  untraced_wall: float) -> dict:
    """Every LAYER_METRICS value, per traced pass.  `traced_wall` is the sum
    of the traced passes' wall times, `untraced_wall` the median untraced
    pass."""
    np = tr._np
    name, parent, nested, dur, self_t, root = tr.arrays()
    none = np.zeros(name.size, dtype=bool)
    masks = {n: name == i for i, n in enumerate(tr.names)}

    def m(n):
        return masks.get(n, none)

    def busy(n):
        return float(dur[m(n) & ~nested].sum())

    def tally(table, mask):
        return sum(table.get(int(i), 0) for i in np.flatnonzero(mask))

    def nodes_rate(n):
        nodes = tally(tr.nodes, m(n))
        return busy(n) / nodes * 1e9 if nodes else 0.0

    def share(n, group):
        g = m("bench." + group)
        total = float(dur[g].sum())
        if not total:
            return 0.0
        under = m(n) & g[root]
        return float(self_t[under].sum()) / total

    evolve = m("pde_sim.evolve")
    detector = m("pde_sim.breakdown_detector") & np.isin(parent, np.flatnonzero(evolve))
    steps = tally(tr.steps, evolve)
    fft = tally(tr.fft, evolve) + tally(tr.fft, detector)
    flow = "symbolic_flow.integrate_symbolic_flow"
    flow_steps, flow_rej = tally(tr.steps, m(flow)), tally(tr.rejected, m(flow))
    covered = float(dur[parent < 0].sum())

    out = {}
    for full, _, _ in LAYER_METRICS:
        layer, metric = full.rsplit(".", 1)
        if metric == "errors":
            v = tr.errors[layer]
        elif metric == "calls":
            v = int(m(layer).sum())
        elif metric == "busy_s":
            v = busy(layer)
        elif metric == "self_s":
            v = float(self_t[m(layer)].sum())
        elif metric == "ns_per_node":
            v = nodes_rate(layer)
        elif metric.endswith("_share"):
            v = share(layer, metric[:-len("_share")])
        elif layer == "pde_sim.evolve":
            v = {"steps": steps, "fft_calls": fft,
                 "fft_per_step": fft / steps if steps else 0.0}[metric]
        elif layer == "pde_sim.evolve_linearized":
            v = tally(tr.steps, m(layer))
        elif layer == flow:
            v = {"steps": flow_steps, "rejected": flow_rej,
                 "accept_ratio": flow_steps / (flow_steps + flow_rej)
                 if flow_steps else 0.0}[metric]
        elif layer == "system_model.aberth_roots":
            v = tally(tr.qr, m(layer))
        else:                         # trace.*
            v = {"wall_s": traced_wall, "untraced_wall_s": untraced_wall * n_passes,
                 "overhead_s": traced_wall - untraced_wall * n_passes,
                 "self_sum_s": float(self_t.sum()),
                 "outside_s": traced_wall - covered}[metric]
        out[full] = v if any(r in full for r in _RATIOS) else v / n_passes
    return out


def group_breakdown(tr: Tracer, n_passes: int, top: int = 6) -> dict:
    """Per operation group (the benchmark's root spans), per traced pass: wall
    time and the spans with the largest self time, with their share of it."""
    np = tr._np
    name, parent, _, dur, self_t, root = tr.arrays()
    out = {}
    for gi, gname in enumerate(tr.names):
        if not gname.startswith("bench."):
            continue
        total = float(dur[name == gi].sum())
        under = name[root] == gi
        sums = np.bincount(name[under], weights=self_t[under], minlength=len(tr.names))
        order = np.argsort(sums)[::-1][:top]
        out[gname[len("bench."):]] = {
            "wall_s": total / n_passes,
            "top_self": [[tr.names[i], float(sums[i]) / n_passes, float(sums[i]) / total]
                         for i in order if sums[i] > 0]}
    return out
