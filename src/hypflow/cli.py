"""Command-line front end: classify, branch, flow, airy, quantize-check,
simulate, list-examples.

Exit codes: 0 success, 2 configuration error, 3 numerical failure,
4 instability-experiment breakdown (a finding, not a crash).  Every output
file embeds the canonical configuration and tool version in header comments;
identical configuration and seed give byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np
from scipy import special

from . import __version__, airy, branching, examples, pde_sim, semiclassical
from . import symbolic_flow as sflow
from .branching import GrowthEnvelope, compute_branch_data, growth_rate
from .classifier import classify
from .semiclassical import Grid1D, GridFunction

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_BREAKDOWN = 4


class ConfigError(Exception):
    pass


def _load_config_file(path: str) -> dict:
    """Plain key=value lines (sections flattened as section.key) or JSON."""
    with open(path) as f:
        text = f.read()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return {str(k): v for k, v in json.loads(text).items()}
    out = {}
    section = ""
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            continue
        if "=" not in line:
            raise ConfigError(f"cannot parse config line: {raw!r}")
        key, val = (s.strip() for s in line.split("=", 1))
        out[f"{section}.{key}" if section else key] = val
    return out


_BOOLEANS = {"true": True, "yes": True, "1": True,
             "false": False, "no": False, "0": False}


def _config_bool(val) -> bool:
    try:
        return _BOOLEANS[str(val).strip().lower()]
    except KeyError:
        raise ValueError(f"expected true/false/yes/no/1/0, got {val!r}") from None


def canonical_config(cfg: dict) -> list[str]:
    lines = [f"hypflow {__version__}"]
    for k in sorted(cfg):
        v = cfg[k]
        if isinstance(v, float):
            v = f"{v:.17g}"
        lines.append(f"{k}={v}")
    return lines


def _parse_ladder(text: str, fit: bool = False) -> list[float]:
    try:
        vals = [float(s) for s in text.split(",") if s.strip()]
    except ValueError:
        vals = []
    if not vals or any(not (0 < v < 1) for v in vals):
        raise ConfigError(f"bad eps ladder {text!r}")
    if fit and len(set(vals)) < 2:
        raise ConfigError(f"eps ladder {text!r}: a ladder fit needs at least "
                          "two distinct eps values")
    return sorted(vals, reverse=True)


def _out_path(args, name: str) -> str:
    """`name` in the --out directory, made if missing; with no --out, in the
    current directory."""
    if args.out:
        os.makedirs(args.out, exist_ok=True)
    return os.path.join(args.out, name)


def _write_csv(path: str, header_lines, columns, rows) -> None:
    with open(path, "w") as f:
        for line in header_lines:
            f.write(f"# {line}\n")
        f.write(",".join(columns) + "\n")
        for row in rows:
            f.write(",".join(f"{v:.17g}" if isinstance(v, float) else str(v)
                             for v in row) + "\n")


def _bundle_from_args(args):
    """The state that --example, --state and the system parameters name; with
    no --state, the example's default state, which args.state then names."""
    if args.state is None and args.example in examples.REGISTRY:
        args.state = examples.REGISTRY[args.example].default_state
    params = {k: getattr(args, k) for k in ("alpha", "c", "F2")
              if getattr(args, k) is not None}
    try:
        return examples.get_state(args.example, args.state, **params)
    except (KeyError, ValueError) as exc:       # unknown name, or kgz |c| = 1
        raise ConfigError(exc.args[0]) from exc


def _classified(args):
    """The named state and its classification."""
    bundle = _bundle_from_args(args)
    return bundle, classify(bundle.sys, bundle.phi, bundle.search_region, tol=args.tol)


def _branch_data(bundle, cl):
    """Branch data at the classified witness, from its eigenvalue; None unless
    ell = 1/2, the one regime whose rate needs it."""
    if cl.ell != 0.5:
        return None
    return compute_branch_data(bundle.sys, bundle.phi, cl.witness.x, cl.witness.xi,
                               lam_init=float(np.real(cl.witness.lam)))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_list_examples(args) -> int:
    for name in examples.list_examples():
        entry = examples.REGISTRY[name]
        states = sorted(examples.get_states(name))
        tag = " [symbol-only]" if entry.symbol_only else ""
        print(f"{name}{tag}: {entry.description}; states: {', '.join(states)} "
              f"(default {entry.default_state})")
    return EXIT_OK


def _report(args, command: str, text: str) -> int:
    """`text` to <command>_<example>_<state>.json in --out; with no --out, to stdout."""
    if args.out:
        path = _out_path(args, f"{command}_{args.example}_{args.state}.json")
        with open(path, "w") as f:
            f.write(text + "\n")
        print(f"report written to {path}")
    else:
        print(text)
    return EXIT_OK


def cmd_classify(args) -> int:
    _, cl = _classified(args)
    print(f"regime: {cl.regime}" + (f" (ell = {cl.ell})" if cl.ell is not None else ""))
    return _report(args, "classify", cl.to_json(indent=2))


def cmd_branch(args) -> int:
    bundle, cl = _classified(args)
    if cl.witness is None:
        print(f"regime {cl.regime}: no branching data")
        return EXIT_OK
    out = {"classification": cl.as_dict()}
    data = _branch_data(bundle, cl)
    if data is not None:
        out["branch"] = data.as_dict()
    try:
        out["gamma_minus"], out["gamma_plus"] = growth_rate(cl, data)
    except ValueError as exc:
        out["gamma_note"] = str(exc)
    return _report(args, "branch", json.dumps(out, sort_keys=True, indent=2, default=str))


def cmd_airy(args) -> int:
    if not 0.0 <= args.t_max <= airy.MAX_ABS:
        raise ConfigError(f"--t-max {args.t_max:g}: Ai is evaluated on "
                          f"0 <= t <= {airy.MAX_ABS:g}")
    if args.points < 1:
        raise ConfigError(f"--points {args.points}: the table needs at least one point")
    cfg = {"t_max": args.t_max, "points": args.points}
    header = canonical_config(cfg)
    ts = np.linspace(0.0, args.t_max, args.points)
    ms = np.minimum(ts, 10.0)
    # one array call: Ai and Ai' at t, j t, min(t, 10), j min(t, 10) and 0 = j 0
    ai, aip, _, _ = special.airy(np.concatenate([ts, airy.J * ts, ms, airy.J * ms, [0.0]]))
    v_t, v_jt, v_m, v_jm = (airy.AiryValue(a, b) for a, b in
                            zip(np.split(ai[:-1], 4), np.split(aip[:-1], 4)))
    v0 = airy.AiryValue(ai[-1], aip[-1])
    z, w0 = airy._z_parts(v0, v0, v_t, v_jt)           # W(0) Z(0;t) row by row, W(0)
    w = airy._z_parts(v_m, v_jm, v0, v0)[1]            # W(min(t, 10))
    env = [airy.airy_envelope(0.0, t) for t in ts.tolist()]
    dev = np.abs(w - airy.WRONSKIAN_CONST) / abs(airy.WRONSKIAN_CONST)
    rows = zip(ts.tolist(), v_t.ai.real.tolist(), (np.abs(z[1] / w0) / env).tolist(),
               dev.tolist())
    path = _out_path(args, "airy.csv")
    _write_csv(path, header, ["t", "Ai", "lower_envelope_ratio", "wronskian_dev"], rows)
    rep = airy.verify_airy_bounds(np.linspace(0.0, min(args.t_max, 20.0), 21))
    print(f"airy bounds: C_upper={rep.C_upper:.4f} c_lower={rep.c_lower:.4f} "
          f"ok={rep.ok}; CSV written to {path}")
    return EXIT_OK


def cmd_flow(args) -> int:
    ladder = _parse_ladder(args.eps_ladder, fit=True)
    if not args.T_star > 0:
        raise ConfigError(f"--T-star {args.T_star:g}: the observation-time scale "
                          "must be positive")
    if not args.model_f0 > 0:
        raise ConfigError(f"--model-f0 {args.model_f0:g}: the model block needs f0 > 0")
    f0 = args.model_f0
    t_star = args.model_tstar
    gamma = (2.0 / 3.0) * math.sqrt(f0) * args.gamma_scale
    env = GrowthEnvelope(gamma, gamma, 0.5, t_star)
    cfg_dict = {"model_f0": f0, "model_tstar": t_star, "gamma_scale": args.gamma_scale,
                "eps_ladder": args.eps_ladder, "T_star": args.T_star}
    header = canonical_config(cfg_dict)
    rows = []
    upper_values, lower_values = [], []
    for eps in ladder:
        cfg = sflow.FlowConfig(eps=eps, ell=0.5, T_star=args.T_star, rtol=1e-8,
                               max_step=0.02)
        T = cfg.T_eps
        res = sflow.integrate_symbolic_flow(airy.model_block_sampler(eps, f0, t_star),
                                            cfg, t_star, T)
        up = sflow.verify_upper_bound(res, env)
        low = sflow.verify_lower_bound([(0.0, res.final)], env,
                                       lambda x: np.array([0.0, 1.0]),
                                       eps, cfg.zeta, T, tau=t_star)
        upper_values.append(up.max_ratio)
        lower_values.append(low.min_ratio)
        for k in range(0, len(res.times), max(1, len(res.times) // 40)):
            t = float(res.times[k])
            s = res.samples[k]
            e = branching.eval_growth(env, "plus", res.tau, t)
            rows.append((eps, 0.0, 1.0, res.tau, t,
                         abs(s[0, 0]), abs(s[0, 1]), abs(s[1, 0]), abs(s[1, 1]),
                         e, float(np.max(np.abs(s))) / e))
    fit_up = sflow.ladder_fit(ladder, upper_values)
    fit_low = sflow.ladder_fit(ladder, lower_values)
    failure = (not fit_up.upper_bounded) or (not fit_low.lower_bounded)
    path = _out_path(args, "flow_envelope.csv")
    _write_csv(path, header + [
        f"upper_fit C={fit_up.C:.6g} Cprime={fit_up.C_prime:.4f} slope={fit_up.power_slope:.4f}",
        f"lower_fit C={fit_low.C:.6g} Cprime={fit_low.C_prime:.4f} slope={fit_low.power_slope:.4f}",
        f"failure_flag={failure}"],
        ["eps", "x", "xi", "tau", "t", "entry_11_abs", "entry_12_abs",
         "entry_21_abs", "entry_22_abs", "envelope", "ratio"], rows)
    print(f"upper ratios {['%.3g' % v for v in upper_values]}, "
          f"lower ratios {['%.3g' % v for v in lower_values]}, failure_flag={failure}")
    print(f"CSV written to {path}")
    return EXIT_NUMERICAL if failure and args.gamma_scale == 1.0 else EXIT_OK


def cmd_quantize_check(args) -> int:
    ladder = _parse_ladder(args.eps_ladder, fit=True)
    h = 2.0 / 3.0
    cfg_dict = {"eps_ladder": args.eps_ladder, "h": h, "seed": args.seed}
    header = canonical_config(cfg_dict)
    grid = Grid1D(256, 2.0 * np.pi)
    rng = np.random.default_rng(args.seed)
    coefs = rng.normal(size=8) / np.arange(1, 9) ** 2
    vals = np.zeros(grid.n, dtype=complex)
    for k, ck in enumerate(coefs, start=1):
        vals += ck * np.exp(1j * k * grid.nodes)
    probe = GridFunction(grid, np.real(vals) + 0.2)

    def a_xi(x, xi, e):
        return np.tanh(xi) + 2.0

    rep_slow = semiclassical.composition_residual(
        a_xi, lambda x, xi, e: 1.0 + e ** (1 - h) * np.sin(x), ladder, h, probe)
    rep_fast = semiclassical.composition_residual(
        a_xi, lambda x, xi, e: 1.0 + 0.5 * np.sin(x), ladder, h, probe)

    rows = []
    for i, eps in enumerate(ladder):
        ident = semiclassical.op_eps_apply(lambda x, xi, e: 1.0, probe, eps, h)
        id_err = GridFunction(grid, ident.values - probe.values).l2_norm() / probe.l2_norm()
        est = semiclassical.operator_norm_estimate(a_xi, eps, h, [probe])
        rows.append((eps, rep_slow.residuals[i], rep_fast.residuals[i], id_err, est))
    path = _out_path(args, "quantize_check.csv")
    _write_csv(path, header + [
        f"slow_x_fitted_order={rep_slow.fitted_order:.4f}",
        f"fast_x_fitted_order={rep_fast.fitted_order:.4f}"],
        ["eps", "slow_x_residual", "fast_x_residual", "identity_residual",
         "operator_norm_estimate"], rows)
    print(f"slow-x order {rep_slow.fitted_order:.3f}, fast-x order "
          f"{rep_fast.fitted_order:.3f}; CSV written to {path}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    ladder = _parse_ladder(args.eps_ladder)
    if not args.length > 0:
        raise ConfigError(f"--length {args.length:g}: the periodic box needs a positive length")
    bundle, cl = _classified(args)
    control = args.control
    target = examples.get_state("symmetric-control", "default") if control else bundle
    if cl.witness is None:
        raise ConfigError(f"regime {cl.regime}: no growth rate to measure against")
    gamma = growth_rate(cl, _branch_data(bundle, cl))[0]
    h = cl.h if cl.h is not None else 0.5
    try:
        params = pde_sim.HadamardParams(
            K=args.K, alpha=args.alpha_h, m=args.m, delta=args.delta, h=h, gamma_minus=gamma,
            T_star=args.T_star if args.T_star else 1.5 * args.K / gamma)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    try:
        report = pde_sim.run_instability_experiment(
            target.sys, target.phi, None if control else cl, params, ladder,
            xi0=float(target.xi0[0]), x0=float(target.x0[0]), e_vec=target.e_vec,
            phi_traj_vec=target.phi_traj_vec, control=control,
            filter_strength=args.filter_strength, length=args.length,
            dump_dir=_out_path(args, "states") if args.dump_states else None)
    except pde_sim.BoxLengthError as exc:
        raise ConfigError(f"{exc}; pass a --length that is a period") from exc
    cfg_dict = {"example": args.example, "state": args.state, "control": control,
                "eps_ladder": args.eps_ladder, "K": params.K, "alpha": params.alpha,
                "m": params.m, "delta": params.delta, "T_star": params.T_star,
                "h": h, "gamma_minus": gamma,
                "filter_strength": args.filter_strength, "length": args.length}
    header = canonical_config(cfg_dict)
    tag = "control" if control else f"{args.example}_{args.state}"
    csv_path = _out_path(args, f"hadamard_{tag}.csv")
    _write_csv(csv_path, header, list(pde_sim.HadamardRow.__dataclass_fields__),
               [["" if v is None else v for v in r.as_dict().values()]
                for r in report.rows])
    json_path = _out_path(args, f"hadamard_{tag}.json")
    with open(json_path, "w") as f:
        f.write(report.to_json() + "\n")
    for row in report.rows:
        print(f"eps={row.eps:g}: ratio={row.ratio:.6g} growth_fit={row.growth_exponent_fit:.4g} "
              + (f"breakdown@{row.breakdown_time:.4g}({row.breakdown_reason})"
                 if row.breakdown_time else "no breakdown"))
    print(f"reports written to {csv_path}, {json_path}")
    if any(r.breakdown_time is not None for r in report.rows):
        return EXIT_BREAKDOWN
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="hypflow",
                                description="transition classification, growth "
                                "envelopes and instability experiments")
    p.add_argument("--version", action="version", version=f"hypflow {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, example=False):
        sp.add_argument("--config", help="key=value or JSON config file")
        sp.add_argument("--out", default="", help="output directory")
        if example:
            sp.add_argument("--tol", type=float, default=1e-8,
                            help="classification equality tolerance")
            sp.add_argument("--example", required=True)
            sp.add_argument("--state", default=None,
                            help="registry state (default: the example's default "
                            "state, listed by list-examples)")
            sp.add_argument("--alpha", type=float, default=None,
                            help="system parameter alpha (kgz only)")
            sp.add_argument("--c", type=float, default=None,
                            help="system parameter c (kgz only)")
            sp.add_argument("--F2", type=float, default=None,
                            help="source second component (burgers1d only)")

    sp = sub.add_parser("list-examples", help="list registered systems and states")
    sp.set_defaults(func=cmd_list_examples)

    sp = sub.add_parser("classify", help="classify the transition regime")
    common(sp, example=True)
    sp.set_defaults(func=cmd_classify)

    sp = sub.add_parser("branch", help="branching data at the classified witness")
    common(sp, example=True)
    sp.set_defaults(func=cmd_branch)

    sp = sub.add_parser("airy", help="Airy values and envelope ratios to CSV")
    common(sp)
    sp.add_argument("--t-max", type=float, default=20.0)
    sp.add_argument("--points", type=int, default=81)
    sp.set_defaults(func=cmd_airy)

    sp = sub.add_parser("flow", help="model-block flow envelope compliance")
    common(sp)
    sp.add_argument("--eps-ladder", default="1e-2,1e-3,1e-4,1e-6")
    sp.add_argument("--model-f0", type=float, default=1.0)
    sp.add_argument("--model-tstar", type=float, default=0.0)
    sp.add_argument("--T-star", type=float, default=4.0)
    sp.add_argument("--gamma-scale", type=float, default=1.0,
                    help="scale the envelope rate (sanity inversion when < 1)")
    sp.set_defaults(func=cmd_flow)

    sp = sub.add_parser("quantize-check", help="semiclassical calculus residuals")
    common(sp)
    sp.add_argument("--seed", type=int, default=0, help="seed of the probe function")
    sp.add_argument("--eps-ladder", default="1e-2,1e-3,1e-4,1e-5")
    sp.set_defaults(func=cmd_quantize_check)

    sp = sub.add_parser("simulate", help="wave-packet instability ladder")
    common(sp, example=True)
    sp.add_argument("--eps-ladder", default="1e-2,1e-3")
    sp.add_argument("--control", action="store_true",
                    help="run the symmetric control system instead")
    sp.add_argument("--K", type=float, default=3.0)
    sp.add_argument("--m", type=float, default=1.25)
    sp.add_argument("--hadamard-alpha", dest="alpha_h", type=float, default=1.0)
    sp.add_argument("--delta", type=float, default=0.7)
    sp.add_argument("--T-star", type=float, default=0.0,
                    help="0 selects 1.5 K / gamma automatically")
    sp.add_argument("--filter-strength", type=float, default=1e4)
    sp.add_argument("--length", type=float, default=float(np.pi))
    sp.add_argument("--dump-states", action="store_true",
                    help="save initial/final fields in the binary grid container")
    sp.set_defaults(func=cmd_simulate)
    return p


def _config_defaults(sub, command: str, cfg: dict) -> dict:
    """The config values as defaults of `sub`, the parser of `command`, keyed
    by dest.  A key names an option by its dest or any option string, dashes
    read as underscores; only its last dotted component counts.  Each value
    takes its option's type."""
    options = {}
    for action in sub._actions:
        if action.option_strings and action.dest not in ("help", "config"):
            for name in (action.dest, *action.option_strings):
                options[name.lstrip("-").replace("-", "_")] = action
    out = {}
    for key, val in cfg.items():
        action = options.get(key.split(".")[-1].replace("-", "_"))
        if action is None:
            raise ConfigError(f"{key!r} names no option of {command}")
        caster = _config_bool if isinstance(action, argparse._StoreTrueAction) \
            else action.type or str
        try:
            out[action.dest] = caster(val)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{key}: {exc}") from None
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "config", None):
        # config values become the command's defaults, so a flag given on the
        # command line wins however it is spelled
        sub = next(a for a in parser._actions
                   if isinstance(a, argparse._SubParsersAction)).choices[args.command]
        try:
            sub.set_defaults(**_config_defaults(sub, args.command,
                                                _load_config_file(args.config)))
        except (OSError, ConfigError, json.JSONDecodeError) as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (RuntimeError, np.linalg.LinAlgError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
