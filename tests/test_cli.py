import json
import shlex
from pathlib import Path

import numpy as np
import pytest

from hypflow import airy, pde_sim
from hypflow.branching import growth_rate
from hypflow.classifier import classify
from hypflow.cli import (EXIT_BREAKDOWN, EXIT_CONFIG, EXIT_OK, _bundle_from_args,
                         build_parser, main)
from hypflow.examples import get_state


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_list_examples(capsys):
    code, out, _ = run(["list-examples"], capsys)
    assert code == EXIT_OK
    for name in ("burgers1d", "vdw", "kgz", "symmetric-control"):
        assert name in out


def test_classify_commands(capsys, tmp_path):
    code, out, _ = run(["classify", "--example", "vdw", "--state", "elliptic",
                        "--out", str(tmp_path)], capsys)
    assert code == EXIT_OK and "regime: Elliptic" in out
    report = json.loads((tmp_path / "classify_vdw_elliptic.json").read_text())
    assert report["regime"] == "Elliptic" and report["ell"] == 0.0

    code, out, _ = run(["classify", "--example", "kgz", "--alpha", "1",
                        "--c", "0.5", "--state", "witness"], capsys)
    assert code == EXIT_OK and "NonSemisimpleTransition" in out

    code, out, _ = run(["classify", "--example", "burgers1d", "--state", "semisimple",
                        "--F2", "0"], capsys)
    assert code == EXIT_OK and "HyperbolicPersistent" in out


def test_state_defaults_to_the_example_default(capsys, tmp_path):
    # --state used to default to `witness`, a state only vdw and kgz have
    for example, state, regime in (("burgers1d", "semisimple", "SemisimpleTransition"),
                                   ("symmetric-control", "default", "HyperbolicPersistent")):
        code, out, err = run(["classify", "--example", example, "--out", str(tmp_path)],
                             capsys)
        assert code == EXIT_OK, err
        report = json.loads((tmp_path / f"classify_{example}_{state}.json").read_text())
        assert report["regime"] == regime and f"regime: {regime}" in out


def test_F2_with_another_example_is_config_error(capsys):
    # F2 is a burgers1d parameter; vdw used to run with it silently unused
    code, _, err = run(["classify", "--example", "vdw", "--state", "elliptic",
                        "--F2", "5"], capsys)
    assert code == EXIT_CONFIG and "takes no parameter F2" in err


def test_F2_with_a_state_is_config_error(capsys, tmp_path):
    # the --F2 state used to stand in for any --state, even an unknown one;
    # F2 now sets a parameter of the registry states, so the name is checked
    code, _, err = run(["classify", "--example", "burgers1d", "--F2", "1",
                        "--state", "nonesuch", "--out", str(tmp_path)], capsys)
    assert code == EXIT_CONFIG and "nonesuch" in err
    assert not list(tmp_path.iterdir())


def test_parameter_the_example_does_not_take_is_config_error(capsys):
    # only kgz takes --alpha and --c, and only burgers1d --F2; the others used
    # to run with them unused, vdw printing the unchanged Elliptic result
    code, out, err = run(["classify", "--example", "vdw", "--state", "elliptic",
                          "--alpha", "3"], capsys)
    assert code == EXIT_CONFIG and "takes no parameter alpha" in err and "regime" not in out
    code, _, err = run(["branch", "--example", "burgers1d", "--state", "semisimple",
                        "--c", "0.5"], capsys)
    assert code == EXIT_CONFIG and "takes no parameter c" in err
    code, _, err = run(["classify", "--example", "burgers1d", "--state", "semisimple",
                        "--F2", "1", "--alpha", "3"], capsys)
    assert code == EXIT_CONFIG and "takes no parameter alpha" in err
    # the README's kgz parameters still run
    code, out, _ = run(["classify", "--example", "kgz", "--alpha", "1", "--c", "0.5",
                        "--state", "witness"], capsys)
    assert code == EXIT_OK and "NonSemisimpleTransition" in out


def test_simulate_on_a_box_that_is_not_a_period_is_config_error(capsys, tmp_path):
    # the witness is 2 pi-periodic; the default pi box used to exit 4 on a
    # spectral_tail breakdown at the first steps
    code, _, err = run(["simulate", "--example", "vdw", "--state", "witness",
                        "--eps-ladder", "1e-2", "--out", str(tmp_path)], capsys)
    assert code == EXIT_CONFIG and "not a period" in err
    assert not list(tmp_path.iterdir())


def test_branch_command(capsys):
    code, out, _ = run(["branch", "--example", "vdw", "--state", "witness"], capsys)
    assert code == EXIT_OK
    data = json.loads(out)
    assert abs(data["gamma_minus"] - 2.0 / 3.0) < 1e-6
    assert abs(data["branch"]["tau_star"]) < 1e-8


def test_branch_json_carries_f0_once(capsys):
    # f0 is the e-factor at (tau*, mu), which the JSON also printed as e0;
    # newton_iters was a hard-coded 0
    code, out, _ = run(["branch", "--example", "vdw", "--state", "witness"], capsys)
    assert code == EXIT_OK
    branch = json.loads(out)["branch"]
    assert branch["f0"] == 0.9999999999995198
    assert "e0" not in branch and "newton_iters" not in branch


def test_unknown_example_is_config_error(capsys):
    code, _, err = run(["classify", "--example", "nonesuch"], capsys)
    assert code == EXIT_CONFIG
    assert "nonesuch" in err


def test_bad_config_file(capsys, tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("this line has no equals sign\n")
    code, _, err = run(["classify", "--example", "vdw", "--state", "elliptic",
                        "--config", str(bad)], capsys)
    assert code == EXIT_CONFIG


def test_config_file_round_trip(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[classify]\nstate = decaying\n")
    code, out, _ = run(["classify", "--example", "vdw", "--config", str(cfg)], capsys)
    assert code == EXIT_OK and "HyperbolicPersistent" in out
    jcfg = tmp_path / "run.json"
    jcfg.write_text(json.dumps({"state": "elliptic"}))
    code, out, _ = run(["classify", "--example", "vdw", "--config", str(jcfg)], capsys)
    assert code == EXIT_OK and "Elliptic" in out


@pytest.mark.parametrize("key", ["eps_ladder", "eps-ladder"])
@pytest.mark.parametrize("flag", [["--eps-ladder", "1e-2,1e-3"], ["--eps-ladder=1e-2,1e-3"]])
def test_explicit_flag_beats_config(capsys, tmp_path, key, flag):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"[quantize-check]\n{key} = 0.5,0.25\n")
    code, _, _ = run(["quantize-check", "--out", str(tmp_path), "--config", str(cfg)]
                     + flag, capsys)
    assert code == EXIT_OK
    header = (tmp_path / "quantize_check.csv").read_text()
    assert "# eps_ladder=1e-2,1e-3\n" in header


def _capture_simulate(monkeypatch):
    seen = {}

    def fake(*args, **kwargs):
        seen.update(kwargs, params=args[3])
        return pde_sim.HadamardReport([], {})
    monkeypatch.setattr(pde_sim, "run_instability_experiment", fake)
    return seen


def test_config_booleans_false_stay_off(capsys, tmp_path, monkeypatch):
    seen = _capture_simulate(monkeypatch)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("control = false\ndump-states = False\n")
    code, _, _ = run(["simulate", "--example", "burgers1d", "--state", "semisimple",
                      "--out", str(tmp_path), "--config", str(cfg)], capsys)
    assert code == EXIT_OK
    assert seen["control"] is False and seen["dump_dir"] is None
    jcfg = tmp_path / "run.json"
    jcfg.write_text(json.dumps({"control": "YES", "dump_states": 1}))
    code, _, _ = run(["simulate", "--example", "burgers1d", "--state", "semisimple",
                      "--out", str(tmp_path), "--config", str(jcfg)], capsys)
    assert code == EXIT_OK
    assert seen["control"] is True and seen["dump_dir"] is not None


def test_config_bad_boolean_is_config_error(capsys, tmp_path, monkeypatch):
    seen = _capture_simulate(monkeypatch)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("control = maybe\n")
    code, _, err = run(["simulate", "--example", "burgers1d", "--state", "semisimple",
                        "--config", str(cfg)], capsys)
    assert code == EXIT_CONFIG and "control" in err
    assert not seen


def test_config_values_take_the_option_type(capsys, tmp_path):
    # alpha and c default to None; their config values must still be floats
    cfg = tmp_path / "run.cfg"
    cfg.write_text("alpha = 1\nc = 0.5\n")
    code, out, _ = run(["classify", "--example", "kgz", "--state", "witness",
                        "--config", str(cfg)], capsys)
    assert code == EXIT_OK and "NonSemisimpleTransition" in out


def test_config_key_by_option_string(capsys, tmp_path, monkeypatch):
    # hadamard-alpha is stored in alpha_h
    seen = _capture_simulate(monkeypatch)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("hadamard-alpha = 0.9\n")
    code, _, _ = run(["simulate", "--example", "burgers1d", "--state", "semisimple",
                      "--out", str(tmp_path), "--config", str(cfg)], capsys)
    assert code == EXIT_OK
    assert seen["params"].alpha == 0.9


def test_config_unknown_key_is_config_error(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("eps-ladr = 1e-2\n")
    code, _, err = run(["quantize-check", "--out", str(tmp_path),
                        "--config", str(cfg)], capsys)
    assert code == EXIT_CONFIG and "eps-ladr" in err
    assert not (tmp_path / "quantize_check.csv").exists()


@pytest.mark.parametrize("command", [["quantize-check"], ["flow", "--T-star", "3"]])
def test_single_eps_ladder_is_config_error(capsys, tmp_path, command):
    # a log-log fit needs two distinct eps values
    code, _, err = run(command + ["--out", str(tmp_path), "--eps-ladder", "1e-2"], capsys)
    assert code == EXIT_CONFIG and "two distinct eps" in err


def test_airy_command_headers_and_wronskian(capsys, tmp_path):
    code, out, _ = run(["airy", "--out", str(tmp_path), "--points", "9"], capsys)
    assert code == EXIT_OK and "ok=True" in out
    lines = (tmp_path / "airy.csv").read_text().splitlines()
    assert lines[0].startswith("# hypflow")
    header = lines[[i for i, l in enumerate(lines) if not l.startswith("#")][0]]
    cols = header.split(",")
    idx = cols.index("wronskian_dev")
    for line in lines[len(cols) + 1:]:
        pass
    data = [l for l in lines if not l.startswith("#")][1:]
    devs = [float(l.split(",")[idx]) for l in data]
    assert max(devs) < 1e-8


def test_airy_table_matches_the_per_row_closed_forms(capsys, tmp_path):
    # the table comes from one array call of Ai; row by row it is Ai(t),
    # |Z(0;t)_12| / e_Ai(0;t) and the Wronskian's deviation at min(t, 10)
    for extra in ([], ["--points", "9"]):
        code, _, err = run(["airy", "--out", str(tmp_path)] + extra, capsys)
        assert code == EXIT_OK, err
        lines = [line for line in (tmp_path / "airy.csv").read_text().splitlines()
                 if not line.startswith("#")]
        table = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        assert len(table) == (9 if extra else 81)
        for t, ai, ratio, dev in table:
            w = airy.wronskian(min(t, 10.0))
            ratio_row = abs(airy.vector_airy(0.0, t).Z[0, 1]) / airy.airy_envelope(0.0, t)
            assert abs(ai - airy.airy_ai(t).ai.real) <= 1e-14 * abs(ai)
            assert abs(ratio - ratio_row) <= 1e-14 * ratio_row
            assert abs(dev - abs(w - airy.WRONSKIAN_CONST) / abs(airy.WRONSKIAN_CONST)) <= 1e-15


def test_airy_t_max_zero_gives_the_vacuous_fits(capsys, tmp_path):
    # a grid with no positive point: c_lower = inf, and the command succeeds
    code, out, _ = run(["airy", "--t-max", "0", "--points", "3", "--out", str(tmp_path)],
                       capsys)
    path = tmp_path / "airy.csv"
    assert code == EXIT_OK
    assert out == f"airy bounds: C_upper=1.0000 c_lower=inf ok=True; CSV written to {path}\n"
    data = [line for line in path.read_text().splitlines() if not line.startswith("#")]
    assert data[0] == "t,Ai,lower_envelope_ratio,wronskian_dev" and len(data) == 4
    assert all(line.split(",")[:3] == ["0", "0.35502805388781722", "0"] for line in data[1:])


def test_outputs_default_to_the_working_directory(capsys, tmp_path, monkeypatch):
    # with no --out, files land in the current directory, and
    # simulate --dump-states still gets a states directory
    monkeypatch.chdir(tmp_path)
    code, _, err = run(["airy", "--points", "3"], capsys)
    assert code == EXIT_OK, err
    assert (tmp_path / "airy.csv").exists()
    seen = _capture_simulate(monkeypatch)
    code, _, err = run(["simulate", "--example", "burgers1d", "--state", "semisimple",
                        "--dump-states"], capsys)
    assert code == EXIT_OK, err
    assert seen["dump_dir"] == "states"
    assert (tmp_path / "hadamard_burgers1d_semisimple.csv").exists()


def test_quantize_check_determinism(capsys, tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    code, _, _ = run(["quantize-check", "--out", str(out1),
                      "--eps-ladder", "1e-2,1e-3"], capsys)
    assert code == EXIT_OK
    code, _, _ = run(["quantize-check", "--out", str(out2),
                      "--eps-ladder", "1e-2,1e-3"], capsys)
    assert code == EXIT_OK
    b1 = (out1 / "quantize_check.csv").read_bytes()
    b2 = (out2 / "quantize_check.csv").read_bytes()
    assert b1 == b2


def test_flow_command(capsys, tmp_path):
    code, out, _ = run(["flow", "--out", str(tmp_path),
                        "--eps-ladder", "1e-2,1e-3", "--T-star", "3"], capsys)
    assert code == EXIT_OK and "failure_flag=False" in out
    lines = (tmp_path / "flow_envelope.csv").read_text().splitlines()
    data = [l for l in lines if not l.startswith("#")]
    cols = data[0].split(",")
    i_tau, i_t, i_ratio = cols.index("tau"), cols.index("t"), cols.index("ratio")
    for row in data[1:]:
        vals = row.split(",")
        if vals[i_tau] == vals[i_t]:
            assert abs(float(vals[i_ratio]) - 1.0) < 1e-12


def test_simulate_breakdown_exit_code(capsys, tmp_path):
    code, out, _ = run(["simulate", "--example", "burgers1d", "--state", "semisimple",
                        "--eps-ladder", "1e-2", "--out", str(tmp_path)], capsys)
    assert code == EXIT_BREAKDOWN
    assert (tmp_path / "hadamard_burgers1d_semisimple.csv").exists()
    assert (tmp_path / "hadamard_burgers1d_semisimple.json").exists()
    payload = json.loads((tmp_path / "hadamard_burgers1d_semisimple.json").read_text())
    assert payload["metadata"]["filter_strength"] == 1e4
    assert payload["rows"][0]["breakdown_reason"] is not None


def test_simulate_kgz_witness_runs(capsys, tmp_path):
    # the kgz states carry no e_vec: the packet direction defaults to the
    # first unit vector of the 4-component state.  The box is the witness's
    # period 2 pi, on which the 1e-3 rung runs about 6 times longer than 5e-3
    code, _, err = run(["simulate", "--example", "kgz", "--state", "witness",
                        "--length", "6.283185307179586", "--eps-ladder", "1e-2,5e-3",
                        "--out", str(tmp_path)], capsys)
    assert code in (EXIT_OK, EXIT_BREAKDOWN), err
    payload = json.loads((tmp_path / "hadamard_kgz_witness.json").read_text())
    assert [r["eps"] for r in payload["rows"]] == [1e-2, 5e-3]


@pytest.mark.parametrize("argv, needle", [
    (["classify", "--example", "kgz", "--c", "1"], "|c| = 1"),
    (["classify", "--example", "vdw", "--state", "nonesuch"], "nonesuch"),
    (["simulate", "--example", "burgers1d", "--state", "semisimple",
      "--hadamard-alpha", "0.4"], "alpha must lie"),
    (["simulate", "--example", "burgers1d", "--state", "semisimple",
      "--eps-ladder", "1e-2,abc"], "bad eps ladder"),
    (["airy", "--t-max", "50"], "0 <= t <= 40"),
    (["airy", "--t-max", "-1"], "0 <= t <= 40"),
    (["airy", "--points", "-1"], "at least one point"),
    (["flow", "--T-star", "-1"], "must be positive"),
    (["flow", "--T-star", "0"], "must be positive"),
    (["flow", "--model-f0", "-1"], "f0 > 0"),
    (["simulate", "--example", "burgers1d", "--delta", "-1"], "delta = -1 must be positive"),
    (["simulate", "--example", "burgers1d", "--delta", "0"], "delta = 0 must be positive"),
    (["simulate", "--example", "burgers1d", "--length", "-3.14"], "positive length"),
    (["simulate", "--example", "burgers1d", "--length", "0"], "positive length"),
], ids=["kgz-sonic", "unknown-state", "hadamard-gate", "bad-ladder",
        "airy-t-max-high", "airy-t-max-negative", "airy-points",
        "flow-T-star-negative", "flow-T-star-zero", "flow-model-f0-negative",
        "simulate-delta-negative", "simulate-delta-zero", "simulate-length-negative",
        "simulate-length-zero"])
def test_user_input_checks_are_config_errors(capsys, monkeypatch, argv, needle):
    seen = _capture_simulate(monkeypatch)
    code, _, err = run(argv, capsys)
    assert code == EXIT_CONFIG and needle in err
    assert not seen


def test_options_a_command_never_reads_are_refused(capsys, tmp_path):
    # --tol is read only by classify, branch and simulate, and --seed only by
    # quantize-check; elsewhere neither flag nor config key exists
    with pytest.raises(SystemExit) as exc:
        main(["airy", "--tol", "1e-3"])
    assert exc.value.code == EXIT_CONFIG
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = 1\n")
    code, _, err = run(["flow", "--out", str(tmp_path), "--config", str(cfg)], capsys)
    assert code == EXIT_CONFIG and "'seed' names no option of flow" in err
    assert not (tmp_path / "flow_envelope.csv").exists()


def test_F2_rate_comes_from_growth_rate(capsys, tmp_path, monkeypatch):
    # simulate takes its rate from the jet formula alone; ill-posed-all-data
    # used to take its hand-entered 0.125 instead
    seen = _capture_simulate(monkeypatch)
    for state, F2 in (("semisimple", None), ("ill-posed-all-data", None),
                      ("semisimple", 2.0)):
        extra = [] if F2 is None else ["--F2", str(F2)]
        code, _, err = run(["simulate", "--example", "burgers1d", "--state", state,
                            "--out", str(tmp_path)] + extra, capsys)
        assert code == EXIT_OK, err
        b = get_state("burgers1d", state, **({} if F2 is None else {"F2": F2}))
        cl = classify(b.sys, b.phi, b.search_region)
        assert cl.ell == 1.0
        assert seen["params"].gamma_minus == growth_rate(cl, None)[0]


def test_readme_command_lines_name_what_the_cli_takes():
    # every `hypflow ...` line of the README's "Command line" block parses, and
    # a command that takes --example names a registry state and its parameters
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.replace("\\\n", " ").splitlines()
             if line.startswith("hypflow ")]
    assert len(lines) >= 10
    for line in lines:
        args = build_parser().parse_args(shlex.split(line)[1:])
        if hasattr(args, "example"):
            _bundle_from_args(args)


def test_program_value_error_is_not_config_error(capsys, tmp_path, monkeypatch):
    # a shape bug inside the numerics must not pass for a user mistake
    def broken(*args, **kwargs):
        raise ValueError("operands could not be broadcast together with shapes (2,) (3,)")
    monkeypatch.setattr(pde_sim, "run_instability_experiment", broken)
    with pytest.raises(ValueError, match="broadcast"):
        main(["simulate", "--example", "burgers1d", "--state", "semisimple",
              "--eps-ladder", "1e-2", "--out", str(tmp_path)])
