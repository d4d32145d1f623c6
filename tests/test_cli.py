"""CLI contract: validation, precedence, deterministic payloads, manifests."""

import functools
import hashlib
import json
import math
import os
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest

from reference import csv_rows_reference
from relqlab import _csvtext, cli, collapse, evolution


def run_cli(args):
    return cli.main([str(a) for a in args])


def read_json(path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


def child_env():
    """This environment, with relqlab importable in a child interpreter."""
    return {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}


def payload_bytes(outdir):
    """Everything except the manifest (timestamps live only there)."""
    out = {}
    for p in sorted(Path(outdir).iterdir()):
        if p.name != "manifest.json":
            out[p.name] = p.read_bytes()
    return out


# ---------------------------------------------------------------------------
# parsing and validation


def test_parse_basic_ensemble():
    cfg = cli.parse_and_validate(["ensemble", "--n-runs", "10000", "--seed", "7"])
    assert cfg.subcommand == "ensemble"
    assert cfg.parameters["n_runs"] == 10000
    assert cfg.seed == 7
    assert cfg.parameters["sigma"] == pytest.approx(0.55)  # documented default


def test_parse_rejects_non_power_of_two_grid():
    with pytest.raises(ValueError, match="grid_n"):
        cli.parse_and_validate(["evolve", "--grid-n", "1000"])


def test_parse_rejects_unknown_config_key(tmp_path):
    cfg_file = tmp_path / "conf.json"
    cfg_file.write_text(json.dumps({"ensemble": {"sigmaz": 0.1}}))
    with pytest.raises(ValueError, match="sigmaz"):
        cli.parse_and_validate(["ensemble", "--config", str(cfg_file)])
    cfg_file.write_text(json.dumps({"ab": {"d_slit": 10.0}}))  # ab works in fringe units
    with pytest.raises(ValueError, match="d_slit"):
        cli.parse_and_validate(["ab", "--config", str(cfg_file)])


def test_parse_rejects_out_of_range(tmp_path):
    with pytest.raises(ValueError, match="threshold"):
        cli.parse_and_validate(["collapse", "--threshold", "0.4"])
    with pytest.raises(ValueError, match="n_max"):
        cli.parse_and_validate(["oracle", "--n-max", "13"])


def test_flag_overrides_config(tmp_path):
    cfg_file = tmp_path / "conf.json"
    cfg_file.write_text(json.dumps({"ensemble": {"sigma": 0.01, "n_runs": 5}}))
    cfg = cli.parse_and_validate(["ensemble", "--config", str(cfg_file), "--sigma", "0.02"])
    assert cfg.parameters["sigma"] == pytest.approx(0.02)
    assert cfg.parameters["n_runs"] == 5


def test_validation_error_exit_code(tmp_path, capsys):
    code = run_cli(["evolve", "--grid-n", "1000", "--out", tmp_path / "x"])
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "validation"
    assert "grid_n" in err["message"]


def test_module_error_surfaces_as_json(tmp_path, capsys, monkeypatch):
    # an error raised while computing, after validation passed
    def overflowing(cfg):
        raise OverflowError("kernel moment overflows double precision")
        yield

    monkeypatch.setitem(cli._RUNNERS, "oracle", overflowing)
    code = run_cli(["oracle", "--out", tmp_path / "o"])
    assert code == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "OverflowError"


def test_noise_past_its_domain_is_a_validation_error(tmp_path, capsys):
    code = run_cli(["ensemble", "--e0", "1.1", "--e1", "4.0", "--sigma", "2.5",
                    "--n-runs", "200", "--out", tmp_path / "e"])
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "validation" and err["message"].startswith("ensemble.sigma:")
    assert "f_max max|A1, A0, B1, B0|" in err["message"]
    assert not (tmp_path / "e").exists()


@pytest.mark.parametrize("argv, key", [
    (["kernel", "--eta-max", "0.05"], "kernel.eta_max"),
    (["ab", "--segments", "5999"], "ab.segments"),
    (["ab", "--b1-amp", "2.5"], "ab.b1_amp"),
    (["ab", "--p-beam", "1e200"], "ab.p_beam"),
    (["collapse", "--sigma", "3"], "collapse.sigma"),
    (["ensemble", "--sigma", "3"], "ensemble.sigma"),
    (["collapse", "--seed", str(2**128)], "collapse.seed"),
    (["collapse", "--e0", "1e300"], "collapse.e0"),  # p0 = sqrt(e0^2 - 1) overflows
    (["ensemble", "--e0", "1e300", "--n-runs", "10", "--max-steps", "100"], "ensemble.e0"),
    (["collapse", "--mode", "foo"], "collapse.mode"),
    (["ab", "--a0-main", "1e110"], "ab.a0_main"),  # a level whose kick gain underflows
    (["evolve", "--mass", "1e200"], "evolve.mass"),  # dispersion squares the mass
    (["evolve", "--a0", "1e200"], "evolve.a0"),
    (["evolve", "--length", "1e-300"], "evolve.length"),  # the grid's top |p| squared
    (["evolve", "--dt", "1e308"], "evolve.dt"),  # E(p) dt steps
    (["evolve", "--sigma", "0.001"], "evolve.sigma"),  # the packet underflows on the grid
    (["evolve", "--x0", "1e300"], "evolve.x0"),
    (["flux", "--x0", "0.3", "--sigma", "0.001"], "flux.sigma"),
    (["flux", "--length", "1e-300"], "flux.length"),
    (["ab", "--segments", "0"], "ab.segments"),
    # the default grid's Nyquist momentum is pi 1024 / 200 ~ 16.1: p0 alone passes it, or
    # p0 and 8 momentum spreads 1/(2 sigma) do
    (["evolve", "--p0", "1e3"], "evolve.p0"),
    (["evolve", "--p0", "15", "--sigma", "0.1"], "evolve.sigma"),
    (["flux", "--p0=-1.0"], "flux.p0"),  # Nyquist momentum 1.0 on the default flux grid
    # (x - x0)^2 overflows at the grid's edge; 4 sigma^2 overflows too
    (["evolve", "--grid-n", "16", "--length", "3e154", "--sigma", "3e153", "--p0", "0",
      "--steps", "4", "--snapshot-stride", "2"], "evolve.sigma"),
    (["evolve", "--grid-n", "64", "--length", "1e160", "--sigma", "1e159", "--p0", "0",
      "--steps", "4"], "evolve.sigma"),
    (["evolve", "--x0", "0", "--sigma", "1e-155"], "evolve.sigma"),  # the ratio overflows
    # 300 is mode -212 of the default 512-point grid, and 256 its Nyquist mode
    (["flux", "--packet", "plane", "--k-index", "300"], "flux.k_index"),
    (["flux", "--packet", "plane", "--k-index", "256"], "flux.k_index"),
    (["oracle", "--eps0-list", "1e300"], "oracle.eps0_list"),  # M_2 ~ 5e600
    (["oracle", "--n-max", "12", "--eps0-list", "0.5,1e30"], "oracle.eps0_list"),
    # max E(p) dt steps overflows with dt steps finite: through steps (max E(p) dt is
    # 1.6e307), or through E(p) at mass 1e150
    (["evolve", "--dt", "1e306", "--steps", "100", "--snapshot-stride", "100"], "evolve.dt"),
    (["evolve", "--mass", "1e150", "--dt", "1e160"], "evolve.dt"),
    # the default packet reaches |p0| + 8 / (2 sigma) = 0.114: past the mass the series diverges
    (["flux", "--mass", "0.1"], "flux.mass"),
    (["flux", "--mass", "0.03"], "flux.mass"),
    (["flux", "--mass", "0.01"], "flux.mass"),
    (["flux", "--mass", "1e-10"], "flux.mass"),
    # the screen phase 2 pi xi - flux rounds by |flux| eps / 2: ~1.1 rad at 1e16
    (["ab", "--flux", "1e16", "--b1-amp", "0"], "ab.flux"),
    (["ab", "--flux", "1e30", "--b1-amp", "0"], "ab.flux"),
    (["ab", "--flux", "1e30"], "ab.flux"),
    (["ab", "--flux=-1e300"], "ab.flux"),
    # a plane wave reaches its own momentum 2 pi k_index / length: 0.117 for mode 30
    (["flux", "--packet", "plane", "--mass", "1e-10"], "flux.mass"),
    (["flux", "--packet", "plane", "--mass", "0.1"], "flux.mass"),
    (["flux", "--packet", "plane", "--mass", "0.5", "--k-index", "200"], "flux.mass"),
])
def test_parameters_past_a_library_domain_fail_before_any_output(tmp_path, capsys, argv, key):
    # checks that need the parameters alone run at validation: exit 2, no directory
    assert run_cli([*argv, "--out", tmp_path / "x"]) == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "validation" and err["message"].startswith(key + ":")
    assert not (tmp_path / "x").exists()


EXTREME_VALUES = ("5e-324", "1e-300", "1e-30", "1e30", "1e300", "-1e-300", "-1e300")
SMALL_SETTINGS = {
    "kernel": ["--eta-count", "4"],
    "evolve": ["--grid-n", "64", "--steps", "2"],
    "collapse": ["--max-steps", "100"],
    "ensemble": ["--n-runs", "4", "--max-steps", "100"],
    "ab": ["--segments", "100", "--screen-points", "64"],
    "flux": ["--grid-n", "64", "--n-trunc-max", "2"],
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name, key", [
    (name, prm.name) for name, params in cli.SCHEMAS.items() for prm in params
    if prm.type is float])
def test_extreme_float_values_run_or_fail_validation(tmp_path, capsys, name, key):
    # every float parameter at the edges of the double range, one at a time: the run
    # succeeds, or validation refuses it naming a key before any output exists
    for value in EXTREME_VALUES:
        out = tmp_path / value
        code = run_cli([name, *SMALL_SETTINGS[name], f"--{key.replace('_', '-')}={value}",
                        "--out", out])
        err = capsys.readouterr().err.strip()
        assert code in (0, 2), (value, err)
        if code == 0 and name == "evolve":  # a run that exits 0 stays physical
            summary = read_json(out / "evolve_summary.json")
            assert abs(summary["group_velocity_estimate"]) <= 1.0, (value, summary)
            assert summary["norm_drift"] <= 1e-12, (value, summary)
        if code == 2:
            message = json.loads(err)["message"]
            assert message.split(":")[0] in {f"{name}.{p.name}" for p in cli.SCHEMAS[name]}
            assert not out.exists()


@pytest.mark.parametrize("args", [
    ["--steps", "10000", "--snapshot-stride", "5000"],  # travels 223 round a box of 200
    ["--dt", "1e-300"],
    ["--dt", "5e-324", "--steps", "2"],
])
def test_evolve_group_velocity_divides_by_no_time(tmp_path, args):
    # <(p - a0) / E(p)> over the initial packet: no centroid drift is divided by dt steps,
    # so a run that wraps the box and one that hardly moves read near p0 / E(p0)
    out = tmp_path / "ev"
    assert run_cli(["evolve", *args, "--out", out]) == 0
    target = 0.5 / math.sqrt(1.25)
    v_group = read_json(out / "evolve_summary.json")["group_velocity_estimate"]
    assert abs(v_group - target) <= 0.01 * target


@pytest.mark.parametrize("e0, e1, code", [(1.0, 1.75, 0), (1e100, 2e100, 0), (1e103, 2e103, 2)])
def test_levels_whose_kick_gain_underflows_are_rejected(tmp_path, capsys, e0, e1, code):
    # past about 4.5e102 the gain's denominator 2 e^2 (1 + e) overflows and the
    # gain is 0.0, a level deaf to the noise; only e = 1 has a true gain of 0
    argv = ["collapse", "--e0", e0, "--e1", e1, "--max-steps", "100", "--out", tmp_path / "c"]
    assert run_cli(argv) == code
    if code == 0:
        gain = collapse.TwoStateSystem(e0, e1).kick_gain(0)
        assert gain == 0.0 if e0 == 1.0 else gain > 0.0
    else:
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "validation" and err["message"].startswith("collapse.e0:")
        assert "underflow" in err["message"]
        assert not (tmp_path / "c").exists()


@pytest.mark.parametrize("section, message", [
    ({"segments": 2.5}, "ab.segments: must be an integer (got 2.5)"),
    ({"tau_flight": 6000.0}, "unknown key 'tau_flight' in config section 'ab'"),
])
def test_ab_config_counts_field_segments(tmp_path, capsys, section, message):
    cfg_file = tmp_path / "conf.json"
    cfg_file.write_text(json.dumps({"ab": section}))
    assert run_cli(["ab", "--config", cfg_file, "--out", tmp_path / "ab"]) == 2
    assert json.loads(capsys.readouterr().err.strip())["message"] == message
    assert not (tmp_path / "ab").exists()
    assert cli.parse_and_validate(["ab", "--segments", "2"]).parameters["segments"] == 2


def test_packet_rules_skip_the_plane_wave(tmp_path):
    # --packet plane samples no Gaussian, so its p0 and sigma are not checked; the series
    # rule takes the mode's momentum instead (mode 120 has p = 0.469 < 0.5)
    out = tmp_path / "flux"
    assert run_cli(["flux", "--packet", "plane", "--p0", "1e3", "--sigma", "1e-3",
                    "--mass", "0.5", "--k-index", "120", "--out", out]) == 0
    assert max(read_json(out / "flux_summary.json")["residuals"].values()) < 1e-14


def test_ab_beam_past_double_range_names_the_quantity(tmp_path, capsys):
    assert run_cli(["ab", "--p-beam", "1e160", "--out", tmp_path / "ab"]) == 2
    message = json.loads(capsys.readouterr().err.strip())["message"]
    assert message == "ab.p_beam: (p_beam +- a0_main)^2 leaves double range (got 1e+160)"
    assert not (tmp_path / "ab").exists()


def test_ab_a0_main_past_double_range_names_itself(tmp_path, capsys):
    # the larger of p_beam and a0_main overflows the square, so it is the one named
    assert run_cli(["ab", "--a0-main", "1e200", "--out", tmp_path / "ab"]) == 2
    message = json.loads(capsys.readouterr().err.strip())["message"]
    assert message == "ab.a0_main: (p_beam +- a0_main)^2 leaves double range (got 1e+200)"
    assert not (tmp_path / "ab").exists()


@pytest.mark.parametrize("mass, code", [(1.3e154, 0), (1.35e154, 2)])
def test_evolve_mass_whose_energy_overflows_is_rejected(tmp_path, capsys, mass, code):
    # dispersion squares the mass, which overflows past sqrt(float max) ~ 1.34e154
    out = tmp_path / "ev"
    argv = ["evolve", "--mass", mass, "--grid-n", "64", "--steps", "4", "--snapshot-stride", "2"]
    assert run_cli([*argv, "--out", out]) == code
    if code == 0:
        assert read_json(out / "evolve_summary.json")["norm_drift"] < 1e-12
    else:
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "validation" and err["message"].startswith("evolve.mass:")
        assert not out.exists()


@pytest.mark.parametrize("config, key", [
    ({"ensemble": {"n_runs": 3.7}}, "ensemble.n_runs"),
    ({"ensemble": {"max_steps": True}}, "ensemble.max_steps"),
    ({"seed": 2.9}, "seed"),
    ({"seed": True}, "seed"),
    ({"ensemble": {"seed": 2.5}}, "ensemble.seed"),
    ({"ensemble": {"seed": False}}, "ensemble.seed"),
    ({"threads": 1.5}, "threads"),
    ({"threads": True}, "threads"),
    ({"ensemble": {"threads": 2.5}}, "ensemble.threads"),
    ({"ensemble": {"threads": True}}, "ensemble.threads"),
    ({"ensemble": {"sigma": True}}, "ensemble.sigma"),
    ({"ensemble": {"sigma": "1e1"}}, "ensemble.sigma"),
    ({"ensemble": {"n_runs": "12"}}, "ensemble.n_runs"),
    ({"seed": "3"}, "seed"),
    ({"seed": -1}, "ensemble.seed"),
    ({"ensemble": {"seed": -1}}, "ensemble.seed"),
])
def test_config_rejects_non_integral_and_boolean_integers(tmp_path, capsys, config, key):
    cfg_file = tmp_path / "conf.json"
    cfg_file.write_text(json.dumps(config))
    code = run_cli(["ensemble", "--config", cfg_file, "--out", tmp_path / "x"])
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "validation"
    assert err["message"].startswith(key + ":")


@pytest.mark.parametrize("argv, key", [
    (["oracle", "--eps0-list", "inf"], "oracle.eps0_list"),
    (["oracle", "--eps0-list", "1e400"], "oracle.eps0_list"),
    (["oracle", "--eps0-list", "0.5,nan"], "oracle.eps0_list"),
    (["oracle", "--eps0-list", "0.5,-inf"], "oracle.eps0_list"),
    (["evolve", "--x0", "nan"], "evolve.x0"),
    (["evolve", "--p0", "inf"], "evolve.p0"),
    (["evolve", "--dt", "inf"], "evolve.dt"),
    (["evolve", "--length", "inf"], "evolve.length"),
    (["evolve", "--a0=-inf"], "evolve.a0"),
    (["kernel", "--a-line-integral", "1e400"], "kernel.a_line_integral"),
    (["ab", "--flux", "nan"], "ab.flux"),
])
def test_non_finite_float_flags_are_validation_errors(tmp_path, capsys, argv, key):
    assert run_cli([*argv, "--out", tmp_path / "x"]) == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "validation" and err["message"].startswith(key + ":")
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("literal", ["Infinity", "-Infinity", "NaN", "1e400", "1" + "0" * 400],
                         ids=["Infinity", "-Infinity", "NaN", "1e400", "int1e400"])
@pytest.mark.parametrize("section, key", [("evolve", "x0"), ("collapse", "sigma")])
def test_config_rejects_non_finite_floats(tmp_path, capsys, literal, section, key):
    # json.loads reads these literals as inf, -inf, nan, inf and an int past float range
    cfg_file = tmp_path / "conf.json"
    cfg_file.write_text('{"%s": {"%s": %s}}' % (section, key, literal))
    assert run_cli([section, "--config", cfg_file, "--out", tmp_path / "x"]) == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "validation"
    assert err["message"].startswith(f"{section}.{key}:")


@pytest.mark.parametrize("config, key", [
    ({"out": None}, "out"),
    ({"out": 5}, "out"),
    ({"ensemble": {"out": ["x"]}}, "ensemble.out"),
    ({"oracle": {"eps0_list": 0.5}}, "oracle.eps0_list"),
    ({"collapse": {"mode": 1}}, "collapse.mode"),
    ({"ensemble": {"sigma": "x"}}, "ensemble.sigma"),
])
def test_config_out_must_be_a_string(tmp_path, capsys, config, key):
    # every setting must have its JSON type: out, eps0_list and mode a string, sigma a number
    cfg_file = tmp_path / "conf.json"
    cfg_file.write_text(json.dumps(config))
    name, _, setting = key.rpartition(".")
    flag = {"out": [], "eps0_list": ["--eps0-list", "1"], "mode": ["--mode", "uniform"],
            "sigma": ["--sigma", "0.1"]}[setting]
    # the flag would win, but the file is checked first
    assert run_cli([name or "ensemble", "--config", cfg_file, *flag, "--out", tmp_path / "x"]) == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "validation" and err["message"].startswith(key + ":")


@pytest.mark.parametrize("argv, content, message", [
    (["ab"], None, "unreadable: [Errno 2] No such file or directory"),
    (["ab"], b'{"ab": {', "unreadable: Expecting property name"),
    (["ab"], b'\xff{"ab": {}}', "unreadable: 'utf-8' codec can't decode byte 0xff"),
    (["ab"], b'["ab"]', "config file must hold a JSON object keyed by subcommand"),
    (["ab"], b'{"abc": {}}', "config section 'abc' is not a subcommand"),
    (["ab"], b'{"ab": [1]}', "config section 'ab' must be an object"),
    (["oracle", "--eps0-list", "1,x"], b"{}",
     "oracle.eps0_list: must be a comma-separated list of numbers (got '1,x')"),
], ids=["missing", "invalid-json", "non-utf8", "list", "unknown-section", "non-object-section",
        "eps0-list"])
def test_unreadable_input_is_a_validation_error(tmp_path, capsys, argv, content, message):
    # one JSON line, exit 2, no directory; a file that cannot be read is named
    cfg_file = tmp_path / "conf.json"
    if content is not None:
        cfg_file.write_bytes(content)
    assert run_cli([*argv, "--config", cfg_file, "--out", tmp_path / "x"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    err = json.loads(captured.err)
    assert err["error"] == "validation" and message in err["message"]
    if "unreadable" in message:
        assert err["message"].startswith(f"config file {str(cfg_file)!r} unreadable: ")
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("section, message", [
    ({"sigam": 0.3}, "unknown key 'sigam' in config section 'collapse'"),
    (5, "config section 'collapse' must be an object"),
    ({"sigma": "x"}, "collapse.sigma: must be a number (got 'x')"),
    ({"mode": "foo"}, "collapse.mode: must be one of ('uniform', 'alternating'), got 'foo'"),
    ({"sigma": -1.0}, "collapse.sigma: must be >= 0 (got -1.0)"),
    ({"seed": -1}, "collapse.seed: must be an integer >= 0 (got -1)"),
], ids=["unknown-key", "non-object", "mistyped", "choice", "check", "run-setting"])
def test_config_sections_of_other_subcommands_are_checked(tmp_path, capsys, section, message):
    # every section meets its own subcommand's rules, whichever subcommand runs
    cfg_file = tmp_path / "conf.json"
    cfg_file.write_text(json.dumps({"kernel": {"eta_count": 8}, "collapse": section}))
    assert run_cli(["kernel", "--config", cfg_file, "--out", tmp_path / "k"]) == 2
    assert json.loads(capsys.readouterr().err.strip()) == {"error": "validation",
                                                           "message": message}
    assert not (tmp_path / "k").exists()


def test_config_applies_only_the_active_section(tmp_path):
    # another subcommand's section that meets its rules passes and changes nothing; its
    # domain checks are left to runs of that subcommand
    cfg_file = tmp_path / "conf.json"
    cfg_file.write_text(json.dumps({"kernel": {"eta_count": 8},
                                    "evolve": {"mass": 1e200, "seed": 3, "out": "elsewhere"}}))
    cfg = cli.parse_and_validate(["kernel", "--config", str(cfg_file)])
    assert (cfg.parameters["eta_count"], cfg.parameters["mass"]) == (8, 1.0)
    assert (cfg.seed, cfg.output_dir) == (0, Path("runs", "kernel"))


def test_config_out_in_section_or_top_level(tmp_path):
    # out follows the rule of seed and threads: a section may set it, the top
    # level wins over the section, and the flag wins over both
    cfg_file = tmp_path / "conf.json"
    cfg_file.write_text(json.dumps({"evolve": {"out": "from-section", "seed": 4}}))
    cfg = cli.parse_and_validate(["evolve", "--config", str(cfg_file)])
    assert (cfg.output_dir, cfg.seed) == (Path("from-section"), 4)
    cfg_file.write_text(json.dumps({"evolve": {"out": "from-section"}, "out": "from-top"}))
    assert cli.parse_and_validate(["evolve", "--config", str(cfg_file)]).output_dir == \
        Path("from-top")
    assert cli.parse_and_validate(["evolve", "--config", str(cfg_file), "--out", "flag"]
                                  ).output_dir == Path("flag")


def test_negative_seed_flag_is_a_validation_error(tmp_path, capsys):
    assert run_cli(["collapse", "--seed", "-1", "--out", tmp_path / "c"]) == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "validation" and err["message"].startswith("collapse.seed:")


@pytest.mark.parametrize("argv, message", [
    (["evolve", "--x0", "-1e-05"], "argument --x0: expected one argument"),
    (["evolve", "--no-such-flag", "1"], "unrecognized arguments: --no-such-flag 1"),
    (["collapse", "--delta", "7"], "unrecognized arguments: --delta 7"),
    (["ensemble", "--delta", "7"], "unrecognized arguments: --delta 7"),
    (["ab", "--d-slit", "5"], "unrecognized arguments: --d-slit 5"),
    (["ab", "--wavelength", "2"], "unrecognized arguments: --wavelength 2"),
    (["ab", "--delta", "1"], "unrecognized arguments: --delta 1"),  # ab counts segments
    (["ab", "--tau-flight", "6000"], "unrecognized arguments: --tau-flight 6000"),
])
def test_argparse_rejections_are_validation_errors(tmp_path, capsys, argv, message):
    # argparse's own rejections keep the error contract: one JSON line, exit 2
    assert run_cli([*argv, "--out", tmp_path / "x"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert json.loads(captured.err) == {"error": "validation", "message": message}
    assert "usage" not in captured.err
    assert not (tmp_path / "x").exists()
    # a negative exponent float is taken when attached with "="
    assert cli.parse_and_validate(["evolve", "--x0=-1e-05"]).parameters["x0"] == -1e-05


def test_help_still_exits_zero(capsys):
    for _ in range(2):  # also from the parser a first --help has used
        with pytest.raises(SystemExit) as exc:
            run_cli(["collapse", "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: relqlab collapse")
    assert cli.parse_and_validate(["collapse"]).parameters["sigma"] == collapse.DEFAULT_SIGMA_STAR


def test_shared_parser_carries_nothing_between_calls():
    # one parser serves every call in a process, so no call may see another's flags
    given = cli.parse_and_validate(["collapse", "--sigma", "0.3", "--seed", "5", "--threads", "2"])
    assert (given.parameters["sigma"], given.seed, given.threads) == (0.3, 5, 2)

    def defaults(name):
        return cli.RunConfig(name, {p.name: p.default for p in cli.SCHEMAS[name]}, seed=0,
                             output_dir=Path("runs", name), threads=1)

    assert cli.parse_and_validate(["collapse"]) == defaults("collapse")
    with pytest.raises(ValueError, match="expected one argument"):
        cli.parse_and_validate(["evolve", "--x0", "-1e-05"])
    assert cli.parse_and_validate(["evolve", "--x0", "0.5"]).parameters["x0"] == 0.5
    assert cli.parse_and_validate(["evolve"]) == defaults("evolve")


def test_parser_is_not_built_at_import():
    proc = subprocess.run([sys.executable, "-c", "import relqlab.cli as c; "
                           "print(c._build_parser.cache_info().currsize)"],
                          env=child_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0"


def test_ensemble_keys_past_128_bits_fail_before_any_output(tmp_path, capsys):
    out = tmp_path / "e"
    seed = 2**128 - 6  # keys seed .. seed + 9 would pass 2**128 - 1
    assert run_cli(["ensemble", "--seed", seed, "--n-runs", "10", "--out", out]) == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "validation" and err["message"].startswith("ensemble.seed:")
    assert not out.exists()


def test_config_accepts_integral_floats(tmp_path):
    cfg_file = tmp_path / "conf.json"
    cfg_file.write_text(json.dumps({"ensemble": {"n_runs": 4.0, "seed": 3.0}, "threads": 2.0}))
    cfg = cli.parse_and_validate(["ensemble", "--config", str(cfg_file)])
    assert (cfg.parameters["n_runs"], cfg.seed, cfg.threads) == (4, 3, 2)
    assert all(type(v) is int for v in (cfg.parameters["n_runs"], cfg.seed, cfg.threads))


# ---------------------------------------------------------------------------
# emission


SPECIAL_FLOATS = [-0.0, 0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
                  1.7976931348623157e308, -1.7976931348623157e308, 1.0, -2.5e-300]


def _mixed_columns(n_rows):
    rng = np.random.default_rng(n_rows)
    floats = rng.standard_normal(n_rows) * 10.0 ** rng.integers(-300, 300, n_rows)
    floats[:len(SPECIAL_FLOATS)] = SPECIAL_FLOATS[:n_rows]
    ints = rng.integers(-2**62, 2**62, n_rows)
    ints[:2] = [np.iinfo(np.int64).min, np.iinfo(np.int64).max][:n_rows]
    header = ["i64", "i32", "flag", "x", "py_int", "py_float"]
    return header, [ints, ints.astype(np.int32), rng.random(n_rows) < 0.5, floats,
                    [int(v) for v in rng.integers(-5, 5, n_rows)], floats[::-1].tolist()]


def _with_ulp_neighbours(values, ulps=3):
    """values and the doubles up to ulps steps either side, with both signs."""
    bits = np.abs(np.asarray(values, dtype=np.float64)).view(np.int64)
    near = np.concatenate([bits + j for j in range(-ulps, ulps + 1)]).view(np.float64)
    return np.concatenate([near, -near])


def _powers_of_ten():
    return ["x"], [_with_ulp_neighbours([float(f"1e{k}") for k in range(-300, 301)])]


def _rounding_boundaries():
    # the largest 17-digit mantissa, and the decimal halfway from it to the next power
    tops = [float(f"{m}e{k}") for m in ("9.9999999999999999", "9.99999999999999995")
            for k in range(-300, 301)]
    return ["x"], [_with_ulp_neighbours(tops)]


def _dyadic_ties():
    """Odd m / 2^t for t <= 70; where m 5^t has 18 digits the decimal value
    ends in a 5 just past the 17th digit, an exact rounding tie."""
    rng = np.random.default_rng(70)
    values = []
    for t in range(1, 71):
        lo, hi = -(-10**17 // 5**t), min(10**18 // 5**t, 2**53)
        odd = [m | 1 for m in range(lo, hi, max(1, (hi - lo) // 40))] if lo < hi else []
        odd += [int(m) | 1 for m in rng.integers(1, 2**53, 10)]
        values += [m / 2**t for m in odd if m < 2**53]
    ties = [v for v in values if len(Decimal(v).as_tuple().digits) == 18]
    assert len(ties) > 500 and all(Decimal(v).as_tuple().digits[-1] == 5 for v in ties)
    return ["x"], [np.array(values + [-v for v in values])]


def _random_bit_patterns():
    rng = np.random.default_rng(64)
    bits = rng.integers(0, 2**64, 100_000, dtype=np.uint64, endpoint=False)
    floats = bits.view(np.float64).copy()
    floats[:5] = [np.inf, -np.inf, np.nan, -np.nan, -0.0]
    return ["x", "reversed"], [floats, floats[::-1]]


def _integer_extremes():
    i64, u64 = np.iinfo(np.int64), np.iinfo(np.uint64)
    tens = [10**j + d for j in range(19) for d in (-1, 0, 1)]
    signed = np.array([i64.min, i64.min + 1, i64.max, -1, 0, 1, *tens, *(-t for t in tens)])
    unsigned = np.array([u64.max, u64.max - 1, 2**63, 2**63 - 1, 10**19, *tens, 0, 1] * 3,
                        dtype=np.uint64)[:len(signed)]
    return (["i64", "u64", "i32", "u8", "flag"],
            [signed, unsigned, signed.astype(np.int32), unsigned.astype(np.uint8),
             signed % 2 == 0])


# Each case below spans three or more row blocks, so each block sets its own
# field widths: the formatter sizes a float field by whether some cell of the
# block needs a third exponent digit, and an integer field by its longest cell.
LAYOUT_ROWS = 2 * cli.CSV_BLOCK_ROWS + 5


def _single_sign_columns():
    rng = np.random.default_rng(7)
    magnitudes = rng.random(LAYOUT_ROWS) * 10.0 ** rng.integers(-300, 300, LAYOUT_ROWS)
    zeros = np.where(rng.random(LAYOUT_ROWS) < 0.5, -0.0, 0.0)
    return ["positive", "negative", "zeros"], [magnitudes, -magnitudes[::-1], zeros]


def _two_digit_exponents_but(odd_cells):
    """Cells with two-digit exponents in every block, except one cell each in
    blocks 1, 2, ... given by odd_cells; a second column stays two-digit."""
    rng = np.random.default_rng(len(odd_cells))
    rows = (len(odd_cells) + 2) * cli.CSV_BLOCK_ROWS + 5
    floats = rng.choice([-1.0, 1.0], (2, rows)) * rng.uniform(1.0, 10.0, (2, rows))
    floats *= 10.0 ** rng.integers(-98, 99, (2, rows))
    assert np.all((np.abs(floats) >= 1e-99) & (np.abs(floats) < 1e99))
    for block, cell in enumerate(odd_cells, start=1):
        floats[0, block * cli.CSV_BLOCK_ROWS + 17] = cell
    return ["odd", "even"], list(floats)


# m / 8 with m odd and m 5^3 of 18 digits: its decimal value ends in a 5 just
# past the 17th digit, an exact rounding tie that Python's % decides
TIE = 800000000000001 / 8
assert len(Decimal(TIE).as_tuple().digits) == 18 and Decimal(TIE).as_tuple().digits[-1] == 5


def _ordered_columns(kinds):
    """Float ("f") and int ("i") columns in the given order; ints of each block
    have a different longest magnitude."""
    rng = np.random.default_rng(len(kinds))
    columns = []
    for kind in kinds:
        if kind == "i":
            digits = np.arange(LAYOUT_ROWS) // cli.CSV_BLOCK_ROWS * 6 + 1
            columns.append(rng.integers(-10**12, 10**12, LAYOUT_ROWS) % 10**digits - 10**3)
        else:
            columns.append(rng.standard_normal(LAYOUT_ROWS) * 10.0 ** rng.integers(-150, 150,
                                                                                    LAYOUT_ROWS))
    return [f"{kind}{j}" for j, kind in enumerate(kinds)], columns


CSV_CASES = {
    **{str(n): functools.partial(_mixed_columns, n) for n in
       (0, 1, cli.CSV_BLOCK_ROWS - 1, cli.CSV_BLOCK_ROWS, cli.CSV_BLOCK_ROWS + 1)},
    "powers-of-ten": _powers_of_ten,
    "rounding-boundaries": _rounding_boundaries,
    "dyadic-ties": _dyadic_ties,
    "random-bit-patterns": _random_bit_patterns,
    "integer-extremes": _integer_extremes,
    "single-sign-columns": _single_sign_columns,
    "one-three-digit-exponent-cell": functools.partial(_two_digit_exponents_but, [1e-100]),
    # Python's % decides a tie, a nan, and 1e-300, whose scale is outside the table
    "one-python-cell": functools.partial(_two_digit_exponents_but, [TIE, -np.nan, -1e-300]),
    "int-first-float-last": functools.partial(_ordered_columns, "iff"),
    "float-first-int-last": functools.partial(_ordered_columns, "ffi"),
    "floats-between-ints": functools.partial(_ordered_columns, "ifffi"),
}


@pytest.mark.parametrize("case", CSV_CASES)
def test_write_csv_matches_per_cell_formatter(tmp_path, case):
    header, columns = CSV_CASES[case]()
    text = (",".join(header) + "\n").encode() + csv_rows_reference(zip(*columns))
    assert cli._write_csv(tmp_path / "new.csv", header, columns) == hashlib.sha256(text).hexdigest()
    assert (tmp_path / "new.csv").read_bytes() == text


# Float64 bit patterns of cells that take the formatter's rarer branches: an
# exponent guess one too high (the scaled product inside and at the bound
# 10^16), and roundings that carry into the next power of ten
GUESS_ONE_HIGH = (0x0775A391D56BDC86, 0x0775A391D56BDC87)  # 9.999999999999998e-273, 1e-272
CARRIES = (0x3D06849B86A12B9B, 0x0D7B4FEB7EB212CD)  # 1e-14, 1e-243


def _format_edge_cells():
    branch = np.array(GUESS_ONE_HIGH + CARRIES, np.uint64).view(np.float64)
    specials = np.array([(2**53 - 1) / 4,  # an exact tie: 2251799813685247.75
                         0.0, 5e-324, np.finfo(np.float64).max, np.inf, np.nan])
    return np.concatenate([
        _with_ulp_neighbours([1e-273, 1e298], ulps=1),  # the fast range's bounds
        _with_ulp_neighbours([float(f"1e{k}") for k in range(-323, 309)], ulps=1),
        branch, -branch, specials, -specials])


def test_format_rows_edge_cells_match_python_formatting():
    cells = _format_edge_cells()
    assert _csvtext.format_rows([cells]) == csv_rows_reference(zip(cells))
    # alone, a cell sets its block's layout: a sign byte or a third exponent
    # digit only if it needs one
    for cell in cells:
        assert _csvtext.format_rows([np.array([cell])]) == csv_rows_reference([[cell]])


@pytest.mark.parametrize("shift", [-0.5, 0.5])
def test_format_rows_corrects_exponent_guesses_off_by_one_either_way(monkeypatch, shift):
    # np.log10 only seeds each exponent: moved by half a decade, the guess is
    # one off for about half of the cells, all in one direction
    rng = np.random.default_rng(3)
    cells = np.concatenate([_format_edge_cells(),
                            rng.standard_normal(4096) * 10.0 ** rng.uniform(-30, 30, 4096)])
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda a: log10(a) + shift)
    assert _csvtext.format_rows([cells]) == csv_rows_reference(zip(cells))


def test_format_rows_sends_cells_near_a_tie_to_python(monkeypatch):
    # an exact tie comes out right without the tie guard, since its product is
    # exact; each lo moved by 2^-40, under _TIE_MARGIN, makes it a near-tie
    # that only the guard sends to Python's %
    assert 2.0 ** -40 < _csvtext._TIE_MARGIN
    scaled = _csvtext._scaled

    def shifted(*args):
        p, lo = scaled(*args)
        return p, lo + 2.0 ** -40

    monkeypatch.setattr(_csvtext, "_scaled", shifted)
    ties = np.array([TIE, *(t * 2.0 ** -24 for t in range(3, 16, 2)), 2.0 ** -25, 3 * 2.0 ** -25])
    cells = np.concatenate([ties, -ties])
    assert _csvtext.format_rows([cells]) == csv_rows_reference(zip(cells))


def test_format_rows_random_bit_patterns_in_one_block_or_many():
    cells = np.random.default_rng(16).integers(0, 2**64, 2**16, dtype=np.uint64).view(np.float64)
    text = csv_rows_reference(zip(cells))
    assert _csvtext.format_rows([cells]) == text
    assert b"".join(_csvtext.format_rows([cells[start:start + cli.CSV_BLOCK_ROWS]])
                    for start in range(0, len(cells), cli.CSV_BLOCK_ROWS)) == text


@pytest.mark.parametrize("argv, n_files", [
    (["oracle"], 1), (["kernel"], 1), (["evolve"], 6), (["collapse"], 1), (["ab"], 1),
    (["flux"], 1),
    # the spectral benchmark workload's CSV runs at its sizes: three 65536-row evolve
    # snapshots, 4096 kernel rows and 48 x 9 oracle rows
    (["evolve", "--grid-n", "65536", "--steps", "400", "--snapshot-stride", "200"], 4),
    (["kernel", "--eta-count", "4096"], 1),
    (["oracle", "--n-max", "8", "--eps0-list",
      ",".join(map(repr, np.geomspace(0.05, 20, 48).tolist()))], 1),
    # a kernel with a nonzero phase, and five evolve snapshots of two blocks each
    (["kernel", "--eta-count", "4096", "--a-line-integral", "0.3"], 1),
    (["evolve", "--grid-n", "8192", "--steps", "400", "--snapshot-stride", "100"], 6),
], ids=["oracle", "kernel", "evolve", "collapse", "ab", "flux", "evolve-65536", "kernel-4096",
        "oracle-48", "kernel-4096-phase", "evolve-8192"])
def test_csv_payloads_equal_python_formatting(tmp_path, argv, n_files):
    # every CSV the run writes, grid included, parsed and rendered again by Python's %:
    # a cell holding ".", "e" or "n" (nan, inf) as a float, any other as an integer
    out = tmp_path / "run"
    assert run_cli([*argv, "--out", out]) == 0
    names = [entry["path"] for entry in read_json(out / "manifest.json")["outputs"]]
    paths = [out / name for name in names if name.endswith(".csv")]
    assert len(paths) == n_files
    for path in paths:
        body = path.read_bytes().split(b"\n", 1)[1]
        rows = [[float(c) if set(c) & set(".en") else int(c) for c in line.split(",")]
                for line in body.decode().splitlines()]
        assert body == csv_rows_reference(rows), path.name


def test_number_tables_are_not_built_at_import():
    proc = subprocess.run([sys.executable, "-c", "import relqlab.cli, relqlab._csvtext as t; "
                           "print([f.cache_info().currsize for f in "
                           "(t._pow10_table, t._quads, t._exponents)])"],
                          env=child_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[0, 0, 0]"


# The argvs the SIMD-mask harness runs under every mask, each into its own
# directory, grouped by the test that runs them: a subcommand joins the mask
# check with a line here.  The collapse engines step in plain + - * / on
# doubles, which no SIMD target or FMA contraction may round differently; a
# 600-run ensemble parks and compacts.
MASK_RUNS = {
    "oracle": {
        "oracle": ["oracle", "--n-max", "12", "--eps0-list", "0.05,1,20,200,1e4,1e6"],
    },
    "collapse_engine": {
        "collapse": ["collapse", "--seed", "17"],
        "ensemble-1": ["ensemble", "--n-runs", "600", "--threads", "1"],
        "ensemble-2": ["ensemble", "--n-runs", "600", "--threads", "2"],
        "ab": ["ab"],
        "kernel": ["kernel"],
        "kernel-phase": ["kernel", "--a-line-integral", "0.3", "--eta-count", "4096"],
    },
}

# Run in a fresh interpreter (argv[1]: output root, argv[2]: the runs as JSON,
# a name mapped to an argv, or to null for the fixed CSV).  The fixed CSV is
# built from integer bit patterns and Python's correctly rounded float parsing,
# so its inputs do not depend on numpy's SIMD target.  Prints the dispatched
# CPU features in force.
_MASK_CHILD = """
import json
import sys
from pathlib import Path
import numpy as np
from numpy._core import _multiarray_umath as umath
from relqlab import cli

root = Path(sys.argv[1])
for name, argv in json.loads(sys.argv[2]).items():
    if argv is None:
        bits = np.random.default_rng(5).integers(0, 2**64, 20_000, dtype=np.uint64)
        floats = np.concatenate([bits.view(np.float64),
                                 [float(f"{m}e{k}") for m in ("1", "9.99999999999999995")
                                  for k in range(-300, 301)]])
        (root / name).mkdir(parents=True)
        cli._write_csv(root / name / "fixed.csv", ["x", "i"],
                       [floats, np.resize(bits.view(np.int64), len(floats))])
    else:
        assert cli.main([*argv, "--out", str(root / name)]) == 0, name
print(json.dumps([f for f in umath.__cpu_dispatch__ if umath.__cpu_features__[f]]))
"""


def _dispatch_masks():
    """NPY_DISABLE_CPU_FEATURES values that switch off, in turn, each higher
    run-time dispatch target this numpy build offers on this CPU."""
    umath = pytest.importorskip("numpy._core._multiarray_umath")
    enabled = [f for f in umath.__cpu_dispatch__ if umath.__cpu_features__[f]]
    return [enabled[i:] for i in range(len(enabled))]


def _check_mask_payloads(tmp_path, runs):
    """Run `runs` in one child per mask, and the unmasked child; every payload
    byte must equal the unmasked child's, and two ensemble layouts each other's."""
    masks = _dispatch_masks()
    if not masks:
        pytest.skip("this numpy build dispatches no optional CPU features on this CPU")
    configs = [[], *masks]
    reference = None
    for start in range(0, len(configs), 2):  # two children at a time, each forks two workers
        children = []
        for i, mask in enumerate(configs[start:start + 2], start):
            outdir = tmp_path / str(i)
            env = {**child_env(), "NPY_DISABLE_CPU_FEATURES": " ".join(mask)}
            children.append((mask, outdir, subprocess.Popen(
                [sys.executable, "-W", "error", "-c", _MASK_CHILD, str(outdir),
                 json.dumps(runs)],
                env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)))
        for mask, outdir, proc in children:
            out, err = proc.communicate(timeout=300)
            assert proc.returncode == 0, err
            assert not set(mask) & set(json.loads(out)), f"numpy ignored the mask {mask}"
            written = {d.name: payload_bytes(d) for d in sorted(outdir.iterdir())}
            if "ensemble-2" in written:
                assert written["ensemble-1"] == written.pop("ensemble-2")
            reference = reference or written
            assert written.keys() == reference.keys()
            differ = [name for name in written if written[name] != reference[name]]
            assert differ == [], f"payloads differ with {mask} switched off"


def test_csv_bytes_are_independent_of_the_simd_target(tmp_path):
    _check_mask_payloads(tmp_path, {"fixed-csv": None})


def test_oracle_bytes_are_independent_of_the_simd_target(tmp_path):
    _check_mask_payloads(tmp_path, MASK_RUNS["oracle"])


def test_collapse_engine_bytes_are_independent_of_the_simd_target(tmp_path):
    _check_mask_payloads(tmp_path, MASK_RUNS["collapse_engine"])


def test_write_json_refuses_non_finite(tmp_path):
    path = tmp_path / "summary.json"
    with pytest.raises(ValueError, match="JSON"):
        cli._write_json(path, {"norm_drift": float("nan")})
    assert not path.exists()


# ---------------------------------------------------------------------------
# import cost

# Run in a fresh interpreter (argv[1]: output root).  Prints, as JSON, each
# stage's name, exit code and the scipy modules loaded after it: importing
# every relqlab module, each subcommand at its defaults, then the library's two
# routes that once loaded scipy; then whether the test references were
# imported, and the plane-wave rule's relative errors at criterion 3's inputs.
_NO_SCIPY = """
import importlib
import json
import pkgutil
import sys
import relqlab
import relqlab.cli as cli

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

for info in pkgutil.walk_packages(relqlab.__path__, "relqlab."):
    importlib.import_module(info.name)
stages = [("import", 0, scipy_modules())]
for name in cli.SCHEMAS:
    stages.append((name, cli.main([name, "--out", f"{sys.argv[1]}/{name}"]), scipy_modules()))
scale, errors = relqlab.PhysicalScale(mass=1.0), []
for p in (0.0, 0.75, 1.44):
    for eps0 in (0.1, 1.0):
        target = relqlab.short_time_closed_form(p, eps0, scale)
        errors.append(abs(relqlab.short_time_plane_wave(p, eps0, scale) - target) / abs(target))
stages.append(("short_time_plane_wave", 0, scipy_modules()))
relqlab.bessel_j1_y1_small(0.1)
stages.append(("bessel_j1_y1_small", 0, scipy_modules()))
print(json.dumps({"stages": stages, "reference": "reference" in sys.modules, "errors": errors}))
"""


def test_no_subcommand_loads_scipy(tmp_path):
    # a subprocess, because other test modules have loaded scipy into this one; a
    # library that loads no scipy module also runs where scipy cannot be imported
    proc = subprocess.run([sys.executable, "-W", "error", "-c", _NO_SCIPY, str(tmp_path)],
                          env=child_env(), capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    stages = result["stages"]
    assert [name for name, _, _ in stages[1:-2]] == list(cli.SCHEMAS)
    assert [rc for _, rc, _ in stages] == [0] * len(stages), proc.stderr
    assert [name for name, _, loaded in stages if loaded] == []
    assert result["reference"] is False  # the test references stay out of the library
    assert max(result["errors"]) < 1e-6, result["errors"]


# ---------------------------------------------------------------------------
# payloads


def test_oracle_table(tmp_path):
    out = tmp_path / "oracle"
    assert run_cli(["oracle", "--n-max", "5", "--out", out]) == 0
    rows = (out / "oracle_moments.csv").read_text().strip().splitlines()
    assert rows[0] == "n,eps0,closed_re,closed_im,contour_re,contour_im,rel_err"
    rel = np.array([float(r.split(",")[-1]) for r in rows[1:]])
    assert rows[1:] and np.all(rel < 1e-8)


def test_oracle_large_eps0_high_order(tmp_path):
    out = tmp_path / "oracle"
    assert run_cli(["oracle", "--n-max", "12", "--eps0-list", "200", "--out", out]) == 0
    rows = (out / "oracle_moments.csv").read_text().strip().splitlines()[1:]
    rel = np.array([float(r.split(",")[-1]) for r in rows])
    assert len(rel) == 13 and np.all(rel <= 1e-12)


def test_oracle_overflowing_moment_is_an_error(tmp_path, capsys):
    # the library raises once it computes (test_moment_closed_overflow_raises); the
    # CLI refuses the list before that
    out = tmp_path / "oracle"
    assert run_cli(["oracle", "--n-max", "6", "--eps0-list", "1,1e300", "--out", out]) == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "validation" and err["message"].startswith("oracle.eps0_list:")
    assert not out.exists()
    # at n_max 1 the same eps0 is in the domain: M_1(1e300) ~ 1.8e300
    assert run_cli(["oracle", "--n-max", "1", "--eps0-list", "1e300", "--out", out]) == 0
    rows = (out / "oracle_moments.csv").read_text().strip().splitlines()[1:]
    assert len(rows) == 2 and all(float(r.split(",")[-1]) < 1e-12 for r in rows)


def test_flux_plane_wave_below_the_nyquist_index_runs(tmp_path):
    # index 255 is the highest mode of the default 512-point grid; 256 and up are refused
    assert run_cli(["flux", "--packet", "plane", "--k-index", "255", "--out", tmp_path]) == 0


def test_flux_series_rule_reads_the_state_the_run_uses(tmp_path, capsys):
    # a packet 150 wide wraps round the default 512 pi box with a jump, so its spectrum
    # reaches the Nyquist momentum 1.0, though |p0| + 8 / (2 sigma) is only 0.077:
    # validation measures the state the run would build, so nothing is written
    out = tmp_path / "flux"
    assert run_cli(["flux", "--sigma", "150", "--out", out]) == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "validation"
    assert err["message"].startswith("flux.mass: must exceed the packet's momentum reach 1.0")
    assert not out.exists()


def test_flux_plane_wave_inside_the_series_rule_runs(tmp_path):
    # the default mode 30 reaches p = 2 pi 30 / (512 pi) = 0.117: a mass above it runs
    assert run_cli(["flux", "--packet", "plane", "--mass", "0.12", "--out", tmp_path]) == 0


def test_flux_plane_wave_residual_column(tmp_path):
    out = tmp_path / "flux"
    assert run_cli(["flux", "--packet", "plane", "--out", out]) == 0
    rows = (out / "flux_residuals.csv").read_text().strip().splitlines()[1:]
    residuals = np.array([float(r.split(",")[1]) for r in rows])
    assert len(residuals) == 5 and np.all(residuals < 1e-12)


def test_flux_has_no_time_step(tmp_path, capsys):
    # d(rho)/dt is exact: neither a --dt flag nor a flux.dt config key exists
    out = tmp_path / "flux"
    cfg_file = tmp_path / "conf.json"
    cfg_file.write_text(json.dumps({"flux": {"dt": 0.01}}))
    for argv, message in [(["--dt", "0.01"], "unrecognized arguments: --dt 0.01"),
                          (["--config", cfg_file], "unknown key 'dt' in config section 'flux'")]:
        assert run_cli(["flux", *argv, "--out", out]) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err == {"error": "validation", "message": message}
        assert not out.exists()


@pytest.mark.parametrize("args, key", [
    (["--mass", "1e-30"], "flux.mass"), (["--mass", "1e-60"], "flux.mass"),
    (["--mass", "1e-300"], "flux.mass"), (["--length", "1e-12"], "flux.length"),
])
def test_flux_terms_past_double_range_are_a_validation_error(tmp_path, capsys, args, key):
    # c_n grows like m^(1 - 2n) and the order-2n derivative like p_max^(2n)
    out = tmp_path / "flux"
    assert run_cli(["flux", *args, "--out", out]) == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "validation" and err["message"].startswith(f"{key}:")
    assert not out.exists()


def test_flux_small_mass_inside_the_term_rule_runs(tmp_path):
    # the default run with lengths scaled by 1 / m = 1e10 and momenta by m: the series
    # rule holds as at mass 1, and the L2 norm of d(rho)/dt scales as m^(3/2)
    out, default = tmp_path / "flux", tmp_path / "default"
    assert run_cli(["flux", "--mass", "1e-10", "--length", 512.0 * np.pi * 1e10,
                    "--sigma", "6.25e11", "--p0", "5e-12", "--out", out]) == 0
    assert run_cli(["flux", "--out", default]) == 0
    small, ref = (read_json(d / "flux_summary.json")["residuals"] for d in (out, default))
    assert small["1"] == pytest.approx(ref["1"] * 1e-15, rel=1e-9)
    assert read_json(out / "flux_summary.json")["monotone_decreasing"] is True


def test_flux_reports_every_order_from_one_report(tmp_path, monkeypatch):
    calls = []
    real_report = evolution.density_flux_report

    def density_flux_report(*args):
        calls.append(args[-1])
        return real_report(*args)

    monkeypatch.setattr(evolution, "density_flux_report", density_flux_report)
    out = tmp_path / "flux"
    assert run_cli(["flux", "--out", out]) == 0
    assert calls == [5]
    assert list(read_json(out / "flux_summary.json")["residuals"]) == ["1", "2", "3", "4", "5"]


def test_flux_gaussian_monotone(tmp_path):
    # at the defaults: d(rho)/dt carries no difference rounding, so order 5 falls below order 4
    out = tmp_path / "fluxg"
    assert run_cli(["flux", "--out", out]) == 0
    summary = read_json(out / "flux_summary.json")
    residuals = [summary["residuals"][str(k)] for k in range(1, 6)]
    assert all(b < a for a, b in zip(residuals, residuals[1:])) and residuals[-1] <= 1e-16
    assert summary["monotone_decreasing"] is True


@pytest.mark.parametrize("args, monotone", [
    (["--packet", "plane"], True),  # an exact balance: each residual is rounding
    (["--p0", "0"], True),  # at rest d(rho)/dt vanishes: rounding again
    (["--packet", "plane", "--mass", "0.5", "--k-index", "120"], False),  # 5.6e-17 .. 1.1e-15
    (["--mass", "0.2", "--n-trunc-max", "8"], False),  # rises at orders 7 and 8
])
def test_flux_monotone_allows_for_rounding(tmp_path, args, monotone):
    # an order that does not fall counts as decreasing only at or below the rounding
    # floor of d(rho)/dt, eps |2 |psi| |H psi| |_2
    out = tmp_path / "flux"
    assert run_cli(["flux", *args, "--out", out]) == 0
    summary = read_json(out / "flux_summary.json")
    assert 0.0 < summary["rounding_floor"] < 1e-16
    assert summary["monotone_decreasing"] is monotone


def test_evolve_snapshots_and_summary(tmp_path):
    out = tmp_path / "ev"
    assert run_cli(["evolve", "--steps", "100", "--snapshot-stride", "50",
                    "--grid-n", "256", "--length", "100", "--out", out]) == 0
    snaps = sorted(out.glob("evolve_snap_*.csv"))
    assert len(snaps) == 3  # initial + 2 strides
    summary = read_json(out / "evolve_summary.json")
    assert summary["norm_drift"] < 1e-10
    assert len(summary["centroid_trajectory"]) == 3


def test_evolve_grid_and_snapshots_describe_one_run(tmp_path):
    # the grid is written once, first; each snapshot holds only the state on it
    out = tmp_path / "ev"
    assert run_cli(["evolve", "--grid-n", "256", "--steps", "100", "--snapshot-stride", "50",
                    "--out", out]) == 0
    grid = evolution.SpatialGrid(n=256, length=200.0)
    assert (out / "evolve_grid.csv").read_bytes() == b"x\n" + csv_rows_reference(zip(grid.x))
    x = np.loadtxt(out / "evolve_grid.csv", skiprows=1)
    snaps = sorted(out.glob("evolve_snap_*.csv"))
    centroids = read_json(out / "evolve_summary.json")["centroid_trajectory"]
    assert len(snaps) == len(centroids) == 3
    for path, (_, centroid) in zip(snaps, centroids):
        assert path.read_text().splitlines()[0] == "re,im,abs2"
        abs2 = np.loadtxt(path, delimiter=",", skiprows=1)[:, 2]
        assert len(abs2) == len(x)
        assert np.sum(x * abs2) / np.sum(abs2) == pytest.approx(centroid, rel=1e-12)
    manifest = read_json(out / "manifest.json")
    assert manifest["outputs"][0]["path"] == "evolve_grid.csv"


def test_collapse_history_columns(tmp_path):
    out = tmp_path / "col"
    assert run_cli(["collapse", "--max-steps", "2000", "--seed", "5", "--out", out]) == 0
    rows = (out / "collapse_history.csv").read_text().strip().splitlines()
    assert rows[0] == "step,a0sq,a1sq,f"
    first = rows[1].split(",")
    assert int(first[0]) == 0 and float(first[3]) == 0.0
    probs = np.array([[float(c) for c in r.split(",")[1:3]] for r in rows[1:]])
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)
    summary = read_json(out / "collapse_summary.json")
    assert summary["outcome"] in (0, 1, None)


@pytest.mark.parametrize("mode", ["uniform", "alternating"])
def test_collapse_history_f_is_the_noise_of_each_step(tmp_path, mode):
    out = tmp_path / "col"
    assert run_cli(["collapse", "--mode", mode, "--history-stride", "7", "--seed", "5",
                    "--out", out]) == 0
    hist = np.loadtxt(out / "collapse_history.csv", delimiter=",", skiprows=1)
    steps = hist[:, 0].astype(int)
    proc = collapse.NoiseProcess(sigma=collapse.DEFAULT_SIGMA_STAR, seed=5,
                                 mode=mode)
    noise = collapse.generate_noise(proc, int(steps[-1]))
    assert steps[0] == 0 and hist[0, 3] == 0.0
    assert hist[1:, 3].tobytes() == noise[steps[1:] - 1].tobytes()


def test_ab_outputs(tmp_path):
    out = tmp_path / "ab"
    assert run_cli(["ab", "--out", out]) == 0
    summary = read_json(out / "ab_summary.json")
    assert summary["collapsed_fraction"] > 0.8
    assert summary["visibility"] < 0.2
    pattern = (out / "ab_pattern.csv").read_text().strip().splitlines()
    assert pattern[0] == "x,intensity"
    assert len(pattern) == 1 + 256
    assert "seed" not in summary  # the alternating field takes no seed


def test_ensemble_report_fields(tmp_path):
    out = tmp_path / "ens"
    assert run_cli(["ensemble", "--n-runs", "40", "--max-steps", "20000",
                    "--seed", "3", "--out", out]) == 0
    report = read_json(out / "ensemble_report.json")
    assert set(report) == {"n_runs", "counts", "freq", "wilson_ci95", "unresolved",
                           "median_steps", "params", "seed"}
    assert report["n_runs"] == 40
    assert report["counts"]["0"] + report["counts"]["1"] + report["unresolved"] == 40
    for k in ("0", "1"):
        lo, hi = report["wilson_ci95"][k]
        assert 0.0 <= lo <= report["freq"][k] <= hi <= 1.0


# ---------------------------------------------------------------------------
# determinism and round-trip


def test_same_seed_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    args = ["ensemble", "--n-runs", "60", "--max-steps", "20000", "--seed", "11"]
    assert run_cli(args + ["--out", a]) == 0
    assert run_cli(args + ["--out", b]) == 0
    assert payload_bytes(a) == payload_bytes(b)


def test_every_subcommand_has_a_runner():
    assert set(cli.SCHEMAS) == set(cli._RUNNERS)


@pytest.mark.parametrize("argv, names", [
    (["oracle", "--n-max", "1"], ["oracle_moments.csv"]),
    (["kernel", "--eta-count", "8"], ["kernel_profile.csv"]),
    (["evolve", "--grid-n", "64", "--steps", "5", "--snapshot-stride", "2"],
     ["evolve_grid.csv", "evolve_snap_0000.csv", "evolve_snap_0001.csv",
      "evolve_snap_0002.csv", "evolve_snap_0003.csv", "evolve_summary.json"]),
    (["collapse", "--max-steps", "50"], ["collapse_history.csv", "collapse_summary.json"]),
    (["ensemble", "--n-runs", "20", "--max-steps", "50"], ["ensemble_report.json"]),
    (["ab", "--screen-points", "64"], ["ab_pattern.csv", "ab_summary.json"]),
    (["flux", "--grid-n", "64", "--n-trunc-max", "2"],
     ["flux_residuals.csv", "flux_summary.json"]),
], ids=["oracle", "kernel", "evolve", "collapse", "ensemble", "ab", "flux"])
def test_manifest_digests_match_files(tmp_path, argv, names):
    # the manifest lists exactly the payloads on disk, in the order written
    out = tmp_path / "m"
    assert run_cli([*argv, "--out", out]) == 0
    manifest = read_json(out / "manifest.json")
    assert [entry["path"] for entry in manifest["outputs"]] == names
    assert sorted(p.name for p in out.iterdir()) == sorted([*names, "manifest.json"])
    written = [(out / name).stat().st_mtime_ns for name in names]
    assert written == sorted(written)
    for entry in manifest["outputs"]:
        digest = hashlib.sha256((out / entry["path"]).read_bytes()).hexdigest()
        assert digest == entry["sha256"]


def test_rerun_into_the_same_out_keeps_only_its_own_payloads(tmp_path):
    out = tmp_path / "ev"
    argv = ["evolve", "--grid-n", "64", "--steps", "8", "--out", out]
    assert run_cli([*argv, "--snapshot-stride", "2"]) == 0  # five snapshots
    assert run_cli([*argv, "--snapshot-stride", "4"]) == 0  # three
    names = [entry["path"] for entry in read_json(out / "manifest.json")["outputs"]]
    assert names == ["evolve_grid.csv", "evolve_snap_0000.csv", "evolve_snap_0001.csv",
                     "evolve_snap_0002.csv", "evolve_summary.json"]
    assert sorted(p.name for p in out.iterdir()) == sorted([*names, "manifest.json"])


def test_rerun_deletes_only_the_bare_names_the_old_manifest_lists(tmp_path):
    out = tmp_path / "k"
    (out / "sub").mkdir(parents=True)
    for path in (out / "old.csv", out / "notes.txt", out / "sub" / "inner.csv",
                 tmp_path / "outside.txt"):
        path.write_text("kept")
    (out / "manifest.json").write_text(json.dumps({"outputs": [
        {"path": "old.csv"}, {"path": "sub/inner.csv"}, {"path": "../outside.txt"},
        {"path": ".."}, {"path": ""}, {"path": 5}, "notes.txt"]}))
    assert run_cli(["kernel", "--eta-count", "8", "--out", out]) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "kernel_profile.csv", "manifest.json", "notes.txt", "sub"]
    assert (out / "sub" / "inner.csv").exists() and (tmp_path / "outside.txt").exists()


def test_failed_rerun_leaves_no_manifest(tmp_path, capsys, monkeypatch):
    # a manifest lists the digests of one run's files: one that failed has none
    out = tmp_path / "c"
    assert run_cli(["collapse", "--max-steps", "50", "--out", out]) == 0

    def failing(path, obj):
        raise OSError("disk full")

    monkeypatch.setattr(cli, "_write_json", failing)
    assert run_cli(["collapse", "--max-steps", "60", "--out", out]) == 1
    assert json.loads(capsys.readouterr().err.strip())["error"] == "OSError"
    assert sorted(p.name for p in out.iterdir()) == ["collapse_history.csv"]


def test_evolve_writes_each_snapshot_before_the_next_step(tmp_path, monkeypatch):
    # snapshots stream to disk: one state is held at a time, whatever steps is
    out = tmp_path / "ev"
    calls = []
    real_evolve = evolution.evolve

    def evolve(*args, **kwargs):
        calls.append(len(list(out.glob("evolve_snap_*.csv"))))
        return real_evolve(*args, **kwargs)

    monkeypatch.setattr(evolution, "evolve", evolve)
    assert run_cli(["evolve", "--grid-n", "64", "--steps", "7", "--snapshot-stride", "2",
                    "--out", out]) == 0
    assert calls == [1, 2, 3, 4]
    assert len(list(out.glob("evolve_snap_*.csv"))) == 5


def test_manifest_roundtrip_reproduces_outputs(tmp_path):
    out1 = tmp_path / "r1"
    assert run_cli(["ensemble", "--n-runs", "35", "--max-steps", "20000",
                    "--sigma", "0.6", "--seed", "9", "--out", out1]) == 0
    manifest = read_json(out1 / "manifest.json")
    cfg_file = tmp_path / "replay.json"
    cfg_file.write_text(json.dumps({"ensemble": manifest["parameters"],
                                    "seed": manifest["seed"]}))
    out2 = tmp_path / "r2"
    assert run_cli(["ensemble", "--config", cfg_file, "--out", out2]) == 0
    assert payload_bytes(out1) == payload_bytes(out2)


def test_threads_flag_does_not_change_results(tmp_path):
    a, b = tmp_path / "t1", tmp_path / "t4"
    args = ["ensemble", "--n-runs", "30", "--max-steps", "20000", "--seed", "2"]
    assert run_cli(args + ["--threads", "1", "--out", a]) == 0
    assert run_cli(args + ["--threads", "4", "--out", b]) == 0
    assert payload_bytes(a) == payload_bytes(b)


@pytest.mark.parametrize("argv", [["collapse"], ["ensemble", "--n-runs", "2000"],
                                  ["oracle", "--n-max", "2"]])
def test_repeat_runs_in_one_process_match_a_fresh_process(tmp_path, argv):
    # the benchmark's pattern: many cli.main calls share one process and its parser
    for run in ("first", "second"):
        assert run_cli([*argv, "--out", tmp_path / run]) == 0
    proc = subprocess.run([sys.executable, "-m", "relqlab.cli", *argv, "--out",
                           str(tmp_path / "fresh")],
                          env=child_env(), capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    fresh = payload_bytes(tmp_path / "fresh")
    assert fresh and payload_bytes(tmp_path / "first") == fresh
    assert payload_bytes(tmp_path / "second") == fresh
