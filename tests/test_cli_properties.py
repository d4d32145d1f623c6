"""Property tests of the CLI: the parameters, seed and threads a manifest
records, fed back as a config file, resolve to the same run; the CSV writer
formats any float and int64 as Python's % does."""

import json
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from relqlab import _csvtext, cli, evolution  # noqa: E402

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)

# Unions wide enough that every schema check (intervals, lower bounds, powers
# of two, small integer ranges) accepts a fair share of the draws; a draw the
# check refuses stands in for the default.
FLOATS = st.one_of(st.floats(0.5, 1.0, exclude_min=True, exclude_max=True),
                   st.floats(1.0, 1e6), st.floats(-1e6, 1e6), st.floats(1e-300, 1e-3))
INTS = st.one_of(st.integers(0, 16), st.integers(0, 10**6), st.integers(4, 20).map(lambda k: 1 << k))
EPS0_LISTS = st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=5).map(
    lambda xs: ",".join(map(repr, xs)))


def _strategy(prm: cli.Param):
    if prm.choices:
        return st.sampled_from(prm.choices)
    base = {float: FLOATS, int: INTS, str: EPS0_LISTS}[prm.type]
    return base if prm.check is None else base.map(
        lambda v: v if prm.check(v) is None else prm.default)


def _draw_parameters(data, name):
    params = {prm.name: data.draw(_strategy(prm), label=prm.name) for prm in cli.SCHEMAS[name]}
    if name in ("evolve", "flux"):  # E(p) and the packet must fit the grid drawn above
        defaults = {prm.name: prm.default for prm in cli.SCHEMAS[name]}
        try:
            evolution.max_energy(params["grid_n"], params["length"], params["mass"],
                                 params.get("a0", 0.0))
        except ValueError:  # a grid too fine for E(p) stands in as the default length
            params["length"] = defaults["length"]
        if name == "flux" and evolution.flux_term_error(
                params["grid_n"], params["length"], params["mass"], params["n_trunc_max"]):
            # flux terms that may overflow stand in as the default mass and length
            params["mass"], params["length"] = defaults["mass"], defaults["length"]
        n, length = params["grid_n"], params["length"]
        if name == "evolve" and np.finfo(float).eps * length > (
                cli.VELOCITY_ROUNDING * params["dt"] * params["steps"]):
            params["dt"] = defaults["dt"]  # a run too short for its centroids takes the default dt
        if evolution.packet_error(n, length, params["x0"], params["sigma"]):
            # a packet that underflows or overflows stands in as a centred one a tenth of
            # the box wide, which fits every grid the checks above let through
            params["x0"], params["sigma"] = 0.0, length / 10
        if evolution.momentum_error(n, length, params["p0"], params["sigma"]):
            params["x0"], params["sigma"], params["p0"] = 0.0, length / 10, 0.0  # and at rest
    if name == "flux":  # the plane-wave index is bounded by the grid drawn above
        params["k_index"] %= params["grid_n"] // 2
        if evolution.series_error(params["mass"], params["p0"], params["sigma"]):
            params["packet"] = "plane"  # a packet whose series diverges stands in as a plane wave
    if name == "kernel":
        params["eta_max"] = params["eta_min"] * data.draw(st.floats(1.5, 1e3), label="eta ratio")
    noise = {"collapse": "sigma", "ensemble": "sigma", "ab": "b1_amp"}.get(name)
    if noise:
        try:
            cli._check_domain(name, params, 0)
        except ValueError:  # noise past the domain of the levels drawn stands in as none
            params[noise] = 0.0
    return params


@PROPERTY_SETTINGS
@given(name=st.sampled_from(cli.SUBCOMMANDS), seed=st.integers(0, 2**64),
       threads=st.integers(1, 8), data=st.data())
def test_manifest_parameters_replay_as_a_config_file(name, seed, threads, data):
    params = _draw_parameters(data, name)
    argv = [name, "--seed", str(seed), "--threads", str(threads)]
    # --flag=value: argparse takes a lone "-1e-05" for an option
    argv += [f"--{key.replace('_', '-')}={value}" for key, value in params.items()]
    with tempfile.TemporaryDirectory() as tmp:
        first = cli.parse_and_validate([*argv, "--out", str(Path(tmp) / "run")])
        assert first.parameters == params
        # The manifest does not depend on the computation, which is skipped.
        with mock.patch.dict(cli._RUNNERS, {name: lambda cfg: []}):
            manifest = cli.execute(first)
        written = json.loads((first.output_dir / "manifest.json").read_text(encoding="utf-8"))
        assert written["parameters"] == manifest["parameters"]
        replay = Path(tmp) / "replay.json"
        section = dict(written["parameters"])
        config = {name: section}
        for key in ("seed", "threads"):  # either home; the top level would win over the section
            home = config if data.draw(st.booleans(), label=f"{key} at top level") else section
            home[key] = written[key]
        replay.write_text(json.dumps(config), encoding="utf-8")
        second = cli.parse_and_validate([name, "--config", str(replay)])
    assert second.parameters == first.parameters
    # the same types and signs of zero too
    assert json.dumps(second.parameters) == json.dumps(first.parameters)
    assert (second.seed, second.threads) == (first.seed, first.threads)


@PROPERTY_SETTINGS
@given(rows=st.lists(st.tuples(st.floats(), st.integers(-2**63, 2**63 - 1)), min_size=1,
                     max_size=40))
def test_csv_rows_match_python_formatting(rows):
    floats = np.array([x for x, _ in rows], dtype=np.float64)
    ints = np.array([i for _, i in rows], dtype=np.int64)
    assert _csvtext.format_rows([floats, ints]) == "".join(
        "%.16e,%d\n" % row for row in rows).encode()
