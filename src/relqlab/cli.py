"""Command-line front end: validated parameters, deterministic seeding, and
CSV/JSON emission with a run manifest.

Every subcommand resolves its parameters from built-in defaults, then an
optional flat JSON config file ({"<subcommand>": {key: value, ...}}), then
command-line flags, in that order of increasing precedence.  Unknown keys,
mistyped and out-of-range values are rejected with the offending key named.

Data payloads are deterministic for a fixed seed and parameter set: CSV
cells are written in scientific notation with 17 significant digits, JSON
summaries are sorted and timestamp-free.  Each subcommand yields its
payloads by file name; execute() writes them in that order, then
manifest.json, which alone holds timestamps and records a sha256 digest of
every emitted file.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import itertools
import json
import math
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__, abexp, collapse, evolution, pathweight, specfun

CSV_BLOCK_ROWS = 4096  # rows formatted and written per block by _write_csv


# ---------------------------------------------------------------------------
# parameter schema


@dataclass(frozen=True)
class Param:
    name: str
    type: type
    default: object
    help: str
    check: object = None  # callable(value) -> error string or None
    choices: tuple = ()


def _positive(v):
    return None if v > 0 else "must be > 0"


def _non_negative(v):
    return None if v >= 0 else "must be >= 0"


def _int_min(lo):
    return lambda v: None if v >= lo else f"must be an integer >= {lo}"


def _int_range(lo, hi):
    return lambda v: None if lo <= v <= hi else f"must be an integer in [{lo}, {hi}]"


def _power_of_two(v):
    return None if (v >= 16 and (v & (v - 1)) == 0) else "must be a power of two >= 16"


def _open_interval(lo, hi):
    return lambda v: None if lo < v < hi else f"must lie in ({lo}, {hi})"


def _unit_interval(v):
    return None if 0.0 <= v <= 1.0 else "must lie in [0, 1]"


def _eps0_values(text):
    """The numbers of a comma-separated eps0 list; empty entries are skipped."""
    return [float(tok) for tok in str(text).split(",") if tok.strip()]


def _eps0_list(v):
    try:
        vals = _eps0_values(v)
    except ValueError:
        return "must be a comma-separated list of numbers"
    if not vals or any(not (0 < x < math.inf) for x in vals):
        return "every eps0 must be finite and > 0"
    return None


_THRESHOLD = Param("threshold", float, 0.999, "collapse threshold", _open_interval(0.5, 1.0))
_TWO_STATE = [  # the two-state system, its noise and its initial state
    Param("e0", float, 1.25, "level-0 energy (units of m c^2)", collapse.level_error),
    Param("e1", float, 1.75, "level-1 energy (units of m c^2)", collapse.level_error),
    Param("sigma", float, collapse.DEFAULT_SIGMA_STAR, "noise amplitude", _non_negative),
    Param("mode", str, "uniform", "noise mode: uniform or alternating",
          choices=("uniform", "alternating")),
    Param("a0_init", float, 0.5, "initial a0 (a1 = sqrt(1 - a0^2))", _unit_interval),
]

SCHEMAS = {
    "oracle": [
        Param("n_max", int, 5, "highest moment order", _int_range(0, specfun.MAX_MOMENT_ORDER)),
        Param("eps0_list", str, "0.1,0.5,1,5", "comma-separated eps0 values", _eps0_list),
    ],
    "kernel": [
        Param("mass", float, 1.0, "mass scale", _positive),
        Param("eta_min", float, 0.1, "smallest |eta|", _positive),
        Param("eta_max", float, 5.0, "largest |eta|", _positive),
        Param("eta_count", int, 64, "number of eta samples", _int_min(2)),
        Param("a_line_integral", float, 0.0, "line integral of A across the gap"),
    ],
    "evolve": [
        Param("grid_n", int, 1024, "grid size (power of two)", _power_of_two),
        Param("length", float, 200.0, "periodic box length", _positive),
        Param("mass", float, 1.0, "mass scale", _positive),
        Param("a0", float, 0.0, "uniform vector potential"),
        Param("x0", float, -40.0, "packet center"),
        Param("sigma", float, 10.0, "packet width", _positive),
        Param("p0", float, 0.5, "packet momentum"),
        Param("dt", float, 0.05, "time step", _positive),
        Param("steps", int, 400, "number of steps", _int_min(1)),
        Param("snapshot_stride", int, 100, "steps between snapshots", _int_min(1)),
    ],
    "collapse": [
        *_TWO_STATE,
        Param("max_steps", int, 100_000, "step budget", _int_min(1)),
        _THRESHOLD,
        Param("history_stride", int, 1, "steps between history records", _int_min(1)),
    ],
    "ensemble": [
        *_TWO_STATE,
        Param("n_runs", int, 10_000, "number of trajectories", _int_min(1)),
        Param("max_steps", int, 100_000, "step budget per trajectory", _int_min(1)),
        _THRESHOLD,
    ],
    "ab": [
        Param("flux", float, 0.0, "enclosed flux (AB phase = -flux)", abexp.flux_error),
        Param("b1_amp", float, abexp.DEFAULT_B1_STAR, "alternating field amplitude", _non_negative),
        Param("segments", int, 6000, "field segments in the flight (even)", abexp.segments_error),
        Param("screen_points", int, 256, "screen samples", _int_min(64)),
        Param("p_beam", float, 1.0, "beam momentum (units of m c)", _positive),
        Param("a0_main", float, 0.25, "uniform potential magnitude", _positive),
        _THRESHOLD,
    ],
    "flux": [
        Param("grid_n", int, 512, "grid size (power of two)", _power_of_two),
        Param("length", float, 512.0 * math.pi, "periodic box length", _positive),
        Param("mass", float, 1.0, "mass scale", _positive),
        Param("packet", str, "gaussian", "state type: gaussian or plane",
              choices=("gaussian", "plane")),
        Param("x0", float, 0.0, "packet center (gaussian)"),
        Param("sigma", float, 62.5, "packet width (gaussian)", _positive),
        Param("p0", float, 0.05, "packet momentum (gaussian)"),
        Param("k_index", int, 30, "mode index (plane)", _int_min(0)),
        Param("n_trunc_max", int, 5, "largest truncation order",
              _int_range(1, evolution.MAX_FLUX_ORDER)),
    ],
}
RUN_SETTINGS = [  # every subcommand's; RunConfig holds them beside its parameters
    Param("seed", int, 0, "base RNG seed", _int_min(0)),
    Param("out", str, None, "output directory; runs/<subcommand> when not given"),
    Param("threads", int, 1, "worker processes that share an ensemble, capped at the usable "
          "CPUs; other subcommands ignore it; results are independent of it", _int_min(1)),
]


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved, validated parameters of one run."""

    subcommand: str
    parameters: dict
    seed: int
    output_dir: Path
    threads: int


# ---------------------------------------------------------------------------
# parsing and validation


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a validation error (JSON, exit 2), not usage text; --help exits 0
        raise ValueError(message)


@functools.cache  # built on first use, not at import; parse_args keeps no state
def _build_parser():
    parser = _Parser(
        prog="relqlab",
        description="relativistic path-weight / collapse numerical laboratory",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, params in SCHEMAS.items():
        p = sub.add_parser(name, help=f"run the {name} computation")
        for prm in [*params, *RUN_SETTINGS]:
            p.add_argument("--" + prm.name.replace("_", "-"), dest=prm.name, type=prm.type,
                           default=None, help=f"{prm.help} (default: {prm.default})")
        p.add_argument("--config", type=str, default=None, help="flat JSON config file")
    return parser


def _coerce(key, typ, value):
    """typ(value), except that a string setting takes only strings, numbers
    refuse booleans and strings, an int also refuses non-integral floats, and
    a float refuses nan and +-inf."""
    if (typ is str) != isinstance(value, str) or isinstance(value, bool) or (
            typ is int and isinstance(value, float) and not value.is_integer()):
        kind = {int: "an integer", float: "a number", str: "a string"}[typ]
        raise ValueError(f"{key}: must be {kind} (got {value!r})")
    try:
        out = typ(value)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{key}: cannot interpret {value!r} as {typ.__name__}") from None
    if typ is float and not math.isfinite(out):
        raise ValueError(f"{key}: must be finite (got {value!r})")
    return out


def parse_and_validate(argv) -> RunConfig:
    """Resolve defaults, config file, and flags into a validated RunConfig.
    Each given value is typed where it is read, so a mistyped config value is
    an error even when a flag overrides it; the resolved values are then
    checked."""
    args = _build_parser().parse_args(argv)
    name = args.subcommand
    params = {p.name: p for p in [*SCHEMAS[name], *RUN_SETTINGS]}
    resolved = {key: prm.default for key, prm in params.items()}

    if args.config is not None:
        try:
            raw = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ValueError(f"config file {args.config!r} unreadable: {exc}") from exc
        if not isinstance(raw, dict):
            raise ValueError("config file must hold a JSON object keyed by subcommand")
        top_level = {prm.name: prm for prm in RUN_SETTINGS if prm.name in raw}
        for section in raw:
            if section not in SCHEMAS and section not in top_level:
                raise ValueError(f"config section {section!r} is not a subcommand")
        section = raw.get(name, {})
        if not isinstance(section, dict):
            raise ValueError(f"config section {name!r} must be an object")
        for key, value in section.items():
            if key not in params:
                raise ValueError(f"unknown key {key!r} in config section {name!r}")
            resolved[key] = _coerce(f"{name}.{key}", params[key].type, value)
        for key, prm in top_level.items():  # the top level wins over the section
            resolved[key] = _coerce(key, prm.type, raw[key])

    for key, prm in params.items():
        label = f"{name}.{key}"
        if (given := getattr(args, key)) is not None:
            resolved[key] = _coerce(label, prm.type, given)
        value = resolved[key]
        if prm.choices and value not in prm.choices:
            raise ValueError(f"{label}: must be one of {prm.choices}, got {value!r}")
        if prm.check is not None and (msg := prm.check(value)):
            raise ValueError(f"{label}: {msg} (got {value!r})")

    seed, out, threads = (resolved.pop(prm.name) for prm in RUN_SETTINGS)
    _check_domain(name, resolved, seed)
    return RunConfig(subcommand=name, parameters=resolved, seed=seed,
                     output_dir=Path("runs", name) if out is None else Path(out), threads=threads)


def _check_domain(name, params, seed):
    """The domain checks made before any output exists, where possible by the
    library's own code on the inputs the run builds, so that a run past its
    domain fails here rather than after its output directory exists."""
    def check(key, fn, *args):
        try:
            return fn(*args)
        except (ValueError, OverflowError) as exc:
            raise ValueError(f"{name}.{key}: {exc}") from None

    if name in ("evolve", "flux"):  # E(p) and the packet fit the grid
        n, length = params["grid_n"], params["length"]
        sizes = {"mass": params["mass"], "a0": abs(params.get("a0", 0.0)),
                 "length": math.pi * n / length}  # the terms of E(p) on the grid
        e_max = check(max(sizes, key=sizes.get), evolution.max_energy, n, length,
                      params["mass"], params.get("a0", 0.0))
        if params.get("packet") != "plane":  # the Gaussian packet fits the grid
            x0, sigma, p0 = params["x0"], params["sigma"], params["p0"]
            if msg := evolution.packet_error(n, length, x0, sigma):
                key = "sigma" if abs(x0) <= length / 2 else "x0"  # off the grid
            elif msg := evolution.momentum_error(n, length, p0, sigma):
                key = "p0" if abs(p0) >= math.pi * n / length else "sigma"  # p0 alone aliases
        elif msg := evolution.mode_error(n, params["k_index"]):
            key = "k_index"
        if name == "flux" and not msg and (
                msg := evolution.series_error(params["mass"], _wave_pieces(params)[2])):
            key = "mass"
        if name == "flux" and not msg and (msg := evolution.flux_term_error(
                n, length, params["mass"], n_trunc := params["n_trunc_max"])):
            key = "length" if evolution.flux_term_error(n, length, 1.0, n_trunc) else "mass"
        if msg:
            raise ValueError(f"{name}.{key}: {msg} (got {params[key]!r})")
        if name == "evolve" and not math.isfinite(e_max * (params["dt"] * params["steps"])):
            raise ValueError(f"evolve.dt: max E(p) dt steps must be finite (got {params['dt']!r})")
    if name == "oracle":  # every moment up to n_max stays in double range
        for eps0 in _eps0_values(params["eps0_list"]):
            if msg := specfun.moment_error(params["n_max"], eps0):
                raise ValueError(f"oracle.eps0_list: {msg} (got {eps0!r} at n_max "
                                 f"{params['n_max']})")
    if name == "kernel" and params["eta_max"] <= params["eta_min"]:
        raise ValueError(f"kernel.eta_max: must exceed eta_min (got {params['eta_max']!r})")
    if name in ("collapse", "ensemble"):
        _, sys_, _ = check("seed", _collapse_pieces, params, seed)
        check("sigma", collapse.check_noise, sys_, params["sigma"])
    if name == "ensemble":
        check("seed", collapse.check_keys, seed, params["n_runs"])
    if name == "ab":
        big = "a0_main" if params["a0_main"] > params["p_beam"] else "p_beam"  # drives the levels
        sys_ = check(big, abexp.two_state_for_paths, params["p_beam"], params["a0_main"])
        check("b1_amp", collapse.check_noise, sys_, params["b1_amp"])


# ---------------------------------------------------------------------------
# emission helpers


def _write_csv(path: Path, header, columns):
    """Integer and bool columns as %d, all others as %.16e, streamed in row
    blocks so the text of a large snapshot never sits in memory at once;
    returns the sha256 of the bytes written."""
    from . import _csvtext  # on first use: runs that write only JSON never load it

    columns = [np.asarray(c) for c in columns]
    digest = hashlib.sha256()
    with path.open("wb") as fh:
        blocks = (_csvtext.format_rows([c[start:start + CSV_BLOCK_ROWS] for c in columns])
                  for start in range(0, len(columns[0]), CSV_BLOCK_ROWS))
        for chunk in itertools.chain([(",".join(header) + "\n").encode()], blocks):
            fh.write(chunk)
            digest.update(chunk)
    return digest.hexdigest()


def _write_json(path: Path, obj):
    """Sorted, indented JSON; returns the sha256 of the bytes written."""
    data = (json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n").encode()
    path.write_bytes(data)
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# subcommand implementations; each yields (file name, payload) pairs: a
# (header, columns) pair for a .csv name, a JSON value for a .json name


def _run_oracle(cfg: RunConfig):
    params = cfg.parameters
    eps_values = _eps0_values(params["eps0_list"])
    rows = []
    for n in range(params["n_max"] + 1):
        for eps0 in eps_values:
            q = specfun.MomentQuery(n=n, eps0=eps0)
            closed = specfun.kernel_moment_closed(q)
            contour = specfun.kernel_moment_contour(q)
            rows.append((n, eps0, closed.real, closed.imag, contour.real, contour.imag,
                         abs(closed - contour) / abs(closed)))
    yield "oracle_moments.csv", (["n", "eps0", "closed_re", "closed_im", "contour_re",
                                  "contour_im", "rel_err"], list(zip(*rows)))


def _run_kernel(cfg: RunConfig):
    params = cfg.parameters
    scale = pathweight.PhysicalScale(mass=params["mass"])
    etas = np.linspace(params["eta_min"], params["eta_max"], params["eta_count"])
    values = pathweight.equal_time_kernel_profile(etas, params["a_line_integral"], scale)
    yield "kernel_profile.csv", (["eta", "re", "im", "abs"],
                                 [etas, values.real, values.imag, np.abs(values)])


def _run_evolve(cfg: RunConfig):
    """Yields the grid, then each snapshot before evolving to the next, so
    one state at a time is held."""
    params = cfg.parameters
    grid, f, state = _wave_pieces(params)
    steps, dt = params["steps"], params["dt"]
    norm0, v_group = state.norm(), evolution.group_velocity(state, f)
    centroids = []
    done = 0
    yield "evolve_grid.csv", (["x"], [grid.x])
    for index, end in enumerate([*range(0, steps, params["snapshot_stride"]), steps]):
        if end > done:
            state = evolution.evolve(state, f, dt, end - done)
            done = end
        centroids.append((done * dt, state.centroid()))
        yield f"evolve_snap_{index:04d}.csv", (["re", "im", "abs2"], [
            state.values.real, state.values.imag, state.density()])
    yield "evolve_summary.json", {
        "norm_initial": norm0,
        "norm_final": state.norm(),
        "norm_drift": abs(state.norm() - norm0),
        "centroid_trajectory": centroids,
        "group_velocity_estimate": v_group,
    }


def _wave_pieces(params):
    """The (grid, field, state) of an evolve or flux run."""
    grid = evolution.SpatialGrid(n=params["grid_n"], length=params["length"])
    f = evolution.FieldConfig.free(params["mass"], grid, a0=params.get("a0", 0.0))
    if params.get("packet") == "plane":
        return grid, f, evolution.plane_wave(grid, params["k_index"])
    return grid, f, evolution.gaussian_packet(grid, params["x0"], params["sigma"], params["p0"])


def _collapse_pieces(params, seed):
    """The (initial state, system, noise) arguments of the collapse engines."""
    a0 = params["a0_init"]
    init = collapse.TwoStateAmplitudes(a0=a0, a1=math.sqrt(max(0.0, 1.0 - a0 * a0)))
    sys_ = collapse.TwoStateSystem(e0=params["e0"], e1=params["e1"])
    proc = collapse.NoiseProcess(sigma=params["sigma"], seed=seed, mode=params["mode"])
    return init, sys_, proc


def _run_collapse(cfg: RunConfig):
    params = cfg.parameters
    traj = collapse.run_trajectory(*_collapse_pieces(params, cfg.seed), params["max_steps"],
                                   params["threshold"], params["history_stride"])
    hist = traj.history
    yield "collapse_history.csv", (["step", "a0sq", "a1sq", "f"],
                                   [hist[:, 0].astype(int), hist[:, 1], hist[:, 2], hist[:, 3]])
    yield "collapse_summary.json", {
        "outcome": traj.outcome,
        "steps_to_collapse": traj.steps_to_collapse,
        "records": len(hist),
    }


def _run_ensemble(cfg: RunConfig):
    params = cfg.parameters
    report = collapse.run_ensemble(*_collapse_pieces(params, cfg.seed), params["n_runs"],
                                   params["max_steps"], params["threshold"],
                                   workers=cfg.threads)
    yield "ensemble_report.json", {**dataclasses.asdict(report), "params": params,
                                   "seed": cfg.seed}


def _run_ab(cfg: RunConfig):
    params = cfg.parameters
    sys_ = abexp.two_state_for_paths(params["p_beam"], params["a0_main"])
    ab_cfg = abexp.ABConfig(flux=params["flux"], b1_amp=params["b1_amp"],
                            segments=params["segments"], screen_points=params["screen_points"])
    pattern = abexp.simulate_ab(ab_cfg, sys_, threshold=params["threshold"])
    yield "ab_pattern.csv", (["x", "intensity"], [pattern.positions, pattern.intensity])
    yield "ab_summary.json", {
        "visibility": pattern.visibility,
        "collapsed_fraction": pattern.collapsed_fraction,
        "collapse_outcome": pattern.collapse_outcome,
        "ab_phase": abexp.ab_phase(params["flux"]),
        "params": params,
    }


def _run_flux(cfg: RunConfig):
    params = cfg.parameters
    _, f, psi = _wave_pieces(params)
    report = evolution.density_flux_report(psi, f, params["n_trunc_max"])
    residuals, floor = report.residual_l2.tolist(), report.rounding_floor
    orders = range(1, len(residuals) + 1)
    yield "flux_residuals.csv", (["n_trunc", "residual_l2", "term_l2"],
                                 [orders, residuals, report.term_magnitudes])
    yield "flux_summary.json", {
        "residuals": {str(k): r for k, r in zip(orders, residuals)},
        "monotone_decreasing": all(b < a or b <= floor for a, b in zip(residuals, residuals[1:])),
        "rounding_floor": floor,
        "params": params,
    }


_RUNNERS = {
    "oracle": _run_oracle,
    "kernel": _run_kernel,
    "evolve": _run_evolve,
    "collapse": _run_collapse,
    "ensemble": _run_ensemble,
    "ab": _run_ab,
    "flux": _run_flux,
}


def execute(cfg: RunConfig) -> dict:
    """Run a validated RunConfig, write each payload its subcommand yields
    under cfg.output_dir as it comes, then manifest.json; return the
    manifest."""
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    started = datetime.now(timezone.utc).isoformat()
    outputs = []
    for name, payload in _RUNNERS[cfg.subcommand](cfg):
        path = cfg.output_dir / name
        digest = _write_csv(path, *payload) if name.endswith(".csv") else _write_json(path, payload)
        outputs.append({"path": name, "sha256": digest})
    manifest = {
        "artifact_version": __version__, "subcommand": cfg.subcommand,
        "parameters": cfg.parameters, "seed": cfg.seed, "threads": cfg.threads,
        "started_at": started, "finished_at": datetime.now(timezone.utc).isoformat(),
        "outputs": outputs,
    }
    _write_json(cfg.output_dir / "manifest.json", manifest)
    return manifest


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        cfg = parse_and_validate(argv)
    except ValueError as exc:
        print(json.dumps({"error": "validation", "message": str(exc)}), file=sys.stderr)
        return 2
    try:
        execute(cfg)
    except Exception as exc:  # module errors -> machine-readable, nonzero exit
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
