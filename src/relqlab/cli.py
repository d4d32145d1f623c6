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


def _energy(v):
    return None if v >= 1.0 else "must be >= 1 (units of m c^2)"


_THRESHOLD = Param("threshold", float, 0.999, "collapse threshold", _open_interval(0.5, 1.0))
_TWO_STATE = [  # the two-state system, its noise and its initial state
    Param("e0", float, 1.25, "level-0 energy (units of m c^2)", _energy),
    Param("e1", float, 1.75, "level-1 energy (units of m c^2)", _energy),
    Param("sigma", float, collapse.DEFAULT_SIGMA_STAR, "noise amplitude", _non_negative),
    Param("mode", str, "uniform", "noise mode", choices=("uniform", "alternating")),
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
        Param("flux", float, 0.0, "enclosed flux (AB phase = -flux)"),
        Param("b1_amp", float, abexp.DEFAULT_B1_STAR, "alternating field amplitude", _non_negative),
        Param("delta", float, 1.0, "field segment duration", _positive),
        Param("tau_flight", float, 6000.0, "flight time (even multiple of delta)", _positive),
        Param("screen_points", int, 256, "screen samples", _int_min(64)),
        Param("p_beam", float, 1.0, "beam momentum (units of m c)", _positive),
        Param("a0_main", float, 0.25, "uniform potential magnitude", _positive),
        _THRESHOLD,
    ],
    "flux": [
        Param("grid_n", int, 512, "grid size (power of two)", _power_of_two),
        Param("length", float, 512.0 * math.pi, "periodic box length", _positive),
        Param("mass", float, 1.0, "mass scale", _positive),
        Param("packet", str, "gaussian", "state type", choices=("gaussian", "plane")),
        Param("x0", float, 0.0, "packet center (gaussian)"),
        Param("sigma", float, 62.5, "packet width (gaussian)", _positive),
        Param("p0", float, 0.05, "packet momentum (gaussian)"),
        Param("k_index", int, 30, "mode index (plane)", _int_min(0)),
        Param("dt", float, 0.01, "time step of the centered density difference", _positive),
        Param("n_trunc_max", int, 5, "largest truncation order",
              _int_range(1, evolution.MAX_FLUX_ORDER)),
    ],
}
SUBCOMMANDS = tuple(SCHEMAS)


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved, validated parameters of one run."""

    subcommand: str
    parameters: dict
    seed: int
    output_dir: Path
    threads: int = 1


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
        for prm in params:
            flag = "--" + prm.name.replace("_", "-")
            kwargs = {"help": f"{prm.help} (default: {prm.default})", "default": None}
            if prm.choices:
                kwargs["choices"] = prm.choices
            else:
                kwargs["type"] = prm.type
            p.add_argument(flag, dest=prm.name, **kwargs)
        p.add_argument("--seed", type=int, default=None, help="base RNG seed (default: 0)")
        p.add_argument("--out", type=str, default=None,
                       help="output directory (default: runs/<subcommand>)")
        p.add_argument("--config", type=str, default=None, help="flat JSON config file")
        p.add_argument("--threads", type=int, default=None,
                       help="worker processes that share an ensemble, capped at the usable "
                            "CPUs; other subcommands ignore it; results are independent "
                            "of it (default: 1)")
    return parser


def _coerce(key, typ, value):
    """typ(value), except that numbers refuse booleans and strings, an int also
    refuses non-integral floats, and a float refuses nan and +-inf."""
    if typ in (int, float) and isinstance(value, (bool, str)) or (
            typ is int and isinstance(value, float) and not value.is_integer()):
        kind = "an integer" if typ is int else "a number"
        raise ValueError(f"{key}: must be {kind} (got {value!r})")
    try:
        out = typ(value)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{key}: cannot interpret {value!r} as {typ.__name__}") from None
    if typ is float and not math.isfinite(out):
        raise ValueError(f"{key}: must be finite (got {value!r})")
    return out


def _run_setting(label, key, value):
    """A config file's out (a string), seed or threads (integers)."""
    if key == "out" and not isinstance(value, str):
        raise ValueError(f"{label}: must be a string (got {value!r})")
    return value if key == "out" else _coerce(label, int, value)


def parse_and_validate(argv) -> RunConfig:
    """Resolve defaults, config file, and flags into a validated RunConfig."""
    args = _build_parser().parse_args(argv)
    name = args.subcommand
    schema = SCHEMAS[name]
    known = {p.name for p in schema}

    resolved = {p.name: p.default for p in schema}
    run = {"seed": 0, "out": None, "threads": 1}  # settings outside the schema

    if args.config is not None:
        try:
            raw = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise ValueError(f"config file {args.config!r} unreadable: {exc}") from exc
        if not isinstance(raw, dict):
            raise ValueError("config file must hold a JSON object keyed by subcommand")
        for section in raw:
            if section not in SUBCOMMANDS and section not in run:
                raise ValueError(f"config section {section!r} is not a subcommand")
        section = raw.get(name, {})
        if not isinstance(section, dict):
            raise ValueError(f"config section {name!r} must be an object")
        for key, value in section.items():
            if key in run:
                run[key] = _run_setting(f"{name}.{key}", key, value)
            elif key in known:
                resolved[key] = value
            else:
                raise ValueError(f"unknown key {key!r} in config section {name!r}")
        for key in run:  # the top level wins over the section
            if key in raw:
                run[key] = _run_setting(key, key, raw[key])

    for key in [*known, *run]:
        given = getattr(args, key)
        if given is not None:
            (resolved if key in known else run)[key] = given

    for prm in schema:
        value = _coerce(f"{name}.{prm.name}", prm.type, resolved[prm.name])
        if prm.choices and value not in prm.choices:
            raise ValueError(f"{name}.{prm.name}: must be one of {prm.choices}, got {value!r}")
        if prm.check is not None:
            msg = prm.check(value)
            if msg:
                raise ValueError(f"{name}.{prm.name}: {msg} (got {value!r})")
        resolved[prm.name] = value

    if name == "flux" and resolved["dt"] > (limit := evolution.flux_dt_limit(
            resolved["grid_n"], resolved["length"], resolved["mass"])):
        raise ValueError(f"flux.dt: must be <= {limit!r} so that max E(p) dt <= 1 on the grid "
                         f"(got {resolved['dt']!r})")
    for key, lowest in (("seed", 0), ("threads", 1)):
        if run[key] < lowest:
            raise ValueError(f"{name}.{key}: must be >= {lowest} (got {run[key]!r})")
    output_dir = Path(run["out"]) if run["out"] is not None else Path("runs") / name
    return RunConfig(subcommand=name, parameters=resolved, seed=run["seed"],
                     output_dir=output_dir, threads=run["threads"])


# ---------------------------------------------------------------------------
# emission helpers


def _write_csv(path: Path, header, columns):
    """Integer and bool columns as %d, all others as %.16e, streamed in row
    blocks so the text of a large snapshot never sits in memory at once."""
    columns = [np.asarray(c) for c in columns]
    fmt = ",".join("%d" if c.dtype.kind in "biu" else "%.16e" for c in columns) + "\n"
    with path.open("w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, len(columns[0]), CSV_BLOCK_ROWS):
            block = [c[start:start + CSV_BLOCK_ROWS].tolist() for c in columns]
            fh.write("".join(fmt % row for row in zip(*block)))


def _json_value(obj):
    """numpy arrays and scalars as JSON values (json.dumps default)."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _write_json(path: Path, obj):
    text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False, default=_json_value)
    path.write_text(text + "\n", encoding="utf-8")


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
    if params["eta_max"] <= params["eta_min"]:
        raise ValueError("kernel.eta_max: must exceed eta_min")
    scale = pathweight.PhysicalScale(mass=params["mass"])
    etas = np.linspace(params["eta_min"], params["eta_max"], params["eta_count"])
    values = np.asarray([pathweight.equal_time_kernel_profile(e, params["a_line_integral"],
                                                              scale) for e in etas])
    yield "kernel_profile.csv", (["eta", "re", "im", "abs"],
                                 [etas, values.real, values.imag, np.abs(values)])


def _run_evolve(cfg: RunConfig):
    """Yields each snapshot before evolving to the next, so one state at a
    time is held."""
    params = cfg.parameters
    grid = evolution.SpatialGrid(n=params["grid_n"], length=params["length"])
    f = evolution.FieldConfig.free(params["mass"], grid, a0=params["a0"])
    state = evolution.gaussian_packet(grid, params["x0"], params["sigma"], params["p0"])
    steps, dt = params["steps"], params["dt"]
    norm0 = state.norm()
    centroids = []
    done = 0
    for index, end in enumerate([*range(0, steps, params["snapshot_stride"]), steps]):
        if end > done:
            state = evolution.evolve(state, f, dt, end - done)
            done = end
        centroids.append((done * dt, state.centroid()))
        yield f"evolve_snap_{index:04d}.csv", (["x", "re", "im", "abs2"], [
            grid.x, state.values.real, state.values.imag, state.density()])
    yield "evolve_summary.json", {
        "norm_initial": norm0,
        "norm_final": state.norm(),
        "norm_drift": abs(state.norm() - norm0),
        "centroid_trajectory": centroids,
        "group_velocity_estimate": (centroids[-1][1] - centroids[0][1]) / (steps * dt),
    }


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
    ab_cfg = abexp.ABConfig(
        flux=params["flux"], b1_amp=params["b1_amp"], delta=params["delta"],
        tau_flight=params["tau_flight"], screen_points=params["screen_points"],
    )
    sys_ = abexp.two_state_for_paths(params["p_beam"], params["a0_main"])
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
    grid = evolution.SpatialGrid(n=params["grid_n"], length=params["length"])
    f = evolution.FieldConfig.free(params["mass"], grid)
    if params["packet"] == "plane":
        psi = evolution.plane_wave(grid, params["k_index"])
    else:
        psi = evolution.gaussian_packet(grid, params["x0"], params["sigma"], params["p0"])
    reports = [evolution.density_flux_report(psi, f, params["dt"], n_trunc)
               for n_trunc in range(1, params["n_trunc_max"] + 1)]
    residuals = [r.residual_l2 for r in reports]
    yield "flux_residuals.csv", (["n_trunc", "residual_l2", "term_l2"], [
        [r.n_trunc for r in reports], residuals, [r.term_magnitudes[-1] for r in reports]])
    yield "flux_summary.json", {
        "residuals": {str(r.n_trunc): r.residual_l2 for r in reports},
        "monotone_decreasing": all(b < a for a, b in zip(residuals, residuals[1:])),
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
        if name.endswith(".csv"):
            _write_csv(path, *payload)
        else:
            _write_json(path, payload)
        outputs.append({"path": name, "sha256": hashlib.sha256(path.read_bytes()).hexdigest()})
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
