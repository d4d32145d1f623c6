"""Command-line front end: validated parameters, deterministic seeding, and
CSV/JSON emission with a run manifest.

Every subcommand resolves its parameters from built-in defaults, then an
optional flat JSON config file ({"<subcommand>": {key: value, ...}}), then
command-line flags, in that order of increasing precedence.  Unknown keys
and out-of-range values are rejected with the offending key named.

Data payloads are deterministic for a fixed seed and parameter set: CSV
cells are written in scientific notation with 17 significant digits, JSON
summaries are sorted and timestamp-free.  Timestamps live only in
manifest.json, which also records a sha256 digest of every emitted file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__, abexp, collapse, evolution, pathweight, specfun

SUBCOMMANDS = ("oracle", "kernel", "evolve", "collapse", "ensemble", "ab", "flux")


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


def _eps0_list(v):
    try:
        vals = [float(tok) for tok in str(v).split(",") if tok.strip()]
    except ValueError:
        return "must be a comma-separated list of numbers"
    if not vals or any(not (x > 0) for x in vals):
        return "every eps0 must be > 0"
    return None


def _energy(v):
    return None if v >= 1.0 else "must be >= 1 (units of m c^2)"


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
        Param("e0", float, 1.25, "level-0 energy (units of m c^2)", _energy),
        Param("e1", float, 1.75, "level-1 energy (units of m c^2)", _energy),
        Param("sigma", float, collapse.DEFAULT_SIGMA_STAR, "noise amplitude", _non_negative),
        Param("delta", float, 1.0, "noise segment duration (units of tau0)", _positive),
        Param("mode", str, "uniform", "noise mode", choices=("uniform", "alternating")),
        Param("a0_init", float, 0.5, "initial a0 (a1 = sqrt(1 - a0^2))", _unit_interval),
        Param("max_steps", int, 100_000, "step budget", _int_min(1)),
        Param("threshold", float, 0.999, "collapse threshold", _open_interval(0.5, 1.0)),
        Param("history_stride", int, 1, "steps between history records", _int_min(1)),
    ],
    "ensemble": [
        Param("e0", float, 1.25, "level-0 energy (units of m c^2)", _energy),
        Param("e1", float, 1.75, "level-1 energy (units of m c^2)", _energy),
        Param("sigma", float, collapse.DEFAULT_SIGMA_STAR, "noise amplitude", _non_negative),
        Param("delta", float, 1.0, "noise segment duration (units of tau0)", _positive),
        Param("mode", str, "uniform", "noise mode", choices=("uniform", "alternating")),
        Param("a0_init", float, 0.5, "initial a0 (a1 = sqrt(1 - a0^2))", _unit_interval),
        Param("n_runs", int, 10_000, "number of trajectories", _int_min(1)),
        Param("max_steps", int, 100_000, "step budget per trajectory", _int_min(1)),
        Param("threshold", float, 0.999, "collapse threshold", _open_interval(0.5, 1.0)),
    ],
    "ab": [
        Param("flux", float, 0.0, "enclosed flux (AB phase = -flux)"),
        Param("b1_amp", float, abexp.DEFAULT_B1_STAR, "alternating field amplitude", _non_negative),
        Param("delta", float, 1.0, "field segment duration", _positive),
        Param("tau_flight", float, 6000.0, "flight time (even multiple of delta)", _positive),
        Param("d_slit", float, 10.0, "slit separation", _positive),
        Param("wavelength", float, 1.0, "de Broglie wavelength", _positive),
        Param("screen_points", int, 256, "screen samples", _int_min(64)),
        Param("n_electrons", int, 1000, "electrons per run", _int_min(1)),
        Param("p_beam", float, 1.0, "beam momentum (units of m c)", _positive),
        Param("a0_main", float, 0.25, "uniform potential magnitude", _positive),
        Param("threshold", float, 0.999, "collapse threshold", _open_interval(0.5, 1.0)),
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


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved, validated parameters of one run."""

    subcommand: str
    parameters: dict
    seed: int
    output_dir: Path
    threads: int = 1


@dataclass(frozen=True)
class RunManifest:
    artifact_version: str
    subcommand: str
    parameters: dict
    seed: int
    threads: int
    started_at: str
    finished_at: str
    outputs: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# parsing and validation


def _build_parser():
    parser = argparse.ArgumentParser(
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


def parse_and_validate(argv) -> RunConfig:
    """Resolve defaults, config file, and flags into a validated RunConfig."""
    args = _build_parser().parse_args(argv)
    name = args.subcommand
    schema = SCHEMAS[name]
    known = {p.name for p in schema}

    resolved = {p.name: p.default for p in schema}
    seed, out, threads = 0, None, 1

    if args.config is not None:
        try:
            raw = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise ValueError(f"config file {args.config!r} unreadable: {exc}") from exc
        if not isinstance(raw, dict):
            raise ValueError("config file must hold a JSON object keyed by subcommand")
        for section in raw:
            if section not in SUBCOMMANDS and section not in ("seed", "out", "threads"):
                raise ValueError(f"config section {section!r} is not a subcommand")
        section = raw.get(name, {})
        if not isinstance(section, dict):
            raise ValueError(f"config section {name!r} must be an object")
        for key, value in section.items():
            if key == "seed":
                seed = int(value)
                continue
            if key == "threads":
                threads = int(value)
                continue
            if key not in known:
                raise ValueError(f"unknown key {key!r} in config section {name!r}")
            resolved[key] = value
        if "seed" in raw:
            seed = int(raw["seed"])
        if "out" in raw:
            out = str(raw["out"])
        if "threads" in raw:
            threads = int(raw["threads"])

    for prm in schema:
        given = getattr(args, prm.name)
        if given is not None:
            resolved[prm.name] = given
    if args.seed is not None:
        seed = args.seed
    if args.out is not None:
        out = args.out
    if args.threads is not None:
        threads = args.threads

    for prm in schema:
        value = resolved[prm.name]
        try:
            value = prm.type(value)
        except (TypeError, ValueError):
            raise ValueError(f"{name}.{prm.name}: cannot interpret {value!r} as {prm.type.__name__}")
        if prm.choices and value not in prm.choices:
            raise ValueError(f"{name}.{prm.name}: must be one of {prm.choices}, got {value!r}")
        if prm.check is not None:
            msg = prm.check(value)
            if msg:
                raise ValueError(f"{name}.{prm.name}: {msg} (got {value!r})")
        resolved[prm.name] = value

    if threads < 1:
        raise ValueError(f"{name}.threads: must be >= 1 (got {threads!r})")
    output_dir = Path(out) if out is not None else Path("runs") / name
    return RunConfig(subcommand=name, parameters=resolved, seed=seed,
                     output_dir=output_dir, threads=threads)


# ---------------------------------------------------------------------------
# emission helpers


def _cell(value):
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.16e}"


def _write_csv(path: Path, header, columns):
    rows = zip(*columns)
    lines = [",".join(header)]
    lines.extend(",".join(_cell(v) for v in row) for row in rows)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, Path):
        return str(obj)
    return obj


def _write_json(path: Path, obj):
    path.write_text(json.dumps(_jsonable(obj), indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


def _sha256(path: Path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# subcommand implementations; each returns the list of emitted files


def _run_oracle(cfg: RunConfig):
    params = cfg.parameters
    eps_values = [float(t) for t in params["eps0_list"].split(",") if t.strip()]
    cols = {k: [] for k in ("n", "eps0", "closed_re", "closed_im",
                            "contour_re", "contour_im", "rel_err")}
    for n in range(params["n_max"] + 1):
        for eps0 in eps_values:
            q = specfun.MomentQuery(n=n, eps0=eps0)
            closed = specfun.kernel_moment_closed(q)
            contour = specfun.kernel_moment_contour(q)
            cols["n"].append(n)
            cols["eps0"].append(eps0)
            cols["closed_re"].append(closed.real)
            cols["closed_im"].append(closed.imag)
            cols["contour_re"].append(contour.real)
            cols["contour_im"].append(contour.imag)
            cols["rel_err"].append(abs(closed - contour) / abs(closed))
    out = cfg.output_dir / "oracle_moments.csv"
    _write_csv(out, list(cols), list(cols.values()))
    return [out]


def _run_kernel(cfg: RunConfig):
    params = cfg.parameters
    if params["eta_max"] <= params["eta_min"]:
        raise ValueError("kernel.eta_max: must exceed eta_min")
    scale = pathweight.PhysicalScale(mass=params["mass"])
    etas = np.linspace(params["eta_min"], params["eta_max"], params["eta_count"])
    values = [pathweight.equal_time_kernel_profile(e, params["a_line_integral"], scale)
              for e in etas]
    values = np.asarray(values)
    out = cfg.output_dir / "kernel_profile.csv"
    _write_csv(out, ["eta", "re", "im", "abs"],
               [etas, values.real, values.imag, np.abs(values)])
    return [out]


def _run_evolve(cfg: RunConfig):
    params = cfg.parameters
    grid = evolution.SpatialGrid(n=params["grid_n"], length=params["length"])
    f = evolution.FieldConfig.free(params["mass"], grid, a0=params["a0"])
    psi = evolution.gaussian_packet(grid, params["x0"], params["sigma"], params["p0"])
    stride = params["snapshot_stride"]
    steps = params["steps"]
    outputs = []

    def snap(index, state):
        path = cfg.output_dir / f"evolve_snap_{index:04d}.csv"
        _write_csv(path, ["x", "re", "im", "abs2"],
                   [grid.x, state.values.real, state.values.imag, state.density()])
        outputs.append(path)

    norm0 = psi.norm()
    centroids = [(0.0, psi.centroid())]
    snap(0, psi)
    done = 0
    index = 1
    state = psi
    while done < steps:
        span = min(stride, steps - done)
        state = evolution.evolve(state, f, params["dt"], span)
        done += span
        centroids.append((done * params["dt"], state.centroid()))
        snap(index, state)
        index += 1
    summary = {
        "norm_initial": norm0,
        "norm_final": state.norm(),
        "norm_drift": abs(state.norm() - norm0),
        "centroid_trajectory": centroids,
        "group_velocity_estimate": (centroids[-1][1] - centroids[0][1]) / (steps * params["dt"]),
    }
    out = cfg.output_dir / "evolve_summary.json"
    _write_json(out, summary)
    outputs.append(out)
    return outputs


def _collapse_pieces(params, seed):
    sys_ = collapse.TwoStateSystem(e0=params["e0"], e1=params["e1"])
    a0 = params["a0_init"]
    init = collapse.TwoStateAmplitudes(a0=a0, a1=math.sqrt(max(0.0, 1.0 - a0 * a0)))
    proc = collapse.NoiseProcess(delta=params["delta"], sigma=params["sigma"],
                                 seed=seed, mode=params["mode"])
    return sys_, init, proc


def _run_collapse(cfg: RunConfig):
    params = cfg.parameters
    sys_, init, proc = _collapse_pieces(params, cfg.seed)
    traj = collapse.run_trajectory(init, sys_, proc, params["max_steps"],
                                   params["threshold"], params["history_stride"])
    steps_rec = traj.history[:, 0].astype(int)
    n_noise = int(steps_rec.max()) if steps_rec.size else 0
    f_seq = collapse.generate_noise(proc, max(1, n_noise))
    f_col = np.where(steps_rec >= 1, f_seq[np.maximum(steps_rec - 1, 0)], 0.0)
    hist_path = cfg.output_dir / "collapse_history.csv"
    _write_csv(hist_path, ["step", "a0sq", "a1sq", "f"],
               [steps_rec, traj.history[:, 1], traj.history[:, 2], f_col])
    summary = {
        "outcome": traj.outcome,
        "steps_to_collapse": traj.steps_to_collapse,
        "records": int(steps_rec.size),
    }
    sum_path = cfg.output_dir / "collapse_summary.json"
    _write_json(sum_path, summary)
    return [hist_path, sum_path]


def _run_ensemble(cfg: RunConfig):
    params = cfg.parameters
    sys_, init, proc = _collapse_pieces(params, cfg.seed)
    report = collapse.run_ensemble(init, sys_, proc, params["n_runs"],
                                   params["max_steps"], params["threshold"],
                                   workers=cfg.threads)
    payload = {
        "n_runs": report.n_runs,
        "counts": report.counts,
        "freq": report.freq,
        "wilson_ci95": report.wilson_ci95,
        "unresolved": report.unresolved,
        "median_steps": report.median_steps,
        "params": params,
        "seed": cfg.seed,
    }
    out = cfg.output_dir / "ensemble_report.json"
    _write_json(out, payload)
    return [out]


def _run_ab(cfg: RunConfig):
    params = cfg.parameters
    ab_cfg = abexp.ABConfig(
        flux=params["flux"], b1_amp=params["b1_amp"], delta=params["delta"],
        tau_flight=params["tau_flight"], d_slit=params["d_slit"],
        wavelength=params["wavelength"], screen_points=params["screen_points"],
        n_electrons=params["n_electrons"], seed=cfg.seed,
    )
    sys_ = abexp.two_state_for_paths(params["p_beam"], params["a0_main"])
    pattern = abexp.simulate_ab(ab_cfg, sys_, threshold=params["threshold"])
    csv_path = cfg.output_dir / "ab_pattern.csv"
    _write_csv(csv_path, ["x", "intensity"], [pattern.positions, pattern.intensity])
    summary = {
        "visibility": pattern.visibility,
        "collapsed_fraction": pattern.collapsed_fraction,
        "collapse_outcome": pattern.collapse_outcome,
        "ab_phase": abexp.ab_phase(params["flux"]),
        "params": params,
        "seed": cfg.seed,
    }
    json_path = cfg.output_dir / "ab_summary.json"
    _write_json(json_path, summary)
    return [csv_path, json_path]


def _run_flux(cfg: RunConfig):
    params = cfg.parameters
    grid = evolution.SpatialGrid(n=params["grid_n"], length=params["length"])
    f = evolution.FieldConfig.free(params["mass"], grid)
    if params["packet"] == "plane":
        psi = evolution.plane_wave(grid, params["k_index"])
    else:
        psi = evolution.gaussian_packet(grid, params["x0"], params["sigma"], params["p0"])
    rows_n, rows_res, rows_term = [], [], []
    for n_trunc in range(1, params["n_trunc_max"] + 1):
        report = evolution.density_flux_report(psi, f, params["dt"], n_trunc)
        rows_n.append(n_trunc)
        rows_res.append(report.residual_l2)
        rows_term.append(report.term_magnitudes[-1])
    csv_path = cfg.output_dir / "flux_residuals.csv"
    _write_csv(csv_path, ["n_trunc", "residual_l2", "term_l2"], [rows_n, rows_res, rows_term])
    json_path = cfg.output_dir / "flux_summary.json"
    _write_json(json_path, {
        "residuals": dict(zip(map(str, rows_n), rows_res)),
        "monotone_decreasing": all(b < a for a, b in zip(rows_res, rows_res[1:])),
        "params": params,
    })
    return [csv_path, json_path]


_RUNNERS = {
    "oracle": _run_oracle,
    "kernel": _run_kernel,
    "evolve": _run_evolve,
    "collapse": _run_collapse,
    "ensemble": _run_ensemble,
    "ab": _run_ab,
    "flux": _run_flux,
}


def execute(cfg: RunConfig) -> RunManifest:
    """Dispatch a validated RunConfig, emit payloads and manifest.json."""
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    started = datetime.now(timezone.utc).isoformat()
    outputs = _RUNNERS[cfg.subcommand](cfg)
    finished = datetime.now(timezone.utc).isoformat()
    manifest = RunManifest(
        artifact_version=__version__,
        subcommand=cfg.subcommand,
        parameters=cfg.parameters,
        seed=cfg.seed,
        threads=cfg.threads,
        started_at=started,
        finished_at=finished,
        outputs=[{"path": p.name, "sha256": _sha256(p)} for p in outputs],
    )
    _write_json(cfg.output_dir / "manifest.json", manifest.__dict__)
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
