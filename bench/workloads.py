"""Benchmark workloads: the operations of one pass, their output checks, and
the layer probes of the traced pass.

An operation is either a ``relqlab`` CLI invocation (argv without ``--out``)
or one public library call.  It fails on a nonzero exit, an exception, a
failed output check, or payload bytes that differ from the first pass of the
run.  Checks test physical and numerical invariants only; none pins a payload
digest, so declared bit-level changes to the program stay possible.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

WORKLOADS = ("ensemble-long", "collapse-short", "spectral")

MANIFEST = "manifest.json"

# Seed-robust bands for ensemble medians (steps to collapse).  Over seeds the
# medians measured 2465..2480 (sigma 0.55, 10k runs) and 102..103 (sigma 2.2,
# 20k runs); the bands sit several standard errors outside that.
ENSEMBLE_MEDIAN_BAND = (2300.0, 2650.0)
WIDE_NOISE_MEDIAN_BAND = (95.0, 111.0)

ORACLE_EPS0 = np.geomspace(0.05, 20.0, 48)
ORACLE_N_MAX = 8
PLANE_WAVE_MOMENTA = 40
PLANE_WAVE_EPS0 = (0.1, 1.0)
EVOLVE_GRID_N = 65536
EVOLVE_P0 = 0.5  # CLI default packet momentum, mass 1

# Residuals below this sit at double-precision roundoff for the default
# flux packet (density ~6e-3); from there on the series cannot decrease.
FLUX_ROUNDOFF_FLOOR = 1e-14

# Fixed-length collapse probes: sigma is a tenth of the reference 0.55, so
# the median collapse moves ~100x further out than the probe lengths and no
# trajectory resolves; every element-step of the run is then executed.
PROBE_SIGMA = 0.055
PROBE_W1_STEPS = 5_000
PROBE_WIDE_RUNS = 10_000
PROBE_WIDE_STEPS = 1_000
PROBE_NOISE_VALUES = 1 << 20
PROBE_GENERATORS = 5_000
PROBE_FFT_PAIRS = 100


@dataclass(frozen=True)
class Op:
    name: str
    check: Callable  # check(outcome) -> list of problems
    argv: tuple = ()  # CLI argv without --out
    call: Callable | None = None  # library call, used when argv is empty


@dataclass
class Outcome:
    op: Op
    out_dir: Path | None = None
    rc: int | None = None
    result: object = None
    error: str | None = None


def program_seed(workload, seed):
    """The seed the program sees, derived from the benchmark seed."""
    return random.Random(f"{workload}/{seed}").randrange(1, 2**31)


def ensemble_threads():
    return min(2, len(os.sched_getaffinity(0)))


def build_ops(workload, seed):
    if workload == "ensemble-long":
        return _ensemble_long_ops(seed)
    if workload == "collapse-short":
        return _collapse_short_ops(seed)
    if workload == "spectral":
        return _spectral_ops(seed)
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def _ensemble_long_ops(seed):
    s = program_seed("ensemble-long", seed)
    return [Op("ensemble", _check_ensemble(10_000, ENSEMBLE_MEDIAN_BAND),
               ("ensemble", "--seed", str(s), "--threads", str(ensemble_threads())))]


def _collapse_short_ops(seed):
    s = program_seed("collapse-short", seed)
    one = ("--threads", "1")
    ops = [Op(f"collapse-{i}", _check_collapse,
              ("collapse", "--seed", str(s + i), "--history-stride", "1", *one))
           for i in range(10)]
    ops.append(Op("ab", _check_ab, ("ab", "--seed", str(s), *one)))
    ops.append(Op("ensemble-sigma2.2",
                  _check_ensemble(20_000, WIDE_NOISE_MEDIAN_BAND),
                  ("ensemble", "--sigma", "2.2", "--n-runs", "20000",
                   "--seed", str(s + 10), *one)))
    ops.append(Op("ensemble-alternating", _check_alternating,
                  ("ensemble", "--mode", "alternating", "--n-runs", "10000",
                   "--seed", str(s), *one)))
    return ops


def _spectral_ops(seed):
    rng = np.random.default_rng(program_seed("spectral", seed))
    x0 = float(rng.uniform(-45.0, -35.0))
    momenta = np.sort(rng.uniform(0.0, 3.0, PLANE_WAVE_MOMENTA))
    eps_list = ",".join(repr(float(e)) for e in ORACLE_EPS0)
    one = ("--threads", "1")
    ops = [
        Op("evolve", _check_evolve,
           ("evolve", "--grid-n", str(EVOLVE_GRID_N), "--steps", "400",
            "--snapshot-stride", "200", "--x0", repr(x0), *one)),
        Op("oracle", _check_oracle,
           ("oracle", "--n-max", str(ORACLE_N_MAX), "--eps0-list", eps_list, *one)),
        Op("flux", _check_flux, ("flux", *one)),
        Op("kernel", _check_kernel, ("kernel", "--eta-count", "4096", *one)),
    ]
    for eps0 in PLANE_WAVE_EPS0:
        for i, p in enumerate(momenta):
            ops.append(Op(f"plane-wave-{eps0:g}-{i}", _check_plane_wave,
                          call=_plane_wave_call(float(p), eps0)))
    return ops


def _plane_wave_call(p, eps0):
    def call():
        # Looked up at call time so that a traced pass sees the calls.
        from relqlab import pathweight
        scale = pathweight.PhysicalScale(mass=1.0)
        return (pathweight.short_time_plane_wave(p, eps0, scale),
                pathweight.short_time_closed_form(p, eps0, scale))
    return call


# ---------------------------------------------------------------------------
# running and verifying


def execute(op: Op, work_dir: Path, cli) -> Outcome:
    """Run one operation; the caller times a whole sequence of these."""
    outcome = Outcome(op)
    if op.argv:
        outcome.out_dir = work_dir / op.name
        try:
            outcome.rc = cli.main([*op.argv, "--out", str(outcome.out_dir)])
        except SystemExit as exc:  # argparse rejected the argv
            outcome.rc = exc.code
    else:
        try:
            outcome.result = op.call()
        except Exception as exc:  # an operation failure, counted by verify
            outcome.error = f"{type(exc).__name__}: {exc}"
    return outcome


def payload_files(out_dir: Path):
    return sorted(p for p in out_dir.iterdir() if p.name != MANIFEST)


def digest(outcome: Outcome):
    """sha256 over the payload bytes (manifest excluded) or the call result."""
    h = hashlib.sha256()
    if outcome.out_dir is not None:
        for path in payload_files(outcome.out_dir):
            h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    else:
        h.update(repr(outcome.result).encode())
    return h.hexdigest()


def payload_bytes(outcomes):
    return sum(p.stat().st_size for o in outcomes if o.out_dir is not None
               and o.out_dir.is_dir() for p in payload_files(o.out_dir))


def verify(outcome: Outcome, reference_digest=None):
    """Problems with one operation's outcome; empty when it succeeded.
    Returns (problems, digest)."""
    if outcome.error is not None:
        return [outcome.error], None
    if outcome.rc not in (None, 0):
        return [f"exit code {outcome.rc}"], None
    try:
        problems = list(outcome.op.check(outcome))
        d = digest(outcome)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"], None
    if reference_digest is not None and d != reference_digest:
        problems.append("payload bytes differ from the first pass")
    return problems, d


def _read_json(outcome, name):
    return json.loads((outcome.out_dir / name).read_text(encoding="utf-8"))


def _read_csv(outcome, name):
    path = outcome.out_dir / name
    with path.open(encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return {col: data[:, i] for i, col in enumerate(header)}


def _check_ensemble(n_runs, band):
    def check(outcome):
        rep = _read_json(outcome, "ensemble_report.json")
        counts = rep["counts"]
        problems = []
        if rep["n_runs"] != n_runs:
            problems.append(f"n_runs {rep['n_runs']} != {n_runs}")
        if counts["0"] + counts["1"] + rep["unresolved"] != n_runs:
            problems.append("counts and unresolved do not sum to n_runs")
        if rep["unresolved"] != 0:
            problems.append(f"{rep['unresolved']} trajectories unresolved")
        median = rep["median_steps"]
        if median is None or not band[0] <= median <= band[1]:
            problems.append(f"median_steps {median} outside {band}")
        return problems
    return check


def _check_alternating(outcome):
    rep = _read_json(outcome, "ensemble_report.json")
    problems = _check_ensemble(10_000, (1.0, math.inf))(outcome)
    if max(rep["counts"].values()) != rep["n_runs"]:
        problems.append("identical deterministic copies reached different outcomes")
    return problems


def _check_collapse(outcome):
    hist = _read_csv(outcome, "collapse_history.csv")
    summary = _read_json(outcome, "collapse_summary.json")
    problems = []
    err = np.max(np.abs(hist["a0sq"] + hist["a1sq"] - 1.0))
    if not err <= 1e-12:
        problems.append(f"history a0^2 + a1^2 off 1 by {err:.3g}")
    final = max(hist["a0sq"][-1], hist["a1sq"][-1])
    if not final >= 0.999:
        problems.append(f"final probability {final!r} below threshold 0.999")
    if summary["outcome"] not in (0, 1) or summary["steps_to_collapse"] != hist["step"][-1]:
        problems.append("summary disagrees with the history's last row")
    return problems


def _check_ab(outcome):
    summary = _read_json(outcome, "ab_summary.json")
    problems = []
    if not summary["visibility"] < 0.2:
        problems.append(f"visibility {summary['visibility']!r} not < 0.2")
    if summary["collapse_outcome"] != 0:
        problems.append(f"collapse outcome {summary['collapse_outcome']!r} != 0")
    return problems


def _check_evolve(outcome):
    summary = _read_json(outcome, "evolve_summary.json")
    problems = []
    if not summary["norm_drift"] < 1e-12:
        problems.append(f"norm_drift {summary['norm_drift']!r} not < 1e-12")
    v_group = EVOLVE_P0 / math.sqrt(1.0 + EVOLVE_P0 ** 2)
    v_est = summary["group_velocity_estimate"]
    if not abs(v_est - v_group) <= 0.01 * v_group:
        problems.append(f"group velocity {v_est!r} not within 1% of {v_group!r}")
    snaps = sorted(outcome.out_dir.glob("evolve_snap_*.csv"))
    rows = [p.read_bytes().count(b"\n") - 1 for p in snaps]
    if rows != [EVOLVE_GRID_N] * 3:
        problems.append(f"snapshot row counts {rows}, expected three of {EVOLVE_GRID_N}")
    return problems


def _check_oracle(outcome):
    table = _read_csv(outcome, "oracle_moments.csv")
    expected = (ORACLE_N_MAX + 1) * ORACLE_EPS0.size
    problems = []
    if table["rel_err"].size != expected:
        problems.append(f"{table['rel_err'].size} oracle rows, expected {expected}")
    worst = float(np.max(table["rel_err"]))
    if not worst < 1e-8:
        problems.append(f"closed vs contour rel_err up to {worst:.3g}")
    return problems


def _check_flux(outcome):
    res = _read_csv(outcome, "flux_residuals.csv")["residual_l2"]
    return [f"residual order {k + 2} ({b:.3g}) not below order {k + 1} ({a:.3g})"
            for k, (a, b) in enumerate(zip(res, res[1:]))
            if a > FLUX_ROUNDOFF_FLOOR and not b < a]


def _check_kernel(outcome):
    table = _read_csv(outcome, "kernel_profile.csv")
    expected = np.abs(table["eta"]) ** -0.5 * np.exp(-np.abs(table["eta"]))
    problems = []
    if table["eta"].size != 4096:
        problems.append(f"{table['eta'].size} kernel rows, expected 4096")
    err = float(np.max(np.abs(table["abs"] - expected) / expected))
    if not err < 1e-12:
        problems.append(f"|kernel| off |eta|^-1/2 e^-|eta| by {err:.3g}")
    return problems


def _check_plane_wave(outcome):
    direct, closed = outcome.result
    rel = abs(direct - closed) / abs(closed)
    return [] if rel < 1e-6 else [f"plane wave vs closed form rel err {rel:.3g}"]


# ---------------------------------------------------------------------------
# layer probes of the traced pass


class ProbeError(RuntimeError):
    """A probe's precondition failed, so its figure would be wrong."""


def collapse_probes(seed):
    """ns per element-step of fixed-length run_ensemble calls at widths 1 and
    10 000 (generator set-up, noise and bookkeeping included), ns per noise
    value, and microseconds per Philox generator."""
    from relqlab import collapse

    s = program_seed("probe", seed)
    system = collapse.TwoStateSystem(e0=1.25, e1=1.75)
    init = collapse.TwoStateAmplitudes(a0=0.5, a1=math.sqrt(0.75))
    proc = collapse.NoiseProcess(delta=1.0, sigma=PROBE_SIGMA, seed=s)
    out = {}
    for key, width, steps in (("collapse.step_ns_w1", 1, PROBE_W1_STEPS),
                              ("collapse.step_ns_w10000", PROBE_WIDE_RUNS, PROBE_WIDE_STEPS)):
        t0 = time.perf_counter()
        rep = collapse.run_ensemble(init, system, proc, width, steps, 0.999)
        elapsed = time.perf_counter() - t0
        if rep.unresolved != width:
            raise ProbeError(f"{key}: {width - rep.unresolved} trajectories collapsed, "
                             "so the step count is not exact")
        out[key] = elapsed / (width * steps) * 1e9

    noise = []
    for _ in range(5):
        t0 = time.perf_counter()
        collapse.generate_noise(proc, PROBE_NOISE_VALUES)
        noise.append(time.perf_counter() - t0)
    out["collapse.noise_ns_per_value"] = float(np.median(noise)) / PROBE_NOISE_VALUES * 1e9

    t0 = time.perf_counter()
    for k in range(PROBE_GENERATORS):
        proc.make_generator(offset=k)
    out["collapse.generator_us"] = (time.perf_counter() - t0) / PROBE_GENERATORS * 1e6
    return out


def fft_probe(seed):
    """Milliseconds per bare numpy forward + inverse FFT at the evolve grid size."""
    rng = np.random.default_rng(program_seed("probe", seed))
    values = rng.standard_normal(EVOLVE_GRID_N) + 1j * rng.standard_normal(EVOLVE_GRID_N)
    blocks = []
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(PROBE_FFT_PAIRS // 5):
            values = np.fft.ifft(np.fft.fft(values))
        blocks.append((time.perf_counter() - t0) / (PROBE_FFT_PAIRS // 5))
    return {"evolution.fft_pair_ms": float(np.median(blocks)) * 1e3}


PROBES = {
    "ensemble-long": collapse_probes,
    "collapse-short": collapse_probes,
    "spectral": fft_probe,
}


# ---------------------------------------------------------------------------
# computed sizes


def working_sets_mib():
    """Working sets computed from array shapes (not measured), in MiB."""
    mib = 1 << 20
    chunk = 1024  # run_ensemble's default lockstep chunk
    return {
        "ensemble-long": {
            "noise_block": 10_000 * chunk * 8 / mib,
            "amplitude_state": 2 * 10_000 * 8 / mib,
        },
        "collapse-short": {
            "noise_block_sigma2.2": 20_000 * chunk * 8 / mib,
            "noise_block_alternating": chunk * 8 / mib,
        },
        "spectral": {
            "evolve_state": EVOLVE_GRID_N * 16 / mib,
            "evolve_state_and_phases": 3 * EVOLVE_GRID_N * 16 / mib,
            "snapshot_csv_each": EVOLVE_GRID_N * 94 / mib,
        },
    }
