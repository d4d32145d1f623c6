"""Workload process: imports relqlab, runs timed and checked passes of one
workload, then optionally a traced pass with layer probes, and prints one
JSON object with the raw measurements as its last stdout line.

Run by bench/run.py with the repository's src/ on PYTHONPATH:

    python3 bench/child.py --workload spectral --seed 1 --seconds 10 --trace 1 --work-dir DIR
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import relqlab.cli as cli  # the set-up a user of the CLI pays
from relqlab import abexp, collapse, evolution, pathweight, specfun

import numpy as np
import scipy

import hostspeed
import spans
import workloads

MIN_PASSES = 3
MAX_PROBLEMS_REPORTED = 20

# Public functions the CLI (or the benchmark's library calls) reach through
# module attributes, with the work counters taken from their arguments/results.
TRACE_TARGETS = (
    (cli, "execute", None),
    (collapse, "run_ensemble", lambda a, r: {"collapse.ensemble_traj": r.n_runs}),
    (collapse, "run_trajectory",
     lambda a, r: {"collapse.traj_steps": int(r.history[-1, 0])}),
    (collapse, "generate_noise", None),
    (abexp, "simulate_ab", None),
    (evolution, "evolve", lambda a, r: {"evolution.steps": a["steps"]}),
    (evolution, "density_flux_report", None),
    (evolution, "gaussian_packet", None),
    (evolution, "plane_wave", None),
    (specfun, "kernel_moment_closed", None),
    (specfun, "kernel_moment_contour", None),
    (pathweight, "short_time_plane_wave", None),
    (pathweight, "short_time_closed_form", None),
    (pathweight, "equal_time_kernel_profile", None),
)


class Tally:
    """Attempted and failed operations, with the first problems seen."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def record(self, name, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < MAX_PROBLEMS_REPORTED:
                self.problems.append(f"{name}: {'; '.join(problems)}")


def run_pass(ops, work_dir: Path, tracer=None):
    """Run every op once; returns (wall seconds, host-speed scale, outcomes).
    Only the calls into the program are timed.  The reference loop runs
    before the first call and after each one, outside the timed calls."""
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    loops = [hostspeed.loop_s()]
    wall = 0.0
    outcomes = []
    with contextlib.ExitStack() as stack:
        if tracer is not None:
            stack.enter_context(spans.traced(tracer, TRACE_TARGETS))
            stack.enter_context(tracer.span("pass"))
        for op in ops:
            t0 = time.perf_counter()
            outcomes.append(workloads.execute(op, work_dir, cli))
            wall += time.perf_counter() - t0
            loops.append(hostspeed.loop_s())
    return wall, hostspeed.scale(loops), outcomes


def check_pass(outcomes, reference, tally: Tally, label):
    """Verify each outcome; fills reference digests on the first pass."""
    for outcome in outcomes:
        name = outcome.op.name
        problems, d = workloads.verify(outcome, reference.get(name))
        if reference.get(name) is None:
            reference[name] = d
        tally.record(f"{label} {name}", problems)


def layer_metrics(tracer, scale, probe_figures, overhead_s, n_payload_bytes):
    """Per-layer metrics of the traced pass; span times are multiplied by
    the pass's host-speed scale, like the untraced wall times."""
    totals = {name: (calls, self_s * scale)
              for name, (calls, self_s) in spans.totals_by_name(tracer.spans).items()}

    def calls(name):
        return totals.get(name, (0, 0.0))[0]

    def self_s(name):
        return totals.get(name, (0, 0.0))[1]

    def ratio(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    counts = tracer.counts
    m = {
        "collapse.run_ensemble_s": self_s("collapse.run_ensemble"),
        "collapse.ensemble_traj": counts.get("collapse.ensemble_traj", 0),
        "collapse.run_trajectory_s": self_s("collapse.run_trajectory"),
        "collapse.traj_steps": counts.get("collapse.traj_steps", 0),
        "abexp.simulate_ab_s": self_s("abexp.simulate_ab"),
        "evolution.evolve_s": self_s("evolution.evolve"),
        "evolution.density_flux_report_s": self_s("evolution.density_flux_report"),
        "specfun.contour_s": self_s("specfun.kernel_moment_contour"),
        "specfun.contour_calls": calls("specfun.kernel_moment_contour"),
        "pathweight.plane_wave_s": self_s("pathweight.short_time_plane_wave"),
        "pathweight.kernel_profile_s": self_s("pathweight.equal_time_kernel_profile"),
        "cli.self_s": self_s("cli.execute"),
        "cli.payload_bytes": n_payload_bytes,
        "trace.overhead_s": overhead_s,
    }
    m["collapse.traj_step_us"] = ratio(m["collapse.run_trajectory_s"], m["collapse.traj_steps"], 1e6)
    for key in ("collapse.step_ns_w1", "collapse.step_ns_w10000",
                "collapse.noise_ns_per_value", "collapse.generator_us",
                "evolution.fft_pair_ms"):
        m[key] = probe_figures.get(key, 0.0)
    m["evolution.step_ms"] = ratio(m["evolution.evolve_s"], counts.get("evolution.steps", 0), 1e3)
    m["evolution.step_over_fft"] = ratio(m["evolution.step_ms"], m["evolution.fft_pair_ms"])
    m["specfun.contour_us_per_call"] = ratio(m["specfun.contour_s"], m["specfun.contour_calls"], 1e6)
    m["specfun.closed_us_per_call"] = ratio(self_s("specfun.kernel_moment_closed"),
                                            calls("specfun.kernel_moment_closed"), 1e6)
    m["pathweight.plane_wave_us_per_call"] = ratio(
        m["pathweight.plane_wave_s"], calls("pathweight.short_time_plane_wave"), 1e6)
    m["cli.emit_ns_per_byte"] = ratio(m["cli.self_s"], n_payload_bytes, 1e9)
    layers = {}
    for name, (_, self_total) in totals.items():
        layer = name.split(".", 1)[0]
        layers[layer] = layers.get(layer, 0.0) + self_total
    return m, layers


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--work-dir", type=Path, required=True)
    args = parser.parse_args(argv)

    ops = workloads.build_ops(args.workload, args.seed)
    tally = Tally()
    reference = {}
    walls, scaled, laps = [], [], []
    start = time.perf_counter()
    # Start another pass only if it is expected to end within --seconds.
    while (len(walls) < MIN_PASSES
           or time.perf_counter() - start + statistics.median(laps) <= args.seconds):
        lap_start = time.perf_counter()
        wall, scale, outcomes = run_pass(ops, args.work_dir)
        walls.append(wall)
        scaled.append(wall * scale)
        check_pass(outcomes, reference, tally, f"pass {len(walls)}")
        laps.append(time.perf_counter() - lap_start)

    result = {
        "wall_s": walls,
        "scaled_wall_s": scaled,
        "versions": {"python": sys.version.split()[0], "numpy": np.__version__,
                     "scipy": scipy.__version__},
    }
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    usage += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result["peak_rss_mb"] = usage / 1024.0  # ru_maxrss is in KiB on Linux

    if args.trace:
        tracer = spans.Tracer()
        traced_wall, scale, outcomes = run_pass(ops, args.work_dir, tracer)
        n_bytes = workloads.payload_bytes(outcomes)
        check_pass(outcomes, reference, tally, "traced pass")
        probe = workloads.PROBES[args.workload]
        figures = {}
        try:
            before = hostspeed.loop_s()
            raw_figures = probe(args.seed)
            probe_scale = hostspeed.scale([before, hostspeed.loop_s()])
            figures = {k: v * probe_scale for k, v in raw_figures.items()}
            tally.record(probe.__name__, [])
        except Exception as exc:  # a probe failure, counted like an op
            tally.record(probe.__name__, [f"{type(exc).__name__}: {exc}"])
        overhead = traced_wall * scale - statistics.median(scaled)
        per_layer, layers = layer_metrics(tracer, scale, figures, overhead, n_bytes)
        result.update(per_layer=per_layer, layer_self_s=layers, spans=len(tracer.spans))
    shutil.rmtree(args.work_dir, ignore_errors=True)

    result.update(attempted=tally.attempted, failed=tally.failed, problems=tally.problems)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
