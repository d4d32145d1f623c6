"""relqlab benchmark: end-to-end and per-layer figures for one workload.

Run from the repository root (the program is imported from ./src):

    python3 bench/run.py --workload ensemble-long --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all          # every workload in turn

Each workload runs in a fresh child process (bench/child.py) that repeats
whole passes for --seconds (at least three) and checks every output.  Set-up
time is measured in separate child processes that only import relqlab.cli.
Times are scaled to a reference host speed (bench/hostspeed.py), because the
host's own speed swings more than the bounds allow.
With --trace 1 the child adds one traced pass and the layer probes, and the
result carries the per-layer metrics instead of the end-to-end ones.

Human-readable lines come first; the last stdout line is one JSON object
with the keys correct, attempted, failed and metrics.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import hostspeed  # noqa: E402  (needs BENCH_DIR on sys.path)
import workloads  # noqa: E402

SETUP_SAMPLES = 8  # half before the workload process, half after it
RUN_DEADLINE_S = 170.0
WORK_DIR = ".bench_work"

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
PER_LAYER_UNITS = {
    "collapse.run_ensemble_s": "s",
    "collapse.ensemble_traj": "count",
    "collapse.run_trajectory_s": "s",
    "collapse.traj_steps": "count",
    "collapse.traj_step_us": "us",
    "collapse.step_ns_w1": "ns",
    "collapse.step_ns_w10000": "ns",
    "collapse.noise_ns_per_value": "ns",
    "collapse.generator_us": "us",
    "abexp.simulate_ab_s": "s",
    "evolution.evolve_s": "s",
    "evolution.step_ms": "ms",
    "evolution.fft_pair_ms": "ms",
    "evolution.step_over_fft": "ratio",
    "evolution.density_flux_report_s": "s",
    "specfun.contour_s": "s",
    "specfun.contour_calls": "count",
    "specfun.contour_us_per_call": "us",
    "specfun.closed_us_per_call": "us",
    "pathweight.plane_wave_s": "s",
    "pathweight.plane_wave_us_per_call": "us",
    "pathweight.kernel_profile_s": "s",
    "cli.self_s": "s",
    "cli.payload_bytes": "count",
    "cli.emit_ns_per_byte": "ns/B",
    "trace.overhead_s": "s",
}

# Children run single-threaded apart from the ensemble --threads value.
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# Prints when the import was done, then one reference-loop time taken after it.
_SETUP_CMD = [sys.executable, "-c", (
    "import time\n"
    "import relqlab.cli\n"
    "done = time.clock_gettime_ns(time.CLOCK_MONOTONIC)\n"
    "import sys\n"
    f"sys.path.insert(0, {str(BENCH_DIR)!r})\n"
    "import hostspeed\n"
    "print(done, hostspeed.loop_s())\n"
)]


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def child_env(root: Path):
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    for var in _THREAD_VARS:
        env[var] = "1"
    return env


def _run_child(cmd, env, deadline):
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("time budget exhausted before a child could start")
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"child timed out: {cmd[:3]}") from exc
    if proc.returncode != 0:
        raise BenchError(f"child {cmd[:3]} exited {proc.returncode}:\n{proc.stderr.strip()}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"child {cmd[:3]} printed nothing")
    return lines[-1]


def measure_setup(env, deadline, count):
    """Seconds from child start to `import relqlab.cli` done, for count fresh
    processes, as (raw, scaled to the reference host speed).  Both ends are
    read from the system-wide monotonic clock; the reference loop runs just
    before the spawn and just after the import."""
    raw, scaled = [], []
    for _ in range(count):
        before = hostspeed.loop_s()
        t0 = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
        done, after = _run_child(_SETUP_CMD, env, deadline).split()
        raw.append((int(done) - t0) * 1e-9)
        scaled.append(raw[-1] * hostspeed.scale([before, float(after)]))
    return raw, scaled


def host_facts():
    facts = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": "unknown",
        "caches": {},
    }
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                facts["cpu"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    cache_root = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache_root.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data"):
            facts["caches"][f"L{level}"] = size
    return facts


def run_workload(root: Path, workload, seed, seconds, trace):
    """Returns (human lines, result JSON object)."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    env = child_env(root)
    _run_child(_SETUP_CMD, env, deadline)  # unmeasured: fills the bytecode cache
    # Set-up samples straddle the workload process, so that a slow spell of
    # the machine weighs on them no more than on the passes.
    setup_raw, setup = measure_setup(env, deadline, SETUP_SAMPLES // 2)
    work_dir = root / WORK_DIR / workload
    cmd = [sys.executable, str(BENCH_DIR / "child.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", str(work_dir)]
    try:
        raw = json.loads(_run_child(cmd, env, deadline))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:  # not empty: another workload's files, left alone
            pass
    more_raw, more = measure_setup(env, deadline, SETUP_SAMPLES - SETUP_SAMPLES // 2)
    setup_raw += more_raw
    setup += more

    walls = raw["scaled_wall_s"]
    wall = statistics.median(walls)
    error_rate = raw["failed"] / raw["attempted"]
    host = host_facts()
    caches = " ".join(f"{k}={v}" for k, v in sorted(host["caches"].items()))
    versions = " ".join(f"{k}={v}" for k, v in raw["versions"].items())
    sets = ", ".join(f"{k} {v:.3g} MiB"
                     for k, v in workloads.working_sets_mib()[workload].items())
    lines = [
        f"# workload={workload} seed={seed} seconds={seconds} trace={trace}",
        f"# host: nproc={host['nproc']} affinity={host['affinity']} cpu=\"{host['cpu']}\" "
        f"{caches} {versions}",
        f"# working set (computed from array shapes): {sets}",
        f"wall_s       {wall:.6f} s    median of {len(walls)} untraced passes, scaled to the "
        f"reference host speed (min {min(walls):.6f}, max {max(walls):.6f}; "
        f"unscaled median {statistics.median(raw['wall_s']):.6f})",
        f"setup_s      {statistics.median(setup):.6f} s    median of {len(setup)} fresh imports, "
        f"scaled likewise (min {min(setup):.6f}, max {max(setup):.6f}; "
        f"unscaled median {statistics.median(setup_raw):.6f})",
        f"peak_rss_mb  {raw['peak_rss_mb']:.3f} MiB  ru_maxrss of the workload process "
        "plus its largest waited-for child",
        f"error_rate   {error_rate:.6g} ratio  {raw['failed']} failed of {raw['attempted']} "
        "attempted operations",
    ]
    lines.extend(f"# problem: {p}" for p in raw["problems"])

    if trace:
        per_layer = raw["per_layer"]
        metrics = {k: {"value": per_layer[k], "unit": u} for k, u in PER_LAYER_UNITS.items()}
        lines.append(f"# traced pass: {raw['spans']} spans; self time by layer: " + ", ".join(
            f"{k} {v:.4f} s" for k, v in sorted(raw["layer_self_s"].items())))
        lines.extend(f"{k:36s} {per_layer[k]:.6g} {u}" for k, u in PER_LAYER_UNITS.items())
    else:
        values = {"wall_s": wall, "setup_s": statistics.median(setup),
                  "peak_rss_mb": raw["peak_rss_mb"]}
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
    result = {"correct": raw["failed"] == 0, "attempted": raw["attempted"],
              "failed": raw["failed"], "metrics": metrics}
    return lines, result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")

    root = Path.cwd()
    if not (root / "src" / "relqlab" / "cli.py").is_file():
        print(f"bench: no relqlab sources under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        try:
            lines, result = run_workload(root, name, args.seed, args.seconds, args.trace)
        except BenchError as exc:
            print(f"bench: {name}: {exc}", file=sys.stderr)
            return 1
        print("\n".join(lines))
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
