"""Tests of the benchmark itself.  Run from the repository root:

    PYTHONPATH=src python -m pytest -q bench/tests
"""

import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import child  # noqa: E402
import hostspeed  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _span(name, parent, start, end):
    return spans.Span(name, parent, start, end)


def test_self_time_subtracts_the_union_of_children():
    recorded = [
        _span("root", None, 0, 100),
        _span("a", 0, 10, 40),
        _span("b", 0, 30, 60),  # overlaps a: covered once
        _span("a.inner", 1, 15, 20),
        _span("late", 0, 90, 120),  # clipped to the parent's end
    ]
    assert spans.self_times_ns(recorded) == [100 - 50 - 10, 25, 30, 5, 30]


def test_self_times_of_nested_wrappers_add_up_to_the_root():
    tracer = spans.Tracer()
    inner = tracer.wrap("m.inner", lambda: sum(range(1000)))
    outer = tracer.wrap("m.outer", lambda: [inner() for _ in range(3)],
                        counter=lambda args, result: {"m.inner_calls": len(result)})
    with tracer.span("root"):
        outer()
    totals = spans.totals_by_name(tracer.spans)
    assert totals["m.inner"][0] == 3 and tracer.counts == {"m.inner_calls": 3}
    root = tracer.spans[0]
    assert sum(self_s for _, self_s in totals.values()) == pytest.approx(
        (root.end_ns - root.start_ns) * 1e-9)
    assert [s.parent for s in tracer.spans] == [None, 0, 1, 1, 1]


def test_wrappers_are_removed_after_the_traced_pass(tmp_path):
    originals = [getattr(m, a) for m, a, _ in child.TRACE_TARGETS]
    ops = [workloads.Op("collapse", workloads._check_collapse,
                        ("collapse", "--seed", "3", "--threads", "1"))]
    tracer = spans.Tracer()
    _, _, outcomes = child.run_pass(ops, tmp_path / "work", tracer)
    assert [getattr(m, a) for m, a, _ in child.TRACE_TARGETS] == originals
    names = {s.name for s in tracer.spans}
    assert {"pass", "cli.execute", "collapse.run_trajectory", "collapse.generate_noise"} <= names
    assert tracer.counts["collapse.traj_steps"] > 0
    assert workloads.verify(outcomes[0])[0] == []

    with pytest.raises(RuntimeError):
        with spans.traced(spans.Tracer(), child.TRACE_TARGETS):
            raise RuntimeError("pass failed")
    assert [getattr(m, a) for m, a, _ in child.TRACE_TARGETS] == originals


def test_host_speed_scale_undoes_a_uniform_slowdown():
    ref = hostspeed.REF_LOOP_S
    assert hostspeed.scale([ref, ref]) == pytest.approx(1.0)
    # The same work on a host half as fast: twice the wall, twice the loop.
    assert 2.0 * hostspeed.scale([2 * ref, 2 * ref]) == pytest.approx(1.0)
    assert hostspeed.loop_s() > 0


def test_corrupted_payload_fails_its_check_and_raises_error_rate(tmp_path):
    ops = [workloads.Op("collapse", workloads._check_collapse,
                        ("collapse", "--seed", "5", "--threads", "1"))]
    tally, reference = child.Tally(), {}
    _, _, outcomes = child.run_pass(ops, tmp_path / "work")
    child.check_pass(outcomes, reference, tally, "pass 1")
    assert (tally.attempted, tally.failed) == (1, 0)

    history = outcomes[0].out_dir / "collapse_history.csv"
    rows = history.read_text().splitlines()
    cells = rows[2].split(",")
    cells[1] = repr(float(cells[1]) + 1e-6)
    rows[2] = ",".join(cells)
    history.write_text("\n".join(rows) + "\n")
    child.check_pass(outcomes, reference, tally, "pass 2")
    assert (tally.attempted, tally.failed) == (2, 1)
    assert tally.failed / tally.attempted > 0
    assert "a0^2 + a1^2" in tally.problems[0] and "first pass" in tally.problems[0]


def test_seed_changes_the_collapse_inputs():
    def seeds(ops):
        return [op.argv[op.argv.index("--seed") + 1] for op in ops]

    for workload in ("ensemble-long", "collapse-short"):
        assert seeds(workloads.build_ops(workload, 1)) == seeds(workloads.build_ops(workload, 1))
        assert set(seeds(workloads.build_ops(workload, 1))).isdisjoint(
            seeds(workloads.build_ops(workload, 2)))
    collapse_seeds = seeds(workloads.build_ops("collapse-short", 7))[:10]
    assert len(set(collapse_seeds)) == 10


def test_without_program_sources_the_benchmark_fails_without_a_result(tmp_path):
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", "spectral",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
