"""Stochastic two-state collapse driven by piecewise-constant potential noise.

A two-state system is a pair of positive-energy levels (e0, e1), energies in
units of m c^2, with momenta p_n = sqrt(e_n^2 - 1) and whole-weight
eigenvalue ratio

    r = R1/R0 = (e1/e0) sqrt((1 + e0)/(1 + e1)),

which equals one exactly when the levels are degenerate.  One noise segment
of amplitude f updates real amplitudes (a0, a1) in three stages:

  1. kick        a_m -> a_m (1 - N_m),   N_m = f p_m (2 + e_m) / (2 e_m^2 (1 + e_m))
  2. mixing      with the linear-model factors built from the pre-kick state,
                 l00 = a0^2 + a1^2 r,  l11 = a1^2 + a0^2 / r:
                     a0' = l00 a0k + (a0/a1)(1 - l00) a1k
                     a1' = (a1/a0)(1 - l11) a0k + l11 a1k
  3. renormalize to a0'^2 + a1'^2 = 1 (the raw recursion does not conserve it).

Renormalization cancels in the ratio s = (a1/a0)^2, so both stepping loops
carry s alone: s' = s phi^2 with phi = (1 - N0 + l11 D)/(1 - N1 - l00 D),
D = N0 - N1, l00 = (1 + r s)/(1 + s), l11 = (s + 1/r)/(1 + s).  Zero noise
and degenerate levels give phi = 1 exactly; the threshold and the 1e-9
amplitude floor become bounds on s.  The two-amplitude recursion the
engines are checked against, where an amplitude below the floor declares the
state collapsed instead of being divided by, lives in tests/reference.py.

Noise segments are uniform i.i.d. on [-sigma, sigma] (seeded, Philox
counter-based generator) or the deterministic alternating sequence
(-1)^n sigma, both drawn by one filler.  Trajectory k of an ensemble uses key
seed + k, so ensembles are reproducible independently of execution order.
Level m is kicked by f times the system's noise_gains[m].  The one scalar
loop, run_trajectory (Python floats, with history), and the lockstep
ensemble loop (numpy arrays over step-major noise tiles) call the same step
function, so ensembles are bit-identical to scalar runs, however they are
split into blocks or across worker processes (children forked on Linux that
share one generator and write into one shared mapping).  The lockstep loop
checks the threshold once per _ROWS steps and records a trajectory at its
first crossing.  The scalar loop draws noise in chunks of _CHUNK values from
one generator and keeps each chunk's history rows as one float64 block; the
lockstep loop in chunks of _FIRST_CHUNK values, then _CHUNK after a chunk in
which nothing collapsed, else twice the last, up to _CHUNK; Philox streams
resume from their counter, so neither grouping nor chunking changes a value.
"""

from __future__ import annotations

import functools
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from ._integers import is_integer

AMPLITUDE_FLOOR = 1e-9

#: Desk-scale noise amplitude for the reference level pair (1.25, 1.75).
#: The physical segment durations quoted for laboratory noise imply ~1e12
#: segments per collapse; this value is calibrated so the median collapse
#: of the reference system lands in the 1e3..1e4 step range instead, with
#: 5x headroom below the noise domain bound (sigma < 2.826 there).
DEFAULT_SIGMA_STAR = 0.55

#: Most trajectories one ensemble block advances in lockstep.  It bounds the
#: (chunk, width) noise tile of a block to 64 MiB, so memory stops growing with n_runs.
ENSEMBLE_BLOCK = 16384

_SLAB = 128  # noise streams an ensemble fills, scales and transposes at a time
_ROWS = 16  # lockstep steps between threshold checks
# Noise values per trajectory in a lockstep block's first chunk.  A re-key (one
# row of one chunk: a Philox state assignment and a `random` call) costs
# ~1.2-1.6 us inside a block, the price of ~150 values.  At sigma 2.2 ~5% of
# trajectories collapse by step 64 and ~80% by step 128, so a first chunk of 64
# re-keys nearly every row again for the next 128 values.  At sigma 2.2 the
# first chunk sets the widest tile a block touches: 128 x 10000 doubles
# (9.8 MiB) for a 10000-wide block, where 192 would touch ~5 MiB more.  A first
# chunk with no collapse (sigma 0.55) is followed by full _CHUNK ones, which
# skips the 256-value chunk's re-keys of rows that would not collapse there either.
_FIRST_CHUNK = 128
# A scalar noise chunk and the largest lockstep one, a multiple of four: the
# smallest cap whose wide lockstep blocks step no slower than at 1024.
_CHUNK = 512
_U64 = (1 << 64) - 1
_KEY_LIMIT = 1 << 128  # Philox keys are 128-bit


class NoiseTooLargeError(ValueError):
    """f_max max|A1, A0, B1, B0| >= 1: some state and noise value would give a
    negative mixed amplitude.  The bound includes |N| < 1 (the perturbative kick)."""


def _kick_gain(e):
    """N / f of a level of energy e: its linear response to the noise amplitude."""
    p = math.sqrt(e * e - 1.0)
    return p * (2.0 + e) / (2.0 * e * e * (1.0 + e))


def level_error(e):
    """Why e cannot be a level energy (units of m c^2), or None.  The kick gain is
    0.0 past ~4.5e102, where 2 e^2 (1 + e) overflows, and nan past ~1.3e154, where
    p does; only e = 1 has a true gain of 0.  r_ratio is finite for passing levels."""
    if not (e >= 1.0 and math.isfinite(e)):
        return "must be >= 1 (units of m c^2)"
    ok = e == 1.0 or _kick_gain(e) > 0.0  # false for a nan gain too
    return None if ok else "must be small enough for a finite kick gain (not underflowed to 0)"


@dataclass(frozen=True)
class TwoStateSystem:
    """Two positive-energy levels; energies in units of m c^2 (e_n >= 1)."""

    e0: float
    e1: float

    def __post_init__(self):
        for name, e in (("e0", self.e0), ("e1", self.e1)):
            if msg := level_error(e):
                raise ValueError(f"{name} {msg}, got {e!r}")

    @property
    def r_ratio(self):
        """R1/R0; equals 1 iff the levels are degenerate."""
        return (self.e1 / self.e0) * math.sqrt((1.0 + self.e0) / (1.0 + self.e1))

    def kick_gain(self, level):
        """N_m / f: the level's linear response to the noise amplitude."""
        return _kick_gain(self.e0 if level == 0 else self.e1)

    @property
    def noise_gains(self):
        """(g0, g1): noise f kicks level m by N_m = f g_m; here the kick gains."""
        return self.kick_gain(0), self.kick_gain(1)


@dataclass(frozen=True)
class TwoStateAmplitudes:
    """Real amplitude pair with a0^2 + a1^2 = 1."""

    a0: float
    a1: float

    def __post_init__(self):
        if not (0.0 <= self.a0 <= 1.0 and 0.0 <= self.a1 <= 1.0):
            raise ValueError(f"amplitudes must lie in [0, 1], got ({self.a0!r}, {self.a1!r})")
        if abs(self.a0 * self.a0 + self.a1 * self.a1 - 1.0) > 1e-9:
            raise ValueError("amplitudes must satisfy a0^2 + a1^2 = 1")

@dataclass(frozen=True)
class NoiseProcess:
    """Piecewise-constant potential noise: amplitude scale sigma, seed, and
    mode 'uniform' or 'alternating'.

    No computation reads the segment duration delta (units of tau0): the
    engines count segments, not time.  It is kept, validated, only until
    bench/workloads.py stops passing it.
    """

    sigma: float
    seed: int
    mode: str = "uniform"
    delta: float = 1.0

    def __post_init__(self):
        if not (self.delta > 0 and math.isfinite(self.delta)):
            raise ValueError(f"delta must be positive, got {self.delta!r}")
        if not (self.sigma >= 0 and math.isfinite(self.sigma)):
            raise ValueError(f"sigma must be non-negative, got {self.sigma!r}")
        if self.mode not in ("uniform", "alternating"):
            raise ValueError(f"mode must be 'uniform' or 'alternating', got {self.mode!r}")
        if not (is_integer(self.seed) and 0 <= self.seed < _KEY_LIMIT):
            raise ValueError("seed must be an integer in [0, 2**128) (a Philox key), "
                             f"got {self.seed!r}")

    def make_generator(self, offset=0):
        return np.random.Generator(np.random.Philox(key=self.seed + offset))


@dataclass(frozen=True)
class CollapseTrajectory:
    """Recorded history (step, a0^2, a1^2, f), final outcome, and collapse step."""

    history: np.ndarray
    outcome: int | None
    steps_to_collapse: int | None


@dataclass(frozen=True)
class EnsembleReport:
    """Outcome statistics of repeated collapse runs."""

    n_runs: int
    counts: dict
    freq: dict
    wilson_ci95: dict
    unresolved: int
    median_steps: float | None


def _philox_at(blocks_drawn):
    """Philox state after 4 * blocks_drawn doubles of a stream whose key the
    caller sets (numpy Philox: one counter increment per four 64-bit outputs,
    buffer spent)."""
    return {"bit_generator": "Philox",
            "state": {"counter": (blocks_drawn, 0, 0, 0), "key": (0, 0)},
            "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}


def _fill_noise(proc: NoiseProcess, gen, keys, start, out):
    """Fill row i of `out` with noise values start, start + 1, ... of stream
    keys[i] (Python ints; start a multiple of four).  gen is a Philox
    Generator, re-keyed per row; alternating noise ignores it."""
    if proc.mode == "alternating":
        out[:] = np.where((start + np.arange(out.shape[1])) % 2 == 0, proc.sigma, -proc.sigma)
        return
    bitgen = gen.bit_generator
    state = _philox_at(start // 4)  # the counter is the same for every row; only the key changes
    for row, key in zip(out, keys):
        state["state"]["key"] = (key & _U64, key >> 64)
        bitgen.state = state
        gen.random(out=row)
    # uniform(-s, s) is -s + (s - (-s)) * random(): fill, scale, shift.
    out *= proc.sigma - (-proc.sigma)
    out += -proc.sigma


def generate_noise(proc: NoiseProcess, n_steps, start=0, gen=None):
    """Noise segment values f_start .. f_{start+n_steps-1} for the process;
    start must be a non-negative multiple of four.  gen, a Philox Generator
    that the call re-keys whatever its state, spares building one per call."""
    if not is_integer(n_steps) or n_steps < 1:
        raise ValueError(f"n_steps must be a positive integer, got {n_steps!r}")
    if not is_integer(start) or start < 0 or start % 4:
        raise ValueError(f"start must be a non-negative multiple of 4, got {start!r}")
    values = np.empty(n_steps)
    gen = proc.make_generator() if gen is None else gen  # alternating noise ignores it
    _fill_noise(proc, gen, [proc.seed], int(start), values[None])
    return values


def _ratio_coefficients(sys: TwoStateSystem):
    """(A1, A0, B1, B0) with phi = (1 + s + f (A1 s + A0))/(1 + s + f (B1 s + B0)),
    the module's phi for sys's noise gains (g0, g1); equal levels give A = B exactly."""
    (g0, g1), r = sys.noise_gains, sys.r_ratio
    gd = g0 - g1
    return -g1, gd / r - g0, -(g1 + gd * r), -g0


def _ratio_step(s, f, coef, out=None):
    """s' = s phi^2 in plain + - * /, so that Python floats and numpy arrays
    round alike; f = 0 gives phi = 1 exactly.  In place, an array step makes
    four temporaries, or three when it writes s' to out, which may be f (read
    before out is written).  phi = (u + f (a1 s + a0)) / (u + f (b1 s + b0)),
    s' = (s phi) phi."""
    a1, a0, b1, b0 = coef
    u = 1.0 + s
    num = a1 * s
    num += a0
    num *= f
    num += u
    den = b1 * s
    den += b0
    den *= f
    den += u
    num /= den  # phi
    out = s * num if out is None else np.multiply(s, num, out=out)
    out *= num
    return out


def _initial_ratio(init: TwoStateAmplitudes):
    """s from the smaller probability p as (1 - p)/p or p/(1 - p), each p at
    least FLOOR^2: an amplitude below the floor collapses at the first step."""
    p0, p1 = (max(a * a, AMPLITUDE_FLOOR * AMPLITUDE_FLOOR) for a in (init.a0, init.a1))
    return (1.0 - p0) / p0 if p0 <= p1 else p1 / (1.0 - p1)


def _first_double(pred, lo, hi):
    """Smallest double in (lo, hi] where pred, monotone, turns true (0 <= lo)."""
    lo, hi = np.array([lo, hi]).view(np.int64).tolist()
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if pred(np.int64(mid).view(np.float64).item()) else (mid, hi)
    return np.int64(hi).view(np.float64).item()


@functools.lru_cache(maxsize=64)
def _ratio_bounds(threshold):
    """(lo, hi): s <= lo exactly when the rounded a0^2 = 1/(1 + s) reaches the
    threshold, s >= hi exactly when a1^2 = 1/(1 + 1/s) does (both monotone)."""
    lo = _first_double(lambda s: 1.0 / (1.0 + s) < threshold, 0.0, 1.0)
    hi = _first_double(lambda s: 1.0 / (1.0 + 1.0 / s) >= threshold, 1.0, math.inf)
    return math.nextafter(lo, 0.0), hi


def check_noise(sys: TwoStateSystem, f_max):
    """Raise NoiseTooLargeError unless phi's numerator and denominator, linear in
    s >= 0 and in f, stay positive for |f| <= f_max: exactly when
    f_max max|A1, A0, B1, B0| < 1 (A1 = -g1, B0 = -g0)."""
    worst = f_max * float(np.max(np.abs(_ratio_coefficients(sys))))  # nan if one is
    if not worst < 1.0:
        raise NoiseTooLargeError(f"noise amplitude {f_max!r} gives f_max max|A1, A0, B1, B0| = "
                                 f"{worst:.4g}, not < 1: an amplitude can turn negative; "
                                 "reduce sigma")


def _check_run(sys: TwoStateSystem, proc: NoiseProcess, max_steps, threshold):
    """The domain both collapse loops share: a threshold in (0.5, 1), a
    positive step budget and noise that check_noise accepts."""
    if not (0.5 < threshold < 1.0):
        raise ValueError(f"threshold must lie in (0.5, 1), got {threshold!r}")
    if not is_integer(max_steps) or max_steps < 1:
        raise ValueError(f"max_steps must be a positive integer, got {max_steps!r}")
    check_noise(sys, proc.sigma)


def check_keys(seed, n_runs):
    """Raise ValueError unless the ensemble's Philox keys seed + k, k < n_runs, fit 128 bits."""
    if seed + n_runs - 1 >= _KEY_LIMIT:
        raise ValueError(f"seed + n_runs - 1 must be < 2**128, got seed {seed!r}")


def run_trajectory(init: TwoStateAmplitudes, sys: TwoStateSystem, proc: NoiseProcess,
                   max_steps, threshold, history_stride=1) -> CollapseTrajectory:
    """Iterate collapse steps until one probability reaches the threshold.

    threshold must lie in (0.5, 1).  History records (step, a0^2, a1^2, f),
    f the step's noise value (0.0 at step 0), at step 0, every
    history_stride steps, and at termination.  Outcome is the dominant index
    on collapse, None if max_steps is exhausted first.  Noise comes from one
    generator in chunks of _CHUNK values, each chunk's rows one float64 block.
    """
    _check_run(sys, proc, max_steps, threshold)
    if not is_integer(history_stride) or history_stride < 1:
        raise ValueError(f"history_stride must be a positive integer, got {history_stride!r}")
    coef = _ratio_coefficients(sys)
    lo, hi = _ratio_bounds(threshold)
    rows = [0, init.a0 * init.a0, init.a1 * init.a1, 0.0]  # flat (step, a0^2, a1^2, f)
    hit = rows[1] >= threshold or rows[2] >= threshold
    history = [np.array(rows)]  # flat float64 blocks: step 0, then one a chunk
    s = _initial_ratio(init)
    step = 0
    gen = proc.make_generator()
    while not hit and step < max_steps:
        rows = []
        for f in generate_noise(proc, min(_CHUNK, max_steps - step), step, gen).tolist():
            step += 1
            s = _ratio_step(s, f, coef)
            hit = s <= lo or s >= hi
            if step % history_stride == 0 or hit or step == max_steps:
                rows += (step, 1.0 / (1.0 + s), 1.0 / (1.0 + 1.0 / s), f)
            if hit:
                break
        history.append(np.array(rows))
    outcome = int(s > 1.0) if hit else None
    return CollapseTrajectory(history=np.concatenate(history).reshape(-1, 4), outcome=outcome,
                              steps_to_collapse=step if hit else None)


def wilson_interval(successes, trials):
    """Wilson 95% score interval for a binomial proportion."""
    if trials < 1:
        raise ValueError("wilson_interval needs at least one trial")
    z = 1.959963984540054  # two-sided 95%
    p_hat = successes / trials
    z2n = z * z / trials
    center = (p_hat + 0.5 * z2n) / (1.0 + z2n)
    half = z * math.sqrt(p_hat * (1.0 - p_hat) / trials + 0.25 * z2n / trials) / (1.0 + z2n)
    return max(0.0, center - half), min(1.0, center + half)


def worker_count(requested, n_blocks):
    """Worker processes to use: on Linux min(requested, usable CPUs, n_blocks),
    where the usable CPUs are this process's affinity set; elsewhere 1, since
    workers are forked and only Linux forks them here (the results are the same)."""
    if not is_integer(requested) or requested < 1:
        raise ValueError(f"workers must be a positive integer, got {requested!r}")
    if sys.platform != "linux":
        return 1
    return max(1, min(int(requested), len(os.sched_getaffinity(0)), n_blocks))


def _ensemble_blocks(n_runs, workers):
    """Contiguous (k0, width) blocks of balanced width, at most ENSEMBLE_BLOCK
    each, their number a multiple of workers (n_runs permitting)."""
    n_blocks = -(-n_runs // ENSEMBLE_BLOCK)
    n_blocks = min(n_runs, -(-n_blocks // workers) * workers)
    edges = [i * n_runs // n_blocks for i in range(n_blocks + 1)]
    return [(lo, hi - lo) for lo, hi in zip(edges, edges[1:])]


def _ensemble_block(init: TwoStateAmplitudes, sys: TwoStateSystem, proc: NoiseProcess,
                    max_steps, threshold, gen, block, out):
    """Advance trajectories k0 .. k0 + width - 1 of a uniform-noise ensemble
    from an initial state short of the threshold, drawing their noise with
    gen, a Philox Generator re-keyed per row (so every block may share one).

    Chunk lengths follow the module's rule (multiples of four, so every
    stream can be resumed from its counter alone).  A chunk is filled _SLAB
    live streams at a time into a step-major tile.  Each group of _ROWS steps
    writes its states over the tile rows whose noise it spent; the group's
    min and max down its rows pick the columns that crossed, and each one not
    yet dead is recorded at its first crossing row.  Crossed columns are then
    parked at s = 1 under a dead mask, which keeps a second trip from being
    recorded; s and its tile columns are compacted once an eighth of them are
    dead, and at the chunk's end.
    Writes the outcome and collapse step of trajectory k into out[:, k], a
    (2, n_runs) int64 array that holds -1 (unresolved) until then.
    """
    k0, width = block
    coef = _ratio_coefficients(sys)
    lo, hi = _ratio_bounds(threshold)
    outcome, steps_at = out[:, k0:k0 + width]
    tile_buf = np.empty(width * min(_CHUNK, max_steps))
    slab_buf = np.empty(min(width, _SLAB) * min(_CHUNK, max_steps))
    s = np.full(width, _initial_ratio(init))
    live = np.arange(width)  # block-local indices of the trajectories still stepping
    step = 0
    span = min(_FIRST_CHUNK, _CHUNK)
    while live.size and step < max_steps:
        span = min(span, max_steps - step)
        tile = tile_buf[:span * live.size].reshape(span, live.size)
        for c in range(0, live.size, _SLAB):
            keys = [proc.seed + k0 + k for k in live[c:c + _SLAB].tolist()]
            slab = slab_buf[:span * len(keys)].reshape(-1, span)
            _fill_noise(proc, gen, keys, step, slab)
            tile[:, c:c + _SLAB] = slab.T
        cols = np.arange(live.size)  # the tile column of each entry of s
        dead = np.zeros(live.size, dtype=bool)  # entries of s parked after collapsing
        for j0 in range(0, span, _ROWS):
            group = tile[j0:j0 + _ROWS, :s.size]  # each row's noise, then its new s
            for j, row in enumerate(group, j0):
                s = _ratio_step(s, row if s.size == live.size else tile[j, cols], coef, out=row)
            hit = np.flatnonzero((group.min(axis=0) <= lo) | (group.max(axis=0) >= hi))
            if not hit.size:
                continue
            new = hit[~dead[hit]]
            if new.size:
                trips = group[:, new]
                first = ((trips <= lo) | (trips >= hi)).argmax(axis=0)  # first crossing row
                done = live[cols[new]]
                outcome[done] = trips[first, np.arange(new.size)] > 1.0
                steps_at[done] = step + j0 + first + 1
                dead[new] = True
            s[hit] = 1.0  # parked: a0^2 = a1^2 = 1/2 trips no threshold in (0.5, 1)
            if 8 * np.count_nonzero(dead) >= s.size:
                keep = ~dead
                s, cols, dead = s[keep], cols[keep], dead[keep]
                if not s.size:
                    break
        step += span
        s, live = s[~dead], live[cols[~dead]]  # the next chunk fills live keys only
        span = min(2 * span, _CHUNK) if live.size < tile.shape[1] else _CHUNK


def _ensemble_outcomes(init: TwoStateAmplitudes, sys: TwoStateSystem, proc_base: NoiseProcess,
                       n_runs, max_steps, threshold, workers):
    """Per-trajectory outcome and collapse-step rows (-1 where unresolved).
    Several workers are forked children, worker w running blocks w,
    w + n_workers, ... into one shared mapping; the caller runs no block."""
    n_workers = worker_count(workers, n_runs)  # a block holds at least one trajectory
    coef = _ratio_coefficients(sys)
    if (proc_base.mode == "alternating" or proc_base.sigma == 0 or coef[:2] == coef[2:]
            or init.a0 * init.a0 >= threshold or init.a1 * init.a1 >= threshold):
        # deterministic noise, noise that cannot move s (phi = 1 exactly), or a
        # state collapsed at step 0: one run stands for all
        traj = run_trajectory(init, sys, proc_base, max_steps, threshold, max_steps)
        resolved = traj.outcome is not None
        return (np.full(n_runs, traj.outcome if resolved else -1, dtype=np.int64),
                np.full(n_runs, traj.steps_to_collapse if resolved else -1, dtype=np.int64))

    blocks = _ensemble_blocks(n_runs, n_workers)  # at least n_workers blocks
    advance = functools.partial(_ensemble_block, init, sys, proc_base, max_steps, threshold,
                                proc_base.make_generator())  # built once, before any fork
    if n_workers == 1:
        out = np.full((2, n_runs), -1, dtype=np.int64)
        for block in blocks:
            advance(block, out)
        return out
    import mmap
    import signal
    import traceback
    out = np.frombuffer(mmap.mmap(-1, 16 * n_runs), dtype=np.int64).reshape(2, n_runs)
    out[:] = -1
    pids, failed = [], 0
    try:
        for w in range(n_workers):
            if (pid := os.fork()) == 0:  # a worker never returns into the caller
                code = 1
                try:
                    for block in blocks[w::n_workers]:
                        advance(block, out)
                    code = 0
                except BaseException:
                    traceback.print_exc()
                finally:
                    os._exit(code)
            pids.append(pid)
        while pids:  # a pid leaves the list only once it is reaped
            failed += os.waitpid(pids[-1], 0)[1] != 0
            pids.pop()
    finally:
        for pid in pids:  # the wait was interrupted: stop and reap the workers left
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    if failed:
        raise RuntimeError(f"{failed} of {n_workers} ensemble workers failed")
    return out.copy()


def run_ensemble(init: TwoStateAmplitudes, sys: TwoStateSystem, proc_base: NoiseProcess,
                 n_runs, max_steps, threshold, workers=1) -> EnsembleReport:
    """Repeat the trajectory with seeds seed + k, k = 0..n_runs-1.

    Uniform-noise trajectories advance in vectorized lockstep, in blocks of
    at most ENSEMBLE_BLOCK that up to `workers` forked processes share (see
    worker_count); each consumes its own Philox stream, so the
    per-trajectory results equal scalar run_trajectory calls bit for bit and
    are independent of chunks, blocks and workers.  Alternating noise, zero
    noise and equal levels (phi = 1 exactly) run one trajectory for all.
    """
    if not is_integer(n_runs) or n_runs < 1:
        raise ValueError(f"n_runs must be a positive integer, got {n_runs!r}")
    check_keys(proc_base.seed, n_runs)
    _check_run(sys, proc_base, max_steps, threshold)
    outcome, steps_at = _ensemble_outcomes(init, sys, proc_base, n_runs, max_steps,
                                           threshold, workers)

    counts = {0: int(np.sum(outcome == 0)), 1: int(np.sum(outcome == 1))}
    unresolved = int(np.sum(outcome < 0))
    freq = {k: counts[k] / n_runs for k in (0, 1)}
    ci = {k: wilson_interval(counts[k], n_runs) for k in (0, 1)}
    collapsed = steps_at[steps_at >= 0]
    median_steps = float(np.median(collapsed)) if collapsed.size else None
    return EnsembleReport(n_runs=int(n_runs), counts=counts, freq=freq, wilson_ci95=ci,
                          unresolved=unresolved, median_steps=median_steps)

