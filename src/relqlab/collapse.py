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
amplitude floor become bounds on s.  collapse_step keeps the two-amplitude
form as the public reference, where an amplitude below the floor declares
the state collapsed instead of being divided by.

Noise segments are uniform i.i.d. on [-sigma, sigma] (seeded, Philox
counter-based generator) or the deterministic alternating sequence
(-1)^n sigma, both drawn by one filler.  Trajectory k of an ensemble uses key
seed + k, so ensembles are reproducible independently of execution order.
The scalar loop (width 1, with history; Python floats) and the lockstep
ensemble loop (numpy arrays over step-major noise tiles) call the same step
function, so ensembles are bit-identical to scalar runs, however they are
split into blocks or across worker processes.
"""

from __future__ import annotations

import functools
import math
import os
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from . import evolution

AMPLITUDE_FLOOR = 1e-9

#: Desk-scale noise amplitude for the reference level pair (1.25, 1.75).
#: The physical segment durations quoted for laboratory noise imply ~1e12
#: segments per collapse; this value is calibrated so the median collapse
#: of the reference system lands in the 1e3..1e4 step range instead, with
#: 5x headroom below the noise domain bound (sigma < 2.826 there).
DEFAULT_SIGMA_STAR = 0.55

#: Most trajectories one ensemble block advances in lockstep.  It bounds the
#: (chunk, width) noise tile of a block, so memory stops growing with n_runs.
ENSEMBLE_BLOCK = 16384

_SLAB = 32  # noise streams an ensemble fills, scales and transposes at a time
_FIRST_CHUNK = 64  # noise values per trajectory in a run's first chunk
_CHUNK = 1024  # largest noise chunk per trajectory, a multiple of four, in both loops
_U64 = (1 << 64) - 1
_KEY_LIMIT = 1 << 128  # Philox keys are 128-bit

# Ensemble workers fork on Linux: a spawned one imports numpy and relqlab
# (~0.2 s; not scipy), so a 2-worker pool starts in ~0.4 s, forked in ~0.05 s
# (2-vCPU Xeon; a default ensemble takes ~0.85 s).  Workers run only numpy and
# Philox code, never BLAS or threads.  Elsewhere the default method applies.
_POOL_START_METHOD = "fork" if sys.platform == "linux" else None


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

    @property
    def probabilities(self):
        return self.a0 * self.a0, self.a1 * self.a1


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
        if not 0 <= self.seed < _KEY_LIMIT:
            raise ValueError(f"seed must lie in [0, 2**128) (a Philox key), got {self.seed!r}")

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


def generate_noise(proc: NoiseProcess, n_steps, start=0):
    """Noise segment values f_start .. f_{start+n_steps-1} for the process;
    start must be a non-negative multiple of four."""
    if not isinstance(n_steps, (int, np.integer)) or n_steps < 1:
        raise ValueError(f"n_steps must be a positive integer, got {n_steps!r}")
    if not isinstance(start, (int, np.integer)) or start < 0 or start % 4:
        raise ValueError(f"start must be a non-negative multiple of 4, got {start!r}")
    values = np.empty(n_steps)
    gen = proc.make_generator() if proc.mode == "uniform" else None
    _fill_noise(proc, gen, [proc.seed], int(start), values[None])
    return values


def lambda_two_state(a: TwoStateAmplitudes, sys: TwoStateSystem):
    """Diagonal factors of the linear mixing model: (l00, l11)."""
    r = sys.r_ratio
    p0, p1 = a.probabilities
    return p0 + p1 * r, p1 + p0 / r


def _step_kernel(a0, a1, n0, n1, r):
    """One step of the three stages on raw amplitudes; zero noise is a fixed
    point, an amplitude below the floor is never divided by."""
    if a1 < AMPLITUDE_FLOOR:  # level 1 gone: definite level 0
        return 1.0, 0.0
    if a0 < AMPLITUDE_FLOOR:
        return 0.0, 1.0
    if n0 == 0.0 and n1 == 0.0:
        return a0, a1
    p0, p1 = a0 * a0, a1 * a1
    l00, l11 = p0 + p1 * r, p1 + p0 / r
    k0, k1 = a0 * (1.0 - n0), a1 * (1.0 - n1)
    b0 = l00 * k0 + (a0 / a1) * (1.0 - l00) * k1
    b1 = (a1 / a0) * (1.0 - l11) * k0 + l11 * k1
    norm = math.sqrt(b0 * b0 + b1 * b1)
    return b0 / norm, b1 / norm


def _ratio_coefficients(g0, g1, r):
    """(A1, A0, B1, B0) with phi = (1 + s + f (A1 s + A0))/(1 + s + f (B1 s + B0)),
    the module's phi for kick gains g0, g1; equal levels give A = B exactly."""
    gd = g0 - g1
    return -g1, gd / r - g0, -(g1 + gd * r), -g0


def _ratio_step(s, f, coef):
    """s' = s phi^2 in plain + - * /, so that Python floats and numpy arrays
    round alike; f = 0 gives phi = 1 exactly."""
    a1, a0, b1, b0 = coef
    u = 1.0 + s
    phi = (u + f * (a1 * s + a0)) / (u + f * (b1 * s + b0))
    return s * phi * phi


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


def _check_noise(gains, r, f_max):
    """phi's numerator and denominator, linear in s >= 0 and in f, stay positive
    for |f| <= f_max exactly when f_max max|A1, A0, B1, B0| < 1 (A1 = -g1, B0 = -g0)."""
    worst = f_max * float(np.max(np.abs(_ratio_coefficients(*gains, r))))  # nan if one is
    if not worst < 1.0:
        raise NoiseTooLargeError(f"noise amplitude {f_max!r} gives f_max max|A1, A0, B1, B0| = "
                                 f"{worst:.4g}, not < 1: an amplitude can turn negative; "
                                 "reduce sigma")


def _check_run(gains, r, proc: NoiseProcess, max_steps, threshold):
    """The domain both collapse loops share: a threshold in (0.5, 1), a
    positive step budget and noise that _check_noise accepts."""
    if not (0.5 < threshold < 1.0):
        raise ValueError(f"threshold must lie in (0.5, 1), got {threshold!r}")
    if not isinstance(max_steps, (int, np.integer)) or max_steps < 1:
        raise ValueError(f"max_steps must be a positive integer, got {max_steps!r}")
    _check_noise(gains, r, proc.sigma)


def _check_keys(seed, n_runs):
    """Trajectory k of an ensemble keys its Philox stream seed + k."""
    if seed + n_runs - 1 >= _KEY_LIMIT:
        raise ValueError(f"seed + n_runs - 1 must be < 2**128, got seed {seed!r}")


def collapse_step(a_prev: TwoStateAmplitudes, sys: TwoStateSystem, f) -> TwoStateAmplitudes:
    """Kick with noise value f, mix with the pre-kick linear-model factors,
    renormalize."""
    g0, g1 = sys.kick_gain(0), sys.kick_gain(1)
    _check_noise((g0, g1), sys.r_ratio, abs(f))
    b0, b1 = _step_kernel(a_prev.a0, a_prev.a1, f * g0, f * g1, sys.r_ratio)
    return TwoStateAmplitudes(a0=float(b0), a1=float(b1))


def _trajectory(init: TwoStateAmplitudes, gains, r, proc: NoiseProcess, max_steps,
                threshold, history_stride) -> CollapseTrajectory:
    """The width-1 loop behind run_trajectory, on Python floats, kicking level m
    by f * gains[m]; noise chunks double from _FIRST_CHUNK to _CHUNK.  It
    checks its own arguments, so every caller gets run_trajectory's domain."""
    _check_run(gains, r, proc, max_steps, threshold)
    if not isinstance(history_stride, (int, np.integer)) or history_stride < 1:
        raise ValueError(f"history_stride must be a positive integer, got {history_stride!r}")
    coef = _ratio_coefficients(*gains, r)
    lo, hi = _ratio_bounds(threshold)
    rows = [0, init.a0 * init.a0, init.a1 * init.a1, 0.0]  # flat (step, a0^2, a1^2, f)
    hit = rows[1] >= threshold or rows[2] >= threshold
    s = _initial_ratio(init)
    step, span = 0, min(_FIRST_CHUNK, _CHUNK)
    while not hit and step < max_steps:
        for f in generate_noise(proc, min(span, max_steps - step), step).tolist():
            step += 1
            s = _ratio_step(s, f, coef)
            if step % history_stride == 0:
                rows += (step, 1.0 / (1.0 + s), 1.0 / (1.0 + 1.0 / s), f)
            hit = s <= lo or s >= hi
            if hit:
                break
        span = min(2 * span, _CHUNK)
    if rows[-4] != step:
        rows += (step, 1.0 / (1.0 + s), 1.0 / (1.0 + 1.0 / s), f)
    outcome = int(s > 1.0) if hit else None
    return CollapseTrajectory(history=np.array(rows).reshape(-1, 4), outcome=outcome,
                              steps_to_collapse=step if hit else None)


def run_trajectory(init: TwoStateAmplitudes, sys: TwoStateSystem, proc: NoiseProcess,
                   max_steps, threshold, history_stride=1) -> CollapseTrajectory:
    """Iterate collapse steps until one probability reaches the threshold.

    threshold must lie in (0.5, 1).  History records (step, a0^2, a1^2, f),
    f the step's noise value (0.0 at step 0), at step 0, every
    history_stride steps, and at termination.  Outcome is the dominant index
    on collapse, None if max_steps is exhausted first.
    """
    return _trajectory(init, (sys.kick_gain(0), sys.kick_gain(1)), sys.r_ratio, proc,
                       max_steps, threshold, history_stride)


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
    """Worker processes to use: min(requested, usable CPUs, n_blocks), where
    the usable CPUs are this process's affinity set (else all CPUs)."""
    if not isinstance(requested, (int, np.integer)) or requested < 1:
        raise ValueError(f"workers must be a positive integer, got {requested!r}")
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        cpus = os.cpu_count() or 1
    return max(1, min(int(requested), cpus, n_blocks))


def _ensemble_blocks(n_runs, workers):
    """Contiguous (k0, width) blocks of balanced width, at most ENSEMBLE_BLOCK
    each, their number a multiple of workers (n_runs permitting)."""
    n_blocks = -(-n_runs // ENSEMBLE_BLOCK)
    n_blocks = min(n_runs, -(-n_blocks // workers) * workers)
    edges = [i * n_runs // n_blocks for i in range(n_blocks + 1)]
    return [(lo, hi - lo) for lo, hi in zip(edges, edges[1:])]


def _ensemble_block(init: TwoStateAmplitudes, sys: TwoStateSystem, proc: NoiseProcess,
                    max_steps, threshold, block):
    """Advance trajectories k0 .. k0 + width - 1 of a uniform-noise ensemble
    from an initial state short of the threshold.

    Noise comes in chunks whose length starts at _FIRST_CHUNK and doubles up
    to _CHUNK (multiples of four, so every stream can be resumed from its
    counter alone); the chunking never changes a value.  A chunk is filled
    _SLAB streams at a time into a step-major tile.  Returns the outcome and
    collapse-step arrays (-1 where unresolved).  Module-level so that worker
    processes can run it.
    """
    k0, width = block
    coef = _ratio_coefficients(sys.kick_gain(0), sys.kick_gain(1), sys.r_ratio)
    lo, hi = _ratio_bounds(threshold)
    outcome = np.full(width, -1, dtype=np.int64)
    steps_at = np.full(width, -1, dtype=np.int64)
    gen = proc.make_generator(offset=k0)  # re-keyed per row; validates the lowest key
    tile_buf = np.empty(width * min(_CHUNK, max_steps))
    slab_buf = np.empty(min(width, _SLAB) * min(_CHUNK, max_steps))
    s = np.full(width, _initial_ratio(init))
    live = np.arange(width)  # block-local indices of the trajectories still stepping
    step = 0
    span = min(_FIRST_CHUNK, _CHUNK)
    while live.size and step < max_steps:
        span = min(span, max_steps - step)
        tile = tile_buf[:span * live.size].reshape(span, live.size)
        keys = [proc.seed + k0 + k for k in live.tolist()]
        for c in range(0, live.size, _SLAB):
            slab = slab_buf[:span * len(keys[c:c + _SLAB])].reshape(-1, span)
            _fill_noise(proc, gen, keys[c:c + _SLAB], step, slab)
            tile[:, c:c + _SLAB] = slab.T
        cols = None  # tile columns still stepping, once some have stopped
        for j in range(span):
            s = _ratio_step(s, tile[j] if cols is None else tile[j, cols], coef)
            if s.min() <= lo or s.max() >= hi:
                hit = (s <= lo) | (s >= hi)
                stepping = np.arange(live.size) if cols is None else cols
                done = live[stepping[hit]]
                outcome[done] = s[hit] > 1.0
                steps_at[done] = step + j + 1
                keep = ~hit
                s, cols = s[keep], stepping[keep]
                if not s.size:
                    break
        step += span
        span = min(2 * span, _CHUNK)
        if cols is not None:
            live = live[cols]
    return outcome, steps_at


def _ensemble_outcomes(init: TwoStateAmplitudes, sys: TwoStateSystem, proc_base: NoiseProcess,
                       n_runs, max_steps, threshold, workers):
    """Per-trajectory outcome and collapse-step arrays (-1 where unresolved)."""
    n_workers = worker_count(workers, n_runs)  # a block holds at least one trajectory
    if (proc_base.mode == "alternating" or init.a0 * init.a0 >= threshold
            or init.a1 * init.a1 >= threshold):
        # deterministic noise, or a state collapsed at step 0: one run stands for all
        traj = _trajectory(init, (sys.kick_gain(0), sys.kick_gain(1)), sys.r_ratio, proc_base,
                           max_steps, threshold, max_steps)
        resolved = traj.outcome is not None
        return (np.full(n_runs, traj.outcome if resolved else -1, dtype=np.int64),
                np.full(n_runs, traj.steps_to_collapse if resolved else -1, dtype=np.int64))

    blocks = _ensemble_blocks(n_runs, n_workers)  # at least n_workers blocks
    advance = functools.partial(_ensemble_block, init, sys, proc_base, max_steps, threshold)
    if n_workers == 1:
        parts = list(map(advance, blocks))
    else:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        context = multiprocessing.get_context(_POOL_START_METHOD)
        with ProcessPoolExecutor(max_workers=n_workers, mp_context=context) as pool:
            parts = list(pool.map(advance, blocks))
    return (np.concatenate([outcome for outcome, _ in parts]),
            np.concatenate([steps_at for _, steps_at in parts]))


def run_ensemble(init: TwoStateAmplitudes, sys: TwoStateSystem, proc_base: NoiseProcess,
                 n_runs, max_steps, threshold, workers=1) -> EnsembleReport:
    """Repeat the trajectory with seeds seed + k, k = 0..n_runs-1.

    Uniform-noise trajectories advance in vectorized lockstep, in blocks of
    at most ENSEMBLE_BLOCK that up to `workers` processes share (see
    worker_count); each consumes its own Philox stream, so the
    per-trajectory results equal scalar run_trajectory calls bit for bit and
    are independent of chunks, blocks and workers.  Alternating noise is
    deterministic: one trajectory is run and its result stands for all.
    """
    if not isinstance(n_runs, (int, np.integer)) or n_runs < 1:
        raise ValueError(f"n_runs must be a positive integer, got {n_runs!r}")
    _check_keys(proc_base.seed, n_runs)
    _check_run((sys.kick_gain(0), sys.kick_gain(1)), sys.r_ratio, proc_base, max_steps, threshold)
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


def lambda_general(psi: evolution.WaveFunction, basis, energies, f: evolution.FieldConfig):
    """Mixing matrix from its defining form: lambda_nm = <phi_n| RR(x) R^-1 |phi_m>
    with RR(x) = psi(x) / (R^-1 psi)(x).

    basis must be orthonormal eigenmodes on psi's grid (Gram matrix within
    1e-10 of the identity) and energies their dispersion eigenvalues.  Grid
    points where |R^-1 psi| falls below 1e-12 of its maximum are excluded; a
    warning is issued when the excluded probability mass exceeds 1e-6.  Used
    to validate the two-state linear model against the defining formula.
    """
    grid = psi.grid
    dx = grid.dx
    modes = np.asarray([b.values for b in basis])
    gram = modes.conj() @ modes.T * dx
    if not np.allclose(gram, np.eye(len(basis)), atol=1e-10):
        raise ValueError("basis modes must be orthonormal on the grid (Gram within 1e-10)")
    energies = np.asarray(energies, dtype=float)
    if energies.shape != (len(basis),):
        raise ValueError("need one energy per basis mode")

    rinv_psi = evolution.apply_R(psi, f, inverse=True).values
    keep = np.abs(rinv_psi) >= 1e-12 * np.max(np.abs(rinv_psi))
    excluded_mass = float(np.sum(np.abs(psi.values[~keep]) ** 2) * dx)
    if excluded_mass > 1e-6:
        warnings.warn(
            f"lambda_general excluded {np.sum(~keep)} near-zero denominator nodes "
            f"carrying probability mass {excluded_mass:.3g}",
            RuntimeWarning,
        )

    ratio = np.zeros_like(psi.values)
    ratio[keep] = psi.values[keep] / rinv_psi[keep]
    r_eigen = evolution._INV_SQRT_2PI_I * energies / np.sqrt(f.mass + energies)
    lam = (modes.conj() * ratio[None, :]) @ modes.T * dx / r_eigen[None, :]
    return lam
