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

Zero noise is an exact fixed point; degenerate levels freeze the probability
vector for any noise; an amplitude below the 1e-9 floor declares the state
collapsed to the dominant index instead of dividing by it.

Noise segments are uniform i.i.d. on [-sigma, sigma] (seeded, Philox
counter-based generator) or the deterministic alternating sequence
(-1)^n sigma, both drawn by one filler.  Trajectory k of an ensemble uses key
seed + k, so ensembles are reproducible independently of execution order.
The scalar loop (width 1, with history) and the lockstep ensemble loop do
the same arithmetic, so ensembles are bit-identical to scalar runs, however
they are split into blocks or across worker processes.
"""

from __future__ import annotations

import math
import os
import sys
import warnings
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import evolution

AMPLITUDE_FLOOR = 1e-9

#: Desk-scale noise amplitude for the reference level pair (1.25, 1.75).
#: The physical segment durations quoted for laboratory noise imply ~1e12
#: segments per collapse; this value is calibrated so the median collapse
#: of the reference system lands in the 1e3..1e4 step range instead, with
#: 4x headroom below the |N| < 1 perturbative guard.
DEFAULT_SIGMA_STAR = 0.55

#: Most trajectories one ensemble block advances in lockstep.  It bounds the
#: (width, chunk) noise buffer of a block, so memory stops growing with n_runs.
ENSEMBLE_BLOCK = 16384

_ROW_PAD = 8  # doubles appended to each noise-buffer row
_FIRST_CHUNK = 64  # noise values per trajectory in a run's first chunk
_TRAJ_CHUNK = 1024  # largest noise chunk of a scalar trajectory
_U64 = (1 << 64) - 1
_KEY_LIMIT = 1 << 128  # Philox keys are 128-bit

# Ensemble workers fork on Linux: a spawned worker re-imports relqlab, scipy
# included, which takes longer than its share of a default ensemble.  They
# run only elementwise numpy and Philox code, never BLAS or other threads.
# Elsewhere the platform's default start method applies.
_POOL_START_METHOD = "fork" if sys.platform == "linux" else None

_WILSON_Z = 1.959963984540054  # two-sided 95%


class NoiseTooLargeError(ValueError):
    """|N| >= 1: the perturbative derivation of the kick no longer applies."""


@dataclass(frozen=True)
class TwoStateSystem:
    """Two positive-energy levels; energies in units of m c^2 (e_n >= 1)."""

    e0: float
    e1: float

    def __post_init__(self):
        for name, e in (("e0", self.e0), ("e1", self.e1)):
            if not (e >= 1.0 and math.isfinite(e)):
                raise ValueError(f"{name} must be >= 1 (units of m c^2), got {e!r}")

    @property
    def p0(self):
        return math.sqrt(self.e0 * self.e0 - 1.0)

    @property
    def p1(self):
        return math.sqrt(self.e1 * self.e1 - 1.0)

    @property
    def r_ratio(self):
        """R1/R0; equals 1 iff the levels are degenerate."""
        return (self.e1 / self.e0) * math.sqrt((1.0 + self.e0) / (1.0 + self.e1))

    def kick_gain(self, level):
        """N_m / f: the level's linear response to the noise amplitude."""
        e, p = (self.e0, self.p0) if level == 0 else (self.e1, self.p1)
        return p * (2.0 + e) / (2.0 * e * e * (1.0 + e))


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
    """Piecewise-constant potential noise: segment duration delta (units of
    tau0), amplitude scale sigma, seed, and mode 'uniform' or 'alternating'."""

    delta: float
    sigma: float
    seed: int
    mode: str = "uniform"

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


def _philox_at(key, blocks_drawn):
    """Philox state of stream `key` after 4 * blocks_drawn doubles (numpy
    Philox: one counter increment per four 64-bit outputs, buffer spent)."""
    return {"bit_generator": "Philox",
            "state": {"counter": (blocks_drawn, 0, 0, 0), "key": (key & _U64, key >> 64)},
            "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}


def _fill_noise(proc: NoiseProcess, gen, keys, start, out):
    """Fill row i of `out` with noise values start, start + 1, ... of stream
    keys[i] (Python ints; start a multiple of four).  gen is a Philox
    Generator, re-keyed per row; alternating noise ignores it."""
    if proc.mode == "alternating":
        out[:] = np.where((start + np.arange(out.shape[1])) % 2 == 0, proc.sigma, -proc.sigma)
        return
    bitgen = gen.bit_generator
    for row, key in zip(out, keys):
        bitgen.state = _philox_at(key, start // 4)
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
    """One full collapse step on raw amplitudes; array-shaped and scalar alike.

    Handles the amplitude floor (declare collapsed, never divide by the
    vanishing amplitude) and the exact zero-noise fixed point.  Runners and
    the public stepper share this arithmetic so that all execution modes are
    bit-identical.  A batch without floor snaps or zero-noise freezes skips
    the masks; the arithmetic, and so every bit, is the same on both routes.
    """
    if isinstance(a0, np.ndarray) or isinstance(n0, np.ndarray):
        plain = (np.min(a0) >= AMPLITUDE_FLOOR and np.min(a1) >= AMPLITUDE_FLOOR
                 and (np.all(n0) or np.all(n1)))
    else:
        plain = a0 >= AMPLITUDE_FLOOR and a1 >= AMPLITUDE_FLOOR and (n0 != 0.0 or n1 != 0.0)
    if plain:
        return _mix(a0, a1, a0, a1, n0, n1, r)

    snap0 = a1 < AMPLITUDE_FLOOR  # level 1 gone: definite level 0
    snap1 = a0 < AMPLITUDE_FLOOR
    frozen = (n0 == 0.0) & (n1 == 0.0)
    b0, b1 = _mix(a0, a1, np.where(snap1, 1.0, a0), np.where(snap0, 1.0, a1), n0, n1, r)
    b0 = np.where(frozen, a0, b0)
    b1 = np.where(frozen, a1, b1)
    b0 = np.where(snap0, 1.0, np.where(snap1, 0.0, b0))
    b1 = np.where(snap0, 0.0, np.where(snap1, 1.0, b1))
    return b0, b1


def _mix(a0, a1, safe0, safe1, n0, n1, r):
    """Kick, mix and renormalize; safe0/safe1 stand in for a0/a1 as divisors."""
    p0 = a0 * a0
    p1 = a1 * a1
    l00 = p0 + p1 * r
    l11 = p1 + p0 / r
    k0 = a0 * (1.0 - n0)
    k1 = a1 * (1.0 - n1)
    b0 = l00 * k0 + (a0 / safe1) * (1.0 - l00) * k1
    b1 = (a1 / safe0) * (1.0 - l11) * k0 + l11 * k1
    norm = np.sqrt(b0 * b0 + b1 * b1)
    return b0 / norm, b1 / norm


def _check_noise(sys: TwoStateSystem, f_max):
    worst = f_max * max(sys.kick_gain(0), sys.kick_gain(1))
    if worst >= 1.0:
        raise NoiseTooLargeError(
            f"noise amplitude gives |N| up to {worst:.3g} >= 1; reduce sigma"
        )


def collapse_step(a_prev: TwoStateAmplitudes, sys: TwoStateSystem, f) -> TwoStateAmplitudes:
    """Kick with noise value f, mix with the pre-kick linear-model factors,
    renormalize."""
    _check_noise(sys, abs(f))
    n0 = f * sys.kick_gain(0)
    n1 = f * sys.kick_gain(1)
    b0, b1 = _step_kernel(np.float64(a_prev.a0), np.float64(a_prev.a1),
                          np.float64(n0), np.float64(n1), np.float64(sys.r_ratio))
    return TwoStateAmplitudes(a0=float(b0), a1=float(b1))


def _trajectory(init: TwoStateAmplitudes, gains, r, proc: NoiseProcess, max_steps,
                threshold, history_stride) -> CollapseTrajectory:
    """The width-1 stepping loop behind run_trajectory, kicking level m by
    f * gains[m]; noise comes in chunks of _FIRST_CHUNK values doubling up to
    _TRAJ_CHUNK."""
    g0, g1 = gains
    a0 = np.float64(init.a0)
    a1 = np.float64(init.a1)
    history = [(0, float(a0 * a0), float(a1 * a1), 0.0)]
    hit = a0 * a0 >= threshold or a1 * a1 >= threshold
    step = 0
    span = _FIRST_CHUNK
    while not hit and step < max_steps:
        for f in generate_noise(proc, min(span, max_steps - step), step).tolist():
            step += 1
            a0, a1 = _step_kernel(a0, a1, np.float64(f * g0), np.float64(f * g1), r)
            if step % history_stride == 0:
                history.append((step, float(a0 * a0), float(a1 * a1), f))
            hit = a0 * a0 >= threshold or a1 * a1 >= threshold
            if hit:
                break
        span = min(2 * span, _TRAJ_CHUNK)
    if history[-1][0] != step:
        history.append((step, float(a0 * a0), float(a1 * a1), f))
    outcome = (0 if a0 >= a1 else 1) if hit else None
    return CollapseTrajectory(history=np.array(history), outcome=outcome,
                              steps_to_collapse=step if hit else None)


def run_trajectory(init: TwoStateAmplitudes, sys: TwoStateSystem, proc: NoiseProcess,
                   max_steps, threshold, history_stride=1) -> CollapseTrajectory:
    """Iterate collapse steps until one probability reaches the threshold.

    threshold must lie in (0.5, 1).  History records (step, a0^2, a1^2, f),
    f the step's noise value (0.0 at step 0), at step 0, every
    history_stride steps, and at termination.  Outcome is the dominant index
    on collapse, None if max_steps is exhausted first.
    """
    if not (0.5 < threshold < 1.0):
        raise ValueError(f"threshold must lie in (0.5, 1), got {threshold!r}")
    if not isinstance(max_steps, (int, np.integer)) or max_steps < 1:
        raise ValueError(f"max_steps must be a positive integer, got {max_steps!r}")
    if not isinstance(history_stride, (int, np.integer)) or history_stride < 1:
        raise ValueError(f"history_stride must be a positive integer, got {history_stride!r}")
    _check_noise(sys, proc.sigma)
    return _trajectory(init, (sys.kick_gain(0), sys.kick_gain(1)), np.float64(sys.r_ratio),
                       proc, max_steps, threshold, history_stride)


def wilson_interval(successes, trials, z=_WILSON_Z):
    """Wilson 95% score interval for a binomial proportion."""
    if trials < 1:
        raise ValueError("wilson_interval needs at least one trial")
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
                    max_steps, threshold, chunk, block):
    """Advance trajectories k0 .. k0 + width - 1 of a uniform-noise ensemble
    from an initial state short of the threshold.

    Noise comes in chunks whose length starts at _FIRST_CHUNK and doubles up
    to `chunk` (both rounded to multiples of four, so every stream can be
    resumed from its counter alone); the chunking never changes a value.
    Returns the outcome and collapse-step arrays (-1 where unresolved).
    Module-level so that worker processes can run it.
    """
    k0, width = block
    g0, g1 = sys.kick_gain(0), sys.kick_gain(1)
    r = np.float64(sys.r_ratio)
    outcome = np.full(width, -1, dtype=np.int64)
    steps_at = np.full(width, -1, dtype=np.int64)
    gen = proc.make_generator(offset=k0)  # re-keyed per row; validates the lowest key
    chunk = -(-chunk // 4) * 4
    buf = np.empty(width * (min(chunk, max_steps) + _ROW_PAD))
    a0 = np.full(width, init.a0, dtype=np.float64)
    a1 = np.full(width, init.a1, dtype=np.float64)
    live = np.arange(width)  # block-local indices of the unresolved trajectories
    step = 0
    span = min(_FIRST_CHUNK, chunk)
    while live.size and step < max_steps:
        span = min(span, max_steps - step)
        # Rows are padded by one cache line: a power-of-two row stride makes
        # the per-step column reads collide in the cache.
        stride = span + _ROW_PAD
        noise = buf[:live.size * stride].reshape(live.size, stride)[:, :span]
        _fill_noise(proc, gen, [proc.seed + k0 + k for k in live.tolist()], step, noise)
        rows = np.arange(live.size)  # noise rows of the trajectories still stepping
        for j in range(span):
            f = noise[rows, j]
            a0, a1 = _step_kernel(a0, a1, f * g0, f * g1, r)
            hit = (a0 * a0 >= threshold) | (a1 * a1 >= threshold)
            if hit.any():
                done = live[rows[hit]]
                outcome[done] = np.where(a0[hit] >= a1[hit], 0, 1)
                steps_at[done] = step + j + 1
                keep = ~hit
                a0, a1, rows = a0[keep], a1[keep], rows[keep]
                if not rows.size:
                    break
        step += span
        span = min(2 * span, chunk)
        live = live[rows]
    return outcome, steps_at


def _ensemble_outcomes(init: TwoStateAmplitudes, sys: TwoStateSystem, proc_base: NoiseProcess,
                       n_runs, max_steps, threshold, chunk, workers):
    """Per-trajectory outcome and collapse-step arrays (-1 where unresolved)."""
    n_workers = worker_count(workers, n_runs)  # a block holds at least one trajectory
    a0, a1 = init.a0, init.a1
    if a0 * a0 >= threshold or a1 * a1 >= threshold:
        return (np.full(n_runs, 0 if a0 >= a1 else 1, dtype=np.int64),
                np.zeros(n_runs, dtype=np.int64))
    if proc_base.mode == "alternating":
        traj = run_trajectory(init, sys, proc_base, max_steps, threshold,
                              history_stride=max_steps)
        resolved = traj.outcome is not None
        return (np.full(n_runs, traj.outcome if resolved else -1, dtype=np.int64),
                np.full(n_runs, traj.steps_to_collapse if resolved else -1, dtype=np.int64))

    blocks = _ensemble_blocks(n_runs, n_workers)  # at least n_workers blocks
    advance = partial(_ensemble_block, init, sys, proc_base, max_steps, threshold, chunk)
    if n_workers == 1:
        parts = [advance(block) for block in blocks]
    else:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        context = multiprocessing.get_context(_POOL_START_METHOD)
        with ProcessPoolExecutor(max_workers=n_workers, mp_context=context) as pool:
            parts = list(pool.map(advance, blocks))
    return (np.concatenate([outcome for outcome, _ in parts]),
            np.concatenate([steps_at for _, steps_at in parts]))


def run_ensemble(init: TwoStateAmplitudes, sys: TwoStateSystem, proc_base: NoiseProcess,
                 n_runs, max_steps, threshold, chunk=1024, workers=1) -> EnsembleReport:
    """Repeat the trajectory with seeds seed + k, k = 0..n_runs-1.

    Uniform-noise trajectories advance in vectorized lockstep, in blocks of
    at most ENSEMBLE_BLOCK that up to `workers` processes share (see
    worker_count); each consumes its own Philox stream, so the
    per-trajectory results equal scalar run_trajectory calls bit for bit and
    are independent of chunk, blocks and workers.  Alternating noise is
    deterministic: one trajectory is run and its result stands for all.
    """
    if not isinstance(n_runs, (int, np.integer)) or n_runs < 1:
        raise ValueError(f"n_runs must be a positive integer, got {n_runs!r}")
    if proc_base.seed + n_runs - 1 >= _KEY_LIMIT:
        raise ValueError(f"seed + n_runs - 1 must be < 2**128, got seed {proc_base.seed!r}")
    if not isinstance(max_steps, (int, np.integer)) or max_steps < 1:
        raise ValueError(f"max_steps must be a positive integer, got {max_steps!r}")
    if not (0.5 < threshold < 1.0):
        raise ValueError(f"threshold must lie in (0.5, 1), got {threshold!r}")
    if not isinstance(chunk, (int, np.integer)) or chunk < 1:
        raise ValueError(f"chunk must be a positive integer, got {chunk!r}")
    _check_noise(sys, proc_base.sigma)
    outcome, steps_at = _ensemble_outcomes(init, sys, proc_base, n_runs, max_steps,
                                           threshold, chunk, workers)

    counts = {0: int(np.sum(outcome == 0)), 1: int(np.sum(outcome == 1))}
    unresolved = int(np.sum(outcome < 0))
    freq = {k: counts[k] / n_runs for k in (0, 1)}
    ci = {k: wilson_interval(counts[k], n_runs) for k in (0, 1)}
    collapsed = steps_at[steps_at >= 0]
    median_steps = float(np.median(collapsed)) if collapsed.size else None
    return EnsembleReport(n_runs=int(n_runs), counts=counts, freq=freq, wilson_ci95=ci,
                          unresolved=unresolved, median_steps=median_steps)


def lambda_general(psi: evolution.WaveFunction, basis, energies, f: evolution.FieldConfig,
                   denominator_floor=1e-12):
    """Mixing matrix from its defining form: lambda_nm = <phi_n| RR(x) R^-1 |phi_m>
    with RR(x) = psi(x) / (R^-1 psi)(x).

    basis must be orthonormal eigenmodes on psi's grid (Gram matrix within
    1e-10 of the identity) and energies their dispersion eigenvalues.  Grid
    points where |R^-1 psi| falls below the floor are excluded; a warning is
    issued when the excluded probability mass exceeds 1e-6.  Used to validate
    the two-state linear model against the defining formula.
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
    keep = np.abs(rinv_psi) >= denominator_floor * np.max(np.abs(rinv_psi))
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
