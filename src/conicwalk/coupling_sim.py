"""Seeded Monte Carlo walks and the classic two-chain coupling.

One chain starts from a fixed class, the other from the stationary
distribution; they move independently until they first meet and together
afterwards.  The tail of the meeting time dominates the exact TV distance,
which is what the simulations validate.

All trials of a batch advance in lockstep, one ``np.searchsorted`` over the
row CDFs per step.  Uniforms follow the layout ``STREAM``, echoed in every
coupling and MC-TV payload: in splitmix64-trial-counter/v1, uniform j of trial
t under seed s is (z >> 11) * 2^-53 for z the SplitMix64 output number
(t << 32) + j + 1 from the state SeedSequence(s).generate_state(1, uint64)[0].
A coupling trial meeting at step T draws the stationary start with uniform 0,
steps n <= T with uniforms 2n - 1 (fixed chain) and 2n, and steps n > T with
T + n; step n of an MC-TV trial uses n - 1.  Draws depend only on (s, t), so
batches are reproducible and order-independent.  The MC-TV bootstrap uses
numpy's PCG64.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .conic_geometry import ClassIndex
from .errors import CapExceeded, IndexInvalid, NotErgodic, WalkTimeout
from .walk_analysis import Distribution, Kernel, ergodicity_check

STREAM = "splitmix64-trial-counter/v1"
COALESCENCE_STEP_LIMIT = 10**6

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_BITS = np.uint64(53)  # a uniform is U * 2^-53 for a 53-bit integer U


def _rng(seed) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


def _splitmix64(key: np.ndarray, counter: np.ndarray) -> np.ndarray:
    """53-bit integer U of SplitMix64 output number ``counter`` (from 1)."""
    with np.errstate(over="ignore"):  # updates in place keep temporaries few
        z = counter * _GAMMA + key
        z ^= z >> np.uint64(30)
        z *= _MIX1
        z ^= z >> np.uint64(27)
        z *= _MIX2
        return (z ^ (z >> np.uint64(31))) >> np.uint64(11)


def _cdf(rows: np.ndarray) -> np.ndarray:
    """Cumulative rows with the last entry exactly 1.0."""
    cdf = rows.cumsum(axis=-1)
    cdf[..., -1] = 1.0
    return cdf


class _Lockstep:
    """Inverse-CDF draws for many walkers at once, from the stream of one seed.

    The CDFs of the rows of ``k.mat``, with ``pi`` appended as row n, form one
    sorted uint64 array: entry (r, j) is r * 2^53 + ceil(cdf[r, j] * 2^53).
    Walker at row r with uniform U * 2^-53 then moves to the first j with
    cdf[r, j] > U * 2^-53, found exactly by one searchsorted for all walkers.
    """

    def __init__(self, k: Kernel, pi: Distribution, seed: int):
        if pi.classes != k.classes:
            raise IndexInvalid("pi and kernel index sets differ")
        if not ergodicity_check(k):
            raise NotErgodic(f"kernel with step {k.step!r} is not ergodic")
        if k.size >= 2047:  # (n + 1) rows of 2^53 keys each must fit in uint64
            raise CapExceeded(f"{k.size} classes exceed the walk engine's limit of 2046")
        self.n = k.size
        self.key = np.random.SeedSequence(seed).generate_state(1, np.uint64)
        scaled = np.ceil(_cdf(np.vstack([k.mat, pi.probs])) * 2.0**53).astype(np.uint64)
        rows = np.arange(self.n + 1, dtype=np.uint64)[:, None] << _BITS
        self.keys = (rows + scaled).ravel()

    def draw(self, rows: np.ndarray, trials: np.ndarray, j) -> np.ndarray:
        """Next class of walkers at ``rows`` with uniform ``j`` of each of ``trials``."""
        query = _splitmix64(self.key, (trials << np.uint64(32)) + np.asarray(j, np.uint64) + 1)
        query += rows.astype(np.uint64) << _BITS
        return np.searchsorted(self.keys, query, side="right") - rows * self.n

    def meeting_times(self, x0: int, trials: np.ndarray, marginal_steps: tuple[int, ...],
                      step_limit: int) -> tuple[np.ndarray, dict]:
        """Meeting times of the trials' chain pairs, and per step in
        ``marginal_steps`` the stationary chain's class counts."""
        n, m = self.n, trials.size
        x = np.full(m, x0, dtype=np.int64)
        y = self.draw(np.full(m, n, dtype=np.int64), trials, 0)
        times = np.zeros(m, dtype=np.int64)
        met = x == y
        walking = np.flatnonzero(~met)
        marg = {t: np.zeros(n, dtype=np.int64) for t in marginal_steps}
        horizon = max(marginal_steps, default=0)
        t = 0
        while True:
            if t in marg:
                marg[t] += np.bincount(y, minlength=n)
            if not walking.size and t >= horizon:
                return times, marg
            if walking.size and t >= step_limit:
                raise WalkTimeout(f"no coalescence within {step_limit} steps")
            t += 1
            if t <= horizon:  # chains that have met move together: one draw
                both = np.flatnonzero(met)
                y[both] = self.draw(y[both], trials[both], times[both] + t)
            ids = trials[walking]
            x[walking] = xs = self.draw(x[walking], ids, 2 * t - 1)
            y[walking] = ys = self.draw(y[walking], ids, 2 * t)
            hit = walking[xs == ys]
            times[hit] = t
            met[hit] = True
            walking = walking[xs != ys]


def coupled_run(i: ClassIndex, k: Kernel, pi: Distribution, seed,
                step_limit: int = COALESCENCE_STEP_LIMIT) -> int:
    """First meeting time of the fixed-start chain and a stationary chain.

    ``seed`` is (s, t) for trial t of the batch with seed s; an int s means
    (s, 0).  The stationary chain's start is drawn from pi; both chains step
    independently until they coincide.
    """
    s, trial = seed if isinstance(seed, tuple) else (seed, 0)
    times, _ = _Lockstep(k, pi, s).meeting_times(
        k.position(i), np.array([trial], dtype=np.uint64), (), step_limit)
    return int(times[0])


@dataclass
class CouplingStats:
    """Per-trial coalescence times of a seeded coupling batch."""

    start: str
    step: str
    trials: int
    seed: int
    times: list[int]
    marginal_counts: dict = field(default_factory=dict)

    @property
    def mean_time(self) -> float:
        return sum(self.times) / len(self.times)

    def tail(self, t: int) -> float:
        """Empirical P(T > t)."""
        return sum(1 for v in self.times if v > t) / self.trials

    def tail_curve(self) -> list[float]:
        return ((self.trials - np.cumsum(np.bincount(self.times))) / self.trials).tolist()

    def tail_stderr(self, t: int) -> float:
        p = self.tail(t)
        return (p * (1.0 - p) / self.trials) ** 0.5

    def to_json(self) -> dict:
        return {
            "start": self.start,
            "step": self.step,
            "trials": self.trials,
            "seed": self.seed,
            "stream": STREAM,
            "mean_time": self.mean_time,
            "times": self.times,
            "tail": self.tail_curve(),
            "marginal_counts": {str(t): c for t, c in self.marginal_counts.items()},
        }


def run_coupling_trials(k: Kernel, pi: Distribution, start: ClassIndex,
                        trials: int, seed: int,
                        marginal_steps: tuple[int, ...] = ()) -> CouplingStats:
    """Independent coupled runs; trial t is ``coupled_run`` with seed (seed, t).

    ``marginal_steps`` additionally records the stationary chain's class at
    the requested steps (it should stay pi-distributed for all t).
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    times, marg = _Lockstep(k, pi, seed).meeting_times(
        k.position(start), np.arange(trials, dtype=np.uint64),
        tuple(sorted(set(marginal_steps))), COALESCENCE_STEP_LIMIT)
    return CouplingStats(
        start=start.label(),
        step=k.step.label(),
        trials=trials,
        seed=seed,
        times=times.tolist(),
        marginal_counts={t: c.tolist() for t, c in marg.items()},
    )


@dataclass
class MonteCarloTV:
    """Plug-in TV estimate with a conservative bootstrap interval."""

    t: int
    trials: int
    seed: int
    estimate: float
    ci_low: float
    ci_high: float
    counts: list[int]

    def brackets(self, exact: float) -> bool:
        return self.ci_low <= exact <= self.ci_high

    def to_json(self) -> dict:
        return {
            "t": self.t,
            "trials": self.trials,
            "seed": self.seed,
            "stream": STREAM,
            "estimate": self.estimate,
            "ci_low": self.ci_low,
            "ci_high": self.ci_high,
            "counts": self.counts,
        }


def monte_carlo_tv(i: ClassIndex, t: int, trials: int, seed: int,
                   k: Kernel, pi: Distribution,
                   bootstrap: int = 1000) -> MonteCarloTV:
    """Empirical TV between the law of X_t (started at i) and pi.

    The interval comes from the triangle inequality
    |TV(emp, pi) - TV(law, pi)| <= TV(emp, law): the bootstrap distribution
    of TV(resample, emp) estimates the sampling deviation TV(emp, law), and
    its 97.5th percentile radius around the plug-in estimate gives a
    conservative 95% interval.  This stays honest when the true TV is far
    below the sampling noise floor, where a plain percentile interval of the
    (upward-biased) plug-in statistic cannot reach the true value.
    """
    if trials < 1000:
        raise ValueError("trials must be >= 1000")
    if t < 0:
        raise ValueError("t must be >= 0")
    walk = _Lockstep(k, pi, seed)
    ids = np.arange(trials, dtype=np.uint64)
    x = np.full(trials, k.position(i), dtype=np.int64)
    for j in range(t):
        x = walk.draw(x, ids, j)
    counts = np.bincount(x, minlength=k.size)
    emp = counts / trials
    estimate = 0.5 * float(np.abs(emp - pi.probs).sum())

    boot_rng = _rng((seed, 1 << 32))  # sub-seed outside the trial-index range
    resampled = boot_rng.multinomial(trials, emp / emp.sum(), size=bootstrap) / trials
    boot_noise = 0.5 * np.abs(resampled - emp[None, :]).sum(axis=1)
    radius = float(np.percentile(boot_noise, 97.5))
    return MonteCarloTV(
        t=t,
        trials=trials,
        seed=seed,
        estimate=estimate,
        ci_low=max(0.0, estimate - radius),
        ci_high=min(1.0, estimate + radius),
        counts=counts.tolist(),
    )
