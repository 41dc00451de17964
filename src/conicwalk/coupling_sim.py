"""Seeded Monte Carlo walks and the classic two-chain coupling.

One chain starts from a fixed class, the other from the stationary
distribution; they move independently until they first meet and together
afterwards.  The tail of the meeting time dominates the exact TV distance,
which is what the simulations validate.

All trials of a batch advance in lockstep, one vectorised inverse-CDF draw
per chain and step.  A walker at class i with uniform u moves to the first
class j whose CDF value, rounded up to a multiple of 2^-53, exceeds u; the
draw finds it with a guide table (Chen and Asau 1974), and any exact search
gives the same class.  Uniforms follow the layout ``STREAM``, echoed in every
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
from .errors import IndexInvalid, WalkTimeout
from .walk_analysis import Distribution, Kernel

STREAM = "splitmix64-trial-counter/v1"
COALESCENCE_STEP_LIMIT = 10**6
BOOTSTRAP_RESAMPLES = 1000

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def _rng(seed) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


def _splitmix64(key: np.ndarray, z: np.ndarray) -> np.ndarray:
    """53-bit integer U of SplitMix64 output number ``z`` (from 1), computed
    in place in ``z``, which keeps temporaries few."""
    with np.errstate(over="ignore"):
        z *= _GAMMA
        z += key
        z ^= z >> np.uint64(30)
        z *= _MIX1
        z ^= z >> np.uint64(27)
        z *= _MIX2
        z ^= z >> np.uint64(31)
        z >>= np.uint64(11)
        return z


def _cdf(rows: np.ndarray) -> np.ndarray:
    """Cumulative rows with the last entry exactly 1.0."""
    cdf = rows.cumsum(axis=-1)
    cdf[..., -1] = 1.0
    return cdf


class _GuideTable:
    """First j with cdf[r, j] > U, for integer CDF rows and 53-bit integers U.

    ``cdf`` has shape (R, n), nondecreasing rows and last column 2^53.  The
    search is the guide table ("indexed search") of Chen and Asau (1974), in
    Devroye, *Non-Uniform Random Variate Generation* (1986), section III.2.4:
    with G = 2^g buckets, g = n.bit_length() so that n < G <= 2n, guide[r, b]
    is the first j with cdf[r, j] > b * 2^(53 - g).  U lies in bucket
    b = U >> (53 - g), so the answer is at least guide[r, b], and a walker
    steps j += 1 while cdf[r, j] <= U: fewer than two comparisons per search
    on average, and the answer of any exact search.
    """

    def __init__(self, cdf: np.ndarray):
        n = cdf.shape[1]
        g = n.bit_length()
        self.n, self.buckets, self.shift = n, 1 << g, np.uint64(53 - g)
        edges = np.arange(self.buckets, dtype=np.uint64) << self.shift
        # entries are flat positions in cdf, so a search gathers once per pass
        self.guide = np.concatenate([np.searchsorted(c, edges, side="right") + r * n
                                     for r, c in enumerate(cdf)])
        self.cdf = cdf.ravel()

    def search(self, rows: np.ndarray, u: np.ndarray) -> np.ndarray:
        """For each walker, the first j with cdf[rows, j] > u."""
        pos = (u >> self.shift).view(np.int64)  # u < 2^53: the view is exact
        pos += rows * self.buckets
        pos = self.guide[pos]
        ahead = np.flatnonzero(self.cdf[pos] <= u)
        while ahead.size:
            pos[ahead] += 1
            ahead = ahead[self.cdf[pos[ahead]] <= u[ahead]]
        pos -= rows * self.n
        return pos


class _Lockstep:
    """Inverse-CDF draws for many walkers at once, from the stream of one seed.

    Row r of the table is the CDF of row r of ``k.mat`` (row n: ``pi``), each
    entry rounded up to an integer multiple of 2^-53 and stored as that
    integer, so the last entry is 2^53.  A walker at row r with uniform
    U * 2^-53 moves to the first j with cdf[r, j] > U, which the guide table
    finds exactly.
    """

    def __init__(self, k: Kernel, pi: Distribution, seed: int):
        if pi.classes != k.classes:
            raise IndexInvalid("pi and kernel index sets differ")
        k.require_ergodic()
        self.n = k.size
        self.key = np.random.SeedSequence(seed).generate_state(1, np.uint64)
        self.table = _GuideTable(
            np.ceil(_cdf(np.vstack([k.mat, pi.probs])) * 2.0**53).astype(np.uint64))

    def draw(self, rows: np.ndarray, trials: np.ndarray, j) -> np.ndarray:
        """Next class of walkers at ``rows`` with uniform ``j`` of each of ``trials``."""
        counter = (trials << np.uint64(32)) + np.asarray(j, np.uint64) + 1
        return self.table.search(rows, _splitmix64(self.key, counter))

    def meeting_times(self, x0: int, trials: np.ndarray,
                      marginal_steps: tuple[int, ...]) -> tuple[np.ndarray, dict]:
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
            if walking.size and t >= COALESCENCE_STEP_LIMIT:
                raise WalkTimeout(f"no coalescence within {COALESCENCE_STEP_LIMIT} steps")
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


def coupled_run(i: ClassIndex, k: Kernel, pi: Distribution, seed) -> int:
    """First meeting time of the fixed-start chain and a stationary chain.

    ``seed`` is (s, t) for trial t of the batch with seed s; an int s means
    (s, 0).  The stationary chain's start is drawn from pi; both chains step
    independently until they coincide.
    """
    s, trial = seed if isinstance(seed, tuple) else (seed, 0)
    times, _ = _Lockstep(k, pi, s).meeting_times(
        k.position(i), np.array([trial], dtype=np.uint64), ())
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
        tuple(sorted(set(marginal_steps))))
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
                   k: Kernel, pi: Distribution) -> MonteCarloTV:
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
    resampled = boot_rng.multinomial(trials, emp / emp.sum(), size=BOOTSTRAP_RESAMPLES) / trials
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
