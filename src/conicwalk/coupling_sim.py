"""Seeded Monte Carlo walks and the classic two-chain coupling.

One chain starts from a fixed class, the other from the stationary
distribution; they move independently until they first meet and together
afterwards.  The tail of the meeting time dominates the exact TV distance,
which is what the simulations validate.

The trials of a batch advance in lockstep, one vectorised inverse-CDF draw
per chain and step.  A walker at class i with uniform u moves to the first
class j whose CDF value, rounded up to a multiple of 2^-53, exceeds u; the
draw finds it with a guide table (Chen and Asau 1974) and a skip table over
zero-probability classes, and any exact search gives the same class.
Uniforms follow the layout ``STREAM``, echoed in every coupling and MC-TV
payload: in splitmix64-trial-counter/v1, uniform j of trial t under seed s
is (z >> 11) * 2^-53 for z the SplitMix64 output number (t << 32) + j + 1
from the state SeedSequence(s).generate_state(1, uint64)[0].  A coupling
trial meeting at step T draws the stationary start with uniform 0 and steps
n <= T with uniforms 2n - 1 (fixed chain) and 2n; step n of an MC-TV trial
uses n - 1.  The trial index t fills the high 32 bits of the output number,
so trial t + 2^32 would repeat trial t, and MC-TV step n > 2^32 would read
trial t + 1: trial counts and MC-TV steps stop at ``TRIAL_LIMIT`` = 2^32.
Draws depend only on (s, t), so batches are reproducible and
order-independent, and walking a coupling batch in blocks of
``TRIAL_BLOCK`` trials, of those only the pairs still apart, and those in
time blocks of several steps drawn at once, changes no draw.  The MC-TV
bootstrap uses numpy's PCG64.
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
TRIAL_BLOCK = 1 << 14
TRIAL_LIMIT = 1 << 32  # trials per batch, and MC-TV steps, without aliased streams

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def _mix(z: np.ndarray) -> np.ndarray:
    """53-bit integer U of the SplitMix64 states ``z`` (the output function),
    computed in place in ``z``; array arithmetic wraps mod 2^64 silently."""
    z ^= z >> np.uint64(30)
    z *= _MIX1
    z ^= z >> np.uint64(27)
    z *= _MIX2
    z ^= z >> np.uint64(31)
    z >>= np.uint64(11)
    return z


def _leap(c) -> np.ndarray:
    """c * gamma mod 2^64: a SplitMix64 state advanced c outputs, less the state."""
    return np.asarray(c, dtype=np.uint64) * _GAMMA


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
    moves on while cdf[r, j] <= U: fewer than two comparisons per search on
    average, and the answer of any exact search.  Lockstep walkers wait for
    the slowest, and stepping over zero-probability classes (half of a kernel
    row) one at a time took 11 rounds for 16,384 walkers at q = 61; jumping
    to skip[r, j], the first later j with a larger CDF value, took one.
    """

    def __init__(self, cdf: np.ndarray):
        n = cdf.shape[1]
        g = n.bit_length()
        self.n, self.buckets, self.shift = n, 1 << g, np.uint64(53 - g)
        edges = np.arange(self.buckets, dtype=np.uint64) << self.shift
        # entries are flat positions in cdf, so a search gathers once per round
        rows = np.arange(len(cdf))[:, None] * n
        self.guide = (np.stack([c.searchsorted(edges, "right") for c in cdf]) + rows).ravel()
        self.skip = (np.stack([c.searchsorted(c, "right") for c in cdf]) + rows).ravel()
        self.cdf = cdf.ravel()

    def search(self, rows: np.ndarray, u: np.ndarray) -> np.ndarray:
        """For each walker, the first j with cdf[rows, j] > u."""
        pos = (u >> self.shift).view(np.int64)  # u < 2^53: the view is exact
        pos += rows * self.buckets
        pos = self.guide[pos]
        ahead = (self.cdf[pos] <= u).nonzero()[0]
        while ahead.size:
            at = pos[ahead] = self.skip[pos[ahead]]
            ahead = ahead[self.cdf[at] <= u[ahead]]
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
        self.key = np.random.SeedSequence(seed).generate_state(1, np.uint64)[0]
        self.table = _GuideTable(
            np.ceil(_cdf(np.vstack([k.mat, pi.probs])) * 2.0**53).astype(np.uint64))

    def bases(self, trials: np.ndarray) -> np.ndarray:
        """State key + (t << 32) * gamma of each trial t: its uniform j is the
        output of the state base + (j + 1) * gamma, one add per draw."""
        return (trials << np.uint64(32)) * _GAMMA + self.key

    def step(self, rows: np.ndarray, states: np.ndarray) -> np.ndarray:
        """Next class of walkers at ``rows``, from SplitMix64 ``states`` (overwritten)."""
        return self.table.search(rows, _mix(states))

    def meeting_times(self, x0: int, trials: np.ndarray) -> np.ndarray:
        """Meeting times of the trials' chain pairs.

        The walk goes in time blocks of h steps: one ``_mix`` call draws the
        uniforms of all h steps of every pair still walking, each step is a
        guide search and a meet test, and the pairs that met leave once per
        block (a pair that met mid-block walks on to its end, which changes
        no first meeting).  h = 1 while many pairs walk; as pairs meet, h
        grows to TRIAL_BLOCK // pairs, at most n // 4, and never past the
        step limit.
        """
        n = self.n
        base = self.bases(trials)
        y = self.step(np.full(trials.size, n, dtype=np.int64), base + _leap(1))
        times = np.zeros(trials.size, dtype=np.int64)
        # the classes of the pairs still walking (positions ``live``): fixed
        # chains, then stationary chains
        live = np.flatnonzero(y != x0)
        xy = np.concatenate([np.full(live.size, x0), y[live]])
        t = 0
        while live.size:
            if t >= COALESCENCE_STEP_LIMIT:
                raise WalkTimeout(f"no coalescence within {COALESCENCE_STEP_LIMIT} steps")
            w = live.size
            h = max(1, min(TRIAL_BLOCK // w, n // 4, COALESCENCE_STEP_LIMIT - t))
            # uniforms 2s - 1 (x) and 2s (y) of steps s = t + 1 .. t + h
            leaps = _leap(np.arange(2 * t + 2, 2 * t + 2 * h + 2, dtype=np.uint64))
            u = _mix((leaps.reshape(h, 2, 1) + base[live]).reshape(h, 2 * w))
            meets = np.empty((h, w), dtype=bool)
            for j in range(h):
                xy = self.table.search(xy, u[j])
                np.equal(xy[:w], xy[w:], out=meets[j])
            # steps left in the block at a pair's first meeting, 0 if none; at
            # h = 1, where up to 2^14 pairs walk, the meet test itself
            left = meets[0] if h == 1 else (meets * np.arange(h, 0, -1)[:, None]).max(axis=0)
            times[live] = t + h + 1 - left  # a pair still walking gets a later time
            t += h
            keep = (left == 0).nonzero()[0]
            xy = xy.reshape(2, w).take(keep, axis=1).ravel()
            live = live[keep]
        return times


def coupled_run(i: ClassIndex, k: Kernel, pi: Distribution, seed) -> int:
    """First meeting time of the fixed-start chain and a stationary chain.

    ``seed`` is (s, t) for trial t of the batch with seed s; an int s means
    (s, 0).  The stationary chain's start is drawn from pi; both chains step
    independently until they coincide.
    """
    s, trial = seed if isinstance(seed, tuple) else (seed, 0)
    if not 0 <= trial < TRIAL_LIMIT:
        raise ValueError(f"trial index must be in [0, 2^32), got {trial}")
    x0, ids = k.position(i), np.array([trial], dtype=np.uint64)
    return int(_Lockstep(k, pi, s).meeting_times(x0, ids)[0])


@dataclass
class CouplingStats:
    """Per-trial coalescence times of a seeded coupling batch, and their
    histogram: ``hist[t]`` trials met at step t."""

    start: str
    step: str
    trials: int
    seed: int
    times: list[int]
    hist: np.ndarray = field(repr=False, compare=False)

    @property
    def mean_time(self) -> float:
        return int(self.hist @ np.arange(self.hist.size)) / self.trials

    def tail(self, t: int) -> float:
        """Empirical P(T > t)."""
        return int(self.hist[max(t + 1, 0):].sum()) / self.trials

    def tail_curve(self) -> list[float]:
        return ((self.trials - np.cumsum(self.hist)) / self.trials).tolist()

    def tail_stderr(self, t: int) -> float:
        p = self.tail(t)
        return (p * (1.0 - p) / self.trials) ** 0.5

    def to_json(self) -> dict:
        payload = {**vars(self), "stream": STREAM, "mean_time": self.mean_time,
                   "tail": self.tail_curve()}
        del payload["hist"]
        return payload


def run_coupling_trials(k: Kernel, pi: Distribution, start: ClassIndex,
                        trials: int, seed: int) -> CouplingStats:
    """Independent coupled runs; trial t is ``coupled_run`` with seed (seed, t)."""
    if not 1 <= trials <= TRIAL_LIMIT:
        raise ValueError(f"trials must be in [1, 2^32], got {trials}")
    walk = _Lockstep(k, pi, seed)
    blocks = (np.arange(lo, min(lo + TRIAL_BLOCK, trials), dtype=np.uint64)
              for lo in range(0, trials, TRIAL_BLOCK))  # small arrays, same draws
    times = np.concatenate([walk.meeting_times(k.position(start), ids) for ids in blocks])
    return CouplingStats(
        start=start.label(),
        step=k.step.label(),
        trials=trials,
        seed=seed,
        times=times.tolist(),
        hist=np.bincount(times),
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
        return {**vars(self), "stream": STREAM}


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
    if not 1000 <= trials <= TRIAL_LIMIT:
        raise ValueError(f"trials must be in [1000, 2^32], got {trials}")
    if not 0 <= t <= TRIAL_LIMIT:
        raise ValueError(f"t must be in [0, 2^32], got {t}")
    walk = _Lockstep(k, pi, seed)
    base = walk.bases(np.arange(trials, dtype=np.uint64))
    x = np.full(trials, k.position(i), dtype=np.int64)
    for j in range(t):
        x = walk.step(x, base + _leap(j + 1))
    counts = np.bincount(x, minlength=k.size)
    emp = counts / trials
    estimate = 0.5 * float(np.abs(emp - pi.probs).sum())

    boot_rng = np.random.default_rng((seed, 1 << 32))  # sub-seed outside the trial-index range
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
