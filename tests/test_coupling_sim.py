import bisect

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conicwalk import (
    ClassIndex,
    ConicParams,
    Distribution,
    NotErgodic,
    coupled_run,
    evolve,
    haar,
    kernel_for_step,
    make_field,
    make_prime_field,
    monte_carlo_tv,
    run_coupling_trials,
    tv_distance,
)


@pytest.fixture(scope="module")
def setup7():
    params = ConicParams(make_prime_field(7), 1, 1)
    k = kernel_for_step(params)
    return params, k, haar(params)


@pytest.fixture(scope="module")
def setup13():
    params = ConicParams(make_prime_field(13), 1, 1)
    k = kernel_for_step(params)
    return params, k, haar(params)


def _cls(spec, v):
    return ClassIndex.finite(spec.element(v))


# ---------------------------------------------------------------------------
# coupled runs
# ---------------------------------------------------------------------------

def test_coupled_run_zero_when_names_match(setup7):
    _, k, pi = setup7
    # scan seeds until the stationary draw equals the start; that run must end at 0
    target = k.classes[2]
    for seed in range(200):
        t = coupled_run(target, k, pi, seed)
        if t == 0:
            break
    else:
        pytest.fail("no seed produced an immediate match in 200 tries")


def test_coupled_runs_deterministic(setup7):
    _, k, pi = setup7
    a = [coupled_run(k.classes[0], k, pi, (7, t)) for t in range(200)]
    b = [coupled_run(k.classes[0], k, pi, (7, t)) for t in range(200)]
    assert a == b


def test_batch_matches_individual_runs(setup7):
    _, k, pi = setup7
    stats = run_coupling_trials(k, pi, k.classes[0], trials=150, seed=7)
    individual = [coupled_run(k.classes[0], k, pi, (7, t)) for t in range(150)]
    assert stats.times == individual


def test_batch_stats_shape(setup7):
    _, k, pi = setup7
    stats = run_coupling_trials(k, pi, k.classes[0], trials=3000, seed=11)
    assert stats.trials == 3000 and len(stats.times) == 3000
    assert all(t >= 0 for t in stats.times)
    tail = stats.tail_curve()
    assert all(tail[i + 1] <= tail[i] for i in range(len(tail) - 1))
    assert stats.mean_time > 0
    d = stats.to_json()
    assert d["seed"] == 11 and len(d["times"]) == 3000


def test_coupling_tail_dominates_exact_tv(setup7):
    _, k, pi = setup7
    start = k.classes[0]
    stats = run_coupling_trials(k, pi, start, trials=30_000, seed=3)
    d0 = Distribution.point_mass(k.classes, start)
    for t in (1, 2, 4, 8, 16):
        exact = tv_distance(evolve(d0, k, t), pi)
        assert stats.tail(t) + 3 * stats.tail_stderr(t) >= exact


def test_coalescence_well_before_proven_bound(setup7):
    from conicwalk import mixing_time_bound

    _, k, pi = setup7
    stats = run_coupling_trials(k, pi, k.classes[0], trials=30_000, seed=3)
    assert stats.mean_time < 20
    bound = mixing_time_bound(7, 3)
    eps = 1.0 / (2.0 * 2.718281828459045)
    assert stats.tail(bound) <= eps + 3 * stats.tail_stderr(bound)


# ---------------------------------------------------------------------------
# monte carlo tv
# ---------------------------------------------------------------------------

def test_monte_carlo_tv_requires_enough_trials(setup7):
    _, k, pi = setup7
    with pytest.raises(ValueError):
        monte_carlo_tv(k.classes[0], 4, 100, 0, k, pi)


def test_monte_carlo_tv_one_step_from_origin_lands_on_step_class(setup7):
    # the origin-class row is a point mass on the step class
    params, k, pi = setup7
    est = monte_carlo_tv(_cls(params.spec, 0), 1, 2000, 5, k, pi)
    assert est.counts[k.position(k.step)] == 2000


def test_monte_carlo_tv_t0_is_exact(setup7):
    # every trial stays at the start, so the estimate is exact and the
    # bootstrap interval collapses to a point (up to float rounding)
    _, k, pi = setup7
    start = k.classes[0]
    est = monte_carlo_tv(start, 0, 2000, 0, k, pi)
    exact = 1.0 - pi[start]
    assert est.estimate == pytest.approx(exact, abs=1e-12)
    assert est.ci_high - est.ci_low <= 1e-12
    assert est.ci_low - 1e-12 <= exact <= est.ci_high + 1e-12


def test_monte_carlo_tv_brackets_exact(setup7):
    _, k, pi = setup7
    start = k.classes[0]
    d0 = Distribution.point_mass(k.classes, start)
    for t in (2, 8):
        exact = tv_distance(evolve(d0, k, t), pi)
        est = monte_carlo_tv(start, t, 20_000, 1, k, pi)
        assert est.brackets(exact), (t, est.to_json(), exact)


def test_monte_carlo_tv_deterministic(setup13):
    _, k, pi = setup13
    a = monte_carlo_tv(k.classes[0], 4, 2000, 123, k, pi)
    b = monte_carlo_tv(k.classes[0], 4, 2000, 123, k, pi)
    assert a.to_json() == b.to_json()


# ---------------------------------------------------------------------------
# stream contract (splitmix64-trial-counter/v1)
# ---------------------------------------------------------------------------

def _splitmix_uniform(key, trial, j):
    """Uniform j of a trial, written out from the documented layout with
    Python ints: SplitMix64 output number (trial << 32) + j + 1."""
    mask = (1 << 64) - 1
    z = (key + ((trial << 32) + j + 1) * 0x9E3779B97F4A7C15) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return ((z ^ (z >> 31)) >> 11) * 2.0**-53


def test_splitmix64_matches_published_outputs():
    # the first outputs of the reference SplitMix64 (Vigna's splitmix64.c)
    # from the state 1234567; the stream keeps their top 53 bits
    from conicwalk.coupling_sim import _GAMMA, _mix

    published = [6457827717110365317, 3203168211198807973, 9817491932198370423,
                 4593380528125082431, 16408922859458223821]
    got = _mix(np.arange(1, 6, dtype=np.uint64) * _GAMMA + np.uint64(1234567))
    assert got.tolist() == [v >> 11 for v in published]
    assert [_splitmix_uniform(1234567, 0, j) for j in range(5)] == \
        [(v >> 11) * 2.0**-53 for v in published]


def _cdf_lists(k, pi):
    rows = [np.cumsum(r).tolist() for r in (*k.mat, pi.probs)]
    for r in rows:
        r[-1] = 1.0
    return rows


def _reference_trial(k, pi, x0, seed, trial):
    """The meeting time of one coupling trial stepped one draw at a time."""
    key = int(np.random.SeedSequence(seed).generate_state(1, np.uint64)[0])
    cdf = _cdf_lists(k, pi)

    def draw(row, j):
        return bisect.bisect_right(cdf[row], _splitmix_uniform(key, trial, j))

    x, y = x0, draw(k.size, 0)
    n = 0
    while x != y:
        n += 1
        x, y = draw(x, 2 * n - 1), draw(y, 2 * n)
    return n


# (p, d, a, b, start position): q = 7; q = 61, the couple_long field of the
# benchmark; GF(25) with non-unit weights, whose kernel rows have zero
# entries that repeat CDF values
REFERENCE_WALKS = [(7, 1, 1, 1, 0), (61, 1, 1, 1, 1), (5, 2, 2, 8, 1)]


def _reference_walks():
    for p, d, a, b, x0 in REFERENCE_WALKS:
        params = ConicParams(make_field(p, d), a, b)
        yield kernel_for_step(params), haar(params), x0


def test_stream_matches_one_draw_at_a_time_reference():
    # one pair walked alone through coupled_run, at trial indices inside the
    # first block, past it and at the last index the counter allows
    from conicwalk.coupling_sim import TRIAL_BLOCK, TRIAL_LIMIT

    trials = [*range(40), TRIAL_BLOCK, 2**20 + 7, TRIAL_LIMIT - 1]
    for k, pi, x0 in _reference_walks():
        got = [coupled_run(k.classes[x0], k, pi, (42, t)) for t in trials]
        assert got == [_reference_trial(k, pi, x0, 42, t) for t in trials], k.q


@pytest.fixture
def mix_heights(monkeypatch):
    """The leading length of every array the walk draws uniforms for: the
    stationary start's trial count, then each time block's height."""
    from conicwalk import coupling_sim

    mix, heights = coupling_sim._mix, []
    monkeypatch.setattr(coupling_sim, "_mix", lambda z: heights.append(len(z)) or mix(z))
    return heights


def test_plain_walk_matches_one_draw_at_a_time_reference(mix_heights):
    # few pairs left walk in time blocks of up to n // 4 steps (one at q = 7,
    # where n // 4 = 1)
    heights = mix_heights
    for k, pi, x0 in _reference_walks():
        heights.clear()
        stats = run_coupling_trials(k, pi, k.classes[x0], trials=300, seed=42)
        assert stats.times == [_reference_trial(k, pi, x0, 42, t) for t in range(300)], k.q
        assert max(heights[1:]) == max(1, k.size // 4), k.q


def test_monte_carlo_counts_match_one_draw_at_a_time_reference():
    key = int(np.random.SeedSequence(5).generate_state(1, np.uint64)[0])
    for k, pi, x0 in _reference_walks():
        cdf = _cdf_lists(k, pi)
        want = [0] * k.size
        for trial in range(1000):
            x = x0
            for j in range(3):
                x = bisect.bisect_right(cdf[x], _splitmix_uniform(key, trial, j))
            want[x] += 1
        assert monte_carlo_tv(k.classes[x0], 3, 1000, 5, k, pi).counts == want, k.q


def _guide_search(cdf, us):
    """The guide-table search of every U in ``us`` on every row of ``cdf``."""
    from conicwalk.coupling_sim import _GuideTable

    rows = np.repeat(np.arange(len(cdf)), len(us))
    u = np.tile(np.array(us, dtype=np.uint64), len(cdf))
    return _GuideTable(np.array(cdf, dtype=np.uint64)).search(rows, u).reshape(len(cdf), -1)


def test_trials_across_the_block_edge_match_the_reference():
    # trials 2^14 - 2 .. 2^14 + 2 straddle the first block edge
    from conicwalk.coupling_sim import TRIAL_BLOCK

    edge = range(TRIAL_BLOCK - 2, TRIAL_BLOCK + 3)
    for k, pi, x0 in list(_reference_walks())[::2]:
        full = run_coupling_trials(k, pi, k.classes[x0], trials=TRIAL_BLOCK + 3, seed=42)
        assert full.times[TRIAL_BLOCK - 2:] == [_reference_trial(k, pi, x0, 42, t)
                                                for t in edge], k.q


def test_guide_search_on_bucket_edges():
    # n = 4 classes: G = 8 buckets, edges at b * 2^50
    e = 1 << 50
    cdf = [
        [e, e, 3 * e, 8 * e],          # on edges, with a zero-probability class
        [0, 0, 4 * e, 8 * e],          # two leading zero-probability classes
        [e - 1, e + 1, 7 * e, 8 * e],  # one off the edges
        [8 * e] * 4,                   # all mass on class 0
        [0, 0, 0, 8 * e],              # all mass on the last class
    ]
    us = sorted({0, 2**53 - 1, *(b * e + d for b in range(1, 8) for d in (-1, 0, 1))})
    got = _guide_search(cdf, us)
    for row, got_row in zip(cdf, got):
        assert got_row.tolist() == np.searchsorted(row, us, side="right").tolist(), row


def test_guide_search_skips_zero_probability_runs_mid_row():
    # n = 8 classes: G = 16 buckets, edges at b * 2^49; runs of repeated CDF
    # values inside a bucket, across buckets, and up to the last class
    e = 1 << 49
    cdf = [
        [e, 3 * e, 3 * e, 3 * e, 3 * e, 9 * e, 9 * e, 16 * e],
        [e + 5, e + 5, e + 5, e + 6, e + 6, e + 6, e + 7, 16 * e],
        [0, 2 * e, 2 * e, 2 * e, 2 * e, 2 * e, 2 * e, 16 * e],
        [3, 3, 3, 3, 4, 4, 4, 16 * e],
    ]
    us = sorted({0, 1, 2, 3, 4, 2**53 - 1,
                 *(v + d for row in cdf for v in row for d in (-1, 0, 1) if 0 <= v + d < 2**53)})
    got = _guide_search(cdf, us)
    for row, got_row in zip(cdf, got):
        assert got_row.tolist() == np.searchsorted(row, us, side="right").tolist(), row


@pytest.mark.parametrize("q", [13, 61, 401])
def test_guide_search_on_real_kernels_equals_binary_search(q):
    from conicwalk.coupling_sim import _Lockstep

    params = ConicParams(make_prime_field(q), 1, 1)
    k = kernel_for_step(params)
    table = _Lockstep(k, haar(params), 0).table
    cdf = table.cdf.reshape(-1, k.size)
    rng = np.random.default_rng(q)
    rows = rng.integers(0, len(cdf), 10**5)
    u = rng.integers(0, 2**53, 10**5, dtype=np.uint64)
    # a third of the uniforms on a CDF value of their row or just below it
    on = rng.integers(0, k.size, 10**5)
    u[::3] = np.minimum(cdf[rows, on] - rng.integers(0, 2, 10**5).astype(np.uint64),
                        2**53 - 1)[::3]
    got = table.search(rows, u.copy())
    want = np.array([np.searchsorted(cdf[r], v, side="right") for r, v in zip(rows, u)])
    assert got.tolist() == want.tolist()


@st.composite
def _cdf_rows_and_uniforms(draw):
    n = draw(st.integers(1, 40))
    shift = 53 - n.bit_length()
    edge = st.integers(0, 1 << n.bit_length()).map(lambda b: b << shift)
    # edges, zeros and their neighbours repeat often: zero-probability classes
    value = st.one_of(st.integers(0, 2**53), edge, edge.map(lambda v: max(v - 1, 0)), st.just(0))
    cdf = np.sort(np.array(draw(st.lists(st.lists(value, min_size=n, max_size=n),
                                         min_size=1, max_size=2)), dtype=np.uint64), axis=1)
    cdf[:, -1] = 2**53
    near = st.sampled_from(cdf.ravel().tolist()).flatmap(
        lambda v: st.sampled_from([max(v - 1, 0), min(v, 2**53 - 1)]))
    us = draw(st.lists(st.one_of(st.integers(0, 2**53 - 1), near), min_size=1, max_size=20))
    return cdf, us


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_cdf_rows_and_uniforms())
def test_guide_search_equals_binary_search(case):
    cdf, us = case
    got = _guide_search(cdf, us)
    for row, got_row in zip(cdf, got):
        assert got_row.tolist() == np.searchsorted(row, np.array(us, dtype=np.uint64),
                                                   side="right").tolist()


def test_batch_prefix_is_independent_of_batch_size(setup7):
    # the larger batches cross the block edge at 2^14 trials
    from conicwalk.coupling_sim import TRIAL_BLOCK

    _, k, pi = setup7
    short = run_coupling_trials(k, pi, k.classes[0], trials=200, seed=23)
    mid = run_coupling_trials(k, pi, k.classes[0], trials=TRIAL_BLOCK + 5, seed=23)
    long = run_coupling_trials(k, pi, k.classes[0], trials=2 * TRIAL_BLOCK + 100, seed=23)
    assert mid.times[:200] == short.times
    assert long.times[:TRIAL_BLOCK + 5] == mid.times


def test_stream_known_answer_q7_seed42(setup7):
    # pins the layout: a change to the stream or the draw rule changes these
    _, k, pi = setup7
    stats = run_coupling_trials(k, pi, k.classes[0], trials=12, seed=42)
    assert stats.times == [8, 7, 3, 5, 17, 4, 2, 18, 6, 5, 3, 9]
    assert stats.to_json()["stream"] == "splitmix64-trial-counter/v1"


def test_non_ergodic_kernel_is_rejected_before_walking(setup7):
    params, _, pi = setup7
    k0 = kernel_for_step(params, _cls(params.spec, 0))
    with pytest.raises(NotErgodic):
        run_coupling_trials(k0, pi, k0.classes[1], trials=10, seed=0)
    with pytest.raises(NotErgodic):
        monte_carlo_tv(k0.classes[1], 2, 1000, 0, k0, pi)


def test_coalescence_step_limit_raises(monkeypatch):
    # at q = 61 the mean meeting time is about 64 steps: 50 pairs do not all
    # meet within 3, and the walk stops with WalkTimeout
    from conicwalk import WalkTimeout, coupling_sim

    params = ConicParams(make_prime_field(61), 1, 1)
    k = kernel_for_step(params)
    monkeypatch.setattr(coupling_sim, "COALESCENCE_STEP_LIMIT", 3)
    with pytest.raises(WalkTimeout, match="within 3 steps"):
        run_coupling_trials(k, haar(params), k.classes[0], trials=50, seed=1)


@pytest.mark.parametrize("limit", [5, 20])
def test_coalescence_step_limit_inside_a_time_block(monkeypatch, mix_heights, limit):
    # at q = 61 the blocks of 50 pairs are n // 4 = 15 steps high: the walk
    # draws exactly ``limit`` steps, not up to the end of the block
    from conicwalk import WalkTimeout, coupling_sim

    params = ConicParams(make_prime_field(61), 1, 1)
    k = kernel_for_step(params)
    monkeypatch.setattr(coupling_sim, "COALESCENCE_STEP_LIMIT", limit)
    with pytest.raises(WalkTimeout, match=f"within {limit} steps"):
        run_coupling_trials(k, haar(params), k.classes[0], trials=50, seed=1)
    assert sum(mix_heights[1:]) == limit


def test_coalescence_step_limit_next_to_the_last_meeting(monkeypatch):
    # the last pair meets at step T inside a block: a limit of T - 1 stops
    # the walk, and a limit of T or more changes no meeting time
    from conicwalk import WalkTimeout, coupling_sim

    params = ConicParams(make_prime_field(61), 1, 1)
    k, pi = kernel_for_step(params), haar(params)
    plain = run_coupling_trials(k, pi, k.classes[0], trials=50, seed=1)
    top = max(plain.times)
    assert top % 15 > 1  # T - 1 and T lie in one block
    monkeypatch.setattr(coupling_sim, "COALESCENCE_STEP_LIMIT", top - 1)
    with pytest.raises(WalkTimeout, match=f"within {top - 1} steps"):
        run_coupling_trials(k, pi, k.classes[0], trials=50, seed=1)
    for limit in (top, top + 1):
        monkeypatch.setattr(coupling_sim, "COALESCENCE_STEP_LIMIT", limit)
        assert run_coupling_trials(k, pi, k.classes[0], trials=50, seed=1).times == plain.times


def test_stats_read_from_the_histogram_equal_the_per_trial_counts(setup13):
    _, k, pi = setup13
    stats = run_coupling_trials(k, pi, k.classes[0], trials=3000, seed=5)
    times = stats.times
    assert stats.hist.tolist() == [times.count(t) for t in range(max(times) + 1)]
    assert stats.mean_time == sum(times) / len(times)
    for t in (-3, -1, 0, 1, 7, max(times) - 1, max(times), max(times) + 4):
        p = sum(1 for v in times if v > t) / stats.trials
        assert stats.tail(t) == p
        assert stats.tail_stderr(t) == (p * (1.0 - p) / stats.trials) ** 0.5
    assert stats.tail_curve() == [stats.tail(t) for t in range(max(times) + 1)]


def test_monte_carlo_tv_rejects_negative_t(setup7):
    _, k, pi = setup7
    with pytest.raises(ValueError):
        monte_carlo_tv(k.classes[0], -1, 1000, 0, k, pi)


def test_batches_past_the_trial_limit_are_rejected_before_any_draw(setup7):
    # trial t + 2^32 would repeat trial t, and MC-TV step 2^32 + 1 would read
    # the next trial's uniforms; nothing is allocated before the check
    from conicwalk.coupling_sim import TRIAL_LIMIT as limit

    _, k, pi = setup7
    assert limit == 2**32
    with pytest.raises(ValueError, match=r"trials must be in \[1, 2\^32\]"):
        run_coupling_trials(k, pi, k.classes[0], trials=limit + 1, seed=1)
    with pytest.raises(ValueError, match=r"trials must be in \[1000, 2\^32\]"):
        monte_carlo_tv(k.classes[0], 1, limit + 1, 0, k, pi)
    with pytest.raises(ValueError, match=r"t must be in \[0, 2\^32\]"):
        monte_carlo_tv(k.classes[0], limit + 1, 1000, 0, k, pi)
    with pytest.raises(ValueError, match=r"trial index must be in \[0, 2\^32\)"):
        coupled_run(k.classes[0], k, pi, (1, limit))
