import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conicwalk import (
    BranchMismatch,
    ClassIndex,
    ConicParams,
    Distribution,
    IndexMismatch,
    Kernel,
    NotErgodic,
    StructureTable,
    boost_check,
    build_table,
    ergodicity_check,
    evolve,
    geometric_decay_check,
    haar,
    index_set,
    kernel,
    kernel_for_step,
    make_field,
    make_prime_field,
    max_tv_curve,
    minorization_constant,
    minorization_reference,
    mixing_report,
    mixing_time,
    mixing_time_bound,
    stationary,
    tv_distance,
)

from conicwalk.cli import admissible_prime_powers
from conftest import FIVE_FIELDS, five_field_params

EPS_REF = 1.0 / (2.0 * math.e)


def _cls(spec, v):
    return ClassIndex.finite(spec.element(v))


@pytest.fixture(scope="module")
def k7():
    return kernel_for_step(ConicParams(make_prime_field(7), 1, 1))


@pytest.fixture(scope="module")
def k13():
    return kernel_for_step(ConicParams(make_prime_field(13), 1, 1))


@pytest.fixture(scope="module")
def pi7(k7):
    return haar(k7.params)


@pytest.fixture(scope="module")
def pi13(k13):
    return haar(k13.params)


# ---------------------------------------------------------------------------
# kernel construction
# ---------------------------------------------------------------------------

def test_kernel_shapes(k7, k13):
    assert k7.mat.shape == (7, 7)
    assert k13.mat.shape == (14, 14)
    assert np.allclose(k7.mat.sum(axis=1), 1.0, atol=1e-15)


def test_kernel_power_rows_stay_stochastic(k7, k13):
    for k in (k7, k13):
        for m in (2, 4, 8, 16):
            mat = np.linalg.matrix_power(k.mat, m)
            assert np.abs(mat.sum(axis=1) - 1.0).max() <= m * 1e-15


def test_kernel_rejects_counts_not_divisible_by_the_class_size(k7):
    table = build_table(k7.params)
    counts = table.counts.copy()
    t = table.position(k7.step)
    # row (1, s) keeps its sum N_1 N_s, so the table validates, but N_1 = 8
    # no longer divides its entries
    counts[1, t, 0] -= 1
    counts[1, t, 1] += 1
    moved = StructureTable(table.params, table.classes, table.sizes, counts, "moved")
    with pytest.raises(ValueError, match="kernel row 1 is not divisible by its class size 8"):
        kernel(moved, k7.step)


def test_kernel_zero_step_is_identity():
    p7 = ConicParams(make_prime_field(7), 1, 1)
    k = kernel_for_step(p7, _cls(p7.spec, 0))
    assert np.array_equal(k.mat, np.eye(7))


def test_kernel_from_table_matches_direct(k7):
    t = build_table(k7.params)
    via_table = kernel(t, _cls(k7.params.spec, 1))
    assert via_table.rat == k7.rat


def test_kernel_entries_are_structure_constants(k13):
    t = build_table(k13.params)
    s = _cls(k13.params.spec, 1)
    for i, ci in enumerate(k13.classes):
        for j, cj in enumerate(k13.classes):
            assert k13.rat[i][j] == t.n(ci, s, cj)


# ---------------------------------------------------------------------------
# evolve
# ---------------------------------------------------------------------------

def test_evolve_zero_steps(k7, pi7):
    d0 = Distribution.point_mass(k7.classes, k7.classes[3])
    assert np.array_equal(evolve(d0, k7, 0).probs, d0.probs)


def test_evolve_identity_class_step(k7):
    d0 = Distribution.point_mass(k7.classes, _cls(k7.params.spec, 0))
    d1 = evolve(d0, k7, 1)
    assert d1.probs[1] == 1.0  # one step from the origin class lands on the step class


def test_evolve_two_steps_matches_convolution_row(k7):
    t = build_table(k7.params)
    spec = k7.params.spec
    one = _cls(spec, 1)
    d0 = Distribution.point_mass(k7.classes, _cls(spec, 0))
    d2 = evolve(d0, k7, 2, exact=True)
    assert d2.exact == t.row(one, one)


def test_evolve_exact_matches_float(k13):
    d0 = Distribution.point_mass(k13.classes, k13.classes[0])
    for n in (1, 3, 8, 80):
        ex = evolve(d0, k13, n, exact=True)
        fl = evolve(d0, k13, n)
        assert np.abs(ex.probs - fl.probs).max() < 1e-14


# ---------------------------------------------------------------------------
# haar and stationarity
# ---------------------------------------------------------------------------

def test_haar_gf7(pi7):
    assert pi7.exact[0] == Fraction(1, 49)
    assert all(v == Fraction(8, 49) for v in pi7.exact[1:])
    assert sum(pi7.exact) == 1


def test_haar_gf13(pi13):
    assert pi13.exact[0] == Fraction(1, 169)
    assert pi13.exact[-1] == Fraction(24, 169)
    assert all(v == Fraction(12, 169) for v in pi13.exact[1:-1])
    assert sum(pi13.exact) == 1


def test_stationary_matches_haar(k7, pi7, k13, pi13):
    for k, pi in ((k7, pi7), (k13, pi13)):
        st = stationary(k, method="power")
        assert np.abs(st.probs - pi.probs).max() <= 1e-12
        ex = stationary(k, method="exact")
        assert ex.exact == pi.exact


def test_stationary_default_is_exact_above_32_classes():
    params = ConicParams(make_prime_field(37), 1, 1)
    st = stationary(kernel_for_step(params))
    assert st.exact == haar(params).exact


def test_stationary_exact_fixed_point(k7, pi7):
    n = k7.size
    for j in range(n):
        assert sum(pi7.exact[i] * k7.rat[i][j] for i in range(n)) == pi7.exact[j]


def test_stationary_not_ergodic_for_identity_kernel():
    p7 = ConicParams(make_prime_field(7), 1, 1)
    k = kernel_for_step(p7, _cls(p7.spec, 0))
    with pytest.raises(NotErgodic):
        stationary(k)


# ---------------------------------------------------------------------------
# ergodicity
# ---------------------------------------------------------------------------

def test_ergodicity_check(k7, k13):
    for k in (k7, k13):
        rep = ergodicity_check(k)
        assert rep.ergodic and rep.irreducible and rep.period == 1
        assert not rep.unreachable


def test_ergodicity_identity_kernel_fails():
    p7 = ConicParams(make_prime_field(7), 1, 1)
    k = kernel_for_step(p7, _cls(p7.spec, 0))
    rep = ergodicity_check(k)
    assert not rep.ergodic and not rep.irreducible


def test_all_nonzero_steps_ergodic_gf13(k13):
    t = build_table(k13.params)
    for s in t.classes:
        if s.is_zero:
            continue
        assert ergodicity_check(kernel(t, s)).ergodic


def _reference_ergodicity(k):
    """(ergodic, irreducible, period, unreachable) from Python sets and lists,
    one edge at a time: reachability by depth-first search, BFS levels, and
    the gcd over the support edges."""
    n = k.size
    positive = k.step_counts > 0
    support = [np.flatnonzero(r).tolist() for r in positive]
    reverse = [np.flatnonzero(c).tolist() for c in positive.T]

    def reach(adj):
        seen, stack = {0}, [0]
        while stack:
            for v in adj[stack.pop()]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        return seen

    unreachable = sorted(set(range(n)) - (reach(support) & reach(reverse)))
    period = None
    if not unreachable:
        level, frontier = [-1] * n, [0]
        level[0] = 0
        while frontier:
            nxt = []
            for u in frontier:
                for v in support[u]:
                    if level[v] < 0:
                        level[v] = level[u] + 1
                        nxt.append(v)
            frontier = nxt
        g = 0
        for u in range(n):
            for v in support[u]:
                g = math.gcd(g, level[u] + 1 - level[v])
        period = g
    return (not unreachable and period == 1, not unreachable, period,
            [k.classes[t].label() for t in unreachable])


def _report_tuple(rep):
    return rep.ergodic, rep.irreducible, rep.period, rep.unreachable


@pytest.mark.parametrize("field", FIVE_FIELDS)
def test_ergodicity_matches_the_reference_bfs_on_every_step_class(field):
    params = five_field_params(field)
    verdicts = set()
    for s in index_set(params):
        k = kernel_for_step(params, s)
        assert _report_tuple(ergodicity_check(k)) == _reference_ergodicity(k), s
        verdicts.add(k.ergodicity.ergodic)
    assert verdicts == {True, False}  # the zero step is reducible, the rest ergodic


@pytest.mark.parametrize("q", [125, 127, 461, 1021])
def test_ergodicity_matches_the_reference_bfs_on_the_unit_step(q):
    [(_, p, d)] = admissible_prime_powers(q, q)
    k = kernel_for_step(ConicParams(make_field(p, d), 1, 1))
    assert _report_tuple(ergodicity_check(k)) == _reference_ergodicity(k) == (True, True, 1, [])


def _unit_kernel(steps):
    """A kernel on the GF(7) labels with the step matrix ``steps``, whose
    rows all sum to one N, and every class of size N."""
    params = ConicParams(make_prime_field(7), 1, 1)
    n = int(steps[0].sum())
    return Kernel(params, index_set(params), _cls(params.spec, 1), steps, [n] * 7)


def _cyclic_steps(parts):
    """Step matrix with rows summing to 2 that sends each class of parts[r]
    to two classes of parts[r + 1], cyclically: every cycle length is a
    multiple of len(parts)."""
    steps = np.zeros((7, 7), dtype=np.int64)
    for r, part in enumerate(parts):
        after = parts[(r + 1) % len(parts)]
        for t, u in enumerate(part):
            steps[u, after[t % len(after)]] += 1
            steps[u, after[(t + 1) % len(after)]] += 1
    return steps


@pytest.mark.parametrize("parts", [
    [[0, 1, 2], [3, 4, 5, 6]],
    [[0, 1], [2, 3], [4, 5, 6]],
], ids=["period-2", "period-3"])
def test_ergodicity_reports_the_period_of_a_layered_kernel(parts):
    k = _unit_kernel(_cyclic_steps(parts))
    want = (False, True, len(parts), [])
    assert _report_tuple(ergodicity_check(k)) == _reference_ergodicity(k) == want


def test_ergodicity_reports_the_period_of_a_cycle():
    k = _unit_kernel(np.roll(np.eye(7, dtype=np.int64), 1, axis=1))  # i -> i + 1 (mod 7)
    assert _report_tuple(ergodicity_check(k)) == _reference_ergodicity(k) == (False, True, 7, [])
    with pytest.raises(NotErgodic, match=r"is not ergodic: period 7$"):
        stationary(k)


def test_ergodicity_needs_the_way_back_to_class_0():
    # 0 -> 1, and every other class stays put: 1 is reached from 0 but never returns
    one_way = np.eye(7, dtype=np.int64)
    one_way[0] = np.eye(7, dtype=np.int64)[1]
    k = _unit_kernel(one_way)
    want = (False, False, None, ["1", "2", "3", "4", "5", "6"])
    assert _report_tuple(ergodicity_check(k)) == _reference_ergodicity(k) == want


def test_not_ergodic_states_the_classes_that_do_not_communicate():
    p7 = ConicParams(make_prime_field(7), 1, 1)
    k = kernel_for_step(p7, _cls(p7.spec, 0))
    assert _report_tuple(ergodicity_check(k)) == _reference_ergodicity(k)
    assert k.ergodicity.unreachable == ["1", "2", "3", "4", "5", "6"]
    with pytest.raises(NotErgodic, match=r"not ergodic: 6 classes do not communicate with C\[0\]$"):
        mixing_time(k, haar(p7), 0.1)


def _counted_bfs(monkeypatch):
    import conicwalk.walk_analysis as wa

    calls = []

    def counted(k):
        calls.append(k)
        return ergodicity_check(k)

    monkeypatch.setattr(wa, "ergodicity_check", counted)
    return calls


@pytest.mark.parametrize("q,p,d", admissible_prime_powers(3, 127),
                         ids=[str(q) for q, _, _ in admissible_prime_powers(3, 127)])
def test_ergodicity_certificate_equals_the_bfs(q, p, d, monkeypatch):
    calls = _counted_bfs(monkeypatch)
    params = ConicParams(make_field(p, d), 1, 1)
    steps = [None] + ([ClassIndex.isotropic(params.spec)] if params.split else [])
    for s in steps:
        k = kernel_for_step(params, s)
        assert _report_tuple(k.ergodicity) == _report_tuple(ergodicity_check(k)), s
    assert calls == []  # every one certified, none from the BFS


def test_a_positive_origin_row_alone_certifies_nothing(monkeypatch):
    # 0 reaches every class in one step, but no class returns to 0: without
    # detailed balance the certificate fails, and the BFS names the reason
    calls = _counted_bfs(monkeypatch)
    steps = 7 * np.eye(7, dtype=np.int64)
    steps[0] = 1
    k = _unit_kernel(steps)
    assert np.linalg.matrix_power(steps, 4)[0].all()
    want = (False, False, None, ["1", "2", "3", "4", "5", "6"])
    assert _report_tuple(k.ergodicity) == _reference_ergodicity(k) == want
    assert calls == [k]


def test_step_0_falls_back_to_the_bfs(monkeypatch):
    calls = _counted_bfs(monkeypatch)
    p7 = ConicParams(make_prime_field(7), 1, 1)
    k = kernel_for_step(p7, _cls(p7.spec, 0))
    with pytest.raises(NotErgodic, match=r"not ergodic: 6 classes do not communicate with C\[0\]$"):
        mixing_time(k, None, 0.1)
    assert calls == [k]


def test_mixing_report_runs_no_float_walk(monkeypatch):
    # the exact loop serves tau, the curve, minorization and ergodicity
    import conicwalk.walk_analysis as wa

    calls = _counted_bfs(monkeypatch)
    kernels = []

    def kept(params, s=None):
        kernels.append(kernel_for_step(params, s))
        return kernels[-1]

    monkeypatch.setattr(wa, "kernel_for_step", kept)
    rep = mixing_report(ConicParams(make_prime_field(31), 1, 1))
    assert rep.tau_exact and rep.minorization["measured_exact"] is not None
    assert calls == [] and "mat" not in vars(kernels[0])


def test_boost_check_computes_the_ergodicity_verdict_once(monkeypatch):
    # counts the verdict, certificate or BFS: an ergodic kernel runs no BFS
    import conicwalk.walk_analysis as wa

    calls = []
    verdict = wa._ergodicity_verdict

    def counted(k):
        calls.append(k)
        return verdict(k)

    monkeypatch.setattr(wa, "_ergodicity_verdict", counted)
    params = ConicParams(make_prime_field(13), 1, 1)
    k = kernel_for_step(params)
    pi = stationary(k)
    assert boost_check(k, pi, 0.001).ok
    assert len(calls) == 1 and calls[0] is k


# ---------------------------------------------------------------------------
# tv distance
# ---------------------------------------------------------------------------

def test_tv_basic(k7, pi7):
    assert tv_distance(pi7, pi7) == 0.0
    a = Distribution.point_mass(k7.classes, k7.classes[0])
    b = Distribution.point_mass(k7.classes, k7.classes[1])
    assert tv_distance(a, b) == 1.0
    assert abs(tv_distance(a, pi7) - 48 / 49) < 1e-15


def test_tv_index_mismatch(k7, k13, pi7, pi13):
    with pytest.raises(IndexMismatch):
        tv_distance(pi7, pi13)


def test_tv_equals_max_subset_gap(k7, pi7):
    import itertools

    d1 = evolve(Distribution.point_mass(k7.classes, k7.classes[0]), k7, 2)
    for mu, nu in ((d1, pi7), (pi7, d1)):
        direct = tv_distance(mu, nu)
        best = 0.0
        for r in range(len(k7.classes) + 1):
            for subset in itertools.combinations(range(len(k7.classes)), r):
                gap = abs(sum(mu.probs[list(subset)]) - sum(nu.probs[list(subset)]))
                best = max(best, gap)
        assert abs(direct - best) < 1e-12


# ---------------------------------------------------------------------------
# mixing time
# ---------------------------------------------------------------------------

def test_mixing_time_trivial_eps(k7, pi7):
    assert mixing_time(k7, pi7, 1.0) == 0
    assert mixing_time(k7, pi7, 1.5) == 0


def test_mixing_time_gf7(k7, pi7):
    tau, curve = mixing_time(k7, pi7, EPS_REF, return_curve=True)
    assert 0 < tau <= 96
    assert curve[-1] <= EPS_REF < curve[-2]
    assert all(curve[t + 1] <= curve[t] + 1e-12 for t in range(len(curve) - 1))


def test_mixing_time_gf13(k13, pi13):
    assert mixing_time(k13, pi13, EPS_REF) <= mixing_time_bound(13, 1)


def test_mixing_time_not_ergodic():
    p7 = ConicParams(make_prime_field(7), 1, 1)
    k = kernel_for_step(p7, _cls(p7.spec, 0))
    for eps in (0.1, 1.0):  # eps >= 1 is no way round the check
        with pytest.raises(NotErgodic):
            mixing_time(k, haar(p7), eps)


def test_max_tv_curve_non_increasing(k7, k13, pi7, pi13):
    for k, pi in ((k7, pi7), (k13, pi13)):
        curve = max_tv_curve(k, pi, 40)
        assert all(curve[t + 1] <= curve[t] + 1e-12 for t in range(40))


def _max_tv_over_all_starts(k, pi, t_max):
    """Worst-start TV for t = 0..t_max from the q x q powers of K, scanning
    every start row."""
    mat = np.eye(k.size)
    curve = []
    for _ in range(t_max + 1):
        curve.append(0.5 * np.abs(mat - pi.probs[None, :]).sum(axis=1).max())
        mat = mat @ k.mat
    return curve


@pytest.mark.parametrize("field", FIVE_FIELDS)
def test_max_tv_curve_is_the_max_over_all_starts(field):
    # the origin class is the worst start: max_tv_curve reads its row alone
    params = five_field_params(field)
    pi = haar(params)
    checked = 0
    for s in index_set(params):
        k = kernel_for_step(params, s)
        if not ergodicity_check(k):
            continue
        want = _max_tv_over_all_starts(k, pi, 12)
        assert max_tv_curve(k, pi, 12) == pytest.approx(want, rel=0, abs=1e-14), s
        checked += 1
    assert checked == len(index_set(params)) - 1  # every step class but C[0]


def test_mixing_time_same_for_all_steps():
    for p, d in [(7, 1), (11, 1), (13, 1), (3, 2)]:
        spec = make_field(p, d)
        params = ConicParams(spec, 1, 1)
        t = build_table(params)
        pi = haar(params)
        taus = set()
        for s in t.classes:
            if s.is_zero or s.is_isotropic:
                continue
            taus.add(mixing_time(kernel(t, s), pi, EPS_REF))
        assert len(taus) == 1


def test_mixing_time_same_for_sampled_steps_larger_fields():
    for p, d in [(17, 1), (3, 3), (23, 1)]:
        spec = make_field(p, d)
        params = ConicParams(spec, 1, 1)
        pi = haar(params)
        sampled = [1, 2, spec.q - 1]
        taus = {mixing_time(kernel_for_step(params, _cls(spec, s)), pi, EPS_REF)
                for s in sampled}
        assert len(taus) == 1


def _exact_origin_tv(k, t):
    """TV_t of the origin row to the class-size law from Python-int powers of
    the step matrix and one ``Fraction`` per class."""
    row = np.eye(k.size, dtype=np.int64)[0].astype(object)
    for _ in range(t):
        row = row @ k.step_counts.astype(object)
    scale, total = k.step_size ** t, int(k.sizes.sum())
    return sum(max(Fraction(int(n), total) - Fraction(v, scale), 0)
               for n, v in zip(k.sizes.tolist(), row.tolist()))


def test_eps_beside_the_exact_tv_3_decides_tau(k13):
    tv3 = _exact_origin_tv(k13, 3)
    nearest = float(tv3)
    assert mixing_time(k13, None, math.nextafter(nearest, 0.0)) == 4
    assert mixing_time(k13, None, math.nextafter(nearest, 1.0)) == 3
    # the float nearest to TV_3 lies on one side of it, and decides by that side
    assert mixing_time(k13, None, nearest) == (3 if Fraction(nearest) >= tv3 else 4)
    tau, curve = mixing_time(k13, None, nearest, return_curve=True)
    assert curve == [float(_exact_origin_tv(k13, t)) for t in range(tau + 1)]


@st.composite
def _class_laws(draw):
    """(w, sizes, scale): a law N w / S, uniform on each class, with
    S = ``scale`` = r q^2 and q^2 the sum of the class sizes N.  It is made
    from w = r, the class-size law, by moving mass between classes, so that
    classes left alone sit exactly at the threshold q^2 w_j = S."""
    sizes = draw(st.lists(st.integers(1, 40), min_size=1, max_size=12))
    r = draw(st.integers(1, 2000))
    w = [r] * len(sizes)
    for _ in range(draw(st.integers(0, 6))):
        i, j = (draw(st.integers(0, len(w) - 1)) for _ in range(2))
        x = draw(st.integers(0, w[i] // sizes[j]))  # N_j x from w_i, N_i x to w_j
        w[i] -= sizes[j] * x
        w[j] += sizes[i] * x
    return w, sizes, r * sum(sizes)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_class_laws())
def test_integer_tv_equals_the_fraction_reference(law):
    from conicwalk.walk_analysis import _tv_numerator

    w, sizes, scale = law
    total = sum(sizes)
    want = sum(max(Fraction(n, total) - Fraction(n * x, scale), 0) for n, x in zip(sizes, w))
    got = _tv_numerator(np.array(w, dtype=np.int64), np.array(sizes, dtype=np.int64), scale)
    assert Fraction(got, total * scale) == want


def _float_tau(k, eps):
    """tau from the float64 origin row, vector-matrix products of ``k.mat``."""
    probs = k.sizes / k.sizes.sum()
    vec = np.eye(k.size)[0]
    t = 0
    while 0.5 * np.abs(vec - probs).sum() > eps:
        vec = vec @ k.mat
        t += 1
    return t


@pytest.mark.parametrize("q,p,d", admissible_prime_powers(3, 199),
                         ids=[str(q) for q, _, _ in admissible_prime_powers(3, 199)])
def test_exact_tau_equals_the_float_tau(q, p, d):
    params = ConicParams(make_field(p, d), 1, 1)
    steps = [None] + ([ClassIndex.isotropic(params.spec)] if params.split else [])
    for s in steps:
        k = kernel_for_step(params, s)
        tau = mixing_time(k, None, EPS_REF)
        assert k._exact_at(tau, q * q), s
        assert tau == _float_tau(k, EPS_REF), s


def test_tau_past_the_int64_guard_goes_on_in_float():
    # q^2 N_s^t < 2^63 holds at GF(13) for t <= 15; tau(1e-12) = 44
    params = ConicParams(make_prime_field(13), 1, 1)
    k = kernel_for_step(params)
    tau, curve = mixing_time(k, None, 1e-12, return_curve=True)
    assert tau == 44 == _float_tau(k, 1e-12)
    assert k._exact_at(15, 169) and not k._exact_at(16, 169)
    assert curve[:16] == [float(_exact_origin_tv(k, t)) for t in range(16)]
    assert curve == max_tv_curve(k, haar(params), 44)


def test_mixing_time_bound_values():
    assert mixing_time_bound(7, 3) == 96
    assert mixing_time_bound(11, 3) == 120
    assert mixing_time_bound(13, 1) == 402


def test_mixing_time_bound_branch_mismatch():
    with pytest.raises(BranchMismatch):
        mixing_time_bound(7, 1)
    with pytest.raises(BranchMismatch):
        mixing_time_bound(13, 3)
    with pytest.raises(BranchMismatch):
        mixing_time_bound(7, 2)


# ---------------------------------------------------------------------------
# minorization and decay
# ---------------------------------------------------------------------------

def test_minorization_gf7(k7):
    exact, approx = minorization_constant(k7, 4)
    ref = Fraction(49 * 6, 8**4)
    assert exact is not None and exact >= ref
    assert abs(float(exact) - approx) < 1e-12


def test_minorization_gf13(k13):
    exact, _ = minorization_constant(k13, 6)
    assert exact >= Fraction(1, 39)


def test_minorization_gf5_computed_but_small_q():
    # below the six-step hypothesis threshold: computed, not asserted against 1/(3q)
    p5 = ConicParams(make_prime_field(5), 1, 1)
    k = kernel_for_step(p5)
    exact, approx = minorization_constant(k, 6)
    assert exact is not None and exact >= 0
    assert approx >= 0


def _python_int_minorization(k, pi, m):
    """min over (i, j) of K^m(i, j) / pi(j) from an object-dtype power of
    the step matrix: Python ints, no float anywhere."""
    step = k.step_counts.astype(object)
    power = step
    for _ in range(m - 1):
        power = power @ step
    scale = k.step_size ** m
    return min(Fraction(v, scale) / pj
               for row in power.tolist() for v, pj in zip(row, pi.exact))


@pytest.mark.parametrize("q", [37, 61, 127])
def test_exact_minorization_matches_python_int_power(q):
    params = ConicParams(make_prime_field(q), 1, 1)
    k, pi = kernel_for_step(params), haar(params)
    m, ref = minorization_reference(q, q % 4)
    exact, measured = minorization_constant(k, m)
    assert exact == _python_int_minorization(k, pi, m)
    assert measured == float(exact) and exact >= ref


def _per_column_minorization(k, pi, m):
    """min over (i, j) of K^m(i, j) / pi(j), one ``Fraction`` per column of
    the float64 power of the whole step matrix: every pair, exact while
    N_s^m < 2^53."""
    col_min = np.linalg.matrix_power(k.step_counts.astype(float), m).min(axis=0)
    scale = k.step_size ** m
    return min(Fraction(int(v), scale) / pj for v, pj in zip(col_min.tolist(), pi.exact))


@pytest.mark.parametrize("q", [13, 31, 127, 457])  # 457: the last branch-1 N_s^6 below 2^53
def test_exact_minorization_equals_the_per_column_fractions(q):
    params = ConicParams(make_prime_field(q), 1, 1)
    k, pi = kernel_for_step(params), haar(params)
    m, _ = minorization_reference(q, q % 4)
    exact, measured = minorization_constant(k, m)
    assert exact == _per_column_minorization(k, pi, m)
    assert measured == float(exact)


@pytest.mark.parametrize("q,p,d", admissible_prime_powers(3, 127),
                         ids=[str(q) for q, _, _ in admissible_prime_powers(3, 127)])
def test_the_origin_row_gives_the_minimum_over_all_pairs(q, p, d):
    # min over (i, j) of K^m(i, j) / pi_j is the origin row's, for the unit
    # step, the last finite class and the isotropic step, at m = 1..6
    params = ConicParams(make_field(p, d), 1, 1)
    steps = [None, ClassIndex.finite(params.spec.element(q - 1))]
    if params.split:
        steps.append(ClassIndex.isotropic(params.spec))
    pi = haar(params)
    for s in steps:
        k = kernel_for_step(params, s)
        for m in range(1, 7):
            if k.step_size ** m >= 2 ** 53:
                break
            exact, measured = minorization_constant(k, m)
            assert exact == _per_column_minorization(k, pi, m), (s, m)
            assert measured == float(exact)


def test_minorization_exact_while_the_power_denominator_is_below_2_63():
    # m = 6; N_s = q - 1 for the finite step, 2(q - 1) for the isotropic one:
    # N_s^6 < 2^63 holds at q = 461 finite and q = 709 isotropic, not at 729
    for q, p, d, step, exact_expected in ((461, 461, 1, None, True), (709, 709, 1, "iso", True),
                                          (729, 3, 6, "iso", False)):
        params = ConicParams(make_field(p, d), 1, 1)
        s = None if step is None else ClassIndex.isotropic(params.spec)
        k = kernel_for_step(params, s)
        exact, measured = minorization_constant(k, 6)
        assert (exact is not None) == exact_expected, q
        assert measured >= 1 / (3 * q)


def test_minorization_power_past_2_53_never_builds_n_s_to_the_m():
    # GF(3): N_s = 4, so N_s^m has 2m + 1 bits; at m = 10^12 that int would
    # take 250 GB, while the float power of the 3 x 3 step matrix takes microseconds
    params = ConicParams(make_prime_field(3), 1, 1)
    k = kernel_for_step(params)
    start = time.perf_counter()
    exact, measured = minorization_constant(k, 10 ** 12)
    assert time.perf_counter() - start < 0.5
    assert exact is None
    assert measured == minorization_constant(k, 10 ** 6)[1]


def test_minorization_reference_values():
    m3, c3 = minorization_reference(7, 3)
    assert (m3, c3) == (4, Fraction(294, 4096))
    m1, c1 = minorization_reference(13, 1)
    assert (m1, c1) == (6, Fraction(1, 39))


def test_geometric_decay_gf7(k7, pi7):
    checks = geometric_decay_check(k7, pi7, 4, Fraction(294, 4096))
    assert len(checks) == 30
    assert all(c.ok for c in checks)


def test_geometric_decay_gf13(k13, pi13):
    checks = geometric_decay_check(k13, pi13, 6, Fraction(1, 39))
    assert all(c.ok for c in checks)


def test_boost_gf7(k7, pi7):
    res = boost_check(k7, pi7, 0.01)
    assert res.ok
    assert res.factor == 5
    with pytest.raises(ValueError):
        boost_check(k7, pi7, 0.5)


def test_boost_gf13(k13, pi13):
    assert boost_check(k13, pi13, 0.001).ok


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def test_mixing_report_json(k13):
    rep = mixing_report(k13.params)
    d = rep.to_json()
    assert d["q"] == 13 and d["branch"] == 1 and d["class_count"] == 14
    assert d["tau"] <= d["tau_bound"]
    assert d["minorization"]["ok"]
    assert d["minorization"]["reference"] == "1/39"


def test_distribution_validation(k7):
    with pytest.raises(ValueError):
        Distribution(k7.classes, [0.5] * 7)
    with pytest.raises(ValueError):
        Distribution(k7.classes, [1.0, 0.0])


@pytest.mark.parametrize("p,d", [(7, 1), (3, 2), (127, 1)])
def test_certification_row_catches_a_wrong_closed_form(p, d, monkeypatch):
    # one entry of the step's own row flipped between 0 and 2, the counts of
    # circles that miss and that cross: first the first entry, which the scalar
    # trichotomy checks, then an entry k whose mirror 4 - k < k stands for its
    # pair in the scalar calls, which only the row's mirror symmetry sees
    from conicwalk import InternalCheckError, walk_analysis

    closed_row = walk_analysis.closed_row
    params = ConicParams(make_field(p, d), 1, 1)
    add, neg = params.spec.add_table(), params.spec.neg_table()
    mirror = add[add[2, 2], neg]  # 4 - k at k: the field's 2 has index 2
    row = closed_row(params, index_set(params), ClassIndex.finite(params.spec.one))[1]
    first = next(c for c in range(1, params.q) if row[c] != 1)
    mirrored = next(c for c in range(1, params.q) if 0 < mirror[c] < c and row[c] != 1)
    for col in (first, mirrored):
        def flipped(params, rows, cj, *args):
            out = closed_row(params, rows, cj, *args)
            out[rows.index(cj), col] = 2 - out[rows.index(cj), col]
            return out

        monkeypatch.setattr(walk_analysis, "closed_row", flipped)
        with pytest.raises(InternalCheckError):
            kernel_for_step(params)


@pytest.mark.parametrize("p,d", [(127, 1), (5, 3)])
def test_mixing_report_builds_no_mul_table(p, d):
    params = ConicParams(make_field(p, d), 1, 1)
    mixing_report(params)
    assert params.spec._mul_np is None
