"""Acceptance suite: every release-gating criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

import math
import time

from conicwalk import (
    ClassIndex,
    ConicParams,
    Distribution,
    boost_check,
    build_table,
    circle_points,
    class_size,
    evolve,
    geometric_decay_check,
    haar,
    index_set,
    kernel,
    make_field,
    make_prime_field,
    minorization_constant,
    minorization_reference,
    mixing_report,
    monte_carlo_tv,
    oracle_table,
    run_coupling_trials,
    stationary,
    tv_distance,
    two_step_support,
    verify_axioms,
    verify_intersection_trichotomy,
)
from conicwalk.cli import admissible_prime_powers

from conftest import (
    BRANCH1_FIELDS,
    BRANCH3_FIELDS,
    TEST_FIELDS,
    q_of,
    smallest_nonsquare,
)

EPS_REF = 1.0 / (2.0 * math.e)
COUPLING_SEED = 42
COUPLING_TRIALS = 100_000


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {num:>2} ({name}): {status}" +
          (f" -- {detail}" if detail else ""))
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_01_oracle_equivalence(specs):
    started = time.monotonic()
    mismatch_total = 0
    combos = 0
    for q, spec in specs.items():
        g = smallest_nonsquare(spec)
        for weights in ((1, 1), (g, g)):
            params = ConicParams(spec, *weights)
            closed = build_table(params, "closed-form")
            oracle = oracle_table(params)
            combos += 1
            if closed != oracle:
                mismatch_total += len(closed.mismatches(oracle))
    elapsed = time.monotonic() - started
    ok = mismatch_total == 0 and combos == 20 and elapsed <= 60.0
    _report(1, "oracle equivalence", ok,
            f"{combos} field/weight combos, {mismatch_total} mismatches, {elapsed:.1f}s")


def test_criterion_02_point_counts(specs):
    bad = []
    for q, spec in specs.items():
        params = ConicParams(spec, 1, 1)
        expected_nonzero = q - (-1) ** ((q - 1) // 2)
        for c in index_set(params):
            size = class_size(c, params)
            if not c.is_zero and not c.is_isotropic and size != expected_nonzero:
                bad.append((q, c.label(), size))
            if size != len(circle_points(c, params)):
                bad.append((q, c.label(), "enumeration"))
    _report(2, "point counts", not bad, f"checked {len(specs)} fields; bad={bad[:3]}")


def test_criterion_03_intersection_trichotomy():
    fields = [(p, d) for p, d in TEST_FIELDS] + [(29, 1), (31, 1)]
    total_pairs = 0
    failures = []
    for p, d in fields:
        params = ConicParams(make_field(p, d), 1, 1)
        result = verify_intersection_trichotomy(params)
        total_pairs += result["pairs_checked"]
        if not result["ok"]:
            failures.append((q_of((p, d)), result["mismatches"][:3]))
    _report(3, "intersection trichotomy", not failures,
            f"{len(fields)} fields, {total_pairs} centre pairs exhaustively checked")


def test_criterion_04_hypergroup_axioms(closed_tables):
    failures = []
    for q, table in closed_tables.items():
        report = verify_axioms(table)
        if not report.all_pass:
            failures.append((q, report.violations))
    unsplit = verify_axioms(oracle_table(ConicParams(make_prime_field(13), 1, 1),
                                         split=False))
    diagnostic_ok = not unsplit.hermitian_support
    _report(4, "hypergroup axioms", not failures and diagnostic_ok,
            f"{len(closed_tables)} fields pass; unsplit q=13 hermitian fails as expected")


def test_criterion_05_stationarity(closed_tables):
    worst = 0.0
    exact_bad = []
    steps_checked = 0
    for q, table in closed_tables.items():
        pi = haar(table.params)
        n = table.size
        for s in table.classes:
            if s.is_zero or s.is_isotropic:
                continue
            k = kernel(table, s)
            st = stationary(k, method="power")
            worst = max(worst, float(abs(st.probs - pi.probs).max()))
            for j in range(n):
                if sum(pi.exact[i] * k.rat[i][j] for i in range(n)) != pi.exact[j]:
                    exact_bad.append((q, s.label(), j))
            steps_checked += 1
    ok = worst <= 1e-12 and not exact_bad
    _report(5, "stationarity", ok,
            f"{steps_checked} kernels; sup|stationary-haar| = {worst:.2e}; "
            f"exact fixed-point violations: {len(exact_bad)}")


def test_criterion_06_minorization(closed_tables):
    failures = []
    details = []
    for p, d in BRANCH3_FIELDS + BRANCH1_FIELDS:
        q = q_of((p, d))
        branch = q % 4
        if branch == 1 and q < 13:
            continue
        table = closed_tables[q]
        k = kernel(table, ClassIndex.finite(table.params.spec.one))
        m, ref = minorization_reference(q, branch)
        exact, _ = minorization_constant(k, m)
        if exact is None or exact < ref:
            failures.append((q, m, str(exact), str(ref)))
        details.append(f"q={q}:m={m}")
    _report(6, "minorization", not failures,
            f"exact ratios >= reference for {', '.join(details)}")


def test_criterion_07_linear_mixing_scan():
    started = time.monotonic()
    rows = []
    over_bound = []
    for q, p, d in admissible_prime_powers(7, 199):
        params = ConicParams(make_field(p, d), 1, 1)
        rep = mixing_report(params, eps=EPS_REF)
        rows.append((q, rep.tau, rep.tau_bound, rep.tau / q))
        if rep.tau > rep.tau_bound:
            over_bound.append(q)
    elapsed = time.monotonic() - started
    max_ratio = max(r[3] for r in rows)
    asymptotic = 4 * (1 + math.log(2))  # ~6.77
    ok = not over_bound and max_ratio <= asymptotic and elapsed <= 600.0
    _report(7, "linear mixing scan", ok,
            f"{len(rows)} prime powers in [7,199]; max tau = "
            f"{max(r[1] for r in rows)}; max tau/q = {max_ratio:.4f} "
            f"(<= {asymptotic:.2f}); {elapsed:.1f}s")


def test_criterion_08_geometric_decay(closed_tables):
    failures = []
    for q in (7, 13):
        table = closed_tables[q]
        k = kernel(table, ClassIndex.finite(table.params.spec.one))
        pi = haar(table.params)
        m, ref = minorization_reference(q, q % 4)
        checks = geometric_decay_check(k, pi, m, ref)
        failures += [(q, c.n) for c in checks if not c.ok]
    _report(8, "geometric decay", not failures,
            "TV(mn) <= (1-c)^n + 1e-10 for n <= 30, q in {7, 13}")


def test_criterion_09_boost(closed_tables):
    results = {}
    for q in (7, 13):
        table = closed_tables[q]
        k = kernel(table, ClassIndex.finite(table.params.spec.one))
        results[q] = boost_check(k, haar(table.params), 0.01)
    ok = all(r.ok for r in results.values())
    detail = "; ".join(f"q={q}: tau(0.01)={r.tau_eps} <= {r.tau_ref}*{r.factor}"
                       for q, r in results.items())
    _report(9, "boost", ok, detail)


def test_criterion_10_coupling(closed_tables):
    failures = []
    details = []
    for q, t_mc in ((7, 8), (13, 12)):
        table = closed_tables[q]
        params = table.params
        start = ClassIndex.finite(params.spec.element(0))
        k = kernel(table, ClassIndex.finite(params.spec.one))
        pi = haar(params)
        stats = run_coupling_trials(k, pi, start, COUPLING_TRIALS, COUPLING_SEED)
        d0 = Distribution.point_mass(k.classes, start)
        for t in (1, 2, 4, 8, 16):
            exact = tv_distance(evolve(d0, k, t), pi)
            bound = stats.tail(t) + 3 * stats.tail_stderr(t)
            if bound < exact:
                failures.append((q, t, bound, exact))
        exact_mc = tv_distance(evolve(d0, k, t_mc), pi)
        est = monte_carlo_tv(start, t_mc, COUPLING_TRIALS, COUPLING_SEED, k, pi)
        if not est.brackets(exact_mc):
            failures.append((q, f"mc@t={t_mc}", est.ci_low, est.ci_high, exact_mc))
        details.append(f"q={q}: mean T={stats.mean_time:.1f}, "
                       f"mc-tv CI [{est.ci_low:.4f},{est.ci_high:.4f}] "
                       f"brackets {exact_mc:.5f}")
    _report(10, "coupling validation", not failures, "; ".join(details) +
            (f"; failures={failures}" if failures else ""))


def test_criterion_11_two_step_support(closed_tables):
    # The witness property holds for every q = 3 (mod 4) (pigeonhole over
    # (q+1)/2-class reach) and, by exhaustive check, for q = 1 (mod 4) once
    # q >= 13.  For q in {5, 9} explicit counterexamples exist (e.g. q = 5,
    # classes 1 and 2), pinned in test_hypergroup; those fields are excluded
    # here because the claim is provably false on them.
    missing = []
    checked = []
    for q, table in closed_tables.items():
        if q % 4 == 1 and q < 13:
            continue
        nonzero = [c for c in table.classes if not c.is_zero]
        for i in nonzero:
            for j in nonzero:
                if two_step_support(i, j, table) is None:
                    missing.append((q, i.label(), j.label()))
        checked.append(q)
    _report(11, "two-step support", not missing,
            f"witnesses for all nonzero pairs on q in {sorted(checked)}")
