import hashlib
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conicwalk import (
    CapExceeded,
    ClassIndex,
    ConicParams,
    IndexInvalid,
    Point,
    StructureTable,
    build_table,
    class_size,
    classify,
    closed_row,
    haar,
    index_set,
    make_field,
    make_prime_field,
    oracle_table,
    structure_constant,
    two_step_support,
    verify_axioms,
)
from conicwalk.cli import admissible_prime_powers
from conicwalk.conic_geometry import class_sizes
from conicwalk.errata import errata_entries, published_six_step_reference
from conicwalk.hypergroup import _fraction_texts

from conftest import (
    FIVE_FIELDS,
    TEST_FIELDS,
    five_field_params,
    seeded_weights,
    smallest_nonsquare,
    smallest_square_above_one,
)


def _cls(spec, v):
    return ClassIndex.finite(spec.element(v))


# ---------------------------------------------------------------------------
# oracle table
# ---------------------------------------------------------------------------

def test_oracle_identity_row_gf7():
    f7 = make_prime_field(7)
    t = oracle_table(ConicParams(f7, 1, 1))
    zero = _cls(f7, 0)
    for j in t.classes:
        for k in t.classes:
            expected = Fraction(1) if j == k else Fraction(0)
            assert t.n(zero, j, k) == expected


def test_oracle_values_gf7():
    f7 = make_prime_field(7)
    t = oracle_table(ConicParams(f7, 1, 1))
    one = _cls(f7, 1)
    assert t.n(one, one, _cls(f7, 4)) == Fraction(1, 8)
    assert t.n(one, one, one) == Fraction(0)


def test_oracle_cap():
    f7 = make_prime_field(7)
    with pytest.raises(CapExceeded):
        oracle_table(ConicParams(f7, 1, 1), cap=5)


def test_row_sums_and_commutativity_oracle_gf9():
    t = oracle_table(ConicParams(make_field(3, 2), 1, 1))
    for i in t.classes:
        for j in t.classes:
            assert sum(t.row(i, j)) == 1
            assert t.row(i, j) == t.row(j, i)


@pytest.mark.parametrize("p,d,split", [(5, 1, True), (5, 1, False), (7, 1, True),
                                       (3, 2, True), (3, 2, False),
                                       # GF(3): the sign-flip fold keeps the indices
                                       # {0, 1}; GF(11): q = 3 (mod 4)
                                       (3, 1, True), (3, 1, False),
                                       (11, 1, True), (11, 1, False),
                                       # GF(13): q = 1 (mod 4), and the dilation fold
                                       # gathers five planes from each of 1 and g
                                       (13, 1, True), (13, 1, False)])
@pytest.mark.parametrize("seed", [None, 11])
def test_oracle_matches_scalar_pair_count(p, d, split, seed):
    # all q^4 ordered pairs (u, v) counted with scalar point addition and
    # classify, none of the oracle's index tables
    spec = make_field(p, d)
    params = ConicParams(spec, *((1, 1) if seed is None else seeded_weights(spec, seed)))
    classes = index_set(params, split=split)
    pos = {c: t for t, c in enumerate(classes)}
    points = [Point(x, y) for x in spec.elements() for y in spec.elements()]
    of = [pos[classify(u, params, split=split)] for u in points]
    counts = np.zeros((len(classes),) * 3, dtype=np.int64)
    for u, i in zip(points, of):
        for v, j in zip(points, of):
            counts[i, j, pos[classify(u + v, params, split=split)]] += 1
    table = oracle_table(params, split=split)
    assert table.classes == classes
    assert np.array_equal(table.counts, counts)
    assert table.sizes == np.bincount(of, minlength=len(classes)).tolist()


# sha256 of the little-endian count bytes, as the enumerations that preceded
# the one by class of u gave them (block-wise; per x_u plane for GF(125)): at
# the fields of the table_verify benchmark with its seed-1 weights (p, d, a, b),
# at GF(61) and at the oracle cap GF(125)
ORACLE_DIGESTS = {
    (5, 2, 23, 7): "a378ec9848f604b73e4bb85e412910503ceed2eb09194feb57dd00f8e4c30f8a",
    (3, 3, 1, 25): "9dc8d52c582195ff173b5b6abf34cd46b55e19504d47ef27af6b4eb0ace44d55",
    (31, 1, 24, 27): "011d0bfe19fdb473691a8048beaaa10b0b03a1c0ddfbf7790db447ed8d9e3f15",
    (7, 2, 28, 3): "ce9a42f540b333f5120fecab9bc4e9ae2603d380f5553ed6d8eb5995968a0feb",
    (61, 1, 1, 1): "27f3a1994be7792fbea549608122e8825fdfb2164663efbc7da1e72d5d504a20",
    (5, 3, 1, 1): "b9dfec8a118c5d1ebbeeac9572dfcddc459da5ccde34022d67b6664bd42ca10c",
}


@pytest.mark.parametrize("p,d,a,b", list(ORACLE_DIGESTS))
def test_oracle_counts_digest(p, d, a, b):
    table = oracle_table(ConicParams(make_field(p, d), a, b))
    digest = hashlib.sha256(table.counts.astype("<i8").tobytes()).hexdigest()
    assert digest == ORACLE_DIGESTS[(p, d, a, b)]
    # every ordered pair counted once: a wrong sign-flip orbit weight breaks this
    assert np.array_equal(table.counts.sum(axis=2), np.outer(table.sizes, table.sizes))


def test_oracle_memory_is_per_plane():
    # the (q, q, q) class table plus one class group's rows of keys at a time;
    # the block-wise enumeration peaked at 92.5 MiB at q = 49
    params = ConicParams(make_field(7, 2), 1, 1)
    for table in (params.spec.add_table, params.spec.mul_table, params.spec.chi_table):
        table()  # the cached field tables are not the oracle's own memory
    tracemalloc.start()
    try:
        oracle_table(params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


# ---------------------------------------------------------------------------
# closed form
# ---------------------------------------------------------------------------

def test_structure_constant_examples_gf13():
    f13 = make_prime_field(13)
    p = ConicParams(f13, 1, 1)
    iso = ClassIndex.isotropic(f13)
    one = _cls(f13, 1)
    zero = _cls(f13, 0)
    for j in index_set(p):
        for k in index_set(p):
            expected = Fraction(1) if j == k else Fraction(0)
            assert structure_constant(zero, j, k, p) == expected
    assert structure_constant(one, one, iso, p) == 0
    assert structure_constant(iso, iso, iso, p) == Fraction(11, 24)
    assert structure_constant(iso, iso, zero, p) == Fraction(1, 24)
    assert structure_constant(iso, one, zero, p) == 0
    assert structure_constant(iso, one, iso, p) == Fraction(1, 12)


def test_structure_constant_rejects_foreign_index():
    f13 = make_prime_field(13)
    f7 = make_prime_field(7)
    p = ConicParams(f13, 1, 1)
    with pytest.raises(IndexInvalid):
        structure_constant(_cls(f7, 1), _cls(f13, 1), _cls(f13, 1), p)


def test_build_table_shapes():
    f7 = make_prime_field(7)
    t = build_table(ConicParams(f7, 1, 1))
    assert t.size == 7
    assert sum(len(row) for plane in t.entries for row in plane) == 7**3
    f13 = make_prime_field(13)
    t13 = build_table(ConicParams(f13, 1, 1))
    assert t13.size == 14


@pytest.mark.parametrize("p,d", [(5, 1), (7, 1), (3, 2), (11, 1), (13, 1)])
def test_closed_form_equals_oracle(p, d):
    spec = make_field(p, d)
    params = ConicParams(spec, 1, 1)
    assert build_table(params, "closed-form") == oracle_table(params)


def test_closed_form_equals_oracle_nontrivial_weights():
    spec = make_prime_field(11)
    g = smallest_nonsquare(spec)
    params = ConicParams(spec, g, g)
    assert build_table(params, "closed-form") == oracle_table(params)


@pytest.mark.parametrize("p,d", [(7, 1), (13, 1)])
def test_table_independent_of_weights(p, d):
    spec = make_field(p, d)
    g = smallest_nonsquare(spec)
    s = smallest_square_above_one(spec)
    t1 = build_table(ConicParams(spec, 1, 1))
    t2 = build_table(ConicParams(spec, g, g))
    t3 = build_table(ConicParams(spec, 1, s))
    assert t1.entries == t2.entries == t3.entries


def test_constants_depend_only_on_discriminant_character():
    from conicwalk import f_discriminant, quadratic_character

    for p, d in [(7, 1), (13, 1)]:
        spec = make_field(p, d)
        params = ConicParams(spec, 1, 1)
        t = build_table(params)
        groups: dict[int, set] = {}
        for i in spec.elements()[1:]:
            for j in spec.elements()[1:]:
                for k in spec.elements()[1:]:
                    chi = quadratic_character(f_discriminant(i, j, k))
                    v = t.n(_cls(spec, i.idx), _cls(spec, j.idx), _cls(spec, k.idx))
                    groups.setdefault(chi, set()).add(v)
        den = spec.q + 1 if spec.q % 4 == 3 else spec.q - 1
        assert groups[-1] == {Fraction(0)}
        assert groups[0] == {Fraction(1, den)}
        assert groups[1] == {Fraction(2, den)}


@st.composite
def admissible_params(draw, qmax):
    """Any field with q <= qmax and any weights (a, b) with a*b a square."""
    _, p, d = draw(st.sampled_from(admissible_prime_powers(3, qmax)))
    spec = make_field(p, d)
    a = draw(st.integers(1, spec.q - 1))
    t = draw(st.integers(1, spec.q - 1))
    return ConicParams(spec, a, spec.mul_idx(a, spec.mul_idx(t, t)))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(admissible_params(qmax=31))
def test_closed_form_counts_equal_oracle_counts(params):
    assert np.array_equal(build_table(params).counts, oracle_table(params).counts)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(admissible_params(qmax=199), st.data())
def test_closed_row_counts_nonnegative_and_normalized(params, data):
    ci = data.draw(st.sampled_from(index_set(params)))
    cj = data.draw(st.sampled_from(index_set(params)))
    row = closed_row(params, [ci], cj)[0]
    assert row.min() >= 0
    assert row.sum() == class_size(cj, params)  # every point of cj carries it somewhere


# the walk depends on q alone: the closed form reads no weight, and a finite
# nonzero step s relabels the step-1 walk by i -> s*i.  Both tests compare
# against the unit weights, so a closed form that reads a fails them; the
# weights (g, g), g a nonsquare, also catch one that reads only chi(a)
def _weight_cases(spec):
    g = smallest_nonsquare(spec).idx
    return [(g, g), seeded_weights(spec, 1), seeded_weights(spec, 2)]


# prime and extension fields, on both branches, three above ORACLE_CAP = 125
@pytest.mark.parametrize("p,d", [(7, 1), (3, 2), (13, 1), (5, 2), (3, 3), (31, 1),
                                 (127, 1), (13, 2), (7, 3)])
def test_closed_row_reads_no_weight(p, d):
    spec = make_field(p, d)
    unit = ConicParams(spec, 1, 1)
    classes = index_set(unit)
    g = smallest_nonsquare(spec).idx
    steps = [classes[0], classes[1], classes[g], classes[-1], classes[spec.q // 2]]
    for a, b in _weight_cases(spec):
        weighted = ConicParams(spec, a, b)
        for step in steps:
            assert np.array_equal(closed_row(weighted, classes, step),
                                  closed_row(unit, classes, step)), (a, b, step)


@pytest.mark.parametrize("p,d", [(7, 1), (3, 2), (13, 1), (5, 2), (3, 3), (31, 1),
                                 (61, 1), (5, 3), (7, 3)])
def test_step_s_counts_are_the_step_1_counts_relabelled(p, d):
    spec = make_field(p, d)
    unit = ConicParams(spec, 1, 1)
    classes = index_set(unit)
    step_1 = closed_row(unit, classes, classes[1])
    weighted = ConicParams(spec, *_weight_cases(spec)[0])
    for s in range(1, spec.q):
        # class position i -> s*i on the finite classes; the isotropic class,
        # last when q = 1 (mod 4), stays put
        relabel = np.append(spec.mul(s, np.arange(spec.q)), np.arange(spec.q, len(classes)))
        step_s = closed_row(weighted, classes, classes[s])
        assert np.array_equal(step_s[np.ix_(relabel, relabel)], step_1), s


@pytest.mark.parametrize("p,d", [(7, 1), (3, 2), (13, 1), (5, 2), (3, 3), (31, 1), (7, 2)])
def test_closed_form_is_dilation_invariant(p, d):
    # (u, v) -> (lambda u, lambda v) scales Q by mu = lambda^2 and fixes the
    # origin and the null cone: C[mu i, mu j, mu k] = C[i, j, k] for every
    # square mu, the isotropic class (last when q = 1 (mod 4)) staying put.
    # The oracle gathers its planes by this identity; here the closed form,
    # which is not built on it, obeys it too
    spec = make_field(p, d)
    counts = build_table(ConicParams(spec, 1, 1)).counts
    for mu in [s for s in range(2, spec.q) if spec.chi_idx(s) == 1]:
        scaled = np.append(spec.mul(mu, np.arange(spec.q)), np.arange(spec.q, len(counts)))
        assert np.array_equal(counts[np.ix_(scaled, scaled, scaled)], counts), mu


# sha256 of the little-endian int64 counts of build_table(params,
# published_isotropic_row=True), recorded when closed_row still built one
# row per call
PUBLISHED_TABLE_SHA256 = {
    "GF7": "1b23f5dcc611dded5fdc0598bbb1f63f012dd444c114bcaff542daf26665702d",
    "GF9": "b4c44f57bf8695f51ac5706f65df4aeb207c496d09a13028ed291c269173b643",
    "GF13-a1-b4": "74192df7350cddf7851862b878dabe66108a5de8d4f00ecd413d8ca2446e1d9c",
    "GF25-seeded": "400e796496efc455ec24116664e921c6ef41c162400f3a069630cd2514c97cfc",
    "GF27-seeded": "9dc8d52c582195ff173b5b6abf34cd46b55e19504d47ef27af6b4eb0ace44d55",
}


@pytest.mark.parametrize("field", FIVE_FIELDS)
def test_one_call_step_matrix_equals_the_single_rows_and_the_table(field):
    # the per-point step matrix scaled by N_i is the table's plane, from the
    # closed form and from the enumeration oracle alike
    params = five_field_params(field)
    classes = index_set(params)
    sizes = class_sizes(params)[:, None]
    table, oracle = build_table(params), oracle_table(params)
    for t, s in enumerate(classes):  # every step class, zero and iso included
        matrix = closed_row(params, classes, s)
        single = np.stack([closed_row(params, [ci], s)[0] for ci in classes])
        assert np.array_equal(matrix, single), s
        assert np.array_equal(sizes * matrix, table.counts[:, t, :]), s
        assert np.array_equal(sizes * matrix, oracle.counts[:, t, :]), s
    published = build_table(params, published_isotropic_row=True).counts
    digest = hashlib.sha256(np.ascontiguousarray(published, dtype="<i8").tobytes())
    assert digest.hexdigest() == PUBLISHED_TABLE_SHA256[field]


def _integer_scaled(table):
    """Table entries as exact integers over the common denominator."""
    import math

    import numpy as np

    den = 1
    for plane in table.entries:
        for row in plane:
            for v in row:
                den = den * v.denominator // math.gcd(den, v.denominator)
    arr = np.empty((table.size,) * 3, dtype=np.int64)
    for i, plane in enumerate(table.entries):
        for j, row in enumerate(plane):
            for k, v in enumerate(row):
                scaled = v * den
                assert scaled.denominator == 1
                arr[i, j, k] = scaled.numerator
    return arr, den


def test_convolution_associativity_exhaustive():
    # sum_x n[i,j,x] n[x,k,l] == sum_x n[j,k,x] n[i,x,l] for every quadruple;
    # checked in scaled integers, so the comparison is exact
    import numpy as np

    for p, d in [(5, 1), (7, 1), (3, 2), (11, 1), (13, 1)]:
        spec = make_field(p, d)
        t = build_table(ConicParams(spec, 1, 1))
        arr, _ = _integer_scaled(t)
        lhs = np.einsum("ijx,xkl->ijkl", arr, arr)
        rhs = np.einsum("jkx,ixl->ijkl", arr, arr)
        assert np.array_equal(lhs, rhs)


def test_convolution_associativity_randomized_larger():
    import random

    rng = random.Random(20240811)
    for p, d in [(17, 1), (3, 3)]:
        spec = make_field(p, d)
        t = build_table(ConicParams(spec, 1, 1))
        m = t.size
        e = t.entries
        for _ in range(200):
            i, j, k, l = (rng.randrange(m) for _ in range(4))
            lhs = sum(e[i][j][x] * e[x][k][l] for x in range(m))
            rhs = sum(e[j][k][x] * e[i][x][l] for x in range(m))
            assert lhs == rhs


# ---------------------------------------------------------------------------
# axioms
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p,d", TEST_FIELDS)
def test_axioms_pass_on_closed_tables(p, d, closed_tables):
    q = p**d
    report = verify_axioms(closed_tables[q])
    assert report.all_pass, report.violations


def test_axioms_pass_on_oracle_gf13():
    f13 = make_prime_field(13)
    report = verify_axioms(oracle_table(ConicParams(f13, 1, 1)))
    assert report.all_pass


def test_unsplit_diagnostic_fails_hermitian_gf13():
    f13 = make_prime_field(13)
    t = oracle_table(ConicParams(f13, 1, 1), split=False)
    report = verify_axioms(t)
    assert not report.hermitian_support
    assert not report.all_pass
    assert report.positivity and report.normalization and report.commutativity


def test_published_isotropic_row_breaks_normalization():
    f13 = make_prime_field(13)
    params = ConicParams(f13, 1, 1)
    t = build_table(params, published_isotropic_row=True)
    iso = ClassIndex.isotropic(f13)
    row = t.row(iso, _cls(f13, 1))
    assert sum(row) == Fraction(13, 12)  # q/(q-1): the stated support cannot be right
    report = verify_axioms(t)
    assert not report.normalization
    assert not report.hermitian_support


def test_corrected_isotropic_row_matches_oracle():
    f13 = make_prime_field(13)
    params = ConicParams(f13, 1, 1)
    oracle = oracle_table(params)
    iso = ClassIndex.isotropic(f13)
    j = _cls(f13, 1)
    row = oracle.row(iso, j)
    expected = []
    for c in oracle.classes:
        if c == j or c.is_zero:
            expected.append(Fraction(0))
        else:
            expected.append(Fraction(1, 12))
    assert row == expected


# ---------------------------------------------------------------------------
# two-step support
# ---------------------------------------------------------------------------

def test_two_step_support_gf7(closed_tables):
    t = closed_tables[7]
    nonzero = [c for c in t.classes if not c.is_zero]
    step = ClassIndex.finite(t.params.spec.one)
    for i in nonzero:
        for j in nonzero:
            k = two_step_support(i, j, t)
            assert k is not None
            assert t.n(i, step, k) > 0 and t.n(k, step, j) > 0


def test_two_step_support_gf13_includes_isotropic(closed_tables):
    t = closed_tables[13]
    nonzero = [c for c in t.classes if not c.is_zero]
    assert any(c.is_isotropic for c in nonzero)
    for i in nonzero:
        for j in nonzero:
            assert two_step_support(i, j, t) is not None


def test_two_step_support_same_class():
    t = build_table(ConicParams(make_prime_field(7), 1, 1))
    for i in t.classes:
        if i.is_zero:
            continue
        k = two_step_support(i, i, t)
        assert k is not None


def test_two_step_support_counterexamples_small_split_fields():
    # for q = 1 (mod 4) below 13 the witness property genuinely fails:
    # from class 1 one unit step reaches {0, 2, 4} in GF(5), none of which
    # steps into class 2.  The two-step kernel power is zero there even
    # though the walk is still ergodic via longer paths.
    f5 = make_prime_field(5)
    t5 = build_table(ConicParams(f5, 1, 1))
    assert two_step_support(_cls(f5, 1), _cls(f5, 2), t5) is None
    from conicwalk import ergodicity_check, kernel

    k = kernel(t5, _cls(f5, 1))
    assert ergodicity_check(k).ergodic
    # K^2 = c^2 / N_s^2 for the integer step matrix c
    power2 = np.linalg.matrix_power(k.step_counts, 2)
    assert power2[t5.position(_cls(f5, 1)), t5.position(_cls(f5, 2))] == 0

    f9 = make_field(3, 2)
    t9 = build_table(ConicParams(f9, 1, 1))
    assert two_step_support(_cls(f9, 1), _cls(f9, 4), t9) is None
    assert ergodicity_check(kernel(t9, _cls(f9, 1))).ergodic


# ---------------------------------------------------------------------------
# serialization and errata
# ---------------------------------------------------------------------------

def test_table_csv_and_json():
    t = build_table(ConicParams(make_prime_field(5), 1, 1))
    rows = list(t.to_csv_rows())
    assert len(rows) == t.size**3
    assert rows[0][:3] == ("0", "0", "0")
    d = t.to_json_dict()
    assert d["classes"][-1] == "iso"
    assert d["sizes"] == [1, 4, 4, 4, 4, 8]


def _csv_text(rows):
    return "".join(",".join(map(str, row)) + "\n" for row in rows)


@pytest.mark.parametrize("p,d,a", [(5, 1, 1), (7, 1, 1), (5, 2, 2), (3, 3, 2),
                                   pytest.param(13, 1, (1, 4), id="13-1-a1-b4"),
                                   pytest.param(31, 1, "seeded", id="31-1-seeded")])
def test_csv_blocks_join_to_the_csv_rows(p, d, a):
    # a: the weight a = b, the weights (a, b), or seeded weights
    spec = make_field(p, d)
    weights = seeded_weights(spec, 1) if a == "seeded" else a if isinstance(a, tuple) else (a, a)
    t = build_table(ConicParams(spec, *weights))
    labels = [c.label() for c in t.classes]
    assert ("iso" in labels) is (spec.q % 4 == 1)  # the isotropic class
    blocks = list(t.csv_blocks())
    assert len(blocks) == t.size
    assert "".join(blocks) == _csv_text(t.to_csv_rows())


@st.composite
def _unchecked_tables(draw):
    """Tables off the hypergroup, with class sizes up to 2(1021 - 1), the
    isotropic size at q = 1021, and each count in [0, N_i N_j]."""
    params = ConicParams(make_prime_field(draw(st.sampled_from([3, 5]))), 1, 1)
    classes = index_set(params)
    sizes = draw(st.lists(st.integers(1, 2040), min_size=len(classes), max_size=len(classes)))
    counts = [[[draw(st.integers(0, ni * nj)) for _ in classes] for nj in sizes] for ni in sizes]
    return StructureTable(params, classes, sizes, np.array(counts), "test", validate=False)


# one count at the largest value 1 next to a count 0 over a denominator one
# larger: packed with a span one short, the two entries would share a key
_F3 = ConicParams(make_prime_field(3), 1, 1)


@example(StructureTable(_F3, index_set(_F3), [1, 2, 1],
                        np.array([[[1, 0, 0]] + [[0, 0, 0]] * 2] + [[[0, 0, 0]] * 3] * 2),
                        "test", validate=False))
@given(_unchecked_tables())
@settings(max_examples=60, deadline=None)
def test_csv_blocks_and_json_rows_are_the_reduced_entries(t):
    assert "".join(t.csv_blocks()) == _csv_text(t.to_csv_rows())
    nums, dens = t._reduced()
    assert t.to_json_dict()["rows"] == [
        [[f"{a}/{b}" for a, b in zip(nr, dr)] for nr, dr in zip(nplane, dplane)]
        for nplane, dplane in zip(nums, dens)
    ]


@st.composite
def _counts_over_denominators(draw):
    """Counts of one to three dimensions over a denominator broadcast to them:
    one scalar, one per row (the last index broadcast), or one per entry,
    most of them distinct; all-zero counts at top 0 (span 1)."""
    shape = tuple(draw(st.lists(st.integers(1, 6), min_size=1, max_size=3)))
    size = int(np.prod(shape))
    top = draw(st.sampled_from([0, 1, 9, 5000]))
    counts = np.array(draw(st.lists(st.integers(0, top), min_size=size, max_size=size)),
                      dtype=np.int64).reshape(shape)
    den_shape = draw(st.sampled_from([(), shape[:-1] + (1,), shape]))
    if den_shape == ():
        return counts, draw(st.integers(1, 5000))
    n = int(np.prod(den_shape))
    dens = draw(st.lists(st.integers(1, 5000), min_size=n, max_size=n))
    return counts, np.array(dens, dtype=np.int64).reshape(den_shape)


@example((np.zeros((2, 3, 4), dtype=np.int64), 6), False)
@example((np.zeros((2, 3, 4), dtype=np.int64), np.full((2, 3, 1), 7)), True)
@given(_counts_over_denominators(), st.booleans())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_fraction_texts_are_the_entrywise_fractions(counts_dens, labelled):
    counts, dens = counts_dens
    labels = [f"c{k}" for k in range(counts.shape[-1])] if labelled else None
    sep = "," if labelled else "/"
    texts = _fraction_texts(counts, dens, sep, labels)
    assert texts.shape == counts.shape
    full = np.broadcast_to(dens, counts.shape)
    expected = []
    for idx, c in np.ndenumerate(counts):
        v = Fraction(int(c), int(full[idx]))
        prefix = f"{labels[idx[-1]]}," if labelled else ""
        expected.append(f"{prefix}{v.numerator}{sep}{v.denominator}")
    assert texts.ravel().tolist() == expected


def test_errata_entries_shape():
    entries = errata_entries()
    assert len(entries) == 4
    for e in entries:
        assert set(e) == {"location", "published_value", "oracle_value"}
    locations = {e["location"] for e in entries}
    assert "isotropic_times_finite_row_support" in locations


@pytest.mark.parametrize("p,d", [(13, 1), (5, 2)])
def test_published_six_step_reference_is_not_a_distribution(p, d):
    params = ConicParams(make_field(p, d), 1, 1)
    q = params.q
    published = published_six_step_reference(params)
    # the total mass that errata_entries() states for the published vector
    assert sum(published) == Fraction(q * q + 2 * q - 1, q * q)
    assert published != haar(params).exact
