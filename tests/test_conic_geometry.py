import tracemalloc

import numpy as np
import pytest

from conicwalk import (
    CapExceeded,
    ClassIndex,
    ConicParams,
    FieldMismatch,
    IndexInvalid,
    Point,
    ZeroQuadranceArg,
    circle_points,
    class_size,
    classify,
    f_discriminant,
    index_set,
    intersection_count,
    intersection_points,
    make_field,
    make_prime_field,
    quadrance,
    verify_intersection_trichotomy,
)
from conicwalk import conic_geometry
from conicwalk.cli import admissible_prime_powers
from conicwalk.errata import published_f_discriminant

from conftest import TEST_FIELDS, seeded_weights, smallest_nonsquare, smallest_square_above_one


def _pt(spec, x, y):
    return Point(spec.element(x), spec.element(y))


def test_conic_params_validation():
    f7 = make_prime_field(7)
    ConicParams(f7, 1, 2)  # 2 = 3^2 is a square mod 7
    with pytest.raises(ValueError):
        ConicParams(f7, 1, 3)  # 3 is not a square mod 7
    with pytest.raises(ValueError):
        ConicParams(f7, 0, 1)


def test_quadrance_examples():
    f7 = make_prime_field(7)
    p11 = ConicParams(f7, 1, 1)
    origin = _pt(f7, 0, 0)
    assert quadrance(origin, origin, p11).idx == 0
    for x in range(7):
        for y in range(7):
            a = _pt(f7, x, y)
            assert quadrance(a, a, p11).idx == 0
    assert quadrance(origin, _pt(f7, 1, 2), p11).idx == 5  # 1 + 4
    p12 = ConicParams(f7, 1, 2)
    assert quadrance(origin, _pt(f7, 0, 1), p12).idx == 2


def test_quadrance_symmetry_and_mismatch():
    f7 = make_prime_field(7)
    p = ConicParams(f7, 1, 1)
    a, b = _pt(f7, 1, 2), _pt(f7, 4, 6)
    assert quadrance(a, b, p) == quadrance(b, a, p)
    f11 = make_prime_field(11)
    with pytest.raises(FieldMismatch):
        quadrance(a, _pt(f11, 1, 2), p)


def test_classify_origin_and_isotropic():
    f13 = make_prime_field(13)
    p = ConicParams(f13, 1, 1)
    assert classify(_pt(f13, 0, 0), p) == ClassIndex.finite(f13.element(0))
    # 4 + 9 = 13 = 0 and the point is not the origin
    assert classify(_pt(f13, 2, 3), p).is_isotropic
    f7 = make_prime_field(7)
    p7 = ConicParams(f7, 1, 1)
    for x in range(7):
        for y in range(7):
            c = classify(_pt(f7, x, y), p7)
            if (x, y) == (0, 0):
                assert c.is_zero
            else:
                assert not c.is_zero and not c.is_isotropic


def test_isotropic_class_only_when_q_is_1_mod_4():
    with pytest.raises(IndexInvalid):
        ClassIndex.isotropic(make_prime_field(7))
    iso = ClassIndex.isotropic(make_prime_field(13))
    assert iso.is_isotropic and iso.label() == "iso"


def test_index_set_shape():
    f7 = make_prime_field(7)
    assert len(index_set(ConicParams(f7, 1, 1))) == 7
    f13 = make_prime_field(13)
    classes = index_set(ConicParams(f13, 1, 1))
    assert len(classes) == 14 and classes[-1].is_isotropic


def test_circle_point_examples():
    f7 = make_prime_field(7)
    p7 = ConicParams(f7, 1, 1)
    assert len(circle_points(ClassIndex.finite(f7.element(1)), p7)) == 8
    assert circle_points(ClassIndex.finite(f7.element(0)), p7) == [_pt(f7, 0, 0)]
    f13 = make_prime_field(13)
    p13 = ConicParams(f13, 1, 1)
    assert len(circle_points(ClassIndex.isotropic(f13), p13)) == 24


def test_circle_points_cap():
    f7 = make_prime_field(7)
    with pytest.raises(CapExceeded):
        circle_points(ClassIndex.finite(f7.element(1)), ConicParams(f7, 1, 1), cap=5)


@pytest.mark.parametrize("p,d", TEST_FIELDS)
def test_class_sizes_match_enumeration_and_partition(p, d):
    spec = make_field(p, d)
    params = ConicParams(spec, 1, 1)
    total = 0
    for c in index_set(params):
        pts = circle_points(c, params)
        assert len(pts) == class_size(c, params)
        total += len(pts)
    assert total == spec.q ** 2


def test_class_size_examples():
    f7 = make_prime_field(7)
    assert class_size(ClassIndex.finite(f7.element(1)), ConicParams(f7, 1, 1)) == 8
    f13 = make_prime_field(13)
    p13 = ConicParams(f13, 1, 1)
    assert class_size(ClassIndex.finite(f13.element(1)), p13) == 12
    assert class_size(ClassIndex.isotropic(f13), p13) == 24


@pytest.mark.parametrize("p,d", TEST_FIELDS)
def test_class_size_independent_of_weights(p, d):
    spec = make_field(p, d)
    g = smallest_nonsquare(spec)
    s = smallest_square_above_one(spec)
    triples = [ConicParams(spec, 1, 1), ConicParams(spec, g, g), ConicParams(spec, 1, s)]
    for c_val in [spec.one, g, s]:
        c = ClassIndex.finite(c_val)
        sizes = {class_size(c, params) for params in triples}
        assert len(sizes) == 1
        enums = {len(circle_points(c, params)) for params in triples}
        assert enums == sizes


def test_f_discriminant_examples():
    f7 = make_prime_field(7)
    e = f7.element
    for i in range(1, 7):
        assert f_discriminant(e(i), e(i), e(4 * i % 7)).idx == 0
    assert f_discriminant(e(1), e(1), e(0)).idx == 0
    assert f_discriminant(e(1), e(1), e(1)).idx == 6  # 1 - 1/4 = -1; a non-square
    assert f7.chi_idx(6) == -1


def test_f_discriminant_symmetric_under_all_permutations():
    import itertools

    f7 = make_prime_field(7)
    els = f7.elements()
    for i in els:
        for j in els:
            for k in els:
                base = f_discriminant(i, j, k)
                for perm in itertools.permutations((i, j, k)):
                    assert f_discriminant(*perm) == base


def test_published_f_differs_from_symmetric_form():
    f7 = make_prime_field(7)
    e = f7.element
    diffs = [
        (i, j, k)
        for i in range(7)
        for j in range(7)
        for k in range(7)
        if published_f_discriminant(e(i), e(j), e(k)) != f_discriminant(e(i), e(j), e(k))
    ]
    assert diffs  # the stated form is genuinely different


@pytest.mark.parametrize("p,d", [(7, 1), (3, 2)])
def test_published_f_is_the_stated_form(p, d):
    spec = make_field(p, d)
    els = spec.elements()
    four = spec.one + spec.one + spec.one + spec.one
    for i in els:
        for j in els:
            for k in els:
                s = i - j - k
                assert published_f_discriminant(i, j, k) == i * j - s * s / four


def test_intersection_count_examples():
    f7 = make_prime_field(7)
    p7 = ConicParams(f7, 1, 1)
    e = f7.element
    assert intersection_count(e(1), e(1), e(4), p7) == 1
    assert intersection_count(e(1), e(1), e(1), p7) == 0
    with pytest.raises(ZeroQuadranceArg):
        intersection_count(e(0), e(1), e(1), p7)
    with pytest.raises(ZeroQuadranceArg):
        intersection_count(e(1), e(1), e(0), p7)


def test_intersection_count_permutation_invariant():
    import itertools

    f11 = make_prime_field(11)
    p = ConicParams(f11, 1, 1)
    e = f11.element
    for i in range(1, 11):
        for j in range(1, 11):
            for k in range(1, 11):
                base = intersection_count(e(i), e(j), e(k), p)
                for pi, pj, pk in itertools.permutations((i, j, k)):
                    assert intersection_count(e(pi), e(pj), e(pk), p) == base


def test_intersection_count_matches_brute_force_gf7():
    f7 = make_prime_field(7)
    p7 = ConicParams(f7, 1, 1)
    els = f7.elements()
    centers = [_pt(f7, 0, 0), _pt(f7, 2, 5), _pt(f7, 6, 1)]
    for x in centers:
        for y in centers:
            k = quadrance(x, y, p7)
            if k.idx == 0:
                continue
            for i in els[1:]:
                for j in els[1:]:
                    assert len(intersection_points(i, j, x, y, p7)) == \
                        intersection_count(i, j, k, p7)


@pytest.mark.parametrize("p,d,ab", [(7, 1, (1, 1)), (3, 2, (1, 1)), (13, 1, (1, 1)),
                                    (7, 1, (3, 3)), (11, 1, (1, 4))])
def test_intersection_trichotomy_exhaustive_small(p, d, ab):
    spec = make_field(p, d)
    result = verify_intersection_trichotomy(ConicParams(spec, *ab))
    assert result["ok"], result["mismatches"][:5]
    assert result["pairs_checked"] > 0


# unordered centre pairs X != Y with Q(X, Y) != 0, at a = b = 1, as counted
# by the pair-by-pair check that preceded the translation-class one
TRICHOTOMY_PAIRS = {(5, 2): 180000, (3, 3): 265356, (29, 1): 329672, (31, 1): 461280}


@pytest.mark.parametrize("p,d", list(TRICHOTOMY_PAIRS))
def test_intersection_trichotomy_pairs_checked(p, d):
    result = verify_intersection_trichotomy(ConicParams(make_field(p, d), 1, 1))
    assert result["ok"], result["mismatches"][:5]
    assert result["pairs_checked"] == TRICHOTOMY_PAIRS[(p, d)]


@pytest.mark.parametrize("seed", [1, 7])
@pytest.mark.parametrize("p,d", [(5, 2), (3, 3)])
def test_intersection_trichotomy_exhaustive_at_seeded_weights(p, d, seed):
    spec = make_field(p, d)
    params = ConicParams(spec, *seeded_weights(spec, seed))
    result = verify_intersection_trichotomy(params)
    assert result["ok"], result["mismatches"][:5]
    # the isotropic points, hence the pairs at quadrance 0, do not depend on the weights
    assert result["pairs_checked"] == TRICHOTOMY_PAIRS[(p, d)]


@pytest.mark.parametrize("p,d,seed", [(7, 1, None), (3, 2, 5), (5, 2, 1), (3, 3, 1)])
def test_quadrance_value_grid_matches_scalar_quadrance(p, d, seed):
    # the exhaustive trichotomy check reads row 0 and rows of kept D
    spec = make_field(p, d)
    params = ConicParams(spec, *((1, 1) if seed is None else seeded_weights(spec, seed)))
    q = spec.q
    points = [_pt(spec, *divmod(u, q)) for u in range(q ** 2)]
    rows = [0, *range(q, 2 * q)]  # the origin and the block of the points (1, .)
    grid = conic_geometry.quadrance_value_grid(params, np.array(rows))
    assert grid.tolist() == [[quadrance(points[u], w, params).idx for w in points]
                             for u in rows]


@pytest.mark.parametrize("rows", [[40, 3, 77, 3, 0, 80, 3], [80], [5, 5]])
def test_quadrance_value_grid_rows_are_rows_of_the_grid(rows):
    spec = make_field(3, 2)
    params = ConicParams(spec, *seeded_weights(spec, 3))
    grid = conic_geometry.quadrance_value_grid(params, np.arange(81))
    got = conic_geometry.quadrance_value_grid(params, np.array(rows))
    assert got.shape == (len(rows), 81)
    assert np.array_equal(got, grid[rows])


def test_exhaustive_trichotomy_memory():
    # the prediction table and, block by block, the rows of the kept D and
    # their histograms at q = 31: 1.5 MiB; any q^4-sized array, such as the
    # (q^2, q^2) int64 quadrance grid the check once held (7.0 MiB), breaks it
    params = ConicParams(make_prime_field(31), 1, 1)
    for table in (params.spec.add_table, params.spec.mul_table, params.spec.chi_table):
        table()  # the cached field tables are not the check's own memory
    tracemalloc.start()
    try:
        result = verify_intersection_trichotomy(params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result["ok"] and result["pairs_checked"] == TRICHOTOMY_PAIRS[(31, 1)]
    assert peak < 2 * 2**20


@pytest.mark.parametrize("p,d", [(7, 1), (3, 2)])
def test_intersection_trichotomy_catches_a_wrong_grid_row(p, d, monkeypatch):
    params = ConicParams(make_field(p, d), 1, 1)
    q = params.q
    origin = conic_geometry.origin_quadrance_values(params)
    # the row of the kept D = (1, 2) is wrong at the point z = (2, 1)
    D, z = q + 2, 2 * q + 1
    assert origin[D] and origin[z]
    real = conic_geometry.quadrance_value_grid

    def mutated(params, rows):
        grid = real(params, rows)
        grid[np.asarray(rows) == D, z] += 1
        grid %= q
        return grid

    monkeypatch.setattr(conic_geometry, "quadrance_value_grid", mutated)
    result = verify_intersection_trichotomy(params)
    assert not result["ok"]
    assert (0, D) in {(x, y) for x, y, *_ in result["mismatches"]}


def _single_pass_comparison(params, pred):
    """(pairs_checked, mismatches) of the histogram comparison over every kept
    D at once, as the exhaustive check made it before it went by blocks."""
    q = params.q
    n = q * q
    grid = conic_geometry.quadrance_value_grid(params, np.arange(n))
    neg = params.spec.mul_table()[params.spec.p - 1]
    half = np.flatnonzero(np.arange(n) < (neg[:, None] * q + neg).ravel())
    keys = grid[half] + np.arange(len(half))[:, None] * n + grid[0] * q
    counts = np.bincount(keys.ravel(), minlength=len(half) * n).reshape(len(half), q, q)
    k = grid[0, half]
    valid = k != 0
    measured = counts[valid][:, 1:, 1:]
    expected = pred[1:, 1:, k[valid]].transpose(2, 0, 1)
    mismatches = [(0, int(half[valid][r]), int(i + 1), int(j + 1),
                   int(measured[r, i, j]), int(expected[r, i, j]))
                  for r, i, j in np.argwhere(measured != expected)[:20]]
    return n * int(valid.sum()), mismatches


@pytest.mark.parametrize("p,d,seed", [(13, 1, 3), (5, 2, 1)])
def test_blocked_trichotomy_reports_the_single_pass_mismatches(p, d, seed, monkeypatch):
    spec = make_field(p, d)
    params = ConicParams(spec, *seeded_weights(spec, seed))
    flipped = conic_geometry.predicted_intersection_table(params)
    # one wrong count, (1, 2), for each kept D at the separations 1..4:
    # about 2q mismatches, spread over the blocks of q grid rows
    flipped[1, 2, 1:5] = (flipped[1, 2, 1:5] + 1) % 3
    monkeypatch.setattr(conic_geometry, "predicted_intersection_table", lambda _: flipped)
    result = verify_intersection_trichotomy(params)
    pairs, mismatches = _single_pass_comparison(params, flipped)
    assert result["pairs_checked"] == pairs == TRICHOTOMY_PAIRS.get((p, d), pairs)
    assert result["mismatches"] == mismatches and len(mismatches) == 20
    # the first 20 span more than one block of q grid rows
    assert len({y // spec.q for _, y, *_ in mismatches}) > 1


def _brute_histograms(params):
    """The points by id, and the (q, q) histogram H_D of each point D by id:
    H_D[i, j] counts the points Z with Q(0, Z) = i and Q(D, Z) = j, by the
    scalar quadrance."""
    q = params.q
    points = [_pt(params.spec, *divmod(u, q)) for u in range(q * q)]
    from_origin = [quadrance(points[0], z, params).idx for z in points]
    histograms = []
    for centre in points:
        h = np.zeros((q, q), dtype=np.int64)
        for i, z in zip(from_origin, points):
            h[i, quadrance(centre, z, params).idx] += 1
        histograms.append(h)
    return points, histograms


@pytest.mark.parametrize("p,d,seed", [(7, 1, None), (3, 2, 5)])
def test_minus_d_histogram_is_the_transposed_d_histogram(p, d, seed):
    # why the exhaustive check compares one D of each pair {D, -D}
    spec = make_field(p, d)
    params = ConicParams(spec, *((1, 1) if seed is None else seeded_weights(spec, seed)))
    q = spec.q
    points, histograms = _brute_histograms(params)
    for u in points[1:]:
        minus_u = spec.neg_idx(u.x.idx) * q + spec.neg_idx(u.y.idx)
        assert np.array_equal(histograms[minus_u], histograms[u.x.idx * q + u.y.idx].T)


@pytest.mark.parametrize("p,d,seed", [(7, 1, None), (3, 2, 5)])
def test_dilated_d_histogram_is_the_rescaled_d_histogram(p, d, seed):
    # why the exhaustive check's certificate reads only the representatives
    # (0, 1) and (1, y): H_lD[l^2 i, l^2 j] = H_D[i, j] for every l != 0, and
    # the representatives times the q - 1 dilations are every nonzero point once
    spec = make_field(p, d)
    params = ConicParams(spec, *((1, 1) if seed is None else seeded_weights(spec, seed)))
    q = spec.q
    points, histograms = _brute_histograms(params)
    representatives = [1, *range(q, 2 * q)]
    assert [divmod(u, q) for u in representatives] == [(0, 1), *((1, y) for y in range(q))]
    covered = []
    for lam in spec.elements()[1:]:
        scaled = [(lam * lam * e).idx for e in spec.elements()]  # mu i at i, mu = l^2

        def dilated(u):
            return (lam * points[u].x).idx * q + (lam * points[u].y).idx

        for u in range(1, q * q):
            assert np.array_equal(histograms[dilated(u)][np.ix_(scaled, scaled)],
                                  histograms[u]), (lam, u)
        covered += [dilated(u) for u in representatives]
    assert sorted(covered) == list(range(1, q * q))


@pytest.mark.parametrize("q,p,d", admissible_prime_powers(3, 31))
def test_dilation_certificate_decides_alone(q, p, d, monkeypatch):
    # on a correct grid and prediction, the exhaustive check reads the origin
    # and the q + 1 representatives in one grid call, never the kept D
    spec = make_field(p, d)
    real = conic_geometry.quadrance_value_grid
    calls = []

    def counted(params, rows):
        calls.append(len(rows))
        return real(params, rows)

    monkeypatch.setattr(conic_geometry, "quadrance_value_grid", counted)
    for weights in [(1, 1), seeded_weights(spec, 1), seeded_weights(spec, 2)]:
        calls.clear()
        result = verify_intersection_trichotomy(ConicParams(spec, *weights))
        assert result["ok"] and calls == [q + 2], weights
        assert result["pairs_checked"] == TRICHOTOMY_PAIRS.get((p, d), result["pairs_checked"])


# the transposed entry (2, 1, 3) is read only from the transposed cell of
# the histograms, as the check compares one D of each pair {D, -D}
@pytest.mark.parametrize("p,d,entry", [
    pytest.param(7, 1, (1, 2, 3), id="7-1"), pytest.param(3, 2, (1, 2, 3), id="3-2"),
    pytest.param(7, 1, (2, 1, 3), id="7-1-transposed"),
    pytest.param(3, 2, (2, 1, 3), id="3-2-transposed")])
def test_intersection_trichotomy_catches_a_flipped_prediction(p, d, entry, monkeypatch):
    params = ConicParams(make_field(p, d), 1, 1)
    real = conic_geometry.predicted_intersection_table(params)
    flipped = real.copy()
    flipped[entry] = (flipped[entry] + 1) % 3
    monkeypatch.setattr(conic_geometry, "predicted_intersection_table", lambda _: flipped)
    result = verify_intersection_trichotomy(params)
    assert not result["ok"] and result["mismatches"]
    spec, q = params.spec, params.q
    for x, y, i, j, measured, predicted in result["mismatches"]:
        centres = [_pt(spec, *divmod(u, q)) for u in (x, y)]
        k = quadrance(*centres, params).idx
        assert (i, j, k) == entry and predicted == flipped[i, j, k]
        # the named centre pair is real: brute force agrees with the
        # measured count and not with the flipped prediction
        found = intersection_points(spec.element(i), spec.element(j), *centres, params)
        assert len(found) == measured == real[i, j, k] != predicted


def test_sampled_trichotomy_catches_a_flipped_prediction(monkeypatch):
    params = ConicParams(make_prime_field(37), 1, 1)
    real = conic_geometry.predicted_intersection_table

    def flipped(params, ks=None):
        pred = real(params, ks)
        pred[1, 2] = (pred[1, 2] + 1) % 3
        return pred

    monkeypatch.setattr(conic_geometry, "predicted_intersection_table", flipped)
    result = verify_intersection_trichotomy(params)
    assert not result["ok"]
    assert {(i, j) for _, _, i, j, _, _ in result["mismatches"]} == {(1, 2)}


def test_sampled_trichotomy_builds_each_prediction_slice_once(monkeypatch):
    params = ConicParams(make_prime_field(37), 1, 1)
    real = conic_geometry.predicted_intersection_table
    built = []

    def counted(params, ks=None):
        built.append(tuple(ks.tolist()))
        return real(params, ks)

    monkeypatch.setattr(conic_geometry, "predicted_intersection_table", counted)
    result = verify_intersection_trichotomy(params)
    assert result["ok"] and result["pairs_checked"] == 192
    # the 200 sampled pairs share at most q separations, 0 included
    assert len(built) == len(set(built)) <= params.q


def test_intersection_trichotomy_sampled_large():
    spec = make_prime_field(37)
    result = verify_intersection_trichotomy(ConicParams(spec, 1, 1))
    assert result["ok"]


def test_sampled_trichotomy_builds_only_the_sampled_rows():
    # the whole (q^2, q^2) grid at q = 41 would take over 100 MiB, and the
    # whole (q, q, q) prediction table at q = 127 about 49 MiB
    peaks = {}
    for q, pairs in ((37, 192), (41, 190), (127, 200)):
        params = ConicParams(make_prime_field(q), 1, 1)
        for table in (params.spec.add_table, params.spec.mul_table, params.spec.chi_table):
            table()  # the cached field tables are not the check's own memory
        tracemalloc.start()
        try:
            result = verify_intersection_trichotomy(params)
            peaks[q] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result["ok"] and result["pairs_checked"] == pairs
    assert peaks[41] < 32 * 2**20
    assert peaks[127] < 8 * 2**20


def test_point_serialization():
    f7 = make_prime_field(7)
    assert _pt(f7, 1, 2).to_json() == [1, 2]
    p = ConicParams(f7, 1, 2)
    assert p.to_json() == {"field": {"p": 7, "d": 1, "modulus": [0, 1]},
                           "a": 1, "b": 2}


def _four_gather_character(spec, i, j, k):
    """The discriminant character as it was first vectorised: f = ij - s^2/4
    at s = i + j - k, every product and sum a gather from the (q, q) tables."""
    add, mul = spec.add_table(), spec.mul_table()
    neg = mul[spec.p - 1]  # multiplication by -1, whose index is p - 1
    s = add[add[i, j], neg[k]]
    f = add[mul[i, j], neg[mul[mul[s, s], pow(4, -1, spec.p)]]]
    return spec.chi_table()[f].astype(np.int64)


@pytest.mark.parametrize("p,d", [(p, d) for q, p, d in admissible_prime_powers(3, 1024)
                                 if d > 1 or q >= 461])
def test_discriminant_character_equals_the_four_gather_formula(p, d):
    # the exp/log products and the (q,) table of -t^2/4 against the (q, q)
    # add and mul tables, on a sampled (i, j, k) grid that includes 0
    spec = make_field(p, d)
    rng = np.random.default_rng(spec.q)
    i, j, k = (np.concatenate([[0], rng.integers(0, spec.q, size=n)]) for n in (24, 24, 48))
    grid = i[:, None, None], j[None, :, None], k[None, None, :]
    got = conic_geometry.discriminant_character(spec, *grid)
    assert got.dtype == np.int64
    assert np.array_equal(got, _four_gather_character(spec, *grid))
