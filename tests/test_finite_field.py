import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conicwalk import (
    CapExceeded,
    FieldMismatch,
    NotOddPrime,
    make_extension_field,
    make_field,
    make_prime_field,
    quadratic_character,
    sqrt,
)

SMALL_FIELDS = [(3, 1), (5, 1), (7, 1), (11, 1), (3, 2), (5, 2), (3, 3), (7, 2), (5, 3), (11, 2)]


def test_make_prime_field():
    spec = make_prime_field(7)
    assert (spec.p, spec.d, spec.q) == (7, 1, 7)


@pytest.mark.parametrize("bad", [2, 1, 9, 15, 0, -7])
def test_make_prime_field_rejects_non_odd_primes(bad):
    with pytest.raises(NotOddPrime):
        make_prime_field(bad)


def _has_root(coeffs, p):
    return any(sum(c * x**k for k, c in enumerate(coeffs)) % p == 0 for x in range(p))


def test_extension_modulus_is_smallest_irreducible_quadratic():
    spec = make_extension_field(3, 2)
    assert spec.q == 9
    assert spec.modulus[-1] == 1 and len(spec.modulus) == 3
    assert not _has_root(spec.modulus, 3)
    # every monic quadratic below it in canonical order has a root
    c0, c1 = spec.modulus[0], spec.modulus[1]
    chosen = c1 * 3 + c0
    for n in range(chosen):
        cand = [n % 3, n // 3, 1]
        assert _has_root(cand, 3)


def test_extension_modulus_gf25():
    spec = make_extension_field(5, 2)
    assert spec.q == 25
    assert not _has_root(spec.modulus, 5)
    assert spec.modulus == (2, 0, 1)  # x^2 + 2, no root of x^2 = 3 mod 5


def test_extension_rejects_degree_one():
    with pytest.raises(ValueError):
        make_extension_field(3, 1)


def test_extension_cap():
    with pytest.raises(CapExceeded):
        make_extension_field(3, 7)  # 2187 > 1024


def test_extension_modulus_override():
    spec = make_extension_field(3, 2, modulus=[2, 2, 1])  # x^2 + 2x + 2
    assert spec.modulus == (2, 2, 1)
    els = spec.elements()
    assert all((x ** 8).idx == 1 for x in els if x.idx)
    with pytest.raises(ValueError):
        make_extension_field(3, 2, modulus=[2, 0, 1])  # x^2 + 2 has root 1


def test_gf7_arithmetic_examples():
    spec = make_prime_field(7)
    e = spec.element
    assert (e(3) * e(5)).idx == 1  # 15 mod 7
    assert e(4).inverse().idx == 2  # 4*2 = 8 = 1
    assert e(1).inverse() == e(1)
    assert (e(3) + e(5)).idx == 1
    assert (-e(3)).idx == 4
    assert (e(3) ** 6).idx == 1


def test_inverse_of_zero_raises():
    spec = make_prime_field(7)
    with pytest.raises(ZeroDivisionError):
        spec.zero.inverse()


def test_field_mismatch_rejected():
    a = make_prime_field(7).element(3)
    for other in (make_prime_field(11), make_extension_field(7, 2)):
        for op in ("__add__", "__sub__", "__mul__", "__truediv__", "__lt__", "__le__"):
            with pytest.raises(FieldMismatch):
                getattr(a, op)(other.element(3))


def test_equal_fields_built_twice_mix():
    # the spec identity test is a shortcut; equal specs still mix
    a, b = make_field(7, 2).element(10), make_field(7, 2).element(12)
    assert a.spec is not b.spec
    assert a + b == b + a and (a * b) / b == a and a < b and a <= a


@pytest.mark.parametrize("p,d", SMALL_FIELDS)
def test_multiplicative_order_divides_q_minus_one(p, d):
    spec = make_field(p, d)
    for x in spec.elements():
        if x.idx:
            assert (x ** (spec.q - 1)).idx == 1


@pytest.mark.parametrize("p,d", SMALL_FIELDS)
def test_field_axioms_exhaustive(p, d):
    spec = make_field(p, d)
    if spec.q > 27:
        pytest.skip("cubic loop kept to q <= 27")
    els = spec.elements()
    for x in els:
        for y in els:
            assert x + y == y + x
            assert x * y == y * x
            for z in els:
                assert (x + y) + z == x + (y + z)
                assert (x * y) * z == x * (y * z)
                assert x * (y + z) == x * y + x * z


# fields whose exhaustive loop is skipped, up to the largest the tables serve
LARGE_FIELDS = [(31, 1), (127, 1), (1021, 1), (3, 5), (5, 4), (3, 6), (31, 2)]


@pytest.fixture(scope="module", params=LARGE_FIELDS, ids=lambda pd: f"{pd[0]}^{pd[1]}")
def large_field(request):
    return make_field(*request.param)  # one table build per field, not per example


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_field_axioms_on_random_triples(large_field, data):
    spec = large_field
    x, y, z = (spec.element(data.draw(st.integers(0, spec.q - 1))) for _ in range(3))
    assert x + y == y + x
    assert x * y == y * x
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + (-x) == spec.zero
    if x:
        assert x * x.inverse() == spec.one


@pytest.mark.parametrize("p", [3, 7, 31, 127])
def test_prime_field_tables_are_residue_arithmetic(p):
    spec = make_prime_field(p)
    r = np.arange(p)
    assert np.array_equal(spec.add_table(), np.add.outer(r, r) % p)
    assert np.array_equal(spec.mul_table(), np.multiply.outer(r, r) % p)


def _poly_mul_reference(u, v, modulus, p):
    """Schoolbook product of coefficient lists, reduced by the monic modulus."""
    d = len(modulus) - 1
    prod = [0] * (2 * d - 1)
    for s, us in enumerate(u):
        for t, vt in enumerate(v):
            prod[s + t] += us * vt
    for deg in range(2 * d - 2, d - 1, -1):
        for i in range(d):
            prod[deg - d + i] -= prod[deg] * modulus[i]
    return tuple(c % p for c in prod[:d])


@pytest.mark.parametrize("p,d", [(3, 2), (5, 2), (3, 3), (7, 2), (3, 4)])
def test_extension_mul_table_matches_polynomial_product(p, d):
    spec = make_field(p, d)
    mul = spec.mul_table()
    for i in range(spec.q):
        for j in range(spec.q):
            want = _poly_mul_reference(spec.coeffs_of(i), spec.coeffs_of(j), spec.modulus, p)
            assert spec.coeffs_of(int(mul[i, j])) == want


@pytest.mark.parametrize("p,d,bad", [(7, 1, 7), (7, 1, -1), (3, 2, 9)])
def test_element_index_out_of_range_raises(p, d, bad):
    with pytest.raises(ValueError):
        make_field(p, d).element(bad)


@pytest.mark.parametrize("p,d", SMALL_FIELDS)
def test_quadratic_character_properties(p, d):
    spec = make_field(p, d)
    els = spec.elements()
    squares = {(x * x).idx for x in els if x.idx}
    for x in els:
        expected = 0 if x.idx == 0 else (1 if x.idx in squares else -1)
        assert quadratic_character(x) == expected
        assert spec.chi_idx(x.idx) == expected  # table route agrees
    assert len(squares) == (spec.q - 1) // 2
    nonzero = [x for x in els if x.idx]
    for x in nonzero:
        for y in nonzero:
            assert quadratic_character(x * y) == quadratic_character(x) * quadratic_character(y)


def test_character_examples_gf7():
    spec = make_prime_field(7)
    assert quadratic_character(spec.zero) == 0
    assert quadratic_character(spec.one) == 1
    assert quadratic_character(spec.element(3)) == -1  # squares mod 7: {1,2,4}


@pytest.mark.parametrize("p,d", SMALL_FIELDS)
def test_sqrt_matches_exhaustive_search(p, d):
    spec = make_field(p, d)
    els = spec.elements()
    for x in els:
        brute = next((y for y in els if y * y == x), None)
        got = sqrt(x)
        if brute is None:
            assert got is None
        else:
            assert got is not None and got * got == x
            assert got == brute  # smaller root, since els is in canonical order


def test_sqrt_examples_gf7():
    spec = make_prime_field(7)
    assert sqrt(spec.zero) == spec.zero
    assert sqrt(spec.element(2)) == spec.element(3)  # roots 3, 4
    assert sqrt(spec.element(3)) is None


def test_spec_elements_order():
    f3 = make_prime_field(3)
    assert [e.idx for e in f3.elements()] == [0, 1, 2]
    f7 = make_prime_field(7)
    els = f7.elements()
    assert els[0].idx == 0 and els[-1].idx == 6
    f9 = make_field(3, 2)
    els9 = f9.elements()
    assert len(els9) == 9 and len({e.idx for e in els9}) == 9
    assert els9 == sorted(els9)


def test_element_serialization():
    f7 = make_prime_field(7)
    assert f7.element(5).to_json() == 5
    assert f7.to_json() == {"p": 7, "d": 1, "modulus": [0, 1]}
    f9 = make_field(3, 2)
    assert f9.element([2, 1]).to_json() == [2, 1]
    assert f9.to_json()["modulus"] == [1, 0, 1]


def test_element_coercion_from_coeffs():
    f9 = make_field(3, 2)
    x = f9.element([2, 1])
    assert x.coeffs == (2, 1)
    assert x.idx == 2 + 3 * 1
    assert f9.element([5, 4]) == f9.element([2, 1])  # residues reduced mod p
