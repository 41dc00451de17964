import hashlib

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


def _convolution_tables(spec):
    """(add, mul) from the base-p digit vectors of every index: added mod p,
    or convolved and reduced top-down by the monic modulus (the builder
    the exp/log tables replaced)."""
    p, d = spec.p, spec.d
    weights = p ** np.arange(d, dtype=np.int64)
    digits = np.arange(spec.q, dtype=np.int64)[:, None] // weights % p  # (q, d)
    x, y = digits[:, None, :], digits[None, :, :]
    prod = np.zeros((spec.q, spec.q, 2 * d - 1), dtype=np.int64)
    for s in range(d):
        prod[:, :, s:s + d] += x[:, :, s:s + 1] * y
    low = np.array(spec.modulus[:d], dtype=np.int64)
    for deg in range(2 * d - 2, d - 1, -1):
        prod[:, :, deg - d:deg] -= prod[:, :, deg:deg + 1] % p * low
    return (x + y) % p @ weights, prod[:, :, :d] % p @ weights


@pytest.mark.parametrize("p,d", [(3, 2), (3, 3), (3, 4), (5, 3), (3, 5)])
def test_tables_equal_the_digit_convolution(p, d):
    spec = make_field(p, d)
    add, mul = _convolution_tables(spec)
    assert np.array_equal(spec.add_table(), add)
    assert np.array_equal(spec.mul_table(), mul)


# sha256 of the add_table() bytes, then the mul_table() bytes (int64, C order),
# as the digit-convolution builder made them, at every odd prime power q <= 1024
TABLE_DIGESTS = {
    (3, 1): "cffce48c67cbb359149810ed7be82d51276b41fef6207415e262cadfdb4ee823",
    (5, 1): "85abf1af779bdf17b77369e2c22e52a81e8442f4b3ffd388a1a68ff992c71dc6",
    (7, 1): "d47d2047798c9f20faad86b50dc62b52eec8a5668d7ebd0a9ef2e763367e4f48",
    (3, 2): "41dc416798bda53fa3937dd11f934443ff425b10bdedd558b186c532be5a64e9",
    (11, 1): "56f1eb01bcf3ddc005ded52de5c3ac2d76f386ee8734584f2c6db01b7caea20f",
    (13, 1): "2b791b349f218002d90967d3f2690ba794ca463645e4bfff4e31bc42c9a09f6c",
    (17, 1): "433889178d737594099582a58884e266fb0a1290ff6da4a2bb07f975069b6016",
    (19, 1): "9b927223af476c1fd141fe99baa37776e55f645d6e75536a40cacdf236c72019",
    (23, 1): "3e767e4a54a2fe23c30d902d968de99b7aacf6a6b1c5907c01e34e50b56cb63e",
    (5, 2): "44450bee243e95c7138ad0c588fddac3cfc60efd72ff5ded5b4b83f724e38f35",
    (3, 3): "6ea69dd87226ced1d00811c3eb8a7dc7beb67ce68383e430c83a2e8becbe1739",
    (29, 1): "7a753a2780e0cbc837241f8cc395bcefecb57109bb37ac2f3711bdbe513c7c42",
    (31, 1): "208845b517e7860003deedba31da5dec093a18261400ef50d3b5c050ba14da16",
    (37, 1): "6b88183848fc678c26ceaeb2c95f1954e814e3648edfc5aff36e12bbaf091eec",
    (41, 1): "f61cabf3ab3e800bf1cbc4dce4b7f148a5b4b9edea6aacde6c669e9ed9517efb",
    (43, 1): "5a4fb0ad509958d13cd4c5589d1bd10267c5eacfac42962e90d705179ff2223d",
    (47, 1): "94e29e7693946161b8f2b30584a54e9aa1702d65895dd5df950906b02a039dfd",
    (7, 2): "b99967056f7b81a90564284d7871cfdac2adf63f0e1da4144b35e76c3e5a1f8a",
    (53, 1): "47adf036f0a9a143f0192c37d9bdbca72ebf07c8581c7f9a90bcd6f6a44b091b",
    (59, 1): "16dd7f787691954f11409c433946a5a7aa04b7f23589afb0580ddcc8c49ab2fb",
    (61, 1): "f498d1a9edf96d2c0c21c8df137d0cbdd921f57e33f0f120401ea6fa0d93b31f",
    (67, 1): "d61519a14d17334206c51b9264c4159d4d0462e0e904bb1d872b5a99c0a935b9",
    (71, 1): "c7e80adf61cf831d92413baafee614207421e2de1956d4572b0e29e826b7e790",
    (73, 1): "a13f10287ce83bca5e5917a8093e7b173e99d94df12ec7fc967660115fdedeb6",
    (79, 1): "12b2ef81b09f106cade85e0f5bd4686e050eca0ed42930064b45815d7d63efb0",
    (3, 4): "b645cc2729d47fc7d61fec90c60d4c727f4e5173b1ab31e112b7536176e306e4",
    (83, 1): "7d2920dbac917cada7cce2ee82595227d9ba79580e2800f4f69c6ace5a370c9a",
    (89, 1): "3dd5b4d99f6f49ec1de8a7cfa3b4b258ae3ce65fd4a762b019c7c2a8d944f3a3",
    (97, 1): "691e74abbeccfa4dd97a7758690805b3fcd35dc934a6c453cb76d0fd443f7efa",
    (101, 1): "4cd364304821bd47a1fc50c80d26ef68a82115b14bf27c14166741f8226449b0",
    (103, 1): "3a0e3696b5c8f2d46970d296d3c2fd26c1d6c2903a653b0aedb17691de4426e3",
    (107, 1): "be15a3aefba816b97454eff48e166230b0ca22743844b24a9dbf65afa79bb975",
    (109, 1): "c6310f4597913f2bff5df8853bbd4e50b3617c5345ea021f60424882a2c69078",
    (113, 1): "db3b4cf5ddf32cc065a5c84ea3d05612788793dea34fd3b05e0792d032e1a38f",
    (11, 2): "c234dd0688802a6dedcc169d8b656380b790af05a93d7e6c4cf44398fc821672",
    (5, 3): "509412ddbd6933617e403157bcd73c22e204f521b970adf703c2c323816b5dc1",
    (127, 1): "c182c664d11176a3d47a09c4d17a4ac517354073e26ce8d0dc7443ffd931cdf3",
    (131, 1): "51283b12910a90d7bac0bc0117c50020351adc1f359fbbc560615433b65c8be7",
    (137, 1): "d3affdc53aed8bc9f618f296f0b536c83e2068e960a2fb942cf84817898619f5",
    (139, 1): "e5ace61ae702ea687dd86975a77edbb3641ad498c1d8fdf5f26d00ef792516b5",
    (149, 1): "18a978dd5b6f2c53d47a2065a6f075512e8e4ef3c277e72737e63f8202910982",
    (151, 1): "3e542c8b68f0e862718a1cabe3daadfaed4a86b74c0e57afc0e84c6ddd5fd7c0",
    (157, 1): "ad52275aa921910c6ca404279dfdcb1695aa70affee60197034736e6792ba884",
    (163, 1): "a90453fe31cc67538d0d8bb78183589569765e5a85efc0da4a07e0ddc90f061b",
    (167, 1): "febb97c4c0b735d596e54163ec62bdef5cc16dd72c57fe14d23894aae1ea843d",
    (13, 2): "b26c6054ad385f11630f04842b53ab4d0df0ac036612e19d5cc23ea749538e31",
    (173, 1): "480946b297681dd65abe271b0e6947e8c85c2fa5ed0f0096561d94ffcb079d17",
    (179, 1): "35ac8c04cf5716b013627a29aa34d9adfc4677f2ae2a7cde9187422b58d8dedf",
    (181, 1): "e92cd6e5da5b6af3c7208314dee5251de484d83bab3455555de49f2e4ad3aa24",
    (191, 1): "9567b388de842ed72b05f67330be4f2b329d0b346f70bf07e9694d3f5b22c100",
    (193, 1): "f585aafec124125142eff909b98b776a249b83a5d1d56596ac09429f00417c29",
    (197, 1): "f08e7338d5bcc03fa6bc708efed63ed42f6fed66025ea75551bb00fb6cb16741",
    (199, 1): "15be6d285057bbcc1aae6f4ce7546ebe3159803396daaa205812152126d00d99",
    (211, 1): "23b5c341bfe1d22c3cad8e86ff794b5e4c78ffe20a4cbe589ecea5434bf0f7c5",
    (223, 1): "05eb812700c87a81e6585a14915e1b7942ddec55df8270c370aa7e83d8064b5e",
    (227, 1): "d8ec19172764536fd05e86f97edfa5eefed221c9addbb482dc10568102c1e644",
    (229, 1): "87030ed2ea0ed5ca67bde8e1b5f33737db1beaabf939c36efdeebd0d4342f039",
    (233, 1): "d13e1211cdf024b19c8ac9d9aea96c0f3ddc7b571da33352bdd16ef1b1a6c036",
    (239, 1): "541ce7ad7363a8bc7d965d1380d75e09b9acc6932d9d02c136099c2c1fd23b67",
    (241, 1): "7d533faed3bcc654f6e744ef364b7b2ec774503094c8c55f6c0eb1de397e57ed",
    (3, 5): "d1a134611ac89f32e7dcbfbd08c427b26209061a0d8cee9f150a16f5a2c11b4d",
    (251, 1): "25450caf77f261fb5ce6392ddd28a99b310fdd8032e20107636c50d27f8032c9",
    (257, 1): "c6d98b619e10db56c39594c11b68d3da2675099d687b79a305de3b172c257638",
    (263, 1): "fb500e4ae03bbb25436d865a96494444d318e4c813c88f57826f097b0d91f3cc",
    (269, 1): "7c683430a5526621bdd19d4facfb7fb933aa75b3e1b8014c235cea2d0f9a64e9",
    (271, 1): "42d19962913b6b4adc208a2788c6fc34603996b5970aff044c7a1e2958fa6a04",
    (277, 1): "9563bd8ccee1060764f6cbb62a9d9c860ab1ad69e84f26afccea6993682cab3e",
    (281, 1): "56e2d764f660b4870eeedc9c99df0e2729fb1e60b2cbdf054f60243357d26cee",
    (283, 1): "ded58784cf70e148691a58ee5f21e498174229b083de250b1b744e5e4aa1451a",
    (17, 2): "4a3c6319d253d3b6e5d911578c21b73bfbfb3b020c5b09407ad4a799351363cb",
    (293, 1): "0052cf5694971472add6cbe1f0698703b3ae1854182287fc19b656053b2d4976",
    (307, 1): "4dcded1ca3b25a9bbf1b5dcad5b601e65c9cb50105d961a5f043be2962373209",
    (311, 1): "0fe3ab2d023c02644313af49eeb4dd65f0d05f8dd55508f07b032acbc4fc181e",
    (313, 1): "45e5e4d693d5864901071e8c701547cc52da99be8078f035f1a11cae3a3b332e",
    (317, 1): "66b06be14e3c7a1f4dbf5c1656e4691162b7704ac5438de79b1f9c0e8d570db1",
    (331, 1): "804b83fffb2660dac15504ed81f060dbef806b19326c075febd0f4f0c722177e",
    (337, 1): "da5c1b44cb3256d22c339d7c7859303089788818c4e716efa1b7b6fd132705c1",
    (7, 3): "7282a6b8d5debea42dd2c8c153c2e5cc6e7b8bc7687a6c8da29f058453a6fa04",
    (347, 1): "d109490073faf54e3e3011f867ef86b895d84557ff18da527e786f8c7a04c3f2",
    (349, 1): "4cf9202ec129ebd715b94d4bf5562cb9b09020e8bed8d5d778821b97f29db0d0",
    (353, 1): "1a2d5708b57862df827293562581045870574d821e24102ac0c41d0e58a4565f",
    (359, 1): "454cc73a4d0c169b46e7aa05a399e2c048afeb9ac6760c16ec3cbb784ba3de4d",
    (19, 2): "210c39f023b7d6502d6b0b5211249297f912ad4b727fbb324a886a3f1b13ef1e",
    (367, 1): "d25f49fbecfc800555d1d207f55926c531aa99ede81c4e8fbe6e231ce82aeaec",
    (373, 1): "2859b13cf60f1c6448902f5f3ef2d66b093e446f2ec1b74fc0c89e382e9be535",
    (379, 1): "48d0ead131b4d3db0fa4f1fb5c11a730b79fb81f3c9234fabb1db4b260a14e92",
    (383, 1): "779f87c97e42d0bbd2e64071bc0ca44d8e996d3642d8bc0e8fa33a44a13acdbb",
    (389, 1): "2d58ec7199d99a3a58f4c5d77a832f4435a19ad2936e45e6f25c49671bf11b49",
    (397, 1): "e3294f5a4b1e51f10a101d7e0c387d8e6d4218f3fb3eef4ef55cebdd6fea329f",
    (401, 1): "4d4d434d2f3fbf222b71c8ac9aebe9d7b86e31bd89fce2fbf28d9f0e252649d0",
    (409, 1): "023757a4d62a244f393e5640b11389cd63bc736126a1b2ecf32ee2f37fdc44e2",
    (419, 1): "a5f8e77f9a85810b079e0b0332844076b7d4c2ce30c607345c2daad5632c92eb",
    (421, 1): "f32f3fe74c4ec5b63f558cbef6ec3f1c0542b85ef1ce548628b15c5b6b11eada",
    (431, 1): "9fc2bd258c1903724ca45753db7223253d67847f5ccd7246bcbde433bf985720",
    (433, 1): "4eed8c657f4e4ee9df69477d70e9f63495605cb65e629888053992c8a3b4f787",
    (439, 1): "50c0307aa43290eb071cd358d2a410c521f8126be2671b5e81062c729fb99b3c",
    (443, 1): "df2987daffd07bb307339faefa13a045da36d9a10d8a697e439c7893c53a364b",
    (449, 1): "dd68183c4f77ae875782543d9582427d489ec3333ba9d2e66a3782fdc921fee0",
    (457, 1): "cdfc5fe3aa5473d8cd24faea941c2b2d11cb8fef50c49bf5f57d7f7b985f82d3",
    (461, 1): "06b55d26ffeab63fa1f4cca445b17b2adb4338ab57b0d21dde37043f7b8bf12b",
    (463, 1): "4e0e797209fe916dd8df6ca833816c0ee3ff3f2630b32798f87bff169f611cb5",
    (467, 1): "2a8e06ade245d32fd6b3ceaa48945bbfcce0ba8fa9296ed78a81503a6763d6de",
    (479, 1): "0b4aabcb0b6cefb290599d170cc3a560d9d839e65b7d4f889c414126ccca76b3",
    (487, 1): "8846fee026c1e6ef3ec7720b96e57008408faeb8551ce336d8baddb679c6e24e",
    (491, 1): "4161c8558f29353ccb9a588be664cd21ffcd67b96c27c49b97c4909278885641",
    (499, 1): "5a717700da0991164eb0c835f70159cd5cca7fc1ae505e2481f5031997b6b9f4",
    (503, 1): "a2afbe103ae796621bb83aa13a4348a37fcebe2c82173453cbe7c0823352314c",
    (509, 1): "6835fcd558384ed6acce322c7a3303f144dca37bd5d9a211a7a36844dff12240",
    (521, 1): "e746393a0405036fc3b1bfce2e8927695135fb49f1125b911b78597a8ac46da9",
    (523, 1): "d898aee90fcd0c470e1f55d6fe2b14e88791565ecd9abc5585a5365a75103df9",
    (23, 2): "d23beeb93c8beb75afa1172ca6afe5701fcaac8e11f2b9e9fc046d8a5609488d",
    (541, 1): "5761ca24fe1e1e5b3b1fe62a4ea2e79adb24d2c7317a8779e03c7aa29677bde2",
    (547, 1): "dad263eb8cce3d410313d23bf8c77216db3a8f14857e4036d04b3c07c0983dc8",
    (557, 1): "f39ad4329e9b95638451f3912de6b90b2686d5dae92bba45817cbcc0fcac1ae7",
    (563, 1): "99e28605b2ac60abbb6e649b334f92dc69c6ce50683b576817304c4e5d92fde0",
    (569, 1): "32f2b4838557c1566b1ffe25e79fdf31c6a2a5e966f8f1db974ac56cfbb4987d",
    (571, 1): "c198f56119d2e27a9bd511861b69bea1a5c582983f28847cd7e5430264358b3a",
    (577, 1): "51e388305fe7ac75a645eb29a23ed158bc67565c2cfde6a64faa6e4b3c48cd6b",
    (587, 1): "87640d216855ecd98026e71b16f47635ad77ebe28abe393286b56ba38218ff55",
    (593, 1): "530ad7f3500a39eaa4899ec8be01df5542793110579b17faa75611da2727f10b",
    (599, 1): "f9c164a22abb044c3aa3cb5fef1917af9889e64375c1c4afdd65ff98f40ddc42",
    (601, 1): "b5d219767035884295b2f3b0bb84e075b10856c2e657a5427f7abfed24fcbf77",
    (607, 1): "3a12d843a88cd161c4d0ef8b184072994d9b6747d56ecbeed50acc1989891ee4",
    (613, 1): "819a0c918a1685eb156dfdeb426c8ba9fddc121d712bc683e6e6014da4b06e88",
    (617, 1): "7f55a12499fa84d10f81d2e2b87c1b8e0392d3b1c23e53a5e368fb80573fcd85",
    (619, 1): "cbd1c351ddcdf2a3dd7380ea3694017ac4e32e2d342bc8ca543047f920591f63",
    (5, 4): "d7be16cc0a6655ec177b7ab167c8c9abf4ef013b2068167cf4c7e00b2e7e3da8",
    (631, 1): "8301a2a34363f34f4cdec28033c1c7009ba022ab530c8c633175bfa658aeb501",
    (641, 1): "2eaf6a065e30f374da5db5276a24be2c44b191ce6fd250c04703ee1b290530a2",
    (643, 1): "e57508dc6a7d7d0620532d4e6fab35a9f247742df10b59a387ed34b01f837856",
    (647, 1): "8911380135c2479fe6871612b6ba8611034aecd3d10d24e1323e9c42c972cb66",
    (653, 1): "cd9fe62f24547b534c77ed600806f0306570be1655be87833cb14327319fd6fe",
    (659, 1): "1dc87637be1670e75d73d2754392a8087bd0826281459c1b041ad8f1fb5fe8b1",
    (661, 1): "28c020b0a5f639090f390daf72343b4ff213ac49ddeeddfa9917156f1dabad53",
    (673, 1): "3b6308f20d5951f64e6c6e9b065693a7b43fdd243d4e7870342658d028231034",
    (677, 1): "d6e8652af65c79d4e3df44ee3bec945692b57fc2e6dde4391b26705f2cb4f38f",
    (683, 1): "55124ca1c4e75083aca791a1c5c9ea0f6d02d3919ac2cccbdce7072bd383c0d5",
    (691, 1): "de9457838a73729a4b4f7c1b53102ca4e58e7d7a32e2384023c1135da13b37d2",
    (701, 1): "d65318cb6454953040b3028ff4c8059f11c4a945e7aa2c6bfffabc31925bde64",
    (709, 1): "a2fec1283dda99fa46a36465f118a9e340ebe9097880ccdcc09bfab06f22a767",
    (719, 1): "4d0c17945d594eb073572a68f483b000de5f09a734bdcba3d66f680b4108055d",
    (727, 1): "276378f769a0ad70a21240b00f58181ea6d9a373e3bc9dcb51fb6ffabe8aeae0",
    (3, 6): "4a21c61824cb5b1801a6a288292befa48add07f883d5f2b9193f80bfc6c6f007",
    (733, 1): "e5d9f340254c2d6c6707eb1d5b03926b89f30c1c15c8cf8427f31a1521563be0",
    (739, 1): "dfed1f5d47962fc9d0685083975f247094591505d76d5d16e38415651c926cbf",
    (743, 1): "0e0ca89a0833916d30c81ea074276ea1c9fc79ed7696152d72c7e80908254b59",
    (751, 1): "b848fa4a18d86bf6820c11b07195a250c70c245f8a5d0e69f1c8d3a2f12b9d7e",
    (757, 1): "180a1da42ae27344b7337c7977866f6594036311a4b2633bbba7ed87ccb14ffb",
    (761, 1): "761c43828b071c84fa6d7577b11113770df2bc14a723088afc26bb9f90f0c90b",
    (769, 1): "f31862505c77675a85effda4dc47df7eac2ca5c8ffb9a57591e9b5bbb66e50d7",
    (773, 1): "842bc608eadbef6eeb89a287b6b6f9e3c659bcd2c809971eb105f836798e45b7",
    (787, 1): "ea0953d943d2c3359ae281ba07b75339bd2f4cc7d6b43011f225e46f2c0e750a",
    (797, 1): "d7df7ec4748046304d2b3fb0ee91731418a19bc764162d588a70f68c9234d462",
    (809, 1): "01c9a778dfe5fbba9c4291b4677aed42045866e2c9c24c5697e5ca2aa4ac6d2c",
    (811, 1): "ec5c0473d2f554123af7dd4620cceea1e74929a6dfdae4ef083273a92582f597",
    (821, 1): "0652a1c9cee637f077e8162122ff48fb94f56f3680552e8c0bcb81e0f5213272",
    (823, 1): "c304b1f246e9364a71bb69e9ffcfd9088e57140f3dc66a33507e452285894cbb",
    (827, 1): "232da1a053cc773e67e602e91242a89af5a3dc434e2adbc99c1a51ba4b3cb5d3",
    (829, 1): "d0aa4452f019b3f502e5bd8f258c096e9ff714852b71420945b33f65e6d32ad6",
    (839, 1): "4722468a4ba6ece1438eef990ad2b425d261c6706e71d71a6fa79b7124dc34a3",
    (29, 2): "75ba4be1dc6d2c5dcee1a597f3c3fe589c9ca44794acc7d5627d1ac631dfc33a",
    (853, 1): "010d371c72660e1e2be85d7998d00e5f20d0ba8f6e59e472be0abf1ef592a987",
    (857, 1): "9717678cb5234d2f70be7372a55a355685b56ca5d27df0c0d1fecd37aa11de1e",
    (859, 1): "3510717035f4ab85110781bc8a7d74b5501614cd666f1242296e66606ac02df0",
    (863, 1): "b50d50019ae407e9865edef6255a325133b89a189816fb242a6f50da7de5bf6d",
    (877, 1): "e546c33a73c304870c779908bed4da1432ba4c910ccccffd6a1096b27f753617",
    (881, 1): "0c60c759861c7eb8d1b023d9b0714f008a1d72fee63529d583fd254fd0198ee2",
    (883, 1): "47a30a8a13e07981516b880ca5d6972242218baae1fc923ba75d8aa6ed063d38",
    (887, 1): "a50f970b56dc35fca43794757e267ffeddc4c1dd0fc0fa0440b4314a2d445127",
    (907, 1): "ac40cdf37104fca993d6d969f6bfe6f3e99f175ba91d44204b9a45347d8fc246",
    (911, 1): "36df204ff7b5e8e753e126368b832cbdb6e4366ff33907619662705f711840c0",
    (919, 1): "40c74194842d57ff7a432450d4203fc27662e3b7c9321cf200fc78c896df4486",
    (929, 1): "8eaf1dd49c4b0deff6aef56c6092fcb0ad629954a20053595e67d6c3042a24fc",
    (937, 1): "9a902055d3548e7c9e1bc6779b99ce575303b4a03ff4d58ceb145a3c082e7e60",
    (941, 1): "4e0d5f3b002ba8444aec8ed37fc0d832f4e1dae27ce03214ca5b2557a460604c",
    (947, 1): "0d57bfcfdd95c1851343cd6203306dc5afa025f2f1d872f156430b29b804af81",
    (953, 1): "b86ff47a678c8603abe5102420a71c6ada94c6c44c4e2ebc13f8cbf9915fb78b",
    (31, 2): "ebd6fd1288928f2bd8848636bdf243f25f6f2d9d6e523af373c7a876a81108b8",
    (967, 1): "1ea7f059f5fbfd0e6112a3454d6ff612004a7878170f22207f2c6526175f3ed2",
    (971, 1): "ad6e01f25a4e449644f046a35bd45b31c88df90d10add7ce94b9b41f3dab0382",
    (977, 1): "9c248317e523884b860af5298a4976027a88c1b1b03d6173da1f7ae96240324e",
    (983, 1): "5bdcfaaf75d6034dec259292c77db76e809cc1f4934c575ac4c8bb8dca3e24e6",
    (991, 1): "3131fd1e7b6feaa5e8647ab4c16b597ae88664fa55bd7599edd400eb2ce51311",
    (997, 1): "f9769cf0c6fde92167d316b0866b52dcb45a5b4631c93d072eabcf735b66cdc7",
    (1009, 1): "846a1556d8872b7daa9569984f8fb720c3b0f2ae61f69c9d2df0bfe5b46a84c8",
    (1013, 1): "0ef1932184efb7954f41902af6da2117f45ed17719f8451bbcf151f822a409c4",
    (1019, 1): "28d05c1616ac8580cb10f31d5923a42ba04bb8a8924116b3e39215fa0857b4b6",
    (1021, 1): "f122f9cc884d0c2634b100a594be5e84cb2928b63d8285eb7f0f9b5ba7d2440a",
}


def test_table_digests_cover_every_field_up_to_the_cap():
    from conicwalk.cli import admissible_prime_powers
    from conicwalk.finite_field import ARITHMETIC_CAP

    fields = [(p, d) for _, p, d in admissible_prime_powers(3, ARITHMETIC_CAP)]
    assert list(TABLE_DIGESTS) == fields


@pytest.mark.parametrize("p,d", list(TABLE_DIGESTS))
def test_tables_keep_their_bytes(p, d):
    spec = make_field(p, d)
    digest = hashlib.sha256(spec.add_table().tobytes())
    digest.update(spec.mul_table().tobytes())
    assert digest.hexdigest() == TABLE_DIGESTS[(p, d)]


def _candidate_loop_powers(spec):
    """g^0, ..., g^(q-2) for the primitive element g as the exp/log tables
    first chose it: the first candidate, from x upward (from 2 at d = 1),
    none of whose powers g^1, ..., g^(q-2) is 1, one power table per candidate."""
    from conicwalk.finite_field import _powers

    p, d, q = spec.p, spec.d, spec.q
    weights = p ** np.arange(d, dtype=np.int64)
    for g in range(p if d > 1 else 2, q):
        exp = weights @ _powers(spec._times_matrix(g), p, q - 1)
        if not (exp[1:] == 1).any():
            return exp


def _square_enumeration(spec):
    """(chi, sqrt) as they were first built: np.unique over the squares on
    the diagonal of the mul table, each square's first root the smaller."""
    v = np.arange(1, spec.q)
    squares, first = np.unique(spec.mul_table()[v, v], return_index=True)
    chi = np.full(spec.q, -1, dtype=np.int8)
    root = np.full(spec.q, -1, dtype=np.int64)
    chi[0] = root[0] = 0
    chi[squares] = 1
    root[squares] = v[first]
    return chi, root


@pytest.mark.parametrize("p,d", list(TABLE_DIGESTS))
def test_core_routes_equal_the_earlier_routes(p, d):
    # the order test over the prime factors of q - 1 picks the generator the
    # candidate loop picked, and the even powers of g give the squares
    spec = make_field(p, d)
    chi, root = _square_enumeration(spec)  # mul_table() builds the exp/log core
    assert np.array_equal(spec._exp_np[:spec.q - 1], _candidate_loop_powers(spec))
    assert np.array_equal(spec.chi_table(), chi)
    assert np.array_equal(spec.sqrt_table(), root)
    assert np.array_equal(spec.neg_table(), spec.mul_table()[p - 1])


def test_a_used_spec_is_freed_without_the_cycle_collector():
    # a spec holds no element, so no spec -> element -> spec cycle keeps its
    # (q, q) tables alive: reference counting alone frees it
    import gc
    import weakref

    from conicwalk import ConicParams, kernel_for_step, mixing_report

    gc.disable()
    try:
        spec = make_field(7)
        params = ConicParams(spec, 1, 1)
        kernel_for_step(params)
        mixing_report(params)
        freed = weakref.ref(spec)
        del spec, params
        assert freed() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("p,d", SMALL_FIELDS)
def test_pow_idx_is_repeated_multiplication(p, d):
    spec = make_field(p, d)
    for x in range(spec.q):
        acc = 1
        for n in range(spec.q + 2):  # past q - 1, where the exponent wraps
            assert spec.pow_idx(x, n) == acc, (x, n)
            acc = spec.mul_idx(acc, x)
        if x:
            assert spec.pow_idx(x, spec.q - 1) == 1
            assert spec.mul_idx(x, spec.inv_idx(x)) == 1


@settings(max_examples=25, deadline=None, derandomize=True)
@given(data=st.data())
def test_pow_idx_on_random_elements(large_field, data):
    spec = large_field
    x = data.draw(st.integers(0, spec.q - 1))
    n = data.draw(st.integers(0, spec.q + 1))
    acc = 1
    for _ in range(n):
        acc = spec.mul_idx(acc, x)
    assert spec.pow_idx(x, n) == acc
    if x:
        assert spec.pow_idx(x, spec.q - 1) == 1
        big = data.draw(st.integers(0, 2**80))  # one lookup at any size
        assert spec.pow_idx(x, big) == spec.pow_idx(x, big % (spec.q - 1))
