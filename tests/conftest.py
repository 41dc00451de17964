import random

import pytest

from conicwalk import ConicParams, build_table, make_field

# (p, d) per branch; q = 3 (mod 4) and q = 1 (mod 4)
BRANCH3_FIELDS = [(7, 1), (11, 1), (19, 1), (23, 1), (3, 3)]
BRANCH1_FIELDS = [(5, 1), (3, 2), (13, 1), (17, 1), (5, 2)]
TEST_FIELDS = sorted(BRANCH3_FIELDS + BRANCH1_FIELDS, key=lambda pd: pd[0] ** pd[1])


def q_of(pd):
    return pd[0] ** pd[1]


def smallest_nonsquare(spec):
    return next(e for e in spec.elements() if spec.chi_idx(e.idx) == -1)


def smallest_square_above_one(spec):
    return next(e for e in spec.elements() if e.idx > 1 and spec.chi_idx(e.idx) == 1)


def seeded_weights(spec, seed):
    """Seeded weights (a, b), a != 1, with a*b a square: b = a * s^2."""
    rng = random.Random(seed)
    a, s = rng.randrange(2, spec.q), rng.randrange(1, spec.q)
    return a, spec.mul_idx(a, spec.mul_idx(s, s))


# five small fields over both branches, prime and extension, by test id:
# (p, d, weights), where "seeded" stands for seeded_weights(spec, 1)
FIVE_FIELDS = {"GF7": (7, 1, (1, 1)), "GF9": (3, 2, (1, 1)), "GF13-a1-b4": (13, 1, (1, 4)),
               "GF25-seeded": (5, 2, "seeded"), "GF27-seeded": (3, 3, "seeded")}


def five_field_params(field):
    p, d, weights = FIVE_FIELDS[field]
    spec = make_field(p, d)
    return ConicParams(spec, *(seeded_weights(spec, 1) if weights == "seeded" else weights))


@pytest.fixture(scope="session")
def specs():
    return {q_of(pd): make_field(*pd) for pd in TEST_FIELDS}


@pytest.fixture(scope="session")
def params11(specs):
    return {q: ConicParams(spec, 1, 1) for q, spec in specs.items()}


@pytest.fixture(scope="session")
def closed_tables(params11):
    return {q: build_table(p, "closed-form") for q, p in params11.items()}
