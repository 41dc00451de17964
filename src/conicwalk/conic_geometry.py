"""Weighted quadrance, weighted circles, point counts, intersection counts.

The quadratic form a*x^2 + b*y^2 (with a*b a nonzero square) partitions the
plane GF(q)^2 into level sets of the quadrance from the origin.  When
q = 1 (mod 4) the null cone contains points besides the origin and is split
off as a separate "isotropic" class; the unsplit partition is kept available
as a diagnostic because it fails the hypergroup axioms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapExceeded, FieldMismatch, IndexInvalid, ZeroQuadranceArg
from .finite_field import FieldElement, FieldSpec, quadratic_character

ORACLE_CAP = 125
EXHAUSTIVE_CENTER_CAP = 31
SAMPLE_SEED = 0  # seed of the sampled centre pairs above EXHAUSTIVE_CENTER_CAP
SAMPLE_PAIRS = 200  # centre pairs drawn above EXHAUSTIVE_CENTER_CAP


class ConicParams:
    """The weights (a, b) of a*x^2 + b*y^2: both nonzero, a*b a square."""

    __slots__ = ("spec", "a", "b")

    def __init__(self, spec: FieldSpec, a, b):
        self.spec = spec
        self.a = spec.element(a)
        self.b = spec.element(b)
        if not self.a or not self.b:
            raise ValueError("a and b must be nonzero")
        ab = self.a * self.b
        if quadratic_character(ab) != 1:
            raise ValueError(f"a*b = {ab!r} is not a square in {spec!r}")

    @property
    def q(self) -> int:
        return self.spec.q

    @property
    def branch(self) -> int:
        return self.spec.q % 4

    @property
    def split(self) -> bool:
        """Whether the null cone splits into origin + isotropic class."""
        return self.spec.q % 4 == 1

    def __eq__(self, other) -> bool:
        if not isinstance(other, ConicParams):
            return NotImplemented
        return (self.spec, self.a, self.b) == (other.spec, other.a, other.b)

    def __hash__(self) -> int:
        return hash((self.spec, self.a.idx, self.b.idx))

    def __repr__(self) -> str:
        return f"ConicParams({self.spec!r}, a={self.a!r}, b={self.b!r})"

    def to_json(self) -> dict:
        return {
            "field": self.spec.to_json(),
            "a": self.a.to_json(),
            "b": self.b.to_json(),
        }


@dataclass(frozen=True)
class Point:
    x: FieldElement
    y: FieldElement

    def __add__(self, other: "Point") -> "Point":
        return Point(self.x + other.x, self.y + other.y)

    def __repr__(self) -> str:
        return f"({self.x!r},{self.y!r})"

    def to_json(self):
        return [self.x.to_json(), self.y.to_json()]


class ClassIndex:
    """Label of a weighted-circle class: a quadrance value, or the isotropic class.

    The isotropic label exists only when q = 1 (mod 4).
    """

    __slots__ = ("spec", "_val")

    def __init__(self, spec: FieldSpec, value: FieldElement | None):
        self.spec = spec
        self._val = value

    @classmethod
    def finite(cls, value: FieldElement) -> "ClassIndex":
        return cls(value.spec, value)

    @classmethod
    def isotropic(cls, spec: FieldSpec) -> "ClassIndex":
        if spec.q % 4 != 1:
            raise IndexInvalid(f"no isotropic class for q = {spec.q} = 3 (mod 4)")
        return cls(spec, None)

    @property
    def is_isotropic(self) -> bool:
        return self._val is None

    @property
    def value(self) -> FieldElement:
        if self._val is None:
            raise IndexInvalid("isotropic class has no quadrance value")
        return self._val

    @property
    def is_zero(self) -> bool:
        return self._val is not None and self._val.idx == 0

    def label(self) -> str:
        return "iso" if self._val is None else str(self._val.idx)

    def __eq__(self, other) -> bool:
        if other is self:
            return True
        if not isinstance(other, ClassIndex):
            return NotImplemented
        if self.spec != other.spec:
            return False
        if self._val is None or other._val is None:
            return self._val is None and other._val is None
        return self._val.idx == other._val.idx

    def __hash__(self) -> int:
        v = -1 if self._val is None else self._val.idx
        return hash((v, self.spec.p, self.spec.d))

    def __repr__(self) -> str:
        return f"C[{self.label()}]"


def index_set(params: ConicParams, split: bool = True) -> list[ClassIndex]:
    """Canonical class labels: F_q in field order, isotropic last when present."""
    classes = [ClassIndex(params.spec, e) for e in params.spec.elements()]
    if split and params.split:
        classes.append(ClassIndex.isotropic(params.spec))
    return classes


def quadrance(a1: Point, a2: Point, params: ConicParams) -> FieldElement:
    """a*(x2 - x1)^2 + b*(y2 - y1)^2."""
    spec = params.spec
    for e in (a1.x, a1.y, a2.x, a2.y):
        if e.spec != spec:
            raise FieldMismatch(f"point over {e.spec!r} with params over {spec!r}")
    dx = a2.x - a1.x
    dy = a2.y - a1.y
    return params.a * dx * dx + params.b * dy * dy


def classify(p: Point, params: ConicParams, split: bool = True) -> ClassIndex:
    """Class of a point relative to the origin-centred partition."""
    spec = params.spec
    v = quadrance(Point(spec.zero, spec.zero), p, params)
    if split and params.split and v.idx == 0 and (p.x.idx or p.y.idx):
        return ClassIndex.isotropic(spec)
    return ClassIndex.finite(v)


def class_size(i: ClassIndex, params: ConicParams) -> int:
    """Closed-form point count of a class; equals len(circle_points(i, params))."""
    q = params.q
    if i.is_isotropic:
        return 2 * (q - 1)
    if i.value.idx == 0:
        return 1
    return q + 1 if q % 4 == 3 else q - 1


def class_sizes(params: ConicParams) -> np.ndarray:
    """``class_size`` of every class of ``index_set(params)``, as one int64
    vector: the zero class, q - 1 nonzero finite classes of one size, and
    the isotropic class when present."""
    spec = params.spec
    sizes = np.full(params.q + params.split, class_size(ClassIndex.finite(spec.one), params))
    sizes[0] = class_size(ClassIndex.finite(spec.zero), params)
    if params.split:
        sizes[-1] = class_size(ClassIndex.isotropic(spec), params)
    return sizes


def circle_points(i: ClassIndex, params: ConicParams, cap: int = ORACLE_CAP) -> list[Point]:
    """All points of the class, by exhaustive enumeration in lex (x, y) order."""
    q = params.q
    if q > cap:
        raise CapExceeded(f"q = {q} exceeds the enumeration cap {cap}")
    spec = params.spec
    els = spec.elements()
    out = []
    for x in els:
        for y in els:
            p = Point(x, y)
            if classify(p, params) == i:
                out.append(p)
    return out


def _inv4_idx(spec: FieldSpec) -> int:
    """Index of 1/4, which lies in the prime subfield, where an index is its residue."""
    return pow(4, -1, spec.p)


def f_discriminant(i: FieldElement, j: FieldElement, k: FieldElement) -> FieldElement:
    """The symmetric intersection discriminant (2ij + 2jk + 2ki - i^2 - j^2 - k^2)/4.

    Equal to i*j - (i + j - k)^2 / 4 and invariant under every permutation
    of (i, j, k).
    """
    spec = i.spec
    s = i + j - k
    return i * j - (s * s) * FieldElement(spec, _inv4_idx(spec))


def intersection_count(
    i: FieldElement, j: FieldElement, k: FieldElement, params: ConicParams
) -> int:
    """Number of common points of radius-i and radius-j circles whose centres
    are at quadrance k, by the discriminant trichotomy (0 / 1 / 2)."""
    if not (i.idx and j.idx and k.idx):
        raise ZeroQuadranceArg("intersection counts require i, j, k all nonzero")
    return quadratic_character(f_discriminant(i, j, k)) + 1


def intersection_points(
    i: FieldElement, j: FieldElement, x: Point, y: Point, params: ConicParams
) -> list[Point]:
    """Brute-force common points Z with Q(X,Z) = i and Q(Y,Z) = j."""
    if params.q > ORACLE_CAP:
        raise CapExceeded(f"q = {params.q} exceeds the enumeration cap {ORACLE_CAP}")
    els = params.spec.elements()
    out = []
    for zx in els:
        for zy in els:
            z = Point(zx, zy)
            if quadrance(x, z, params) == i and quadrance(y, z, params) == j:
                out.append(z)
    return out


# ---------------------------------------------------------------------------
# vectorised quadrance grid + exhaustive intersection verification
# ---------------------------------------------------------------------------

def _coordinate_quadrances(params: ConicParams) -> tuple[np.ndarray, np.ndarray]:
    """The (q, q) per-coordinate tables qx[x, w] = a*(w - x)^2 and
    qy[y, w] = b*(w - y)^2; the quadrance between the points (x, y) and
    (w, z) is qx[x, w] + qy[y, z]."""
    spec = params.spec
    mul = spec.mul_table()
    d = spec.add_table()[spec.neg_table()]  # d[x, w] = w - x
    sq = mul[d, d]
    return mul[params.a.idx][sq], mul[params.b.idx][sq]


def quadrance_value_grid(params: ConicParams, rows) -> np.ndarray:
    """(len(rows), q^2) int64 array: entry [r, w] is the quadrance value
    index between the points with ids rows[r] and w, where the point (x, y)
    has id u = x*q + y.

    The quadrance is separable by coordinate, so every entry is one lookup
    add[qx[x_u, x_w], qy[y_u, y_w]] broadcast from the (q, q) tables of
    ``_coordinate_quadrances``, read flat at qx * q + qy."""
    q = params.q
    qx, qy = _coordinate_quadrances(params)
    xu, yu = np.divmod(np.asarray(rows), q)
    grid = params.spec.add_table().ravel().take(qx[xu][:, :, None] * q + qy[yu][:, None, :])
    return grid.reshape(len(xu), q * q)


def origin_quadrance_values(params: ConicParams) -> np.ndarray:
    """(q^2,) array of quadrance value indices from the origin, by point id."""
    return quadrance_value_grid(params, [0])[0]


def discriminant_character(spec: FieldSpec, i, j, k) -> np.ndarray:
    """Quadratic character of f(i, j, k) over broadcast arrays of element
    indices, as int64: the vectorised form of
    ``quadratic_character(f_discriminant(i, j, k))``.

    f = ij - t^2/4 at t = i + j - k: ij comes from the exp/log tables, and
    -t^2/4 from one (q,) table, so the full broadcast shape takes two
    gathers from ``add``, read flat at a * q + b, and never builds ``mul``."""
    q = spec.q
    add = spec.add_table().ravel()
    neg = spec.neg_table()
    r = np.arange(q)
    neg_quarter_square = neg[spec.mul(spec.mul(r, r), _inv4_idx(spec))]  # -t^2/4 at t
    t = add.take(add.take(i * q + j) * q + neg[k])
    f = add.take(spec.mul(i, j) * q + neg_quarter_square.take(t))
    # chi_table is int8; callers scale the character by q +- 1
    return spec.chi_table().astype(np.int64).take(f)


def predicted_intersection_table(params: ConicParams, ks: np.ndarray | None = None) -> np.ndarray:
    """(q, q, q) int8 array of predicted counts for i, j, k all nonzero.

    Entries with any zero argument are set to -1 (outside the hypotheses).
    With ``ks``, an array of separation indices, only the slices
    [:, :, ks], in that order.
    """
    idx = np.arange(params.q)
    k = idx if ks is None else ks
    chi = discriminant_character(
        params.spec, idx[:, None, None], idx[None, :, None], k[None, None, :]
    )
    pred = (chi + 1).astype(np.int8)
    pred[0, :, :] = -1
    pred[:, 0, :] = -1
    pred[:, :, k == 0] = -1
    return pred


def verify_intersection_trichotomy(params: ConicParams) -> dict:
    """Check measured pairwise circle intersections against the trichotomy.

    For q <= ``EXHAUSTIVE_CENTER_CAP`` every unordered centre pair X != Y with
    nonzero separation quadrance is checked against every nonzero (i, j).
    Q(X, Z) = Q(0, Z - X) by the formula for Q, so relabelling Z -> Z - X
    gives the pair (X, X + D) the intersection histogram H_D of (0, D), with
    H_D[i, j] the number of points Z at Q(0, Z) = i and Q(D, Z) = j: each
    kept D stands for the q^2 pairs (X, X + D).  One D of each pair {D, -D}
    is kept, the one with the smaller point id: both stand for the same
    unordered pairs, and relabelling Z -> Z - D makes H_-D the transpose of
    H_D, read against the same prediction slice as Q(0, -D) = Q(0, D).

    Dilation certificate: every nonzero D is lambda R for one lambda != 0 and
    one representative R, a point (1, y) or (0, 1).  Z -> lambda Z is additive
    and Q(lambda Z) = mu Q(Z), mu = lambda^2, so H_D[mu i, mu j] = H_R[i, j]
    and Q(0, D) = mu Q(0, R).  Every kept D matches the prediction when
    (A) the prediction table is invariant under (i, j, k) -> mu0 (i, j, k),
    mu0 = g^2 the generator of the squares, and (B) H_R matches it for every
    R at a nonzero quadrance: one gather and q + 2 quadrance grid rows,
    O(q^3) in time and memory.  When either fails, the histograms of the
    kept D, read in blocks of q grid rows (the points (x1, .)), list the
    mismatches.  Larger fields check ``SAMPLE_PAIRS`` centre pairs drawn
    under ``SAMPLE_SEED``.

    Returns a summary dict with the number of unordered centre pairs checked
    and the first 20 mismatches, each (x, y, i, j, measured, predicted) for
    the centre point ids x and y, as in ``quadrance_value_grid``.
    """
    q = params.q
    n_pts = q * q

    def compare(x, ys):
        """The quadrances from x, the mask of the ys at a nonzero one, and
        there the measured and the predicted (i, j) histograms, i, j != 0."""
        rows = quadrance_value_grid(params, np.concatenate(([x], ys)))
        # histogram [r, i, j]: the points Z with Q(x, Z) = i and Q(ys[r], Z) = j
        keys = (np.arange(len(ys))[:, None] * q + rows[0]) * q + rows[1:]
        counts = np.bincount(keys.ravel(), minlength=len(ys) * n_pts)
        k = rows[0][ys]
        valid = k != 0
        measured = counts.reshape(len(ys), q, q)[valid][:, 1:, 1:]
        return rows[0], valid, measured, predict(k[valid])[1:, 1:, :].transpose(2, 0, 1)

    pairs_checked, mismatches = 0, []
    if q <= EXHAUSTIVE_CENTER_CAP:
        spec = params.spec
        table = predicted_intersection_table(params)

        def predict(ks):
            return table[:, :, ks]

        # one D of each pair {D, -D}, the one with the smaller point id
        neg = spec.neg_table()
        half = np.flatnonzero(np.arange(n_pts) < (neg[:, None] * q + neg).ravel())
        # the representatives (0, 1) and (1, y), by point id
        origin, _, measured, expected = compare(0, np.r_[1, q:2 * q])
        scale = spec.mul(spec.mul(spec.generator, spec.generator), np.arange(q))
        if (np.array_equal(table[np.ix_(scale, scale, scale)], table)
                and np.array_equal(measured, expected)):
            pairs_checked = n_pts * int(np.count_nonzero(origin[half]))
            centre_pairs = []
        else:
            blocks = np.split(half, np.searchsorted(half, np.arange(q, n_pts, q)))
            centre_pairs = [(0, ds, n_pts) for ds in blocks]
    else:
        rng = np.random.default_rng(SAMPLE_SEED)
        starts = rng.integers(0, n_pts, size=SAMPLE_PAIRS)
        others = rng.integers(0, n_pts, size=SAMPLE_PAIRS)
        slices = {}  # prediction slices by separation: pairs often share one

        def predict(ks):
            key = tuple(ks.tolist())
            if key not in slices:
                slices[key] = predicted_intersection_table(params, ks)
            return slices[key]

        centre_pairs = [(x, np.array([y]), 1)
                        for x, y in zip(starts.tolist(), others.tolist()) if x != y]

    # each centre x with centres ys, every pair standing for ``weight`` pairs
    for x, ys, weight in centre_pairs:
        _, valid, measured, expected = compare(x, ys)
        pairs_checked += weight * int(valid.sum())
        for r, i, j in np.argwhere(measured != expected)[:20 - len(mismatches)]:
            mismatches.append((x, int(ys[valid][r]), int(i + 1), int(j + 1),
                               int(measured[r, i, j]), int(expected[r, i, j])))
    return {
        "q": q,
        "pairs_checked": pairs_checked,
        "mismatches": mismatches,
        "ok": not mismatches,
    }
