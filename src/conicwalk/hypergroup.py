"""Structure constants of the weighted-circle classes, exact and verified.

Translating a point of class i by a point of class j lands in class k a
fixed fraction n[i,j,k] of the time; those fractions are convex weights and
make the classes a hermitian commutative hypergroup.  This module provides
the closed-form constants, a brute-force enumeration oracle, and the axiom
checker.

The oracle stays independent of the closed form and of the theorem behind
it, that the circles are the orbits of O(Q), and runs in O(q^3).  It counts
the pairs (u, v) only for u in the classes 0, 1, the first non-square g and
the isotropic class, one u per orbit of the sign flips (x, y) -> (+-x, +-y),
and gathers every other class's plane by the dilation x -> lambda x, which
scales Q = a x^2 + b y^2 by lambda^2 (see ``oracle_table``).

Both sources produce the same single representation: the int64 count array
C[i,j,k] = n[i,j,k] * N_i * N_j (the number of translation pairs of class i
by class j landing in class k) together with the class sizes N.  The closed
form emits the per-point plane c[i, k] = C[i,j,k] / N_i, the convolution of a
point of class i with class j, which is the walk's step matrix at j = s;
``build_table`` scales each plane by N_i.  Every other view -- floats,
``Fraction`` values, CSV, JSON, axiom and equality checks -- is derived from
those integers, so exactness never depends on rational arithmetic in the hot
path.

For q = 1 (mod 4) the closed form follows the enumeration oracle where the
commonly stated case analysis is wrong: the row of (isotropic, j) is uniform
over the q-1 classes (F_q^* with j replaced by the isotropic class), not
over "everything but j".  The stated variant is kept behind
``published_isotropic_row=True`` for diagnostics; see :mod:`conicwalk.errata`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np

from .conic_geometry import (
    ClassIndex,
    ConicParams,
    ORACLE_CAP,
    class_size,
    class_sizes,
    discriminant_character,
    index_set,
)
from .errors import CapExceeded, IndexInvalid

MAX_MISMATCHES = 50  # differing triples listed by ``StructureTable.mismatches``
MAX_VIOLATIONS = 20  # violating indices listed per axiom by ``verify_axioms``


def _fraction_texts(counts: np.ndarray, dens, sep: str = "/", labels=None) -> np.ndarray:
    """Object array shaped like the non-negative ``counts``: the text
    f"{num}{sep}{den}" of counts / dens (positive, broadcast) in lowest terms,
    after f"{labels[k]}," for the last index k when ``labels`` is given.  A
    table has about ten distinct values over a few distinct denominators, so
    each entry is keyed densely by (code of its denominator, count), every
    count below span: only the denominators are sorted, not the entries.
    Each value present is reduced and formatted once, and a lookup over the
    key range numbers them."""
    span = int(counts.max(initial=0)) + 1
    den_values, den_codes = np.unique(dens, return_inverse=True)
    keys = den_codes.reshape(np.shape(dens)) * span + counts
    present = np.zeros(len(den_values) * span, dtype=bool)
    present[keys] = True
    codes = np.flatnonzero(present)
    lookup = np.cumsum(present) - 1  # the rank of each present key
    values = (Fraction(c % span, d)
              for c, d in zip(codes.tolist(), den_values[codes // span].tolist()))
    texts = [f"{v.numerator}{sep}{v.denominator}" for v in values]
    inverse = lookup[keys]
    if labels is not None:
        inverse = inverse + np.arange(len(labels)) * len(texts)
        texts = [f"{lk},{t}" for lk in labels for t in texts]
    return np.array(texts, dtype=object)[inverse]


class StructureTable:
    """Dense table of structure constants, stored as the int64 count array
    ``counts[i, j, k] = n[i,j,k] * N_i * N_j`` plus the class sizes N."""

    def __init__(
        self,
        params: ConicParams,
        classes: list[ClassIndex],
        sizes: list[int],
        counts: np.ndarray,
        source: str,
        split: bool = True,
        validate: bool = True,
    ):
        self.params = params
        self.classes = list(classes)
        self.sizes = [int(s) for s in sizes]  # plain ints: json.dumps rejects np.int64
        self.counts = np.asarray(counts, dtype=np.int64)
        self.source = source
        self.split = split
        self._pos = {c: t for t, c in enumerate(self.classes)}
        # N_i * N_j: the denominator of every n[i, j, k]
        self.pair_sizes = np.outer(self.sizes, self.sizes)
        if validate:
            negative = np.argwhere((self.counts < 0).any(axis=2))
            if len(negative):
                i, j = negative[0]
                raise ValueError(f"negative entry in row ({i},{j})")
            sums = self.counts.sum(axis=2)
            unnormalized = np.argwhere(sums != self.pair_sizes)
            if len(unnormalized):
                i, j = unnormalized[0]
                raise ValueError(f"row ({i},{j}) sums to {self._ratio(sums, i, j)} != 1")

    def _ratio(self, numerators: np.ndarray, i: int, j: int, *k: int) -> Fraction:
        return Fraction(int(numerators[(i, j, *k)]), int(self.pair_sizes[i, j]))

    @property
    def size(self) -> int:
        return len(self.classes)

    def position(self, c: ClassIndex) -> int:
        try:
            return self._pos[c]
        except KeyError:
            raise IndexInvalid(f"{c!r} is not in this table's index set") from None

    def n(self, i: ClassIndex, j: ClassIndex, k: ClassIndex) -> Fraction:
        return self._ratio(self.counts, self.position(i), self.position(j), self.position(k))

    def row(self, i: ClassIndex, j: ClassIndex) -> list[Fraction]:
        pi, pj = self.position(i), self.position(j)
        den = int(self.pair_sizes[pi, pj])
        return [Fraction(c, den) for c in self.counts[pi, pj].tolist()]

    @cached_property
    def entries(self) -> list[list[list[Fraction]]]:
        """Nested ``Fraction`` view entries[i][j][k] = n[i,j,k]."""
        return [
            [[Fraction(c, den) for c in row] for row, den in zip(plane, dens)]
            for plane, dens in zip(self.counts.tolist(), self.pair_sizes.tolist())
        ]

    def __eq__(self, other) -> bool:
        if not isinstance(other, StructureTable):
            return NotImplemented
        return (
            self.classes == other.classes
            and self.sizes == other.sizes
            and np.array_equal(self.counts, other.counts)
        )

    def differs(self, other: "StructureTable") -> np.ndarray:
        """Mask of the triples (i, j, k) where n differs from ``other``'s n."""
        if self.classes != other.classes:
            raise IndexInvalid("tables have different index sets")
        # n = C / (N_i N_j) on both sides, compared by cross-multiplying
        return (self.counts * other.pair_sizes[:, :, None]
                != other.counts * self.pair_sizes[:, :, None])

    def mismatches(self, other: "StructureTable") -> list[dict]:
        """The first ``MAX_MISMATCHES`` entry-level differences against another
        table on the same index set."""
        differ = self.differs(other)
        labels = [c.label() for c in self.classes]
        return [
            {
                "i": labels[i],
                "j": labels[j],
                "k": labels[k],
                self.source: str(self._ratio(self.counts, i, j, k)),
                other.source: str(other._ratio(other.counts, i, j, k)),
            }
            for i, j, k in np.argwhere(differ)[:MAX_MISMATCHES].tolist()
        ]

    def _reduced(self) -> tuple[list, list]:
        """(numerators, denominators) of every n[i,j,k] in lowest terms, nested lists."""
        den = np.broadcast_to(self.pair_sizes[:, :, None], self.counts.shape)
        g = np.gcd(self.counts, den)
        return (self.counts // g).tolist(), (den // g).tolist()

    def to_csv_rows(self):
        """Rows (i, j, k, num, den, N_i, N_j) in canonical order."""
        labels = [c.label() for c in self.classes]
        nums, dens = self._reduced()
        for i, li in enumerate(labels):
            for j, lj in enumerate(labels):
                for lk, num, den in zip(labels, nums[i][j], dens[i][j]):
                    yield (li, lj, lk, num, den, self.sizes[i], self.sizes[j])

    def csv_blocks(self):
        """The rows of ``to_csv_rows`` as CSV text, one block per i plane: the
        "k,num,den" texts of (i, j) joined between its "i,j," and ",N_i,N_j"."""
        labels = [c.label() for c in self.classes]
        cells = _fraction_texts(self.counts, self.pair_sizes[:, :, None], ",", labels)
        for i, li in enumerate(labels):
            lines = []
            for j, (lj, row) in enumerate(zip(labels, cells[i].tolist())):
                pre, suf = f"{li},{lj},", f",{self.sizes[i]},{self.sizes[j]}\n"
                lines.append(pre + (suf + pre).join(row) + suf)
            yield "".join(lines)

    def to_json_dict(self) -> dict:
        return {
            "params": self.params.to_json(),
            "source": self.source,
            "split": self.split,
            "classes": [c.label() for c in self.classes],
            "sizes": self.sizes,
            "rows": _fraction_texts(self.counts, self.pair_sizes[:, :, None]).tolist(),
        }


# ---------------------------------------------------------------------------
# brute-force oracle
# ---------------------------------------------------------------------------

def _class_array(params: ConicParams, split: bool) -> np.ndarray:
    """Class position of every point id (x*q + y); isotropic last."""
    from .conic_geometry import origin_quadrance_values

    q = params.q
    vals = origin_quadrance_values(params)
    cls = vals.astype(np.int64)
    if split and params.split:
        origin = 0
        iso_mask = (vals == 0) & (np.arange(q * q) != origin)
        cls[iso_mask] = q
    return cls


def oracle_table(
    params: ConicParams, split: bool = True, cap: int = ORACLE_CAP
) -> StructureTable:
    """Exact structure constants by enumerating ordered point pairs, in O(q^3).

    Dilation fold: for lambda != 0 the map x -> lambda x is additive and
    Q(lambda x) = lambda^2 Q(x), so it fixes the origin, maps the null cone
    onto itself and (u, v) -> (lambda u, lambda v) carries the pairs of the
    class triple (i, j, k) onto those of (mu i, mu j, mu k), mu = lambda^2,
    with 0 and the isotropic class fixed.  Hence C[i, j, k] = C[r, j/mu, k/mu]
    for i = mu r.  Only the planes i = 0, 1, the first non-square g and the
    isotropic class are counted; every other finite i is mu r with r in
    {1, g} and mu = i/r a square, and its plane is gathered from plane r.

    Sign-flip fold: the flips s(x, y) = (+-x, +-y) are additive and fix Q, so
    (u, v) -> (s u, s v) maps the pairs of each class triple onto themselves:
    every u of one sign-flip orbit has the same histogram of (class of v,
    class of u + v) over all v.  One u is kept per orbit, the one whose
    coordinate indices are at most those of their negatives, weighted by the
    orbit size 1, 2 or 4.

    Both folds use only the formula for Q, not the closed form nor the
    theorem under test that the circles are the orbits of O(Q).  The O(q)
    kept u of the counted planes are grouped by plane and weight; each group
    is one gather of the classes of u + v over all q^2 points v, keyed with
    the class of v and counted by one bincount into n^2 bins: O(q^3) in all,
    as is the gather of the n planes."""
    q, spec = params.q, params.spec
    if q > cap:
        raise CapExceeded(f"q = {q} exceeds the oracle cap {cap}")
    split = split and params.split
    classes = index_set(params, split=split)
    n_classes = len(classes)
    cls = _class_array(params, split).reshape(q, q)  # cls[x, y]
    add = spec.add_table()
    key_v = cls * n_classes  # key term of the class of v = (x_v, y_v) in key[u, x_v, y_v]

    # the counted planes by class position, each numbered: 0, 1, g, isotropic
    chi = spec.chi_table()
    g = int(np.argmax(chi == -1))
    counted = np.full(n_classes, -1)
    counted[[0, 1, g] + [q] * split] = np.arange(3 + split)

    # their kept u: coordinate indices at most those of their negatives
    # (add[x, -x] = 0 is the least index in row x), weight 2 per nonzero one
    half = np.flatnonzero(np.arange(q) <= add.argmin(axis=1))
    x_u, y_u = (c.ravel() for c in np.meshgrid(half, half, indexing="ij"))
    plane = counted[cls[x_u, y_u]]
    x_u, y_u, plane = x_u[plane >= 0], y_u[plane >= 0], plane[plane >= 0]
    weight = np.where(x_u > 0, 2, 1) * np.where(y_u > 0, 2, 1)
    group = plane * 5 + weight  # (plane, weight), weight in {1, 2, 4}
    order = np.argsort(group)
    bounds = np.flatnonzero(np.diff(group[order])) + 1

    planes = np.zeros((3 + split, n_classes**2), dtype=np.int64)
    for members in np.split(order, bounds):
        key = cls.take(add[x_u[members], :, None] * q + add[y_u[members], None, :])
        key += key_v
        t, w = divmod(int(group[members[0]]), 5)
        planes[t] += w * np.bincount(key.ravel(), minlength=n_classes**2)

    # plane i = mu r reads plane r at j/mu: div[m, mu_m t] = t for the m-th
    # square mu_m; the rows of 0 and the isotropic class read their own plane
    squares = np.flatnonzero(chi == 1)
    div = np.empty((len(squares), q), dtype=np.int64)
    div[np.arange(len(squares))[:, None], spec.mul(squares[:, None], np.arange(q))] = np.arange(q)
    source = counted.copy()
    perm = np.tile(np.arange(n_classes), (n_classes, 1))
    for r in (1, g):
        rows = spec.mul(squares, r)
        source[rows] = counted[r]
        perm[rows, :q] = div
    counts = np.empty((n_classes,) * 3, dtype=np.int64)
    for i, (t, row) in enumerate(zip(source.tolist(), perm)):
        counts[i] = planes[t].take(row[:, None] * n_classes + row)

    sizes = np.bincount(cls.ravel(), minlength=n_classes)
    return StructureTable(params, classes, sizes, counts, "oracle", split)


# ---------------------------------------------------------------------------
# closed form
# ---------------------------------------------------------------------------

def closed_row(
    params: ConicParams,
    rows: list[ClassIndex],
    cj: ClassIndex,
    published_isotropic_row: bool = False,
) -> np.ndarray:
    """The closed-form per-point rows c[ci, k] = n[ci, cj, k] * N_cj over k
    (int64, canonical class order), one per class ci of ``rows``, stacked:
    the number of points of class cj that carry one fixed point of class ci
    into class k.  For cj = s it is the walk's step matrix.  One character
    call covers the (ci, k) grid of the finite nonzero rows; the zero and
    isotropic rows and columns are set by index."""
    q, r = params.q, np.arange(len(rows))
    pos = np.array([q if c.is_isotropic else c.value.idx for c in rows], dtype=np.int64)
    out = np.zeros((len(rows), q + params.split), dtype=np.int64)
    if cj.is_zero:
        # n[ci, 0, k] = delta(ci, k)
        out[r, pos] = 1
        return out
    j = q if cj.is_isotropic else cj.value.idx
    fin = (pos > 0) & (pos < q)
    if j < q:
        # finite i x finite j: n = (1 + chi(f)) / N over the finite classes k,
        # N = N_j the size of every nonzero finite class
        chi = discriminant_character(params.spec, pos[fin, None], j, np.arange(q))
        out[fin, :q] = chi + 1
        if params.split:
            # the null cone: the origin when i = j, else the isotropic class
            same = pos[fin] == j
            out[fin, 0] = same
            out[fin, q] = np.where(same, 0, 2)
    if params.split:
        if j == q:
            # iso x iso: n = 1/(2w) on each finite class, (q-2)/(2w) on iso; N_iso = 2w
            out[pos == q, :q] = 1
            out[pos == q, q] = q - 2
        # one isotropic side, the other the finite class f: n = 1/w off f, times
        # N_iso = 2w or N_f = w; the stated variant puts mass on the zero class,
        # the enumeration none
        one = fin if j == q else pos == q
        per_point = 2 if j == q else 1
        out[one] = per_point
        out[r[one], pos[one] if j == q else j] = 0
        out[one, 0] = per_point if published_isotropic_row else 0
    # n[0, cj, k] = delta(cj, k)
    out[pos == 0, j] = class_size(cj, params)
    return out


def structure_constant(
    i: ClassIndex,
    j: ClassIndex,
    k: ClassIndex,
    params: ConicParams,
    published_isotropic_row: bool = False,
) -> Fraction:
    """Closed-form n[i,j,k]; exact, agrees with the oracle on every triple."""
    classes = index_set(params)
    for c in (i, j, k):
        if c not in classes:
            raise IndexInvalid(f"{c!r} is not a class over {params.spec!r}")
    row = closed_row(params, [i], j, published_isotropic_row=published_isotropic_row)[0]
    return Fraction(int(row[classes.index(k)]), class_size(j, params))


def build_table(
    params: ConicParams,
    source: str = "closed-form",
    published_isotropic_row: bool = False,
) -> StructureTable:
    """Materialize the full table from the chosen source."""
    if source == "oracle":
        return oracle_table(params)
    if source != "closed-form":
        raise ValueError(f"unknown source {source!r}")
    classes = index_set(params)
    sizes = class_sizes(params)
    # one call per column class j gives the plane C[:, j, :] / N_i
    counts = np.stack(
        [closed_row(params, classes, cj, published_isotropic_row) for cj in classes], axis=1)
    counts *= sizes[:, None, None]
    return StructureTable(params, classes, sizes, counts, "closed-form",
                          validate=not published_isotropic_row)


# ---------------------------------------------------------------------------
# axioms
# ---------------------------------------------------------------------------

@dataclass
class AxiomReport:
    """Pass/fail per hypergroup axiom, with the violating triples listed."""

    positivity: bool = True
    normalization: bool = True
    hermitian_support: bool = True
    commutativity: bool = True
    identity_row: bool = True
    violations: dict = field(default_factory=dict)

    @property
    def all_pass(self) -> bool:
        return (
            self.positivity
            and self.normalization
            and self.hermitian_support
            and self.commutativity
            and self.identity_row
        )

    def to_json(self) -> dict:
        return {**vars(self), "all_pass": self.all_pass}


def verify_axioms(table: StructureTable) -> AxiomReport:
    """Check positivity, exact normalization, hermitian support at the
    identity (n[i,j,0] > 0 iff i = j), commutativity, and the identity row,
    listing at most ``MAX_VIOLATIONS`` violations per axiom."""
    counts, den = table.counts, table.pair_sizes
    labels = [c.label() for c in table.classes]
    zero = next(t for t, c in enumerate(table.classes) if c.is_zero)
    eye = np.eye(table.size, dtype=np.int64)
    sums = counts.sum(axis=2)
    # each axiom: violation mask, and the report item of one violating index
    checks = {
        "positivity": ((counts < 0).any(axis=2), lambda i, j: (labels[i], labels[j])),
        "normalization": (
            sums != den,
            lambda i, j: (labels[i], labels[j], str(table._ratio(sums, i, j))),
        ),
        "hermitian_support": (
            (counts[:, :, zero] > 0) != eye.astype(bool),
            lambda i, j: (labels[i], labels[j], str(table._ratio(counts, i, j, zero))),
        ),
        "commutativity": (
            counts != counts.transpose(1, 0, 2),
            lambda i, j, k: (labels[i], labels[j], labels[k]),
        ),
        # n[0, j, k] = delta_jk
        "identity_row": (
            (counts[zero] != eye * den[zero][:, None]).any(axis=1),
            lambda j: (labels[j],),
        ),
    }
    report = AxiomReport()
    for axiom, (mask, item) in checks.items():
        setattr(report, axiom, not mask.any())
        hits = np.argwhere(mask)[:MAX_VIOLATIONS].tolist()
        if hits:
            report.violations[axiom] = [item(*hit) for hit in hits]
    return report


def two_step_support(
    i: ClassIndex, j: ClassIndex, table: StructureTable, step: ClassIndex | None = None
) -> ClassIndex | None:
    """A class k with n[i,step,k] > 0 and n[k,step,j] > 0, or None."""
    if step is None:
        step = ClassIndex.finite(table.params.spec.one)
    s = table.position(step)
    via = np.flatnonzero(
        (table.counts[table.position(i), s] > 0) & (table.counts[:, s, table.position(j)] > 0)
    )
    return table.classes[via[0]] if via.size else None
