"""Arithmetic for GF(q), q an odd prime power.

Elements are stored by canonical index in ``range(q)``: the index is the
base-p encoding of the coefficient vector, constant term least significant.
Indexing order therefore equals the lexicographic order on coefficient
vectors with the highest-degree coefficient most significant, which is the
total order used everywhere determinism matters (CSV dumps, smallest square
roots, worst-initial-state scans).

Every field, prime or not, computes from O(q) tables of a primitive element
g (Lidl and Niederreiter, *Finite Fields*, 1997): exp[k] = g^k and its
discrete logarithm, so a product is exp[log a + log b] and a power one
lookup, exp[n log i mod (q - 1)] (three-argument ``pow`` at d = 1).  g is
the first candidate, from x upward (from 2 at d = 1), of order q - 1.  At
d = 1 the order test checks g^((q-1)/r) != 1 for each prime r dividing
q - 1; above, each candidate's powers are checked for a 1 before g^(q-1).
The powers are one residue product each at d = 1, and above come by
doubling through the d-by-d matrix of multiplication by g over GF(p).  A
prime field is the d = 1 case, with modulus x.  The quadratic character
and the smaller square root come from the even powers of g, the negation
map from the product with -1, whose index is p - 1.

The q-by-q ``add`` and ``mul`` tables are built apart, each on its first
use: ``add`` is the residue sum mod p at d = 1, extended one base-p digit at
a time, and ``mul`` is read from exp/log.  The scalar ``FieldElement``
addition and the closed-form discriminant read ``add``; ``mul`` serves the
enumeration oracle, the trichotomy's quadrance grid and the table digests
only.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .errors import CapExceeded, FieldMismatch, NotOddPrime

ARITHMETIC_CAP = 1024


def _is_odd_prime(p: int) -> bool:
    if p < 3 or p % 2 == 0:
        return False
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


def _poly_eval(coeffs: tuple[int, ...], x: int, p: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % p
    return acc


def _poly_divides(div: list[int], poly: list[int], p: int) -> bool:
    """Whether the monic polynomial ``div`` divides ``poly`` over Z_p."""
    rem = list(poly)
    dd = len(div) - 1
    while len(rem) - 1 >= dd:
        lead = rem[-1] % p
        if lead:
            shift = len(rem) - 1 - dd
            for i, c in enumerate(div):
                rem[shift + i] = (rem[shift + i] - lead * c) % p
        rem.pop()
    return all(c % p == 0 for c in rem)


def _is_irreducible(coeffs: list[int], p: int) -> bool:
    """Exhaustive root/factor check, fine at desk-scale degrees."""
    d = len(coeffs) - 1
    if any(_poly_eval(tuple(coeffs), x, p) == 0 for x in range(p)):
        return False
    # trial-divide by every monic polynomial of degree 2..d//2
    for deg in range(2, d // 2 + 1):
        for n in range(p**deg):
            div = _digits(n, p, deg) + [1]
            if _poly_divides(div, coeffs, p):
                return False
    return True


def _digits(n: int, p: int, width: int) -> list[int]:
    out = []
    for _ in range(width):
        out.append(n % p)
        n //= p
    return out


def _powers(mat: np.ndarray, p: int, count: int) -> np.ndarray:
    """(d, count) digit vectors of g^0, ..., g^(count - 1), for ``mat`` the
    d-by-d matrix of multiplication by g over GF(p), doubling the run each pass."""
    vecs = np.zeros((len(mat), count), dtype=np.int64)
    vecs[0, 0] = 1
    n = 1
    while n < count:
        vecs[:, n:2 * n] = mat @ vecs[:, :min(n, count - n)] % p
        mat = mat @ mat % p
        n *= 2
    return vecs


def _prime_factors(n: int) -> list[int]:
    out, f = [], 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    return out + [n] if n > 1 else out


class FieldSpec:
    """Immutable description of GF(p^d) plus cached arithmetic tables.

    Construct through :func:`make_prime_field` / :func:`make_extension_field`.
    """

    def __init__(self, p: int, d: int, modulus: tuple[int, ...]):
        self.p = p
        self.d = d
        self.q = p**d
        self.modulus = modulus
        self._add_np: np.ndarray | None = None
        self._mul_np: np.ndarray | None = None
        # the O(q) core: exp[k] = g^k for k < 2(q - 1), 0 from 2(q - 1) to 4(q - 1);
        # log[exp[k]] = k for k < q - 1 and log[0] = 2(q - 1), so a zero factor
        # lands past both copies of the powers, on 0
        self._exp_np: np.ndarray | None = None
        self._log_np: np.ndarray | None = None
        self._neg_np: np.ndarray | None = None
        self._chi_np: np.ndarray | None = None
        self._sqrt_np: np.ndarray | None = None

    # -- identity ----------------------------------------------------------

    def __eq__(self, other) -> bool:
        if other is self:
            return True
        if not isinstance(other, FieldSpec):
            return NotImplemented
        return (self.p, self.d, self.modulus) == (other.p, other.d, other.modulus)

    def __hash__(self) -> int:
        return hash((self.p, self.d, self.modulus))

    def __repr__(self) -> str:
        if self.d == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.d})"

    def to_json(self) -> dict:
        return {"p": self.p, "d": self.d, "modulus": list(self.modulus)}

    # -- element creation ---------------------------------------------------

    def element(self, value) -> "FieldElement":
        """Coerce an int (canonical index in ``range(q)``) or coefficient list."""
        if isinstance(value, FieldElement):
            if value.spec != self:
                raise FieldMismatch(f"element of {value.spec!r} used in {self!r}")
            return value
        if isinstance(value, (int, np.integer)):
            if not 0 <= value < self.q:
                raise ValueError(f"index {value} out of range for {self!r}")
            return FieldElement(self, int(value))
        coeffs = [int(c) % self.p for c in value]
        if len(coeffs) > self.d:
            raise ValueError(f"coefficient vector longer than degree {self.d}")
        coeffs += [0] * (self.d - len(coeffs))
        idx = 0
        for c in reversed(coeffs):
            idx = idx * self.p + c
        return FieldElement(self, idx)

    @property
    def zero(self) -> "FieldElement":
        return FieldElement(self, 0)

    @property
    def one(self) -> "FieldElement":
        return FieldElement(self, 1)

    def elements(self) -> list["FieldElement"]:
        return [FieldElement(self, i) for i in range(self.q)]

    def coeffs_of(self, idx: int) -> tuple[int, ...]:
        return tuple(_digits(idx, self.p, self.d))

    # -- scalar index arithmetic ---------------------------------------------

    @cached_property
    def _scalar(self) -> tuple[list[int], list[int], list[int]]:
        """The exp, log and negation tables as lists, for one-element lookups."""
        log = self._logs()
        return self._exp_np.tolist(), log.tolist(), self.neg_table().tolist()

    def neg_idx(self, i: int) -> int:
        return self._scalar[2][i]

    def mul_idx(self, i: int, j: int) -> int:
        exp, log, _ = self._scalar
        return exp[log[i] + log[j]]

    def pow_idx(self, i: int, n: int) -> int:
        if n < 0:
            raise ValueError("negative exponent; use inv_idx")
        if self.d == 1:
            return pow(int(i), n, self.p)
        if i == 0:
            return int(n == 0)
        exp, log, _ = self._scalar
        return exp[log[i] * n % (self.q - 1)]

    def inv_idx(self, i: int) -> int:
        if i == 0:
            raise ZeroDivisionError(f"inverse of 0 in {self!r}")
        return self.pow_idx(i, self.q - 2)

    def chi_idx(self, i: int) -> int:
        """Quadratic character from the cached table of the even powers of g."""
        return self.chi_table().item(i)

    def sqrt_idx(self, i: int) -> int | None:
        r = self.sqrt_table().item(i)
        return None if r < 0 else r

    # -- the O(q) core ----------------------------------------------------------

    def mul(self, i, j) -> np.ndarray:
        """Products of broadcast arrays of element indices, from exp/log: no
        (q, q) table."""
        log = self._logs()
        return self._exp_np.take(log[i] + log[j])

    @property
    def generator(self) -> int:
        """Index of g, the primitive element of exp/log."""
        self._logs()
        return int(self._exp_np[1])

    def neg_table(self) -> np.ndarray:
        """(q,) int64: the index of -x at x."""
        if self._neg_np is None:
            self._neg_np = self.mul(self.p - 1, np.arange(self.q))  # -1 has index p - 1
        return self._neg_np

    def _times_matrix(self, g: int) -> np.ndarray:
        """The d-by-d matrix over GF(p) of multiplication by g: column j holds
        the digits of g * x^j, where x^d = -(the low terms of the modulus)."""
        cols = [_digits(g, self.p, self.d)]
        for _ in range(self.d - 1):
            v = cols[-1]
            cols.append([(c - v[-1] * m) % self.p for c, m in zip([0] + v[:-1], self.modulus)])
        return np.array(cols, dtype=np.int64).T

    def _logs(self) -> np.ndarray:
        """The log table, building exp/log on first use (see the module docstring)."""
        if self._log_np is None:
            p, d, q = self.p, self.d, self.q
            if d == 1:  # an index is its residue: g^((q-1)/r) != 1 for each prime r
                cofactors = [(q - 1) // r for r in _prime_factors(q - 1)]
                g = next(g for g in range(2, q) if all(pow(g, n, p) != 1 for n in cofactors))
                powers = [1]  # one residue product per power
                for _ in range(q - 2):
                    powers.append(powers[-1] * g % p)
            else:
                # the first g of order q - 1, from x upward: the prime subfield
                # holds no generator of a proper extension
                weights = p ** np.arange(d, dtype=np.int64)
                for g in range(p, q):
                    powers = weights @ _powers(self._times_matrix(g), p, q - 1)
                    if not (powers[1:] == 1).any():
                        break
            exp = np.zeros(4 * (q - 1) + 1, dtype=np.int64)
            exp[:q - 1] = powers
            exp[q - 1:2 * (q - 1)] = exp[:q - 1]
            log = np.empty(q, dtype=np.int64)
            log[exp[:q - 1]] = np.arange(q - 1)
            log[0] = 2 * (q - 1)
            self._exp_np, self._log_np = exp, log
        return self._log_np

    # -- cached (q, q) tables ---------------------------------------------------

    def add_table(self) -> np.ndarray:
        """(q, q) int64 sums, the residue sum extended digit by digit."""
        if self._add_np is None:
            p = self.p
            r = np.arange(p, dtype=np.int64)
            # the residue sum: row a is r rotated left by a, base[a, b] = (a + b) mod p
            base = np.lib.stride_tricks.sliding_window_view(np.concatenate([r, r]), p)[:p]
            # index a = p * a_hi + a_0: add = p * add[a_hi, b_hi] + base[a_0, b_0]
            add = base.copy()
            for _ in range(self.d - 1):
                m = len(add)
                add = (p * add[:, None, :, None] + base[None, :, None, :]).reshape(m * p, m * p)
            self._add_np = add
        return self._add_np

    def mul_table(self) -> np.ndarray:
        """(q, q) int64 products, read from exp/log."""
        if self._mul_np is None:
            r = np.arange(self.q)
            self._mul_np = self.mul(r[:, None], r)
        return self._mul_np

    def chi_table(self) -> np.ndarray:
        if self._chi_np is None:
            self._build_square_tables()
        return self._chi_np

    def sqrt_table(self) -> np.ndarray:
        if self._sqrt_np is None:
            self._build_square_tables()
        return self._sqrt_np

    def _build_square_tables(self) -> None:
        """The squares are the even powers g^(2k), k < (q - 1)/2, with the
        roots g^k and -g^k = g^(k + (q - 1)/2); the smaller one is kept."""
        self._logs()
        q, half = self.q, (self.q - 1) // 2
        exp = self._exp_np
        chi = np.full(q, -1, dtype=np.int8)
        root = np.full(q, -1, dtype=np.int64)
        chi[0] = 0
        root[0] = 0
        chi[exp[:q - 1:2]] = 1
        root[exp[:q - 1:2]] = np.minimum(exp[:half], exp[half:q - 1])
        self._chi_np = chi
        self._sqrt_np = root


class FieldElement:
    """A single element of a :class:`FieldSpec`, in canonical reduced form."""

    __slots__ = ("spec", "idx")

    def __init__(self, spec: FieldSpec, idx: int):
        self.spec = spec
        self.idx = idx

    @property
    def coeffs(self) -> tuple[int, ...]:
        return self.spec.coeffs_of(self.idx)

    def to_json(self):
        return self.idx if self.spec.d == 1 else list(self.coeffs)

    def _check(self, other: "FieldElement") -> "FieldElement":
        if not isinstance(other, FieldElement):
            raise TypeError(f"expected FieldElement, got {type(other).__name__}")
        # every element of one field normally shares its spec object
        if other.spec is not self.spec and other.spec != self.spec:
            raise FieldMismatch(f"mixing elements of {self.spec!r} and {other.spec!r}")
        return other

    # the hot arithmetic tests spec identity inline before falling back to
    # _check and reads a built table without the call: two frames fewer per
    # operation in the scalar certification row

    def __add__(self, other):
        spec = self.spec
        if other.__class__ is not FieldElement or other.spec is not spec:
            other = self._check(other)
        add = spec._add_np
        idx = (spec.add_table() if add is None else add).item(self.idx, other.idx)
        return FieldElement(spec, idx)

    def __sub__(self, other):
        spec = self.spec
        if other.__class__ is not FieldElement or other.spec is not spec:
            other = self._check(other)
        add = spec._add_np
        idx = (spec.add_table() if add is None else add).item(self.idx, spec._scalar[2][other.idx])
        return FieldElement(spec, idx)

    def __neg__(self):
        return FieldElement(self.spec, self.spec.neg_idx(self.idx))

    def __mul__(self, other):
        spec = self.spec
        if other.__class__ is not FieldElement or other.spec is not spec:
            other = self._check(other)
        exp, log, _ = spec._scalar
        return FieldElement(spec, exp[log[self.idx] + log[other.idx]])

    def __pow__(self, n: int):
        return FieldElement(self.spec, self.spec.pow_idx(self.idx, n))

    def inverse(self) -> "FieldElement":
        return FieldElement(self.spec, self.spec.inv_idx(self.idx))

    def __truediv__(self, other):
        other = self._check(other)
        return self * other.inverse()

    def __bool__(self) -> bool:
        return self.idx != 0

    def __eq__(self, other) -> bool:
        if other is self:
            return True
        if not isinstance(other, FieldElement):
            return NotImplemented
        return self.spec == other.spec and self.idx == other.idx

    def __lt__(self, other) -> bool:
        self._check(other)
        return self.idx < other.idx

    def __le__(self, other) -> bool:
        self._check(other)
        return self.idx <= other.idx

    def __hash__(self) -> int:
        return hash((self.idx, self.spec.p, self.spec.d))

    def __repr__(self) -> str:
        if self.spec.d == 1:
            return f"{self.idx}"
        return f"{self.idx}~{list(self.coeffs)}"


def make_prime_field(p: int) -> FieldSpec:
    """GF(p) for an odd prime p (trial-division check, desk scale)."""
    if not isinstance(p, int) or not _is_odd_prime(p):
        raise NotOddPrime(f"{p} is not an odd prime")
    if p > ARITHMETIC_CAP:
        raise CapExceeded(f"q = {p} exceeds the arithmetic cap {ARITHMETIC_CAP}")
    return FieldSpec(p, 1, (0, 1))


def make_extension_field(p: int, d: int, modulus=None) -> FieldSpec:
    """GF(p^d), d >= 2, with the lexicographically smallest irreducible modulus.

    ``modulus`` overrides the automatic choice (for cross-checking tables
    against a different representation); it must be monic irreducible of
    degree d.
    """
    if not isinstance(p, int) or not _is_odd_prime(p):
        raise NotOddPrime(f"{p} is not an odd prime")
    if d < 2:
        raise ValueError("make_extension_field requires d >= 2; use make_prime_field")
    if p**d > ARITHMETIC_CAP:
        raise CapExceeded(f"q = {p}^{d} exceeds the arithmetic cap {ARITHMETIC_CAP}")
    if modulus is not None:
        coeffs = [int(c) % p for c in modulus]
        if len(coeffs) != d + 1 or coeffs[-1] != 1:
            raise ValueError("modulus must be monic of degree d")
        if not _is_irreducible(coeffs, p):
            raise ValueError("supplied modulus is reducible")
        return FieldSpec(p, d, tuple(coeffs))
    for n in range(p**d):
        coeffs = _digits(n, p, d) + [1]
        if _is_irreducible(coeffs, p):
            return FieldSpec(p, d, tuple(coeffs))
    raise RuntimeError("no irreducible polynomial found")  # unreachable for d >= 2


def make_field(p: int, d: int = 1) -> FieldSpec:
    return make_prime_field(p) if d == 1 else make_extension_field(p, d)


def quadratic_character(x: FieldElement) -> int:
    """1 on nonzero squares, -1 on non-squares, 0 at 0.

    Euler's criterion: x^((q-1)/2), one lookup, compared against 1 and -1.
    The other route is the cached table of :meth:`FieldSpec.chi_idx`, which
    marks the even powers g^(2k) of the primitive element as the squares.
    The two must agree on every element (tested at every field q <= 1024).
    """
    spec = x.spec
    if x.idx == 0:
        return 0
    r = spec.pow_idx(x.idx, (spec.q - 1) // 2)
    if r == 1:
        return 1
    if r == spec.p - 1:  # the index of -1
        return -1
    raise RuntimeError(f"character of {x!r} is not 0, 1 or -1")  # unreachable


def sqrt(x: FieldElement) -> FieldElement | None:
    """The smaller square root of x in canonical order, or None for non-squares,
    from the cached table of the even powers of the primitive element."""
    r = x.spec.sqrt_idx(x.idx)
    return None if r is None else FieldElement(x.spec, r)
