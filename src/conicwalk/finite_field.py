"""Arithmetic for GF(q), q an odd prime power.

Elements are stored by canonical index in ``range(q)``: the index is the
base-p encoding of the coefficient vector, constant term least significant.
Indexing order therefore equals the lexicographic order on coefficient
vectors with the highest-degree coefficient most significant, which is the
total order used everywhere determinism matters (CSV dumps, smallest square
roots, worst-initial-state scans).

Every field, prime or not, computes through q-by-q ``add``/``mul`` lookup
tables built once per :class:`FieldSpec` on first use: the digit vectors are
added mod p, or convolved and reduced top-down by the monic modulus.  A prime
field is the d = 1 case, with modulus x.
"""

from __future__ import annotations

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
        self._chi_np: np.ndarray | None = None
        self._sqrt_np: np.ndarray | None = None

    # -- identity ----------------------------------------------------------

    def __eq__(self, other) -> bool:
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

    def add_idx(self, i: int, j: int) -> int:
        return self.add_table().item(i, j)

    def neg_idx(self, i: int) -> int:
        return self.mul_table().item(self.p - 1, i)  # p - 1 is the index of -1

    def sub_idx(self, i: int, j: int) -> int:
        return self.add_idx(i, self.neg_idx(j))

    def mul_idx(self, i: int, j: int) -> int:
        return self.mul_table().item(i, j)

    def pow_idx(self, i: int, n: int) -> int:
        if n < 0:
            raise ValueError("negative exponent; use inv_idx")
        mul = self.mul_table()
        acc, base = 1, i
        while n:
            if n & 1:
                acc = mul.item(acc, base)
            base = mul.item(base, base)
            n >>= 1
        return acc

    def inv_idx(self, i: int) -> int:
        if i == 0:
            raise ZeroDivisionError(f"inverse of 0 in {self!r}")
        return self.pow_idx(i, self.q - 2)

    def chi_idx(self, i: int) -> int:
        """Quadratic character from the cached square-enumeration table."""
        return self.chi_table().item(i)

    def sqrt_idx(self, i: int) -> int | None:
        r = self.sqrt_table().item(i)
        return None if r < 0 else r

    # -- cached tables --------------------------------------------------------

    def add_table(self) -> np.ndarray:
        if self._add_np is None:
            self._build_tables()
        return self._add_np

    def mul_table(self) -> np.ndarray:
        if self._mul_np is None:
            self._build_tables()
        return self._mul_np

    def _build_tables(self) -> None:
        """Both (q, q) int64 tables from the base-p digit vectors of every index."""
        p, d = self.p, self.d
        weights = p ** np.arange(d, dtype=np.int64)
        digits = np.arange(self.q, dtype=np.int64)[:, None] // weights % p  # (q, d)
        x, y = digits[:, None, :], digits[None, :, :]
        self._add_np = (x + y) % p @ weights
        # product coefficients by convolution, then cancel degrees >= d top-down
        prod = np.zeros((self.q, self.q, 2 * d - 1), dtype=np.int64)
        for s in range(d):
            prod[:, :, s:s + d] += x[:, :, s:s + 1] * y
        low = np.array(self.modulus[:d], dtype=np.int64)
        for deg in range(2 * d - 2, d - 1, -1):
            prod[:, :, deg - d:deg] -= prod[:, :, deg:deg + 1] % p * low
        self._mul_np = prod[:, :, :d] % p @ weights

    def chi_table(self) -> np.ndarray:
        if self._chi_np is None:
            self._build_square_tables()
        return self._chi_np

    def sqrt_table(self) -> np.ndarray:
        if self._sqrt_np is None:
            self._build_square_tables()
        return self._sqrt_np

    def _build_square_tables(self) -> None:
        v = np.arange(1, self.q)
        # np.unique reports each square's first, i.e. smaller, root
        squares, first = np.unique(self.mul_table()[v, v], return_index=True)
        chi = np.full(self.q, -1, dtype=np.int8)
        root = np.full(self.q, -1, dtype=np.int64)
        chi[0] = 0
        root[0] = 0
        chi[squares] = 1
        root[squares] = v[first]
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

    def __add__(self, other):
        other = self._check(other)
        return FieldElement(self.spec, self.spec.add_idx(self.idx, other.idx))

    def __sub__(self, other):
        other = self._check(other)
        return FieldElement(self.spec, self.spec.sub_idx(self.idx, other.idx))

    def __neg__(self):
        return FieldElement(self.spec, self.spec.neg_idx(self.idx))

    def __mul__(self, other):
        other = self._check(other)
        return FieldElement(self.spec, self.spec.mul_idx(self.idx, other.idx))

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


def make_prime_field(p: int, cap: int = ARITHMETIC_CAP) -> FieldSpec:
    """GF(p) for an odd prime p (trial-division check, desk scale)."""
    if not isinstance(p, int) or not _is_odd_prime(p):
        raise NotOddPrime(f"{p} is not an odd prime")
    if p > cap:
        raise CapExceeded(f"q = {p} exceeds the arithmetic cap {cap}")
    return FieldSpec(p, 1, (0, 1))


def make_extension_field(
    p: int, d: int, modulus=None, cap: int = ARITHMETIC_CAP
) -> FieldSpec:
    """GF(p^d), d >= 2, with the lexicographically smallest irreducible modulus.

    ``modulus`` overrides the automatic choice (for cross-checking tables
    against a different representation); it must be monic irreducible of
    degree d.
    """
    if not isinstance(p, int) or not _is_odd_prime(p):
        raise NotOddPrime(f"{p} is not an odd prime")
    if d < 2:
        raise ValueError("make_extension_field requires d >= 2; use make_prime_field")
    if p**d > cap:
        raise CapExceeded(f"q = {p}^{d} exceeds the arithmetic cap {cap}")
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

    Computed as x^((q-1)/2) compared against 1 and -1; the cached table in
    :meth:`FieldSpec.chi_idx` is the square-enumeration route, and the two
    must agree (property-tested).
    """
    spec = x.spec
    if x.idx == 0:
        return 0
    r = spec.pow_idx(x.idx, (spec.q - 1) // 2)
    if r == 1:
        return 1
    if r == spec.neg_idx(1):
        return -1
    raise RuntimeError(f"character of {x!r} is not 0, 1 or -1")  # unreachable


def sqrt(x: FieldElement) -> FieldElement | None:
    """The smaller square root of x in canonical order, or None for non-squares,
    from the cached square-enumeration table."""
    r = x.spec.sqrt_idx(x.idx)
    return None if r is None else FieldElement(x.spec, r)
