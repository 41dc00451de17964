"""Random walk driven by a fixed class: kernel, stationarity, mixing.

The kernel K(i, j) = n[i, s, j] is stored as the integer step matrix
c[i, j] = n[i, s, j] N_s, the number of points of the step circle that
carry a fixed point of class i into class j (``closed_row`` at the step
class emits it), plus the step size N_s.  So K = c / N_s and
K^m = c^m / N_s^m.  The float64 matrix (built on first use) and the
``Fraction`` view are derived from those integers.  Exact statements use
integer arithmetic: stationarity of the class-size law is the identity
sum_i N_i c[i, j] = N_s N_j at every q, and one int64 forward loop from the
origin (``Kernel._origin_walks``) gives the worst-start TV curve and the
mixing time, exact while q^2 N_s^t < 2^63, the minorization constant, exact
while N_s^m < 2^63, and a certificate of ergodicity.  Past those guards TV
curves run in float64 with explicit tolerances (mixing times here are O(q)
steps, so accumulated error stays far below them) and the minorization
constant is a float64 matrix power.

The origin class is the worst start, for TV and for minorization.  The
classes are the orbits of O(Q), which fixes the step circle, so the point
law mu_t of the walk from the origin is a class function: mu_t(z) =
K^t(0, c) / N_c for z in class c.  By translation invariance a point x of
class i reaches class j with probability sum over y in S_j of mu_t(y - x).
So K^t(i, j) / pi_j, pi the class-size law pi_j = N_j / q^2, is the average
over y in S_j of g(class(y - x)), g(c) = K^t(0, c) / pi_c: at least min g,
with equality at the origin.  Likewise a class start is a mixture of point
starts, which all have the origin's point TV, and the origin's law is
uniform on each class, so its class TV is its point TV.  One row then gives
the worst start for both.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .conic_geometry import (
    ClassIndex,
    ConicParams,
    class_sizes,
    index_set,
    intersection_count,
)
from .errors import (
    BranchMismatch,
    IndexInvalid,
    IndexMismatch,
    InternalCheckError,
    NotErgodic,
    WalkTimeout,
)
from .hypergroup import StructureTable, _fraction_texts, closed_row

STATIONARY_TOL = 1e-13
DECAY_SLACK = 1e-10
DECAY_STEPS = 30
MONOTONE_SLACK = 1e-12


class Kernel:
    """Row-stochastic matrix of the class walk with step class ``step``: the
    integer step matrix step_counts[i, j] = n[i, step, j] N_step, taken as
    given (each row must sum to the step size N_step), and the class sizes."""

    def __init__(self, params: ConicParams, classes: list[ClassIndex],
                 step: ClassIndex, step_counts: np.ndarray, sizes):
        self.params = params
        self.classes = list(classes)
        self.step = step
        self.sizes = np.asarray(sizes, dtype=np.int64)
        self.step_size = int(self.sizes[self.position(step)])
        self.step_counts = np.asarray(step_counts, dtype=np.int64)
        sums = self.step_counts.sum(axis=1)
        bad = np.flatnonzero(sums != self.step_size)
        if bad.size:
            t = bad[0]
            raise ValueError(f"kernel row {t} sums to "
                             f"{Fraction(int(sums[t]), self.step_size)} != 1")
        self._walks = [np.eye(1, self.size, dtype=np.int64)[0]]  # c^t e_0, t = 0, 1, ...

    @cached_property
    def mat(self) -> np.ndarray:
        """The float64 kernel K = c / N_s."""
        # int64 / int is one correctly rounded division: equals float(Fraction)
        mat = self.step_counts / self.step_size
        err = np.abs(mat.sum(axis=1) - 1.0).max()
        if err > 1e-15:
            raise ValueError(f"float kernel row sum off by {err}")
        return mat

    @cached_property
    def _balanced(self) -> bool:
        """Detailed balance N_i c[i, j] = N_j c[j, i] in int64 (each side is
        at most q^2 N_s), with class 0, the origin C[0], of size 1."""
        flow = self.sizes[:, None] * self.step_counts
        return bool(self.sizes[0] == 1 and np.array_equal(flow, flow.T))

    def _exact_at(self, t: int, factor: int = 1) -> bool:
        """Balanced, and factor * N_s^t < 2^63: int64 then holds the origin
        walks to step t (factor 1) and the TV numerators at t (factor q^2).
        A large t is refused before N_s^t, an int of t log2(N_s) bits, is built."""
        return (self._balanced and t * (self.step_size.bit_length() - 1) < 63
                and factor * self.step_size ** t < 2 ** 63)

    def _origin_walks(self, t: int) -> np.ndarray:
        """w_t = c^t e_0 in int64, for ``_exact_at(t)``, every step kept: w_t(j)
        counts the t-step walks from the origin to one point of class j.  By
        detailed balance, N_i c^t[i, j] = N_j c^t[j, i], and N_0 = 1, the
        origin row is e_0 c^t = N w_t, and the product c w needs no transpose."""
        while len(self._walks) <= t:
            self._walks.append(self.step_counts @ self._walks[-1])
        return self._walks[t]

    @property
    def size(self) -> int:
        return len(self.classes)

    @property
    def q(self) -> int:
        return self.params.q

    @property
    def branch(self) -> int:
        return self.params.branch

    def position(self, c: ClassIndex) -> int:
        # a kernel looks up a few classes, most near the front: no position map
        try:
            return self.classes.index(c)
        except ValueError:
            raise IndexInvalid(f"{c!r} not in kernel index set") from None

    @cached_property
    def ergodicity(self) -> ErgodicityReport:
        """The ergodicity verdict, computed once per kernel."""
        return _ergodicity_verdict(self)

    def require_ergodic(self) -> None:
        """Raise ``NotErgodic``, with its reason, unless the walk is ergodic."""
        rep = self.ergodicity
        if not rep:
            reason = (f"period {rep.period}" if rep.irreducible else
                      f"{len(rep.unreachable)} classes do not communicate with C[0]")
            raise NotErgodic(f"kernel with step {self.step!r} is not ergodic: {reason}")

    @cached_property
    def rat(self) -> list[list[Fraction]]:
        """``Fraction`` view rat[i][j] = K(i, j)."""
        return [[Fraction(c, self.step_size) for c in row] for row in self.step_counts.tolist()]

    def to_json_dict(self) -> dict:
        return {
            "field": self.params.spec.to_json(),
            "step": self.step.label(),
            "classes": [c.label() for c in self.classes],
            "rows": _fraction_texts(self.step_counts, self.step_size).tolist(),
        }

    def csv_blocks(self):
        """CSV lines "i,j,num,den" of K(i, j) in lowest terms, one block per row i."""
        labels = [c.label() for c in self.classes]
        cells = _fraction_texts(self.step_counts, self.step_size, ",", labels)
        for li, row in zip(labels, cells.tolist()):
            yield f"{li}," + f"\n{li},".join(row) + "\n"


class Distribution:
    """Probability vector over the class index set (float, optionally exact)."""

    def __init__(self, classes: list[ClassIndex], probs,
                 exact: list[Fraction] | None = None):
        self.classes = list(classes)
        self.probs = np.asarray(probs, dtype=float)
        self.exact = list(exact) if exact is not None else None
        if self.probs.shape != (len(self.classes),):
            raise ValueError("probability vector has wrong length")
        if self.probs.min() < -1e-15 or abs(self.probs.sum() - 1.0) > 1e-12:
            raise ValueError("not a probability vector")
        if self.exact:
            ratios = [v.as_integer_ratio() for v in self.exact]
            den = math.lcm(*{d for _, d in ratios})  # one common denominator
            if sum([n * (den // d) for n, d in ratios]) != den:
                raise ValueError("exact probabilities do not sum to 1")

    @classmethod
    def point_mass(cls, classes: list[ClassIndex], at: ClassIndex) -> "Distribution":
        try:
            pos = classes.index(at)
        except ValueError:
            raise IndexInvalid(f"{at!r} not in index set") from None
        vec = np.zeros(len(classes))
        vec[pos] = 1.0
        exact = [Fraction(int(t == pos)) for t in range(len(classes))]
        return cls(classes, vec, exact)

    def __getitem__(self, c: ClassIndex) -> float:
        return float(self.probs[self.classes.index(c)])

    def to_json(self) -> dict:
        out = {
            "classes": [c.label() for c in self.classes],
            "probs": [float(v) for v in self.probs],
        }
        if self.exact is not None:
            out["exact"] = [f"{v.numerator}/{v.denominator}" for v in self.exact]
        return out


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def kernel(table: StructureTable, s: ClassIndex) -> Kernel:
    """K(i, j) = n[i, s, j] from a materialized table: its plane C[:, s, :]
    divided by the class sizes N_i, which must divide it exactly."""
    sizes = np.asarray(table.sizes, dtype=np.int64)
    step_counts, rest = np.divmod(table.counts[:, table.position(s), :], sizes[:, None])
    bad = np.flatnonzero(rest.any(axis=1))
    if bad.size:
        raise ValueError(f"kernel row {bad[0]} is not divisible by its class size "
                         f"{sizes[bad[0]]}")
    return Kernel(table.params, table.classes, s, step_counts, sizes)


def kernel_for_step(params: ConicParams, s: ClassIndex | None = None) -> Kernel:
    """Kernel straight from the closed form, all rows in one call: O(q^2)
    memory, never the q^3 table.

    The kernel depends on q alone.  It reads no weight: when ab is a square,
    a*x^2 + b*y^2 and x^2 + y^2 have one discriminant, so they are isometric,
    and a linear isometry maps each circle to the circle of the same radius
    and commutes with translation.  A finite nonzero step s gives the step-1
    kernel with each finite class i relabelled s*i (zero and isotropic fixed):
    the discriminant f of the intersection count is homogeneous of degree 2,
    f(si, s, sk) = s^2 f(i, 1, k), and chi(s^2 x) = chi(x)."""
    if s is None:
        s = ClassIndex.finite(params.spec.one)
    classes = index_set(params)
    if s not in classes:
        raise IndexInvalid(f"{s!r} not a class over {params.spec!r}")
    step_counts = closed_row(params, classes, s)
    if not (s.is_zero or s.is_isotropic):
        # certify the vectorised closed form against the scalar trichotomy on the
        # step's own row: c[s, k] = #(radius-s circles at quadrance k meet).
        # f(s, s, k) = s^2 - (2s - k)^2 / 4 is fixed by k -> 4s - k, so the row
        # must equal its mirror, and the scalar count runs once per pair {k, 4s - k}
        v, ks = s.value, np.arange(1, params.q)
        add = params.spec.add_table()
        two = add[v.idx, v.idx]
        mirror = add[add[two, two], params.spec.neg_table()[ks]]
        paired = mirror > 0
        reps = ks[~paired | (ks <= mirror)]
        row = step_counts[v.idx]
        meets = [intersection_count(v, v, classes[k].value, params) for k in reps.tolist()]
        if (row[ks[paired]] != row[mirror[paired]]).any() or row[reps].tolist() != meets:
            raise InternalCheckError(f"closed form disagrees with the trichotomy on row {s!r}")
    return Kernel(params, classes, s, step_counts, class_sizes(params))


def _laws(k: Kernel, vec: np.ndarray):
    """vec, vec K, vec K^2, ...: the one float forward loop of the walk."""
    while True:
        yield vec
        vec = vec @ k.mat


def evolve(d0: Distribution, k: Kernel, n: int, exact: bool = False) -> Distribution:
    """d0 K^n by iterated vector-matrix products."""
    if d0.classes != k.classes:
        raise IndexMismatch("distribution and kernel index sets differ")
    if n < 0:
        raise ValueError("n must be >= 0")
    if exact:
        if d0.exact is None:
            raise ValueError("exact evolution needs an exact-backed distribution")
        # d0 K^n = (den d0) c^n / (den N_s^n), with Python-int numerators
        den = math.lcm(*(v.denominator for v in d0.exact))
        num = np.array([v.numerator * (den // v.denominator) for v in d0.exact], dtype=object)
        step = k.step_counts.astype(object)
        for _ in range(n):
            num = num @ step
        vec = [Fraction(v, den * k.step_size ** n) for v in num.tolist()]
        return Distribution(k.classes, [float(v) for v in vec], vec)
    return Distribution(k.classes, next(itertools.islice(_laws(k, d0.probs.copy()), n, None)))


def _size_law(classes: list[ClassIndex], sizes: np.ndarray) -> Distribution:
    """The law proportional to the class sizes, exact and float."""
    total = int(sizes.sum())
    exact = {n: Fraction(n, total) for n in set(sizes.tolist())}  # a few distinct sizes
    # int64 / int is one correctly rounded division: equals float(Fraction)
    return Distribution(classes, sizes / total, [exact[n] for n in sizes.tolist()])


def haar(params: ConicParams) -> Distribution:
    """Class sizes over q^2: the walk's limiting distribution."""
    return _size_law(index_set(params), class_sizes(params))


# ---------------------------------------------------------------------------
# ergodicity and stationarity
# ---------------------------------------------------------------------------

@dataclass
class ErgodicityReport:
    ergodic: bool
    irreducible: bool
    period: int | None
    unreachable: list[str]

    def __bool__(self) -> bool:
        return self.ergodic


def ergodicity_check(k: Kernel) -> ErgodicityReport:
    """Irreducibility by reachability from class 0, on BFS frontiers of the
    support digraph (row 0, v K) and its transpose (row 1, K v), advanced
    together; aperiodicity by the gcd of cycle-length differences through
    class 0.  ``Kernel.ergodicity`` runs it where its certificate fails.

    The period is the gcd of level[u] + 1 - level[v] over the support edges
    u -> v, for the BFS levels from class 0.  It depends only on which level
    pairs (a, b) carry an edge, the positive entries of the level-class
    matrix H^T K H, H the one-hot matrix of the levels: two float products.
    The entries of K are nonnegative, so no sum of positive terms is zero."""
    level = np.full((2, k.size), -1)
    level[:, 0] = 0
    frontier = (level == 0).astype(float)
    reach = np.empty_like(frontier)
    t = 0
    while frontier.any():
        t += 1
        np.matmul(frontier[0], k.mat, out=reach[0])
        np.matmul(k.mat, frontier[1], out=reach[1])
        new = (reach > 0) & (level < 0)
        level[new] = t
        frontier = new.astype(float)
    unreachable = np.flatnonzero((level < 0).any(axis=0))
    irreducible = not unreachable.size
    period = None
    if irreducible:
        h = (level[0][:, None] == np.arange(level[0].max() + 1)).astype(float)
        a, b = np.nonzero(h.T @ k.mat @ h)
        period = int(np.gcd.reduce(a + 1 - b))
    return ErgodicityReport(
        ergodic=irreducible and period == 1,
        irreducible=irreducible,
        period=period,
        unreachable=[k.classes[t].label() for t in unreachable.tolist()],
    )


def _ergodicity_verdict(k: Kernel) -> ErgodicityReport:
    """``Kernel.ergodicity``: certified from the origin walks, else
    ``ergodicity_check``, which then names the reason.  Detailed balance makes
    the support symmetric, so w_m > 0 at the reference power m makes the walk
    irreducible, and a nonzero column 0 of c then gives C[0] the return times
    m and m + 1: period 1.  No O(Q)-orbit argument is needed."""
    m, _ = minorization_reference(k.q, k.branch)
    if k._exact_at(m) and k._origin_walks(m).all() and k.step_counts[:, 0].any():
        return ErgodicityReport(ergodic=True, irreducible=True, period=1, unreachable=[])
    return ergodicity_check(k)


def stationary(k: Kernel, method: str = "exact") -> Distribution:
    """The unique pi with pi K = pi: the class-size law under an O(q^2)
    integer certificate ("exact", at every q), or power iteration to a 1e-13
    residual ("power", the float cross-check)."""
    k.require_ergodic()
    if method == "exact":
        # pi_j = N_j / sum(N) satisfies pi K = pi iff sum_i N_i c[i, j] = N_s N_j;
        # the kernel is ergodic, so it is then the unique stationary law
        if not np.array_equal(k.sizes @ k.step_counts, k.step_size * k.sizes):
            raise InternalCheckError(
                f"class sizes are not stationary for the step {k.step!r} kernel")
        return _size_law(k.classes, k.sizes)
    if method != "power":
        raise ValueError(f"unknown method {method!r}")
    laws = _laws(k, np.full(k.size, 1.0 / k.size))
    vec = next(laws)
    for nxt in itertools.islice(laws, 100_000):
        if np.abs(nxt - vec).max() <= STATIONARY_TOL:
            return Distribution(k.classes, nxt / nxt.sum())
        vec = nxt
    raise WalkTimeout("power iteration did not reach the residual tolerance")


# ---------------------------------------------------------------------------
# distances and mixing
# ---------------------------------------------------------------------------

def tv_distance(mu: Distribution, nu: Distribution) -> float:
    """Half the l1 distance; equals the max event-probability gap."""
    if mu.classes != nu.classes:
        raise IndexMismatch("distributions live on different index sets")
    return 0.5 * float(np.abs(mu.probs - nu.probs).sum())


def _tv_numerator(w: np.ndarray, sizes: np.ndarray, scale: int) -> int:
    """q^2 S TV(N w / S, N / q^2), for N the class sizes, of sum q^2, and w
    int64 with N w of mass S = ``scale``: the law N w / S is uniform on each
    class, as the origin's is.  TV is a sum of positive parts (Levin, Peres
    and Wilmer 2009, Prop. 4.2), here of D_j = N_j S - q^2 N_j w_j.  int64
    while q^2 S < 2^63: S - q^2 w_j lies in [-q^2 S, S], and the sum in
    [0, q^2 S]."""
    return int(sizes @ np.maximum(scale - int(sizes.sum()) * w, 0))


def _worst_tv(k: Kernel, pi: Distribution | None):
    """Worst-start TV to pi (None: the class-size law) at t = 0, 1, ...: the
    TV from the origin class (see the module docstring).  To the class-size
    law it is an exact ``Fraction`` while ``k._exact_at(t, q^2)``, float64
    after; to any other pi it is float64 throughout."""
    if pi is not None and pi.classes != k.classes:
        raise IndexMismatch("stationary vector on a different index set")
    total = int(k.sizes.sum())
    probs = k.sizes / total if pi is None else pi.probs
    t, exact = 0, np.array_equal(probs, k.sizes / total)  # the class-size law, as in ``haar``
    while exact and k._exact_at(t, total):
        scale = k.step_size ** t
        yield Fraction(_tv_numerator(k._origin_walks(t), k.sizes, scale), total * scale)
        t += 1
    start = np.zeros(k.size)
    start[k.position(ClassIndex.finite(k.params.spec.zero))] = 1.0
    for vec in itertools.islice(_laws(k, start), t, None):
        yield 0.5 * float(np.abs(vec - probs).sum())


def max_tv_curve(k: Kernel, pi: Distribution, t_max: int) -> list[float]:
    """Worst-initial-state TV to pi for t = 0..t_max."""
    return [float(tv) for tv in itertools.islice(_worst_tv(k, pi), t_max + 1)]


def minorization_reference(q: int, branch: int) -> tuple[int, Fraction]:
    """(m, c) with K^m >= c pi proven for the branch: (4, q^2(q-1)/(q+1)^4)
    or (6, 1/(3q))."""
    if branch not in (1, 3):
        raise BranchMismatch(f"branch must be 1 or 3, got {branch}")
    if q % 4 != branch:
        raise BranchMismatch(f"q = {q} is not {branch} (mod 4)")
    if branch == 3:
        return 4, Fraction(q * q * (q - 1), (q + 1) ** 4)
    return 6, Fraction(1, 3 * q)


def mixing_time_bound(q: int, branch: int) -> int:
    """Proven upper bound m * ceil((1 + ln 2) / c) on the mixing time at
    epsilon = 1/(2e), from the reference minorization (m, c)."""
    m, c = minorization_reference(q, branch)
    return m * math.ceil((1.0 + math.log(2.0)) * c.denominator / c.numerator)


def mixing_time(k: Kernel, pi: Distribution | None, eps: float,
                return_curve: bool = False):
    """Smallest t with worst-start TV to pi (None: the class-size law) at
    most eps.  The curve is checked to be non-increasing, as it provably is
    for these kernels: exactly on its exact entries, which are also compared
    with eps exactly, and within MONOTONE_SLACK on float64 ones.  Each
    returned curve entry is the float nearest to its value."""
    if not eps > 0:  # also rejects nan
        raise ValueError("eps must be positive")
    k.require_ergodic()
    limit = 100 * mixing_time_bound(k.q, k.branch)
    bound = Fraction(eps) if math.isfinite(eps) else eps
    curve, prev = [], None
    for t, tv in enumerate(_worst_tv(k, pi)):
        if prev is not None and (tv > prev if isinstance(tv, Fraction)
                                 else tv > prev + MONOTONE_SLACK):
            raise InternalCheckError(f"worst-start TV increased at t={t}: "
                                     f"{curve[-1]} -> {float(tv)}")
        curve.append(float(tv))
        if tv <= bound:
            return (t, curve) if return_curve else t
        if t > limit:
            raise WalkTimeout(f"no mixing below eps={eps} within {limit} steps")
        prev = tv


def minorization_constant(k: Kernel, m: int) -> tuple[Fraction | None, float]:
    """min over (i, j) of K^m(i, j) / pi_j for the class-size law pi, exact
    while N_s^m < 2^63 (``Kernel._exact_at``).

    That minimum is the origin row's (see the module docstring),
    min_j v_j q^2 / (N_s^m N_j) for v = e_0 c^m = N w, w the origin walks:
    q^2 min(w) / N_s^m.  Otherwise the constant is float only,
    (None, float), from the float64 power of the whole kernel."""
    if m < 1:
        raise ValueError("m must be >= 1")
    total = int(k.sizes.sum())  # q^2
    if not k._exact_at(m):
        mat = np.linalg.matrix_power(k.mat, m)
        return None, float((mat / (k.sizes / total)).min())
    exact = Fraction(total * int(k._origin_walks(m).min()), k.step_size ** m)
    return exact, float(exact)


def minorization_check(k: Kernel, m: int | None = None) -> dict:
    """The measured m-step constant (default: the reference power) against
    the proven one, as a JSON-ready verdict.

    The reference applies at its own power, for q = 3 (mod 4) or q >= 13;
    where it does not apply the verdict is ok.  The exact constant decides
    when present, else the float one within 1e-12.  A kernel that is not
    ergodic has no verdict: it raises ``NotErgodic``.
    """
    k.require_ergodic()
    ref_m, ref_c = minorization_reference(k.q, k.branch)
    m = ref_m if m is None else m
    exact, measured = minorization_constant(k, m)
    applicable = m == ref_m and (k.branch == 3 or k.q >= 13)
    if not applicable:
        ok = True
    elif exact is not None:
        ok = exact >= ref_c
    else:
        ok = measured >= float(ref_c) - 1e-12
    return {
        "m": m,
        "measured": measured,
        "measured_exact": None if exact is None else f"{exact.numerator}/{exact.denominator}",
        "reference_m": ref_m,
        "reference": f"{ref_c.numerator}/{ref_c.denominator}",
        "reference_applicable": applicable,
        "ok": ok,
    }


@dataclass
class DecayCheck:
    n: int
    measured: float
    bound: float
    ok: bool


def geometric_decay_check(k: Kernel, pi: Distribution, m: int, c) -> list[DecayCheck]:
    """Worst-start TV at step m*n against (1-c)^n + slack for n = 1..DECAY_STEPS."""
    c = float(c)
    out = []
    for n, tv in enumerate(itertools.islice(_worst_tv(k, pi), m, m * DECAY_STEPS + 1, m), 1):
        measured, bound = float(tv), (1.0 - c) ** n + DECAY_SLACK
        out.append(DecayCheck(n=n, measured=measured, bound=bound, ok=measured <= bound))
    return out


@dataclass
class BoostCheck:
    eps: float
    tau_eps: int
    tau_ref: int
    factor: int
    ok: bool


def boost_check(k: Kernel, pi: Distribution, eps: float) -> BoostCheck:
    """tau(eps) <= tau(1/(2e)) * ceil(ln(1/eps))."""
    ref_eps = 1.0 / (2.0 * math.e)
    if not 0 < eps < ref_eps:
        raise ValueError(f"eps must lie in (0, {ref_eps})")
    tau_eps = mixing_time(k, pi, eps)
    tau_ref = mixing_time(k, pi, ref_eps)
    factor = math.ceil(math.log(1.0 / eps))
    return BoostCheck(eps=eps, tau_eps=tau_eps, tau_ref=tau_ref, factor=factor,
                      ok=tau_eps <= tau_ref * factor)


# ---------------------------------------------------------------------------
# aggregate report
# ---------------------------------------------------------------------------

@dataclass
class MixingReport:
    q: int
    branch: int
    class_count: int
    step: str
    eps: float
    tau: int
    tau_exact: bool  # the TV curve up to tau is exact, not float64
    tau_bound: int
    curve: list[float]
    minorization: dict  # minorization_check's verdict less reference_m and reference_applicable

    def to_json(self) -> dict:
        return dict(vars(self))


def mixing_report(params: ConicParams, s: ClassIndex | None = None,
                  eps: float = 1.0 / (2.0 * math.e)) -> MixingReport:
    """Measured mixing time, proven bound, TV curve and minorization ratio."""
    k = kernel_for_step(params, s)
    tau, curve = mixing_time(k, None, eps, return_curve=True)
    minor = minorization_check(k)
    del minor["reference_m"], minor["reference_applicable"]
    return MixingReport(
        q=k.q,
        branch=k.branch,
        class_count=k.size,
        step=k.step.label(),
        eps=eps,
        tau=tau,
        tau_exact=k._exact_at(tau, int(k.sizes.sum())),
        tau_bound=mixing_time_bound(k.q, k.branch),
        curve=curve,
        minorization=minor,
    )
