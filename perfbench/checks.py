"""Output checks, one per op kind; a failed check counts the op as failed.

Every check is independent of the seed's particular draws:

- ``scan``: rows match the ones recorded in ``scan_reference.csv`` (integer
  columns exactly, float columns to 1e-12 relative) and ``tau <= tau_bound``.
- ``constants``: the CSV matches, row by row, an ``oracle_table`` built here
  with the same weights; the errata report lists no fresh mismatch.
- ``axioms``: ``all_pass``; ``trichotomy``: ``ok``; ``stationary``: the exact
  vector equals the class-size distribution; ``minorize``: ``ok``.
- ``couple`` / ``mctv``: statistical checks against exact laws computed from
  the kernel.  Each margin holds for a correct sampler with probability at
  least ``1 - DELTA`` whatever its random stream, so a change of stream
  layout is not a failure but a biased sampler is.
"""

from __future__ import annotations

import csv
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np

DELTA = 1e-9
FLOAT_RTOL = 1e-12
SCAN_REFERENCE = Path(__file__).resolve().parent / "scan_reference.csv"
SCAN_INT_COLUMNS = ("q", "branch", "class_count", "tau_measured", "tau_bound")
SCAN_FLOAT_COLUMNS = ("minorization_measured", "minorization_bound", "ratio_tau_over_q")


class References:
    """Exact reference data, built lazily and shared by all passes of a run."""

    def __init__(self):
        self._cache: dict = {}

    def _get(self, key, build):
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    @staticmethod
    def params(p, d, a, b):
        from conicwalk.conic_geometry import ConicParams
        from conicwalk.finite_field import make_field

        return ConicParams(make_field(p, d), a, b)

    def scan_rows(self) -> list[dict]:
        def build():
            with open(SCAN_REFERENCE, newline="") as fh:
                return list(csv.DictReader(fh))
        return self._get("scan", build)

    def oracle_lines(self, p, d, a, b) -> list[str]:
        from conicwalk.hypergroup import oracle_table

        def build():
            table = oracle_table(self.params(p, d, a, b))
            return [",".join(str(v) for v in row) for row in table.to_csv_rows()]
        return self._get(("oracle", p, d, a, b), build)

    def walk(self, p, d, a, b):
        """(kernel, haar distribution) of the unit-step walk."""
        from conicwalk.walk_analysis import haar, kernel_for_step

        def build():
            params = self.params(p, d, a, b)
            return kernel_for_step(params), haar(params)
        return self._get(("walk", p, d, a, b), build)

    def tv_curve(self, field, start: str, t_max: int) -> np.ndarray:
        """TV(K^t(start, .), pi) for t = 0..t_max, by ``evolve``."""
        from conicwalk.walk_analysis import Distribution, evolve, tv_distance

        k, pi = self.walk(*field)
        labels = [c.label() for c in k.classes]
        dist = Distribution.point_mass(k.classes, k.classes[labels.index(start)])
        out = [tv_distance(dist, pi)]
        for _ in range(t_max):
            dist = evolve(dist, k, 1)
            out.append(tv_distance(dist, pi))
        return np.array(out)

    def meeting_tail(self, field, start: str, t_max: int) -> np.ndarray:
        """Exact P(T > t), t = 0..t_max, for two chains that start at
        ``start`` and at pi and move independently until they meet."""
        k, pi = self.walk(*field)
        labels = [c.label() for c in k.classes]
        joint = np.zeros((k.size, k.size))
        joint[labels.index(start), :] = pi.probs
        np.fill_diagonal(joint, 0.0)
        tail = [joint.sum()]
        for _ in range(t_max):
            joint = k.mat.T @ joint @ k.mat
            np.fill_diagonal(joint, 0.0)
            tail.append(joint.sum())
        return np.array(tail)


def _read_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _close(x: float, ref: float) -> bool:
    return abs(x - ref) <= FLOAT_RTOL * max(abs(ref), 1e-300)


def check_scan(op, rec, refs):
    with open(rec["out"], newline="") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    rows = list(csv.DictReader(lines))
    ref = refs.scan_rows()
    if len(rows) != len(ref):
        return f"scan has {len(rows)} rows, reference {len(ref)}"
    for row, want in zip(rows, ref):
        if int(row["tau_measured"]) > int(row["tau_bound"]):
            return f"q={row['q']}: tau {row['tau_measured']} > bound {row['tau_bound']}"
        for col in SCAN_INT_COLUMNS:
            if int(row[col]) != int(want[col]):
                return f"q={want['q']}: {col} {row[col]} != reference {want[col]}"
        for col in SCAN_FLOAT_COLUMNS:
            if not _close(float(row[col]), float(want[col])):
                return f"q={want['q']}: {col} {row[col]} != reference {want[col]}"
    return None


def check_constants(op, rec, refs):
    with open(rec["out"]) as fh:
        lines = fh.read().splitlines()
    if len(lines) < 2 or lines[1] != "i,j,k,num,den,N_i,N_j":
        return "constants CSV has no header row"
    want = refs.oracle_lines(*op["field"])
    got = lines[2:]
    if len(got) != len(want):
        return f"constants CSV has {len(got)} rows, oracle {len(want)}"
    for n, (g, w) in enumerate(zip(got, want)):
        if g != w:
            return f"constants row {n}: {g!r} != oracle {w!r}"
    errata = _read_json(rec["out"] + ".errata.json")
    if errata.get("fresh_mismatches") != []:
        return "errata report lists fresh mismatches"
    return None


def check_axioms(op, rec, refs):
    if _read_json(rec["out"])["axioms"]["all_pass"] is not True:
        return "axiom report: all_pass is not true"
    return None


def check_trichotomy(op, rec, refs):
    result = rec["result"]
    if result.get("ok") is not True or result.get("mismatches"):
        return f"trichotomy mismatches: {result.get('mismatches')[:3]}"
    if result.get("pairs_checked", 0) <= 0:
        return "trichotomy checked no centre pairs"
    return None


def check_stationary(op, rec, refs):
    out = _read_json(rec["out"])
    if out["sup_diff"] > 1e-12:
        return f"sup |pi - haar| = {out['sup_diff']}"
    if out["stationary"].get("exact") != out["haar"]["exact"]:
        return "exact stationary vector differs from the class-size distribution"
    return None


def check_minorize(op, rec, refs):
    m = _read_json(rec["out"])["minorization"]
    if m["ok"] is not True or m["reference_applicable"] is not True:
        return f"minorization not verified: {m}"
    if m["measured_exact"] is not None and Fraction(m["measured_exact"]) < Fraction(m["reference"]):
        return f"exact ratio {m['measured_exact']} below reference {m['reference']}"
    return None


def check_couple(op, rec, refs):
    """Meeting times against their exact law (DKW band) and the coupling
    inequality P(T > t) >= TV(K^t(start, .), pi)."""
    out = _read_json(rec["out"])
    cfg, stats = out["config"], out["coupling"]
    times = np.asarray(stats["times"])
    n = len(times)
    if n != cfg["trials"] or stats["trials"] != n:
        return f"coupling reports {n} times for {cfg['trials']} trials"
    t_max = int(times.max())
    emp_tail = 1.0 - np.cumsum(np.bincount(times, minlength=t_max + 1)) / n
    eps = math.sqrt(math.log(2.0 / DELTA) / (2.0 * n)) + 1e-9
    exact = refs.meeting_tail(op["field"], cfg["start"], t_max)
    gap = np.abs(emp_tail - exact)
    if gap.max() > eps:
        t = int(gap.argmax())
        return f"P(T > {t}) = {emp_tail[t]:.5f}, exact {exact[t]:.5f} (margin {eps:.4f})"
    tv = refs.tv_curve(op["field"], cfg["start"], t_max)
    short = tv - emp_tail
    if short.max() > eps:
        t = int(short.argmax())
        return f"coupling inequality fails at t={t}: P(T > t) {emp_tail[t]:.5f} < TV {tv[t]:.5f}"
    return None


def check_mctv(op, rec, refs):
    """Empirical law of X_t against K^t(start, .) by ``evolve``; the margin is
    E[TV] <= sqrt((m-1)/n)/2 plus McDiarmid's deviation term."""
    out = _read_json(rec["out"])
    cfg, est = out["config"], out["monte_carlo_tv"]
    counts = np.asarray(est["counts"], dtype=float)
    n = int(counts.sum())
    if n != cfg["trials"]:
        return f"MC-TV counts sum to {n}, not {cfg['trials']} trials"
    from conicwalk.walk_analysis import Distribution, evolve

    k, pi = refs.walk(*op["field"])
    labels = [c.label() for c in k.classes]
    law = evolve(Distribution.point_mass(k.classes, k.classes[labels.index(cfg["start"])]),
                 k, op["t"]).probs
    margin = 0.5 * math.sqrt((k.size - 1) / n) + math.sqrt(math.log(1.0 / DELTA) / (2.0 * n))
    dev = 0.5 * float(np.abs(counts / n - law).sum())
    if dev > margin:
        return f"TV(empirical X_t, exact law) = {dev:.4f} > margin {margin:.4f}"
    exact_tv = 0.5 * float(np.abs(law - pi.probs).sum())
    if abs(est["estimate"] - exact_tv) > margin:
        return f"MC-TV estimate {est['estimate']:.4f} vs exact {exact_tv:.4f} (margin {margin:.4f})"
    return None


CHECKS = {
    "scan": check_scan, "constants": check_constants, "axioms": check_axioms,
    "trichotomy": check_trichotomy, "stationary": check_stationary,
    "minorize": check_minorize, "couple": check_couple, "mctv": check_mctv,
}


def check_record(op: dict, rec: dict, refs: References) -> str | None:
    """None if the op succeeded and its output checks out, else the reason."""
    if rec.get("error"):
        return "exception: " + rec["error"].strip().splitlines()[-1]
    if rec.get("rc") != 0:
        return f"exit code {rec.get('rc')}"
    try:
        return CHECKS[op["check"]](op, rec, refs)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as e:
        return f"unreadable output: {type(e).__name__}: {e}"


def failed_ops(ops: list[dict], records: list[dict], refs: References) -> list[str]:
    """One line per failed op record: exception, nonzero exit or failed check."""
    by_label = {op["label"]: op for op in ops}
    out = []
    for rec in records:
        reason = check_record(by_label[rec["label"]], rec, refs)
        if reason:
            out.append(f"pass {rec['pass']} {rec['label']}: {reason}")
    return out
