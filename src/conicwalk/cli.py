"""Batch command-line front end; every run is reproducible and scriptable.

Machine-readable CSV/JSON goes to --out (default stdout); human-readable
summaries go to stderr.  Every output embeds the command's name and its own
validated flags, less the output paths, so a rerun to another path writes
the same bytes.  Only ``constants`` and ``axioms`` take the weights --a/--b,
which only the enumeration oracle reads: the walk depends on q alone (see
``kernel_for_step``), so the six walk commands build the weights (1, 1).
Exit codes: 0 success, 1 invalid input, 2 verification failure, 3 internal
assertion, 130 interrupted (Ctrl-C).

Each input rule is stated once.  Flag ranges sit on the click options:
--d and --steps >= 1, couple's --trials in [1, 2^32], mctv's --trials in
[1000, 2^32] and --t in [0, 2^32] (``TRIAL_LIMIT``: past it the seeded
streams alias), --seed >= 0, --qmin/--qmax in [3, ARITHMETIC_CAP], --eps in
[1e-12, 1].  The rules that depend on q (an odd prime power within the
arithmetic cap, weights in range(q), an enumeration within the oracle cap)
are the library's; a class label is 'iso' or an index in range(q) written
as ``str`` writes it.  ``main`` turns every user-caused error into exit 1
with one ``error:`` line: an invalid flag (also --a/--b on a walk command),
two flags that exclude each other (constants' --verify-oracle and
--diagnostic-unsplit), q above the arithmetic or oracle cap, a non-ergodic
step class, an unwritable output path, or an input too large for the
memory at hand.  Every command checks each output path it will write before
any computation, and rejects two output paths that name one file (by
``os.path.realpath``, and by device and inode for files that exist, so hard
links count), so exit 1 comes at once and leaves nothing behind.
"""

from __future__ import annotations

import contextlib
import errno
import functools
import json
import math
import os
import sys
from fractions import Fraction

import click

from . import __version__
from .conic_geometry import ClassIndex, ConicParams, ORACLE_CAP
from .errata import errata_report
from .errors import CapExceeded, ConfigError, ConicwalkError, NotErgodic, NotOddPrime
from .finite_field import ARITHMETIC_CAP, make_field
from .hypergroup import build_table, oracle_table, verify_axioms
from .walk_analysis import (
    haar,
    kernel_for_step,
    minorization_check,
    mixing_report,
    stationary,
)
from .coupling_sim import TRIAL_LIMIT, monte_carlo_tv, run_coupling_trials

EPS_DEFAULT = 1.0 / (2.0 * math.e)  # 0.18393972058572117
EPS_MIN = 1e-12  # worst-start TV in float64 bottoms out between 1e-16 and 4e-15


# never echoed, so that a rerun to another path writes the same bytes
OUTPUT_PATHS = frozenset(("out", "errata_out", "hist_out"))


def _params(p: int, d: int, a: int = 1, b: int = 1) -> ConicParams:
    try:
        spec = make_field(p, d)
    except NotOddPrime as e:  # CapExceeded reaches main with its own message
        raise ConfigError(f"q must be an odd prime power: {e}") from e
    try:
        return ConicParams(spec, a, b)
    except ValueError as e:
        raise ConfigError(f"invalid conic weights: {e}") from e


def _parse_class(label: str, params: ConicParams) -> ClassIndex:
    """'iso', or an index in range(q) as ``str`` writes it: one label, and
    one echo, per class."""
    if label == "iso":
        if not params.split:
            raise ConfigError("no isotropic class for q = 3 (mod 4)")
        return ClassIndex.isotropic(params.spec)
    try:
        value = int(label)
        if str(value) != label:
            raise ValueError("not written as 'iso' or a plain decimal index")
        return ClassIndex.finite(params.spec.element(value))
    except ValueError as e:
        raise ConfigError(f"invalid class label {label!r}: {e}") from e


def _walk(p: int, d: int, s: str):
    """The conic parameters and the kernel of the step class ``s``; the walk
    reads no weight, so the weights are (1, 1)."""
    params = _params(p, d)
    return params, kernel_for_step(params, _parse_class(s, params))


def _fmt_float(x: float) -> str:
    return f"{x:.17g}"


def _config() -> dict:
    """The running command's name and validated flags, less its output paths."""
    ctx = click.get_current_context()
    return {"command": ctx.command.name,
            **{k: v for k, v in ctx.params.items() if k not in OUTPUT_PATHS}}


def _check_writable(*paths: str | None) -> None:
    """Fail as opening each given output path would, before any is written,
    and when two given paths name one file (one real path, or, for files
    that exist, one device and inode: hard links); no path is created."""
    seen = {}
    for path in filter(None, paths):
        keys = [os.path.realpath(path)]
        if os.path.exists(path):
            st = os.stat(path)
            keys.append((st.st_dev, st.st_ino))
        for key in keys:
            if key in seen:
                raise ConfigError(f"cannot write {path}: same file as {seen[key]}")
        seen.update(dict.fromkeys(keys, path))
        parent = os.path.dirname(path) or "."
        try:
            if os.path.isdir(path):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
            os.stat(os.path.join(parent, ""))  # the trailing "/" needs a directory
            if not os.access(path if os.path.exists(path) else parent, os.W_OK):
                raise PermissionError(errno.EACCES, os.strerror(errno.EACCES))
        except OSError as e:
            raise ConfigError(f"cannot write {path}: {e.strerror}") from e


@contextlib.contextmanager
def _sink(out: str | None):
    """The --out file, or stdout when no path is given."""
    if out:
        try:
            fh = open(out, "w")
        except OSError as e:
            raise ConfigError(f"cannot write {out}: {e.strerror}") from e
        with fh:
            yield fh
    else:
        yield sys.stdout


_JSON_SCALARS = frozenset((str, int, float, bool, type(None)))
_INTS = frozenset((int,))


@functools.cache
def _list_encoder(inner: str):
    """json's C encoder of a flat list, its item separator carrying ``inner``."""
    return json.JSONEncoder(separators=("," + inner, ": ")).encode


def _json_text(obj, indent: str = "\n") -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)``, byte for byte, but each
    list of plain scalars goes through one call of json's C encoder (json's
    own ``indent`` selects the pure-Python one), kept one per indent level,
    its separator carrying the indentation.  A list of plain ints (exact
    type, so no bools) is joined from the text of each distinct value,
    computed once."""
    inner = indent + "  "
    if isinstance(obj, dict) and obj:
        items = (json.dumps(k if isinstance(k, str) else json.dumps(k)) + ": "
                 + _json_text(v, inner) for k, v in sorted(obj.items()))
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if not isinstance(obj, (list, tuple)) or not obj:
        return json.dumps(obj)
    if _INTS.issuperset(map(type, obj)):
        text = {v: str(v) for v in set(obj)}
        return "[" + inner + ("," + inner).join(map(text.__getitem__, obj)) + indent + "]"
    if not _JSON_SCALARS.issuperset(map(type, obj)):
        return "[" + inner + ("," + inner).join(_json_text(v, inner) for v in obj) + indent + "]"
    return "[" + inner + _list_encoder(inner)(obj)[1:-1] + indent + "]"


def _emit_json(payload: dict, out: str | None) -> None:
    payload = {"config": _config(), **payload}
    with _sink(out) as fh:
        fh.write(_json_text(payload) + "\n")


def _csv_line(row) -> str:
    return ",".join(str(v) for v in row) + "\n"


def _emit_csv(header: list[str], chunks, out: str | None) -> None:
    """Write the header, then each text chunk of CSV lines, flushing after
    each chunk, so a run that stops early keeps the chunks written before."""
    items = " ".join(f"{k}={v}" for k, v in sorted(_config().items()))
    with _sink(out) as fh:
        fh.write(f"# conicwalk {__version__} {items}\n" + _csv_line(header))
        fh.flush()
        for chunk in chunks:
            fh.write(chunk)
            fh.flush()


def _note(msg: str) -> None:
    print(msg, file=sys.stderr)


def _check_eps(ctx, param, value: float) -> float:
    if not EPS_MIN <= value <= 1:  # also rejects nan
        raise click.BadParameter(f"{value} is not in the range {EPS_MIN:g}<=x<=1.")
    return value


def field_options(fn):
    fn = click.option("--p", type=int, required=True, help="odd prime characteristic")(fn)
    fn = click.option("--d", type=click.IntRange(min=1), default=1, show_default=True,
                      help="extension degree")(fn)
    fn = click.option("--out", type=click.Path(), default=None, help="output path (default stdout)")(fn)
    return fn


def weight_options(fn):
    """The weights of a*x^2 + b*y^2, read by the enumeration oracle only."""
    for w in ("a", "b"):
        fn = click.option(f"--{w}", type=int, default=1, show_default=True,
                          help=f"weight {w} of a*x^2 + b*y^2, read only when an "
                               "enumeration oracle runs")(fn)
    return fn


step_option = click.option("--s", "s", default="1", show_default=True,
                           help="step class (field value, or 'iso')")
eps_option = click.option("--eps", type=float, default=EPS_DEFAULT, show_default=True,
                          callback=_check_eps, help="TV threshold in [1e-12, 1] (default 1/(2e))")


def start_seed_options(fn):
    fn = click.option("--seed", type=click.IntRange(min=0), default=42, show_default=True)(fn)
    fn = click.option("--start", default="0", show_default=True,
                      help="start class of the fixed chain")(fn)
    return fn


@click.group()
def cli() -> None:
    """Weighted-circle hypergroups over GF(q) and their random walks."""


@cli.command()
@field_options
@weight_options
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv",
              show_default=True)
@click.option("--verify-oracle", is_flag=True,
              help="compare closed form against the enumeration oracle")
@click.option("--diagnostic-unsplit", is_flag=True,
              help="q = 1 (mod 4) only: axiom report for the unsplit null circle")
@click.option("--errata-out", type=click.Path(), default=None,
              help="errata report path (default <out>.errata.json or errata.json)")
@click.option("--cap", type=int, default=ORACLE_CAP, show_default=True,
              help="enumeration cap; raising it can be very slow")
def constants(p, d, a, b, out, fmt, verify_oracle, diagnostic_unsplit, errata_out, cap):
    """Dump the structure-constant table; optionally verify it by enumeration."""
    if verify_oracle and diagnostic_unsplit:
        # the unsplit diagnostic writes no table, so there is none to verify
        raise ConfigError("--verify-oracle and --diagnostic-unsplit exclude each other")
    params = _params(p, d, a, b)
    if diagnostic_unsplit and not params.split:
        raise ConfigError("--diagnostic-unsplit needs q = 1 (mod 4)")
    runs_oracle = verify_oracle or diagnostic_unsplit
    # the table is written before the oracle runs: reject an oversized q here
    if runs_oracle and params.q > cap:
        raise ConfigError(f"q = {params.q} exceeds the oracle cap {cap}")
    errata_path = errata_out or (f"{out}.errata.json" if out else "errata.json")
    _check_writable(out, errata_path if verify_oracle else None)
    # after every input check, so that no error line follows the warning
    if runs_oracle and cap > ORACLE_CAP:
        _note(f"warning: enumeration cap raised to {cap}; O(q^3) oracle may be slow")

    if diagnostic_unsplit:
        table = oracle_table(params, split=False, cap=cap)
        report = verify_axioms(table)
        _emit_json({"axioms": report.to_json()}, out)
        _note(f"unsplit diagnostic for q={params.q}: hermitian_support="
              f"{report.hermitian_support} (expected False)")
        return

    table = build_table(params, "closed-form")
    if fmt == "json":
        _emit_json({"table": table.to_json_dict()}, out)
    else:
        _emit_csv(["i", "j", "k", "num", "den", "N_i", "N_j"], table.csv_blocks(), out)

    if verify_oracle:
        oracle = oracle_table(params, cap=cap)
        fresh = table.mismatches(oracle)
        _emit_json(errata_report(fresh), errata_path)
        if fresh:
            _note(f"oracle mismatch: {table.differs(oracle).sum()} differing triples; "
                  f"see {errata_path}")
            raise SystemExit(2)
        _note(f"oracle equivalence verified on all {table.size ** 3} triples; "
              f"errata report written to {errata_path}")


@cli.command()
@field_options
@weight_options
@click.option("--source", type=click.Choice(["closed-form", "oracle"]),
              default="closed-form", show_default=True)
def axioms(p, d, a, b, out, source):
    """Hypergroup axiom report; exits 2 if any axiom fails."""
    _check_writable(out)
    params = _params(p, d, a, b)
    table = build_table(params, source)
    report = verify_axioms(table)
    _emit_json({"axioms": report.to_json()}, out)
    _note(f"axioms on q={params.q} ({source}): all_pass={report.all_pass}")
    if not report.all_pass:
        raise SystemExit(2)


@cli.command()
@field_options
@step_option
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="json",
              show_default=True)
def kernel(p, d, out, s, fmt):
    """Dump the walk kernel K(i, j) = n[i, s, j]."""
    _check_writable(out)
    params, k = _walk(p, d, s)
    if fmt == "json":
        _emit_json({"kernel": k.to_json_dict()}, out)
    else:
        _emit_csv(["i", "j", "num", "den"], k.csv_blocks(), out)
    _note(f"kernel q={params.q} step={s}: {k.size}x{k.size} rows exact-stochastic")


@cli.command("stationary")
@field_options
@step_option
@click.option("--method", type=click.Choice(["exact", "power"]), default="exact",
              show_default=True)
def stationary_cmd(p, d, out, s, method):
    """Stationary distribution versus the class-size (Haar) distribution."""
    _check_writable(out)
    params, k = _walk(p, d, s)
    pi = stationary(k, method=method)
    ref = haar(params)
    sup = float(abs(pi.probs - ref.probs).max())
    _emit_json({"stationary": pi.to_json(), "haar": ref.to_json(), "sup_diff": sup}, out)
    _note(f"stationary q={params.q} step={s}: sup|pi - haar| = {sup:.3e}")
    if sup > 1e-12:
        raise SystemExit(2)


@cli.command()
@field_options
@step_option
@eps_option
def mixing(p, d, out, s, eps):
    """Measured mixing time, proven bound, and the worst-start TV curve."""
    _check_writable(out)
    params = _params(p, d)
    rep = mixing_report(params, _parse_class(s, params), eps)
    _emit_json({"mixing": rep.to_json()}, out)
    _note(f"mixing q={rep.q}: tau({eps:g}) = {rep.tau} <= bound {rep.tau_bound}")
    if rep.tau > rep.tau_bound:
        raise SystemExit(2)


@cli.command()
@field_options
@step_option
@click.option("--steps", type=click.IntRange(min=1), default=None,
              help="kernel power (default 4 for q=3 mod 4, 6 for q=1 mod 4)")
def minorize(p, d, out, s, steps):
    """Minimum of K^m / pi against the proven minorization constant."""
    _check_writable(out)
    _, k = _walk(p, d, s)
    verdict = minorization_check(k, steps)
    _emit_json({"minorization": verdict}, out)
    ref = float(Fraction(verdict["reference"]))
    _note(f"minorization q={k.q} m={verdict['m']}: min K^m/pi = {verdict['measured']:.6g} "
          f"(reference {ref:.6g} at m={verdict['reference_m']})")
    if not verdict["ok"]:
        raise SystemExit(2)


@cli.command()
@field_options
@step_option
@start_seed_options
@click.option("--trials", type=click.IntRange(1, TRIAL_LIMIT), default=100_000,
              show_default=True)
@click.option("--hist-out", type=click.Path(), default=None,
              help="coalescence histogram CSV path")
def couple(p, d, out, s, start, trials, seed, hist_out):
    """Coupled-walk simulation: coalescence times and empirical tail."""
    _check_writable(out, hist_out)
    params, k = _walk(p, d, s)
    stats = run_coupling_trials(k, haar(params), _parse_class(start, params), trials, seed)
    payload = stats.to_json()
    _emit_json({"coupling": payload}, out)
    if hist_out:
        hist = zip(stats.hist.tolist(), payload["tail"])
        lines = [_csv_line((t, n, _fmt_float(tail))) for t, (n, tail) in enumerate(hist)]
        _emit_csv(["t", "count", "empirical_tail"], ["".join(lines)], hist_out)
    _note(f"coupling q={params.q}: {trials} trials, mean T = {stats.mean_time:.2f}")


@cli.command()
@field_options
@step_option
@start_seed_options
@click.option("--t", "t", type=click.IntRange(0, TRIAL_LIMIT), default=8, show_default=True)
@click.option("--trials", type=click.IntRange(1000, TRIAL_LIMIT), default=100_000,
              show_default=True)
def mctv(p, d, out, s, start, t, trials, seed):
    """Monte Carlo TV estimate at step t with a bootstrap interval."""
    _check_writable(out)
    params, k = _walk(p, d, s)
    est = monte_carlo_tv(_parse_class(start, params), t, trials, seed, k, haar(params))
    _emit_json({"monte_carlo_tv": est.to_json()}, out)
    _note(f"mc tv q={params.q} t={t}: {est.estimate:.5f} "
          f"[{est.ci_low:.5f}, {est.ci_high:.5f}]")


@cli.command()
@click.option("--qmin", type=click.IntRange(3, ARITHMETIC_CAP), default=7, show_default=True)
@click.option("--qmax", type=click.IntRange(3, ARITHMETIC_CAP), default=199, show_default=True)
@click.option("--branch", type=click.Choice(["both", "1", "3"]), default="both",
              show_default=True)
@eps_option
@click.option("--out", type=click.Path(), default=None)
def scan(qmin, qmax, branch, eps, out):
    """Sweep all admissible odd prime powers: tau, bound, minorization per q."""
    if qmax < qmin:
        raise ConfigError("need qmin <= qmax")
    ratios = []

    def rows():
        for q, p, d in admissible_prime_powers(qmin, qmax):
            if branch != "both" and q % 4 != int(branch):
                continue
            rep = mixing_report(ConicParams(make_field(p, d), 1, 1), eps=eps)
            ratios.append(rep.tau / q)
            num, den = rep.minorization["reference"].split("/")
            yield _csv_line((q, rep.branch, rep.class_count, rep.tau, rep.tau_bound,
                             _fmt_float(rep.minorization["measured"]),
                             _fmt_float(int(num) / int(den)), _fmt_float(ratios[-1])))
            if rep.tau > rep.tau_bound:
                _note(f"q={q}: tau {rep.tau} exceeds bound {rep.tau_bound}")
                raise SystemExit(2)

    _emit_csv(["q", "branch", "class_count", "tau_measured", "tau_bound",
               "minorization_measured", "minorization_bound", "ratio_tau_over_q"],
              rows(), out)
    _note(f"scan [{qmin},{qmax}] branch={branch}: max tau/q = {max(ratios, default=0.0):.4f}")


def admissible_prime_powers(qmin: int, qmax: int) -> list[tuple[int, int, int]]:
    """(q, p, d) for every odd prime power q in [qmin, qmax], ascending."""
    out = []
    for q in range(max(3, qmin), qmax + 1):
        if q % 2 == 0:
            continue
        p = next((f for f in range(3, q + 1, 2) if q % f == 0), q)
        temp, d = q, 0
        while temp % p == 0:
            temp //= p
            d += 1
        if temp == 1:
            out.append((q, p, d))
    return out


def main(argv=None) -> int:
    try:
        cli.main(args=argv, standalone_mode=False)
        return 0
    except SystemExit as e:
        return int(e.code or 0)
    except click.exceptions.Abort:
        # click has ended the terminal's ^C line with a newline
        print("interrupted", file=sys.stderr)
        return 130
    except (ConfigError, NotErgodic, CapExceeded, click.ClickException) as e:
        msg = e.format_message() if isinstance(e, click.ClickException) else str(e)
        print(f"error: {msg}", file=sys.stderr)
        return 1
    except MemoryError as e:
        # numpy's MemoryError names the allocation that failed
        print("error: out of memory" + (f": {e}" if str(e) else ""), file=sys.stderr)
        return 1
    except ConicwalkError as e:
        print(f"internal: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
