"""The benchmark's checks are not vacuous: corrupted or biased outputs count
as failed ops, correct ones do not.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

import json

import numpy as np
import pytest

import conicwalk.cli as cli
import conicwalk.walk_analysis as wa
from perfbench.checks import SCAN_REFERENCE, References, failed_ops
from perfbench.workloads import WORKLOADS


def _run_cli(tmp_path, op):
    out = tmp_path / f"{op['label']}.out"
    rc = cli.main([*op["argv"], "--out", str(out)])
    return {"label": op["label"], "rc": rc, "error": None, "out": str(out), "pass": 1}


def _failures(op, rec):
    return failed_ops([op], [rec], References())


def test_corrupted_constants_row_is_a_failed_op(tmp_path):
    op = {"label": "constants_7", "kind": "cli", "check": "constants", "field": [7, 1, 3, 5],
          "argv": ["constants", "--p", "7", "--a", "3", "--b", "5", "--verify-oracle"]}
    rec = _run_cli(tmp_path, op)
    assert _failures(op, rec) == []

    path = tmp_path / "constants_7.out"
    lines = path.read_text().splitlines()
    i, j, k, num, den, ni, nj = lines[100].split(",")
    lines[100] = ",".join([i, j, k, str(int(num) + 1), den, ni, nj])
    path.write_text("\n".join(lines) + "\n")
    assert len(_failures(op, rec)) == 1


def _scan_output(tmp_path, mutate=None):
    rows = SCAN_REFERENCE.read_text().splitlines()
    if mutate:
        rows = mutate(rows)
    out = tmp_path / "scan.out"
    out.write_text("# conicwalk scan\n" + "\n".join(rows) + "\n")
    op = {"label": "scan", "kind": "cli", "check": "scan", "argv": []}
    return op, {"label": "scan", "rc": 0, "error": None, "out": str(out), "pass": 1}


def test_wrong_tau_is_a_failed_op(tmp_path):
    assert _failures(*_scan_output(tmp_path)) == []

    def bump_tau(rows):
        cells = rows[5].split(",")
        cells[3] = str(int(cells[3]) + 1)
        rows[5] = ",".join(cells)
        return rows

    assert len(_failures(*_scan_output(tmp_path, bump_tau))) == 1


def test_tau_above_its_bound_is_reported(tmp_path):
    def tau_over_bound(rows):
        cells = rows[1].split(",")
        cells[3] = str(int(cells[4]) + 1)
        rows[1] = ",".join(cells)
        return rows

    (reason,) = _failures(*_scan_output(tmp_path, tau_over_bound))
    assert "> bound" in reason


def _monte_carlo_ops():
    ops = WORKLOADS["coupling_mc"](seed=11)
    small = []
    for op in ops:
        if op["label"] in ("couple_short", "mctv"):
            argv = list(op["argv"])
            argv[argv.index("--trials") + 1] = "20000"
            small.append({**op, "argv": argv})
    return small


def _biased_kernel_for_step(params, s=None):
    """The true kernel, with a fifth of each row's mass moved to the last class."""
    k = wa.kernel_for_step(params, s)
    k.mat = 0.8 * k.mat
    k.mat[:, -1] += 0.2
    return k


@pytest.mark.parametrize("biased", [False, True])
def test_biased_sampler_is_a_failed_op(tmp_path, monkeypatch, biased):
    if biased:
        monkeypatch.setattr(cli, "kernel_for_step", _biased_kernel_for_step)
    ops = _monte_carlo_ops()
    records = [_run_cli(tmp_path, op) for op in ops]
    failures = failed_ops(ops, records, References())
    assert len(failures) == (len(ops) if biased else 0), failures


def test_exact_meeting_tail_matches_a_direct_simulation():
    refs = References()
    k, pi = refs.walk(7, 1, 1, 1)
    tail = refs.meeting_tail((7, 1, 1, 1), "0", 40)
    rng = np.random.default_rng(0)
    cum = np.cumsum(k.mat, axis=1)
    n = 20000
    x = np.zeros(n, dtype=int)
    y = np.searchsorted(np.cumsum(pi.probs), rng.random(n), side="right")
    alive = x != y
    emp = [alive.mean()]
    for _ in range(40):
        x = (cum[x] <= rng.random(n)[:, None]).sum(axis=1).clip(max=k.size - 1)
        y = (cum[y] <= rng.random(n)[:, None]).sum(axis=1).clip(max=k.size - 1)
        alive &= x != y
        emp.append(alive.mean())
    assert np.abs(np.array(emp) - tail).max() < 0.03
    assert tail[0] == pytest.approx(1 - pi.probs[0])
    assert np.all(np.diff(tail) <= 1e-15)


def test_failed_exit_and_exception_count(tmp_path):
    op = {"label": "axioms_5", "kind": "cli", "check": "axioms", "argv": []}
    bad_exit = {"label": "axioms_5", "rc": 2, "error": None, "out": "", "pass": 1}
    crashed = {"label": "axioms_5", "rc": None, "error": "Traceback\nValueError: boom",
               "out": "", "pass": 2}
    missing = {"label": "axioms_5", "rc": 0, "error": None,
               "out": str(tmp_path / "absent.json"), "pass": 3}
    failures = failed_ops([op], [bad_exit, crashed, missing], References())
    assert len(failures) == 3
    assert "exit code 2" in failures[0] and "ValueError: boom" in failures[1]
    json.dumps(failures)
