import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

CLI = [sys.executable, "-m", "conicwalk.cli"]
DATA = Path(__file__).parent / "data"


def run_cli(*args, cwd=None):
    return subprocess.run(CLI + list(args), capture_output=True, text=True, cwd=cwd)


def run_main(*args):
    """``cli.main`` in this process, with the text written to stdout and
    stderr captured, in the shape of ``run_cli``'s result."""
    from conicwalk import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(list(args))
    return subprocess.CompletedProcess(list(args), rc, out.getvalue(), err.getvalue())


def test_constants_verify_oracle_ok(tmp_path):
    out = tmp_path / "t7.csv"
    r = run_cli("constants", "--p", "7", "--a", "1", "--b", "1",
                "--verify-oracle", "--out", str(out))
    assert r.returncode == 0, r.stderr
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# conicwalk")
    assert lines[1] == "i,j,k,num,den,N_i,N_j"
    assert len(lines) == 2 + 7**3
    errata = json.loads((tmp_path / "t7.csv.errata.json").read_text())
    assert errata["fresh_mismatches"] == []
    assert len(errata["known_corrections"]) == 4


def test_oracle_mismatch_line_counts_every_differing_triple(tmp_path, monkeypatch):
    from conicwalk import ConicParams, hypergroup, make_field, oracle_table

    real = hypergroup._closed_counts

    def reversed_columns(params, rows, cols, published_isotropic_row=False):
        out = real(params, rows, cols, published_isotropic_row)
        # each row keeps its sum, so the table still passes validation
        return np.where((cols >= 3)[:, None], out[..., ::-1], out)

    monkeypatch.setattr(hypergroup, "_closed_counts", reversed_columns)
    params = ConicParams(make_field(7, 1), 1, 1)
    table, oracle = hypergroup.build_table(params), oracle_table(params)
    differing = sum(a != b for a, b in zip(table.to_csv_rows(), oracle.to_csv_rows()))
    assert differing == 98
    out = tmp_path / "t7.csv"
    r = run_main("constants", "--p", "7", "--verify-oracle", "--out", str(out))
    assert r.returncode == 2
    assert f"oracle mismatch: {differing} differing triples" in r.stderr
    # the errata report lists the first 50
    errata = json.loads((tmp_path / "t7.csv.errata.json").read_text())
    assert errata["fresh_mismatches"] == table.mismatches(oracle)
    assert len(errata["fresh_mismatches"]) == 50


def test_constants_json_format(tmp_path):
    out = tmp_path / "t5.json"
    r = run_main("constants", "--p", "5", "--format", "json", "--out", str(out))
    assert r.returncode == 0
    payload = json.loads(out.read_text())
    assert payload["config"]["p"] == 5
    assert payload["table"]["classes"][-1] == "iso"
    assert payload["table"]["rows"][0][1][1] == "1/1"  # identity row of class 0


def test_invalid_field_exits_1():
    r = run_cli("constants", "--p", "4")
    assert r.returncode == 1
    assert "odd prime" in r.stderr


def test_invalid_weights_exit_1():
    r = run_main("constants", "--p", "7", "--a", "1", "--b", "3")
    assert r.returncode == 1
    assert "not a square" in r.stderr


def test_unknown_flag_exits_1():
    r = run_main("constants", "--p", "7", "--bogus")
    assert r.returncode == 1


def test_diagnostic_unsplit_gf13(tmp_path):
    out = tmp_path / "unsplit.json"
    r = run_main("constants", "--p", "13", "--diagnostic-unsplit", "--out", str(out))
    assert r.returncode == 0
    payload = json.loads(out.read_text())
    assert payload["axioms"]["hermitian_support"] is False
    assert payload["axioms"]["all_pass"] is False


def test_diagnostic_unsplit_wrong_branch():
    r = run_main("constants", "--p", "7", "--diagnostic-unsplit")
    assert r.returncode == 1


def test_axioms_pass(tmp_path):
    out = tmp_path / "ax.json"
    r = run_main("axioms", "--p", "13", "--out", str(out))
    assert r.returncode == 0
    assert json.loads(out.read_text())["axioms"]["all_pass"] is True


def test_kernel_dump(tmp_path):
    out = tmp_path / "k.json"
    r = run_main("kernel", "--p", "13", "--s", "1", "--out", str(out))
    assert r.returncode == 0
    payload = json.loads(out.read_text())
    assert len(payload["kernel"]["rows"]) == 14
    assert payload["kernel"]["rows"][0][1] == "1/1"
    # the walk reads no weight, so the kernel states its field alone
    assert payload["kernel"]["field"] == {"p": 13, "d": 1, "modulus": [0, 1]}
    assert "params" not in payload["kernel"]


def test_stationary_matches_haar(tmp_path):
    out = tmp_path / "st.json"
    r = run_main("stationary", "--p", "13", "--out", str(out))
    assert r.returncode == 0
    payload = json.loads(out.read_text())
    assert payload["sup_diff"] <= 1e-12


def test_mixing_report(tmp_path):
    out = tmp_path / "mix.json"
    r = run_main("mixing", "--p", "7", "--eps", "0.1839397", "--out", str(out))
    assert r.returncode == 0
    payload = json.loads(out.read_text())
    assert payload["mixing"]["tau_bound"] == 96
    assert payload["mixing"]["tau"] <= 96


def test_mixing_at_eps_1_reports_the_tv_at_t_0():
    r = run_main("mixing", "--p", "7", "--eps", "1")
    assert r.returncode == 0, r.stderr
    mix = json.loads(r.stdout)["mixing"]
    assert mix["tau"] == 0
    # TV(origin, pi) = 1 - pi(C[0]) = 48/49
    assert len(mix["curve"]) == 1 and abs(mix["curve"][0] - 48 / 49) <= 1e-15


@pytest.mark.parametrize("eps,tau,exact", [("0.18", 4, True), ("1e-12", 44, False)])
def test_mixing_says_whether_tau_is_exact(eps, tau, exact):
    # GF(13): the TV is exact while 169 * 12^t < 2^63, so for t <= 15
    r = run_main("mixing", "--p", "13", "--eps", eps)
    assert r.returncode == 0, r.stderr
    mix = json.loads(r.stdout)["mixing"]
    assert (mix["tau"], mix["tau_exact"], len(mix["curve"])) == (tau, exact, tau + 1)


def test_minorize_gf13(tmp_path):
    out = tmp_path / "min.json"
    r = run_main("minorize", "--p", "13", "--steps", "6", "--out", str(out))
    assert r.returncode == 0
    payload = json.loads(out.read_text())
    assert payload["minorization"]["reference"] == "1/39"
    assert payload["minorization"]["ok"] is True


@pytest.mark.parametrize("field", [("--p", "13"), ("--p", "31"), ("--p", "13", "--s", "iso")],
                         ids=" ".join)
def test_mixing_carries_the_minorize_verdict(field):
    r_mix, r_min = run_main("mixing", *field), run_main("minorize", *field)
    assert r_mix.returncode == r_min.returncode == 0, r_mix.stderr + r_min.stderr
    verdict = json.loads(r_min.stdout)["minorization"]
    del verdict["reference_m"], verdict["reference_applicable"]
    assert json.loads(r_mix.stdout)["mixing"]["minorization"] == verdict


def test_couple_and_histogram(tmp_path):
    out = tmp_path / "c.json"
    hist = tmp_path / "c.csv"
    r = run_cli("couple", "--p", "7", "--trials", "2000", "--seed", "3",
                "--out", str(out), "--hist-out", str(hist))
    assert r.returncode == 0
    payload = json.loads(out.read_text())
    assert payload["coupling"]["trials"] == 2000
    lines = hist.read_text().splitlines()
    assert lines[1] == "t,count,empirical_tail"
    rows = [line.split(",") for line in lines[2:]]
    assert [int(t) for t, _, _ in rows] == list(range(len(rows)))
    assert sum(int(n) for _, n, _ in rows) == 2000
    assert [float(tail) for _, _, tail in rows] == payload["coupling"]["tail"]


def test_scan_small_range(tmp_path):
    out = tmp_path / "scan.csv"
    r = run_main("scan", "--qmin", "7", "--qmax", "29", "--out", str(out))
    assert r.returncode == 0, r.stderr
    lines = out.read_text().splitlines()
    header = lines[1].split(",")
    assert header == ["q", "branch", "class_count", "tau_measured", "tau_bound",
                      "minorization_measured", "minorization_bound",
                      "ratio_tau_over_q"]
    qs = [int(line.split(",")[0]) for line in lines[2:]]
    assert qs == [7, 9, 11, 13, 17, 19, 23, 25, 27, 29]
    for line in lines[2:]:
        parts = line.split(",")
        assert int(parts[3]) <= int(parts[4])


def test_scan_failure_keeps_rows_written_before_it(tmp_path, monkeypatch):
    from dataclasses import replace

    from conicwalk import cli

    real = cli.mixing_report

    def failing_at_11(params, **kw):
        rep = real(params, **kw)
        return replace(rep, tau_bound=-1) if params.q == 11 else rep

    monkeypatch.setattr(cli, "mixing_report", failing_at_11)
    out = tmp_path / "scan.csv"
    assert cli.main(["scan", "--qmin", "7", "--qmax", "13", "--out", str(out)]) == 2
    qs = [int(line.split(",")[0]) for line in out.read_text().splitlines()[2:]]
    assert qs == [7, 9, 11]


def test_scan_branch_filter(tmp_path):
    out = tmp_path / "scan3.csv"
    r = run_main("scan", "--qmin", "7", "--qmax", "30", "--branch", "3", "--out", str(out))
    assert r.returncode == 0
    qs = [int(line.split(",")[0]) for line in out.read_text().splitlines()[2:]]
    assert qs == [7, 11, 19, 23, 27]


def test_outputs_byte_identical_across_runs(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        r = run_cli("couple", "--p", "7", "--trials", "500", "--seed", "42",
                    "--out", str(path))
        assert r.returncode == 0
    assert a.read_bytes() == b.read_bytes()
    c, d = tmp_path / "c.csv", tmp_path / "d.csv"
    for path in (c, d):
        run_cli("constants", "--p", "13", "--out", str(path))
    assert c.read_bytes() == d.read_bytes()


def test_outputs_byte_identical_across_output_paths(tmp_path):
    # the output paths are not echoed, so a rerun elsewhere writes the same bytes
    runs = []
    for name in ("a", "b"):
        d = tmp_path / name
        d.mkdir()
        for args in (("couple", "--p", "7", "--trials", "500", "--out", str(d / "c.json"),
                      "--hist-out", str(d / "h.csv")),
                     ("constants", "--p", "7", "--verify-oracle", "--out", str(d / "t.csv"),
                      "--errata-out", str(d / "e.json"))):
            r = run_main(*args)
            assert r.returncode == 0, r.stderr
        runs.append({p.name: p.read_bytes() for p in d.iterdir()})
    assert sorted(runs[0]) == ["c.json", "e.json", "h.csv", "t.csv"]
    assert runs[0] == runs[1]


# the smallest run of each subcommand, to the echo test
ECHO_ARGV = {
    "constants": ("--p", "7"),
    "axioms": ("--p", "7"),
    "kernel": ("--p", "7"),
    "stationary": ("--p", "7"),
    "mixing": ("--p", "7"),
    "minorize": ("--p", "7"),
    "couple": ("--p", "7", "--trials", "10"),
    "mctv": ("--p", "7", "--t", "1", "--trials", "1000"),
    "scan": ("--qmin", "7", "--qmax", "9"),
}


@pytest.mark.parametrize("cmd", list(ECHO_ARGV))
def test_config_echoes_exactly_the_commands_own_flags(cmd, tmp_path):
    from conicwalk import cli

    r = run_main(cmd, *ECHO_ARGV[cmd], "--out", str(tmp_path / "out"))
    assert r.returncode == 0, r.stderr
    text = (tmp_path / "out").read_text()
    if text.startswith("#"):  # a CSV's config line: "# conicwalk <version> k=v ..."
        config = dict(item.split("=", 1) for item in text.split("\n")[0].split()[3:])
    else:
        config = json.loads(text)["config"]
    params = {param.name for param in cli.cli.commands[cmd].params}
    assert config["command"] == cmd
    assert set(config) == {"command"} | params - {"out", "errata_out", "hist_out"}


def test_mctv_command(tmp_path):
    out = tmp_path / "mc.json"
    r = run_main("mctv", "--p", "7", "--t", "2", "--trials", "2000",
                 "--seed", "5", "--out", str(out))
    assert r.returncode == 0
    payload = json.loads(out.read_text())
    assert 0 <= payload["monte_carlo_tv"]["ci_low"] <= payload["monte_carlo_tv"]["ci_high"] <= 1


# sha256 of stdout, recorded before the structure constants moved to integer
# counts; these outputs are exact (no float from a matrix product), so the
# refactor must not change a byte.  Re-recorded when the config echo became
# each command's own flags: only the echo changed (and the params' "c")
GOLDEN_STDOUT = {
    ("constants", "--p", "13"):
        "5d0b8124a899d3ecbc943c0bb260d65d9b230de8e5b3ff3cfa875b8f2103c9e1",
    ("constants", "--p", "3", "--d", "3"):
        "dd244d425c979ebe44749a99df820c2fe50a3f05656776ea8da362c605c02848",
    ("constants", "--p", "7", "--format", "json"):
        "6923591786fdfdb94f38d7fcaf86d4838a952026c731cf3b30249a41bd8a0d80",
    ("constants", "--p", "13", "--diagnostic-unsplit"):
        "c1264dc31168e914d860c6632377e98865284d369afa7054711e8339a9686e64",
    ("axioms", "--p", "5", "--d", "2"):
        "5e066b8ac36f6977304409d15e456c4da3732b52b62281eb93e6c1487eb2facf",
    ("axioms", "--p", "13", "--source", "oracle"):
        "256a4e6b772f9d6729d90f09bfb46863f03dd6fabf065a2a5e7f7926c08392d8",
    ("kernel", "--p", "13", "--s", "iso", "--format", "csv"):
        "277fcb025a62c24bac65467048bfb9ea592455274d75989adf02cbfbcccd8e36",
    ("kernel", "--p", "7"):
        "1fdae085d56a6e98bbe04c9ac5f454b19e20233ee3cccd538c92aa5a0b8fadea",
    ("stationary", "--p", "31", "--method", "exact"):
        "7f3f56c452ac8da7828c8630544f8f3ebea87c1433d09065696d5b96eb6c1c76",
    # the Monte Carlo bytes: a change to the stream or to the draw rule
    # changes these, a change to the search method alone does not
    ("couple", "--p", "7", "--trials", "2000", "--seed", "3"):
        "cf92c6a5f70ef0c2436e0d378c4e114e55810d27fa7c5629611338c6d4baa493",
    ("couple", "--p", "61", "--trials", "500", "--seed", "1"):
        "adfdc4b7ac130b2dc59672c8e65b87ce31fc3f9ac9b46b375785db5c420992a8",
    ("mctv", "--p", "13", "--t", "12", "--trials", "2000", "--seed", "42"):
        "42d1cb22e761ff2c09486b6250362435685f6828c8085f70fc247bddfdbfeec2",
}


@pytest.mark.parametrize("args", list(GOLDEN_STDOUT), ids=" ".join)
def test_outputs_match_recorded_digests(args):
    r = run_main(*args)
    assert r.returncode == 0, r.stderr
    assert hashlib.sha256(r.stdout.encode()).hexdigest() == GOLDEN_STDOUT[args]


# stdout of the Monte Carlo commands, recorded before the walk engine moved to
# per-trial SplitMix64 states, compacted pairs and trial blocks; the config
# echo was later cut to each command's own flags, and the always-empty
# "marginal_counts" line deleted from the couple file
GOLDEN_MC_STDOUT = {
    ("couple", "--p", "61", "--trials", "2000", "--seed", "1"): "couple_p61_seed1.json",
    ("mctv", "--p", "13", "--t", "12", "--trials", "5000", "--seed", "1"):
        "mctv_p13_t12_seed1.json",
}


@pytest.mark.parametrize("args", list(GOLDEN_MC_STDOUT), ids=" ".join)
def test_monte_carlo_outputs_match_recorded_files(args):
    r = run_main(*args)
    assert r.returncode == 0, r.stderr
    assert r.stdout == (DATA / GOLDEN_MC_STDOUT[args]).read_text()


_json_scalar = st.one_of(st.none(), st.booleans(), st.integers(-2**70, 2**70),
                         st.floats(), st.floats().map(np.float64), st.text(max_size=8))
# lists of plain ints take their own path in the writer: repeated small
# values, big ones, bools mixed in (json writes those as true/false), tuples
_json_int_list = st.lists(st.one_of(st.integers(-3, 3), st.integers(-2**70, 2**70)),
                          max_size=200)
_json_int_lists = st.one_of(
    _json_int_list, _json_int_list.map(tuple),
    st.lists(st.one_of(st.integers(-3, 3), st.booleans()), max_size=200),
    st.lists(st.one_of(st.integers(-3, 3), st.booleans()), max_size=200).map(tuple))
_json_value = st.recursive(
    st.one_of(_json_scalar, _json_int_lists),
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.dictionaries(st.text(max_size=6), inner, max_size=5),
        st.dictionaries(st.integers(-50, 50), inner, max_size=5)),
    max_leaves=30)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_json_value)
def test_json_writer_equals_json_dumps(obj):
    # floats include nan, +-inf and a float subclass, text includes non-ASCII
    # characters
    from conicwalk.cli import _json_text

    assert _json_text(obj) == json.dumps(obj, indent=2, sort_keys=True)


@pytest.mark.parametrize("name", sorted(p.name for p in DATA.glob("*.json")))
def test_json_writer_reproduces_recorded_files(name):
    from conicwalk.cli import _json_text

    text = (DATA / name).read_text()
    assert _json_text(json.loads(text)) + "\n" == text


# stdout recorded at the same point for outputs that carry floats from BLAS
# matrix products, whose last bits may vary with the BLAS kernel: ints and
# strings must match exactly, floats to 1e-12 relative.  The config echo was
# later cut to each command's own flags, the recorded values kept
GOLDEN_FLOAT_STDOUT = {
    ("mixing", "--p", "13"): "mixing_p13.json",
    ("minorize", "--p", "13"): "minorize_p13.json",
    ("scan", "--qmin", "7", "--qmax", "61"): "scan_q7_61.csv",
    # the README example size, recorded before the step matrix, the ergodicity
    # check and the exact minorization minimum moved to array operations
    ("scan", "--qmin", "7", "--qmax", "199"): "scan_q7_199.csv",
}


def _assert_matches(got, want):
    if isinstance(want, float):
        assert isinstance(got, float) and math.isclose(got, want, rel_tol=1e-12), (got, want)
    elif isinstance(want, dict):
        assert list(got) == list(want)
        for key in want:
            _assert_matches(got[key], want[key])
    elif isinstance(want, list):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            _assert_matches(g, w)
    else:
        assert type(got) is type(want) and got == want, (got, want)


@pytest.mark.parametrize("args", list(GOLDEN_FLOAT_STDOUT), ids=" ".join)
def test_float_outputs_match_recorded_values(args):
    r = run_main(*args)
    assert r.returncode == 0, r.stderr
    recorded = (DATA / GOLDEN_FLOAT_STDOUT[args]).read_text()
    if args[0] != "scan":
        _assert_matches(json.loads(r.stdout), json.loads(recorded))
        return
    got, want = r.stdout.splitlines(), recorded.splitlines()
    # the config comment and the header are exact; every data cell is read as
    # a float, which keeps the integer columns exact at this tolerance
    assert got[:2] == want[:2]
    _assert_matches([[float(v) for v in line.split(",")] for line in got[2:]],
                    [[float(v) for v in line.split(",")] for line in want[2:]])


def test_minorize_reports_the_python_int_origin_row_past_2_53():
    # q = 461: N_s^6 = 460^6 lies between 2^53 and 2^63
    from conicwalk import ConicParams, kernel_for_step, make_prime_field

    k = kernel_for_step(ConicParams(make_prime_field(461), 1, 1))
    step = k.step_counts.astype(object)
    v = np.zeros(k.size, dtype=object)
    v[0] = 1
    for _ in range(6):
        v = v @ step
    ref = min(Fraction(int(vj) * 461 ** 2, 460 ** 6 * int(nj))
              for vj, nj in zip(v.tolist(), k.sizes.tolist()))
    out = json.loads(run_main("minorize", "--p", "461").stdout)["minorization"]
    assert out["measured_exact"] == f"{ref.numerator}/{ref.denominator}"
    assert out["measured"] == float(ref) and out["ok"]


def test_minorize_reports_exact_zero():
    r = run_main("minorize", "--p", "7", "--steps", "1")
    assert r.returncode == 0, r.stderr
    m = json.loads(r.stdout)["minorization"]
    assert m["measured"] == 0.0
    assert m["measured_exact"] == "0/1"


@pytest.mark.parametrize("args", [
    ("mixing", "--p", "7", "--eps", "nan"),
    ("scan", "--qmin", "7", "--qmax", "11", "--eps", "nan"),
    ("kernel", "--p", "7", "--s", "8"),
    ("kernel", "--p", "7", "--s", "-1"),
    ("kernel", "--p", "7", "--a", "8"),
    # the walk reads no weight, and no command reads c
    ("kernel", "--p", "7", "--a", "2"),
    ("mixing", "--p", "7", "--b", "3"),
    ("stationary", "--p", "7", "--b", "2"),  # 2 = 3^2: valid weights before
    ("couple", "--p", "7", "--trials", "10", "--c", "1"),
    ("constants", "--p", "7", "--c", "1"),
    # one class, one label: int() would read each of these as some index
    ("kernel", "--p", "13", "--s", "1_0"),
    ("kernel", "--p", "13", "--s", "\u0663"),
    ("kernel", "--p", "13", "--s", "01"),
    ("kernel", "--p", "13", "--s", " 2"),
    ("kernel", "--p", "13", "--s", "+3"),
    ("couple", "--p", "13", "--trials", "10", "--start", "01"),
    ("mctv", "--p", "13", "--trials", "1000", "--start", "+3"),
    ("minorize", "--p", "7", "--steps", "0"),
    ("couple", "--p", "7", "--trials", "0"),
    ("mctv", "--p", "7", "--trials", "10"),
    ("couple", "--p", "7", "--trials", "10", "--seed", "-1"),
    ("mctv", "--p", "7", "--trials", "1000", "--seed", "-5"),
    ("mctv", "--p", "7", "--trials", "1000", "--t", "-3"),
    # the identity step kernel never mixes: a user error, not an internal one
    ("couple", "--p", "7", "--trials", "10", "--s", "0"),
    ("stationary", "--p", "7", "--s", "0"),
    ("mixing", "--p", "7", "--s", "0", "--eps", "1"),
    ("minorize", "--p", "7", "--s", "0"),
    # "exact" is the one integer method; there is no second name for it
    ("stationary", "--p", "7", "--method", "auto"),
    # a field above the oracle cap is rejected before anything is written
    ("constants", "--p", "13", "--verify-oracle", "--cap", "10"),
    ("constants", "--p", "5", "--d", "2", "--diagnostic-unsplit", "--cap", "10"),
    # the unsplit diagnostic writes no table for the oracle to verify
    ("constants", "--p", "5", "--d", "2", "--diagnostic-unsplit", "--verify-oracle"),
    ("axioms", "--p", "127", "--source", "oracle"),
    # flag ranges past which a run used to fail late, or exit 0 with bad output
    ("scan", "--qmin", "7", "--qmax", "1100"),
    ("mixing", "--p", "7", "--eps", "1e-300"),
    ("mixing", "--p", "7", "--eps", "inf"),
    ("kernel", "--p", "7", "--d", "0"),
    # past 2^32 trials, or MC-TV steps, the seeded streams would alias
    ("couple", "--p", "7", "--trials", str(2**32 + 1)),
    ("mctv", "--p", "7", "--trials", str(2**32 + 1)),
    ("mctv", "--p", "7", "--t", str(2**32 + 1)),
    # the later --out wins: a missing subdirectory of tmp_path
    ("kernel", "--p", "7", "--out", "{tmp}/missing/out"),
    # a second output path that cannot be written: the --out file is not kept
    ("couple", "--p", "7", "--trials", "10", "--hist-out", "{tmp}/missing/h.csv"),
    ("constants", "--p", "7", "--verify-oracle", "--errata-out", "{tmp}/missing/e.json"),
    # a raised oracle cap warns only after every input check has passed
    ("constants", "--p", "7", "--cap", "200", "--verify-oracle",
     "--out", "{tmp}/missing/out"),
    ("constants", "--p", "7", "--cap", "200", "--out", "{tmp}/missing/out"),
], ids=" ".join)
def test_invalid_input_exits_1_with_one_line(args, tmp_path):
    out = tmp_path / "out"
    r = run_main(args[0], "--out", str(out), *(a.format(tmp=tmp_path) for a in args[1:]))
    assert r.returncode == 1
    assert r.stdout == ""
    lines = r.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), r.stderr
    assert list(tmp_path.iterdir()) == []


def test_out_of_memory_exits_1_with_one_line(tmp_path, monkeypatch):
    from conicwalk import cli

    def too_large(*args, **kwargs):
        raise MemoryError("Unable to allocate 74.5 GiB for an array with shape "
                          "(10000000000,) and data type int64")

    monkeypatch.setattr(cli, "monte_carlo_tv", too_large)
    r = run_main("mctv", "--p", "7", "--t", "1", "--trials", str(2**32),
                 "--out", str(tmp_path / "out"))
    assert r.returncode == 1 and r.stdout == ""
    assert r.stderr == ("error: out of memory: Unable to allocate 74.5 GiB for an array "
                        "with shape (10000000000,) and data type int64\n")
    assert list(tmp_path.iterdir()) == []


def test_not_ergodic_step_exits_1_with_its_reason():
    r = run_main("stationary", "--p", "7", "--s", "0")
    assert r.returncode == 1 and r.stdout == ""
    assert r.stderr == ("error: kernel with step C[0] is not ergodic: "
                        "6 classes do not communicate with C[0]\n")


@pytest.mark.parametrize("args,message", [
    (("--p", "1031"), "q = 1031 exceeds the arithmetic cap 1024"),
    (("--p", "3", "--d", "7"), "q = 3^7 exceeds the arithmetic cap 1024"),
    (("--p", "9"), "q must be an odd prime power: 9 is not an odd prime"),
], ids=["prime-above-cap", "power-above-cap", "not-prime"])
def test_field_errors_exit_1_with_their_own_reason(args, message):
    r = run_main("kernel", *args)
    assert r.returncode == 1 and r.stdout == ""
    assert r.stderr == f"error: {message}\n"


def test_unwritable_hist_out_exits_1_with_one_line(tmp_path):
    r = run_cli("couple", "--p", "7", "--trials", "10",
                "--hist-out", str(tmp_path / "missing" / "h.csv"))
    assert r.returncode == 1
    lines = r.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), r.stderr
    # the paths are checked before the JSON goes to stdout
    assert r.stdout == ""


@pytest.mark.parametrize("args,warns", [
    (("constants", "--p", "7", "--cap", "200"), False),
    (("constants", "--p", "7", "--cap", "200", "--verify-oracle"), True),
    (("constants", "--p", "13", "--cap", "200", "--diagnostic-unsplit"), True),
], ids=lambda v: " ".join(v) if isinstance(v, tuple) else str(v))
def test_raised_cap_warns_only_when_an_oracle_runs(args, warns, tmp_path):
    out = tmp_path / "out"
    r = run_main(*args, "--out", str(out))
    assert r.returncode == 0, r.stderr
    warning = "warning: enumeration cap raised to 200; O(q^3) oracle may be slow"
    assert (r.stderr.splitlines()[:1] == [warning]) is warns, r.stderr
    assert r.stderr.count("warning:") == warns


def test_interrupted_scan_keeps_rows_written_before_it(tmp_path, monkeypatch):
    from conicwalk import cli

    real = cli.mixing_report

    def interrupted_at_11(params, **kw):
        if params.q == 11:
            raise KeyboardInterrupt
        return real(params, **kw)

    monkeypatch.setattr(cli, "mixing_report", interrupted_at_11)
    out = tmp_path / "scan.csv"
    r = run_main("scan", "--qmin", "7", "--qmax", "13", "--out", str(out))
    qs = [int(line.split(",")[0]) for line in out.read_text().splitlines()[2:]]
    assert qs == [7, 9]
    # exit 130, not the invalid-input code; click's newline ends the ^C line
    assert (r.returncode, r.stdout, r.stderr) == (130, "", "\ninterrupted\n")


def test_output_is_written_through_a_symlink(tmp_path):
    target, link = tmp_path / "target.json", tmp_path / "c.json"
    target.write_text("old\n")
    target.chmod(0o640)
    link.symlink_to(target)
    r = run_main("couple", "--p", "7", "--trials", "200", "--seed", "1", "--out", str(link))
    assert r.returncode == 0, r.stderr
    assert link.is_symlink() and target.stat().st_mode & 0o777 == 0o640
    assert json.loads(target.read_text())["coupling"]["trials"] == 200


def test_output_under_a_file_exits_1_before_any_write(tmp_path):
    (tmp_path / "f").write_text("")
    hist = tmp_path / "f" / "h.csv"
    r = run_main("couple", "--p", "7", "--trials", "10",
                 "--out", str(tmp_path / "c.json"), "--hist-out", str(hist))
    assert (r.returncode, r.stdout) == (1, "")
    assert r.stderr == f"error: cannot write {hist}: Not a directory\n"
    assert [p.name for p in tmp_path.iterdir()] == ["f"]


def test_output_path_that_is_a_directory_exits_1(tmp_path):
    r = run_main("kernel", "--p", "7", "--out", str(tmp_path))
    assert r.returncode == 1
    assert r.stderr == f"error: cannot write {tmp_path}: Is a directory\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("args", [
    ("couple", "--p", "61", "--trials", "100000"),
    ("mctv", "--p", "61", "--t", "60", "--trials", "200000"),
    ("kernel", "--p", "7"),
    ("stationary", "--p", "7"),
    ("mixing", "--p", "7"),
    ("minorize", "--p", "7"),
    ("axioms", "--p", "7"),
], ids=" ".join)
def test_unwritable_output_exits_1_before_any_computation(args, tmp_path, monkeypatch):
    from conicwalk import cli

    def computed(*a, **kw):
        raise AssertionError("computed before the output path was checked")

    for name in ("run_coupling_trials", "monte_carlo_tv", "kernel_for_step",
                 "mixing_report", "build_table"):
        monkeypatch.setattr(cli, name, computed)
    out = tmp_path / "missing" / "x"
    r = run_main(*args, "--out", str(out))
    assert (r.returncode, r.stdout) == (1, "")
    assert r.stderr == f"error: cannot write {out}: No such file or directory\n"


# (argv, whether the second output is made a hard link to an existing first)
ONE_FILE_CASES = [
    (("constants", "--p", "7", "--verify-oracle", "--out", "t.csv", "--errata-out", "t.csv"),
     False),
    (("constants", "--p", "7", "--verify-oracle", "--out", "./t.csv", "--errata-out", "t.csv"),
     False),
    (("couple", "--p", "7", "--trials", "10", "--out", "h.csv", "--hist-out", "h.csv"), False),
    (("couple", "--p", "7", "--trials", "10", "--out", "h.csv", "--hist-out", "./h.csv"), False),
    (("constants", "--p", "7", "--verify-oracle", "--out", "t.csv", "--errata-out", "u.csv"),
     True),
]


@pytest.mark.parametrize("args,linked", ONE_FILE_CASES,
                         ids=[" ".join(args) for args, _ in ONE_FILE_CASES])
def test_two_outputs_naming_one_file_exit_1_before_any_computation(args, linked, tmp_path,
                                                                    monkeypatch):
    from conicwalk import cli

    def computed(*a, **kw):
        raise AssertionError("computed before the output paths were checked")

    for name in ("run_coupling_trials", "kernel_for_step", "build_table", "oracle_table"):
        monkeypatch.setattr(cli, name, computed)
    monkeypatch.chdir(tmp_path)
    first, second = args[-3], args[-1]
    if linked:
        (tmp_path / first).write_text("kept\n")
        os.link(tmp_path / first, tmp_path / second)
    r = run_main(*args)
    assert (r.returncode, r.stdout) == (1, "")
    assert r.stderr == f"error: cannot write {second}: same file as {first}\n"
    left = sorted(p.name for p in tmp_path.iterdir())
    assert left == (sorted([first, second]) if linked else [])
    assert all((tmp_path / name).read_text() == "kept\n" for name in left)


# ---------------------------------------------------------------------------
# CLI fuzz: subcommands with valid and invalid flag values, run in-process
# ---------------------------------------------------------------------------

CLASS_LABELS = ["0", "1", "2", "8", "-1", "01", "iso", "x"]
EPS_VALUES = ["1e-300", "1e-12", "0.18", "1", "1.5", "0", "-0.5", "nan", "inf"]


@st.composite
def cli_argv(draw):
    def opt(flag, values):
        return [flag, str(draw(st.sampled_from(values)))] if draw(st.booleans()) else []

    cmd = draw(st.sampled_from(["constants", "axioms", "kernel", "stationary", "mixing",
                                "minorize", "couple", "mctv", "scan"]))
    if cmd == "scan":  # --qmax is always given: the default scan runs for seconds
        return [cmd, *opt("--qmin", [-1, 3, 7, 29, 1025]),
                "--qmax", str(draw(st.sampled_from([2, 5, 13, 31, 1100]))),
                *opt("--branch", ["both", "1", "3", "2"]), *opt("--eps", EPS_VALUES)]
    # half the draws name a field outright, so that runs get past the field check
    p, d = draw(st.one_of(st.sampled_from([(7, 1), (13, 1), (7, 2), (13, 2)]),
                          st.tuples(st.sampled_from([-1, 0, 2, 4, 7, 9, 13]),
                                    st.sampled_from([-1, 0, 1, 2]))))
    # the closed-form table of GF(169) has 4.9M entries and takes seconds
    assume(not (cmd == "constants" and (p, d) == (13, 2)))
    argv = [cmd, "--p", str(p), "--d", str(d)]
    if cmd in ("constants", "axioms"):  # the only commands that take weights
        argv += [*opt("--a", [-1, 0, 1, 2, 3, 8]), *opt("--b", [1, 3, 4])]
    if cmd == "constants":
        argv += [*opt("--format", ["csv", "json"]), *opt("--cap", [10, 125])]
        argv += draw(st.sampled_from([[], ["--verify-oracle"], ["--diagnostic-unsplit"]]))
        return argv
    if cmd == "axioms":
        return argv + opt("--source", ["closed-form", "oracle"])
    argv += opt("--s", CLASS_LABELS)
    argv += {
        "kernel": lambda: opt("--format", ["csv", "json", "xml"]),
        "stationary": lambda: opt("--method", ["power", "exact"]),
        "mixing": lambda: opt("--eps", EPS_VALUES),
        "minorize": lambda: opt("--steps", [-1, 0, 1, 6]),
        "couple": lambda: opt("--hist-out", ["{tmp}/h.csv"]),
        "mctv": lambda: opt("--t", [-1, 0, 3, 50]),
    }[cmd]()
    if cmd in ("couple", "mctv"):  # --trials is always given: the default is 100,000
        trials = [0, 1, 500, 2000] if cmd == "couple" else [10, 999, 1000, 2000]
        argv += ["--trials", str(draw(st.sampled_from(trials))),
                 *opt("--start", CLASS_LABELS), *opt("--seed", [-1, 0, 42])]
    return argv


def _no_json_constants(name):
    raise ValueError(f"{name} is not JSON")


@settings(max_examples=200, deadline=None, derandomize=True)
@given(cli_argv(), st.sampled_from(["out", "missing/out"]))
def test_cli_fuzz_exit_codes_and_outputs(argv, out_name):
    from conicwalk import cli

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        out = tmp / out_name
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = cli.main([a.format(tmp=tmp) for a in argv] + ["--out", str(out)])
        assert rc in (0, 1, 2), (rc, err.getvalue())
        if rc == 1:
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: "), err.getvalue()
            assert not out.exists()
        for path in tmp.rglob("*"):
            text = path.read_text()
            if not text.startswith("#"):  # a CSV starts with its config line
                json.loads(text, parse_constant=_no_json_constants)
