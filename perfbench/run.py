"""Run one conicwalk benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload mixing_scan --seed 1 --seconds 20 --trace 0

The workload (see ``perfbench/workloads.py``) runs in a fresh worker
process against the sources in ``./src``, closed-loop and one op at a time,
in repeated passes for about ``--seconds`` seconds.  Every output is then
checked (``perfbench/checks.py``).  The last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it describes the machine and the run.

``--trace 0`` reports the end-to-end metrics:

- ``wall_s``: one pass of the workload, as the sum over ops of each op's
  median time across the timed passes (pass 0 warms up); checks are outside
  the timed region.
- ``setup_s``: median time of ``import conicwalk.cli`` in a fresh
  interpreter, sampled twice after every pass so the samples span the run.
- ``peak_rss_mb``: ``ru_maxrss`` of the worker.
- ``ok_frac``: ops whose exit code, exceptions and output check all passed,
  over ops attempted (1 - fail_frac).

``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of ``perfbench/tracing.py`` (medians over traced passes)
plus ``bench.trace_overhead_s``, traced minus untraced ``wall_s``.

Exits 2 without a result when ``./src/conicwalk`` is missing, and 1 when
the worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.workloads import LAYER_MAP, WORKLOADS  # noqa: E402

BLAS_THREADS = 1
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ok_frac": "ratio"}
LAYER_UNITS = {"per_s": "1/s", "_s": "s", "_ops": "count", "_calls": "count", "_pairs": "count",
               "_entries": "count", "_builds": "count", "_steps": "count",
               "invocations": "count", "_bytes": "bytes", "_frac": "ratio"}


def _unit(name: str) -> str:
    for suffix, unit in LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    raise KeyError(name)


def _nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _worker_env(src: Path) -> dict:
    """Environment of the worker and the set-up probes: ``./src`` first on the
    path, and one BLAS thread, so the load is one process and one thread."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    env["OPENBLAS_NUM_THREADS"] = str(BLAS_THREADS)
    return env


def run_worker(work: Path, env: dict, seconds: float) -> dict:
    worker = Path(__file__).resolve().parent / "worker.py"
    with open(work / "worker.log", "w") as log:
        proc = subprocess.Popen([sys.executable, str(worker), str(work)], env=env,
                                stdout=log, stderr=subprocess.STDOUT)
        try:
            rc = proc.wait(timeout=min(150.0, 3 * seconds + 60))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise RuntimeError("worker timed out")
    if rc != 0:
        tail = (work / "worker.log").read_text().splitlines()[-15:]
        raise RuntimeError(f"worker exited {rc}:\n" + "\n".join(tail))
    return json.loads((work / "records.json").read_text())


def op_samples(records: list[dict], traced: bool) -> dict[str, list[float]]:
    """Per-op times of the timed passes; pass 0 is a warm-up."""
    by_op: dict[str, list[float]] = {}
    for rec in records:
        if rec["pass"] > 0 and rec["traced"] == traced:
            by_op.setdefault(rec["label"], []).append(rec["seconds"])
    return by_op


def pass_wall(records: list[dict], traced: bool) -> float:
    """One pass of the workload: the sum over ops of their median times."""
    return sum(statistics.median(v) for v in op_samples(records, traced).values())


def out_bytes(records: list[dict], n_pass: int) -> int:
    total = 0
    for rec in records:
        if rec["pass"] == n_pass and rec.get("out"):
            for path in (rec["out"], rec["out"] + ".errata.json"):
                if os.path.exists(path):
                    total += os.path.getsize(path)
    return total


def layer_metrics(work: Path, ops: list[dict], records: list[dict]) -> tuple[dict, list]:
    from perfbench.tracing import aggregate, provided_metrics

    op_metric = {op["label"]: op["metric"] for op in ops if "metric" in op}
    per_pass: list[dict] = []
    provided, missing = None, set()
    with open(work / "spans.jsonl") as fh:
        for line in fh:
            entry = json.loads(line)
            values = aggregate(entry["spans"], entry["counts"], op_metric)
            values["cli.out_bytes"] = out_bytes(records, entry["pass"])
            per_pass.append(values)
            have = provided_metrics(set(entry["installed"]))
            provided = have if provided is None else provided & have
            missing.update(entry["missing"])
    metrics = {}
    for name in sorted(provided - {"bench.trace_overhead_s"}):
        metrics[name] = statistics.median(p.get(name, 0.0) for p in per_pass)
    metrics["bench.trace_overhead_s"] = pass_wall(records, True) - pass_wall(records, False)
    return metrics, sorted(missing)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    root = Path.cwd()
    src = root / "src"
    if not (src / "conicwalk" / "cli.py").is_file():
        print(f"perfbench: no conicwalk sources under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import conicwalk

    if Path(conicwalk.__file__).resolve().parent != (src / "conicwalk").resolve():
        print(f"perfbench: imported conicwalk from {conicwalk.__file__}, not {src}",
              file=sys.stderr)
        return 2
    from perfbench.checks import References, failed_ops

    ops = WORKLOADS[args.workload](args.seed)
    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=root))
    try:
        spec = {"ops": ops, "seconds": args.seconds, "trace": bool(args.trace)}
        (work / "spec.json").write_text(json.dumps(spec))
        try:
            result = run_worker(work, _worker_env(src), args.seconds)
        except RuntimeError as e:
            print(f"perfbench: {e}", file=sys.stderr)
            return 1
        records, winfo = result["records"], result["info"]
        failures = failed_ops(ops, records, References())
        attempted, failed = len(records), len(failures)

        if args.trace:
            values, missing = layer_metrics(work, ops, records)
            metrics = {k: {"value": v, "unit": _unit(k)} for k, v in values.items()}
        else:
            missing = []
            values = {
                "wall_s": pass_wall(records, False),
                "setup_s": statistics.median(winfo["setup_s"]),
                "peak_rss_mb": winfo["ru_maxrss_kb"] / 1024.0,
                "ok_frac": 1.0 - failed / attempted,
            }
            metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": _nproc(), "cpu_model": _cpu_model(),
        "python": platform.python_version(), "numpy": winfo.get("numpy"),
        "blas": winfo.get("blas"), "blas_threads": winfo.get("blas_threads"),
        "passes": winfo["passes"], "op_samples_s": op_samples(records, False),
        "setup_samples_s": winfo["setup_s"], "fail_frac": failed / attempted,
        "failures": failures[:10], "missing_trace_names": missing,
        "layers_moved": LAYER_MAP[args.workload],
    }
    for reason in failures[:10]:
        print(f"perfbench: failed op: {reason}", file=sys.stderr)
    print(json.dumps({"perfbench": info}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
