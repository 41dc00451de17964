"""Benchmark worker: runs one workload's ops in passes for a fixed time.

Started by ``perfbench/run.py`` in a fresh interpreter as
``python3 perfbench/worker.py <work_dir>``, with ``PYTHONPATH`` pointing at
the checkout's ``src``.  It reads ``<work_dir>/spec.json`` and writes
``records.json`` (one record per op per pass) and, for traced runs,
``spans.jsonl``.  Outputs are checked by the parent after this process has
exited, so checks neither count towards the timings nor towards
``ru_maxrss``.

With tracing on, passes alternate traced / untraced, so the trace overhead
is measured on the same process and inputs.  Without it, two fresh-interpreter
``import conicwalk.cli`` probes follow each pass for ``setup_s``.
"""

from __future__ import annotations

import ctypes
import json
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import conicwalk.cli as cli  # noqa: E402  (loads every layer module before patching)
import conicwalk.conic_geometry as cg  # noqa: E402
import conicwalk.finite_field as ff  # noqa: E402
from perfbench.tracing import Tracer  # noqa: E402

IMPORT_PROBE = ("import time; t0 = time.perf_counter(); import conicwalk.cli; "
                "print(time.perf_counter() - t0)")
PROBES_PER_PASS = 2
MIN_PROBES = 6


def probe_setup() -> float:
    """Time ``import conicwalk.cli`` in a fresh interpreter (this process's
    environment, so the same ``src`` and BLAS settings)."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], capture_output=True,
                         text=True, timeout=60, check=True)
    return float(out.stdout.strip())


def _run_op(op: dict, out_dir: Path) -> dict:
    """Run one op; returns its record (time, exit code, error, result).

    Names are looked up on the modules at call time, so a tracer's patches
    apply."""
    rec = {"label": op["label"], "rc": None, "error": None, "result": None}
    t0 = time.perf_counter()
    try:
        if op["kind"] == "cli":
            out = out_dir / f"{op['label']}.out"
            rec["out"] = str(out)
            rec["rc"] = cli.main([*op["argv"], "--out", str(out)])
        elif op["kind"] == "trichotomy":
            p, d, a, b = op["field"]
            rec["result"] = cg.verify_intersection_trichotomy(
                cg.ConicParams(ff.make_field(p, d), a, b))
            rec["rc"] = 0
        else:
            raise ValueError(f"unknown op kind {op['kind']!r}")
    except Exception:  # a failed op is counted, not fatal to the run
        rec["error"] = traceback.format_exc(limit=3)
    rec["seconds"] = time.perf_counter() - t0
    return rec


def _blas_info() -> dict:
    """OpenBLAS version and thread count of this process, where readable."""
    import numpy as np

    info = {"numpy": np.__version__}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        info["blas"] = None
    info["blas_threads"] = None
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        libs = []
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["blas_threads"] = int(fn())
                return info
    return info


def _run_pass(ops: list[dict], out_dir: Path, tracer: Tracer | None) -> list[dict]:
    """Every op once, in order; with a tracer, wrapped in its spans."""
    out_dir.mkdir()
    if tracer is None:
        return [_run_op(op, out_dir) for op in ops]
    tracer.install()
    try:
        recs = []
        for op in ops:
            with tracer.root(op["label"]):
                recs.append(_run_op(op, out_dir))
        return recs
    finally:
        tracer.uninstall()


def main(work_dir: str) -> int:
    work = Path(work_dir)
    spec = json.loads((work / "spec.json").read_text())
    ops, seconds, trace = spec["ops"], float(spec["seconds"]), bool(spec["trace"])

    tracer = Tracer() if trace else None
    # Pass 0 warms up.  A traced run then alternates traced / untraced passes
    # and stops after an untraced one, so both kinds have as many samples.
    step = 2 if trace else 1
    records, span_lines, setup = [], [], []
    probe_setup()  # unrecorded: the first import may compile bytecode
    start = time.perf_counter()
    n_pass = 0
    while True:
        traced = trace and n_pass % 2 == 1
        for rec in _run_pass(ops, work / f"pass{n_pass}", tracer if traced else None):
            records.append({**rec, "pass": n_pass, "traced": traced})
        if traced:
            spans, counts = tracer.take()
            span_lines.append({"pass": n_pass, "spans": spans, "counts": counts,
                               "installed": sorted(tracer.installed),
                               "missing": tracer.missing})
        if not trace:  # spread set-up samples over the run, outside op timings
            setup.extend(probe_setup() for _ in range(PROBES_PER_PASS))
        n_pass += 1
        elapsed = time.perf_counter() - start
        if n_pass > step and (n_pass - 1) % step == 0 \
                and elapsed + step * elapsed / n_pass > seconds:
            break

    while not trace and len(setup) < MIN_PROBES:
        setup.append(probe_setup())
    info = _blas_info()
    info["setup_s"] = setup
    info["ru_maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    info["passes"] = n_pass
    info["loop_s"] = time.perf_counter() - start
    (work / "records.json").write_text(json.dumps({"records": records, "info": info}))
    if trace:
        with open(work / "spans.jsonl", "w") as fh:
            for line in span_lines:
                fh.write(json.dumps(line) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
