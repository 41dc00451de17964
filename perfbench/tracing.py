"""Per-layer tracing from outside the package.

The layers are the conicwalk modules.  :class:`Tracer` replaces each public
entry point listed in :data:`PLAN` by a wrapper that records a span (name,
start, end, parent span) or bumps a counter, and restores the originals on
:meth:`Tracer.uninstall`.  ``from .x import y`` copies a binding, so every
``conicwalk`` module namespace that binds the same object is patched.

Hot scalar calls (``FieldElement`` arithmetic, ``f_discriminant``) are
counted, never timed: timing millions of ~1 us calls would inflate their
callers' self time.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import defaultdict

ROOT = "op"  # layer of the benchmark's own per-op root span

_MISSING = object()


def _oracle_pairs(args, kwargs, result):
    params = args[0] if args else kwargs["params"]
    return {"hypergroup.oracle_pairs": params.q ** 4}


def _table_entries(args, kwargs, result):
    classes = args[2] if len(args) > 2 else kwargs["classes"]
    return {"hypergroup.table_entries": len(classes) ** 3}


def _trichotomy_pairs(args, kwargs, result):
    return {"conic_geometry.trichotomy_pairs": result["pairs_checked"]}


def _minorization(args, kwargs, result):
    return {"walk_analysis.minorization_calls": 1,
            "walk_analysis.minorization_exact": int(result[0] is not None)}


def _coupling_steps(args, kwargs, result):
    return {"coupling_sim.walk_steps": 2 * sum(result.times)}


def _coupled_run_steps(args, kwargs, result):
    return {"coupling_sim.walk_steps": 2 * result}


def _mctv_steps(args, kwargs, result):
    return {"coupling_sim.walk_steps": result.trials * result.t}


def _invocation(args, kwargs, result):
    return {"cli.invocations": 1}


SCALAR_OPS = "finite_field.scalar_ops"
COUPLE = "coupling_sim.couple_s"  # renamed per op to couple_short_s / couple_long_s

# (module, qualified name, kind, metric, extra)
#   span:   time the call; ``extra`` derives counts from (args, kwargs, result)
#   cached: span only when the lazily built attribute ``extra`` is still None
#   count:  add 1 (or ``extra(args, kwargs, result)``) to counter ``metric``
PLAN = [
    ("finite_field", "make_field", "span", "finite_field.make_field_s", None),
    ("finite_field", "make_prime_field", "span", "finite_field.make_field_s", None),
    ("finite_field", "make_extension_field", "span", "finite_field.make_field_s", None),
    ("finite_field", "FieldSpec.add_table", "cached", "finite_field.table_build_s", "_add_np"),
    ("finite_field", "FieldSpec.mul_table", "cached", "finite_field.table_build_s", "_mul_np"),
    ("finite_field", "FieldSpec._build_square_tables", "span", "finite_field.table_build_s", None),
    *[("finite_field", f"FieldElement.{op}", "count", SCALAR_OPS, None)
      for op in ("__add__", "__sub__", "__neg__", "__mul__", "__pow__", "__truediv__",
                 "inverse")],
    ("finite_field", "quadratic_character", "count", SCALAR_OPS, None),
    ("finite_field", "sqrt", "count", SCALAR_OPS, None),
    ("conic_geometry", "f_discriminant", "count", "conic_geometry.discriminant_calls", None),
    ("conic_geometry", "verify_intersection_trichotomy", "span",
     "conic_geometry.trichotomy_s", _trichotomy_pairs),
    ("conic_geometry", "index_set", "span", None, None),
    ("conic_geometry", "origin_quadrance_values", "span", None, None),
    ("conic_geometry", "quadrance_value_grid", "span", None, None),
    ("conic_geometry", "predicted_intersection_table", "span", None, None),
    ("hypergroup", "closed_row", "span", "hypergroup.closed_form_s", None),
    ("hypergroup", "structure_constant", "span", "hypergroup.closed_form_s", None),
    ("hypergroup", "build_table", "span", None, None),
    ("hypergroup", "oracle_table", "span", "hypergroup.oracle_s", _oracle_pairs),
    ("hypergroup", "StructureTable.__init__", "count", "hypergroup.table_entries",
     _table_entries),
    ("hypergroup", "StructureTable.mismatches", "span", "hypergroup.compare_s", None),
    ("hypergroup", "verify_axioms", "span", "hypergroup.axioms_s", None),
    ("walk_analysis", "kernel_for_step", "span", "walk_analysis.kernel_s", None),
    ("walk_analysis", "kernel", "span", "walk_analysis.kernel_s", None),
    ("walk_analysis", "stationary", "span", "walk_analysis.stationary_s", None),
    ("walk_analysis", "mixing_time", "span", "walk_analysis.mixing_time_s", None),
    ("walk_analysis", "max_tv_curve", "span", "walk_analysis.mixing_time_s", None),
    ("walk_analysis", "minorization_constant", "span", "walk_analysis.minorization_s",
     _minorization),
    ("walk_analysis", "mixing_report", "span", None, None),
    ("walk_analysis", "haar", "span", None, None),
    ("walk_analysis", "evolve", "span", None, None),
    ("walk_analysis", "ergodicity_check", "span", None, None),
    ("coupling_sim", "run_coupling_trials", "span", COUPLE, _coupling_steps),
    ("coupling_sim", "coupled_run", "span", COUPLE, _coupled_run_steps),
    ("coupling_sim", "monte_carlo_tv", "span", "coupling_sim.mctv_s", _mctv_steps),
    ("cli", "main", "span", None, _invocation),
]


def _resolve(module, qualname):
    """(owner, attribute, original) or None when the name no longer exists."""
    owner = module
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    original = vars(owner).get(attr, _MISSING) if path else getattr(owner, attr, _MISSING)
    return None if original is _MISSING else (owner, attr, original)


class Tracer:
    """Installs the wrappers of :data:`PLAN`; collects spans and counts per pass."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.missing: list[str] = []
        self.installed: set[str] = set()  # "module.qualname" entries now wrapped
        self._undo: list[tuple] = []

    # -- span recording -----------------------------------------------------

    def _open(self, layer, metric):
        rec = [len(self.spans), self.stack[-1] if self.stack else -1, layer, metric, 0.0, 0.0]
        self.spans.append(rec)
        self.stack.append(rec[0])
        rec[4] = time.perf_counter()
        return rec

    def _close(self, rec):
        rec[5] = time.perf_counter()
        self.stack.pop()

    @contextlib.contextmanager
    def root(self, label: str):
        """The benchmark's span around one op."""
        rec = self._open(ROOT, label)
        try:
            yield
        finally:
            self._close(rec)

    def _add(self, counts: dict) -> None:
        for name, value in counts.items():
            self.counts[name] += value

    def _span(self, fn, layer, metric, derive):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = self._open(layer, metric)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if derive is not None:
                self._add(derive(args, kwargs, result))
            return result
        return wrapper

    def _cached(self, fn, layer, metric, attr):
        span = self._span(fn, layer, metric, None)

        @functools.wraps(fn)
        def wrapper(obj):
            cached = getattr(obj, attr, _MISSING)
            if cached is _MISSING:  # cache layout changed: call through untimed
                return fn(obj)
            return cached if cached is not None else span(obj)
        return wrapper

    def _count(self, fn, metric, amount):
        counts = self.counts
        if amount is None:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                counts[metric] += 1
                return fn(*args, **kwargs)
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                self._add(amount(args, kwargs, result))
                return result
        return wrapper

    # -- patching -------------------------------------------------------------

    def install(self) -> None:
        """Wrap every PLAN entry that exists, in every namespace binding it."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "conicwalk" or name.startswith("conicwalk."))]
        self.missing = []
        self.installed = set()
        for mod_name, qualname, kind, metric, extra in PLAN:
            module = sys.modules.get(f"conicwalk.{mod_name}")
            found = _resolve(module, qualname) if module is not None else None
            if found is None:
                self.missing.append(f"{mod_name}.{qualname}")
                continue
            owner, attr, original = found
            if kind == "span":
                wrapped = self._span(original, mod_name, metric, extra)
            elif kind == "cached":
                wrapped = self._cached(original, mod_name, metric, extra)
            else:
                wrapped = self._count(original, metric, extra)
            self.installed.add(f"{mod_name}.{qualname}")
            if owner is not module:  # a method: patch the class once
                self._undo.append((owner, attr, original))
                setattr(owner, attr, wrapped)
                continue
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, name, original))
                        setattr(mod, name, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def take(self) -> tuple[list[list], dict[str, int]]:
        """Hand over this pass's spans and counts and start empty."""
        spans, counts = self.spans, dict(self.counts)
        self.spans, self.stack = [], []
        self.counts.clear()
        return spans, counts


def provided_metrics(installed: set[str]) -> set[str]:
    """Per-layer metric names backed by at least one installed wrapper."""
    out = {"cli.out_bytes", "bench.trace_overhead_s"}
    derived = {
        "hypergroup.oracle_table": ["hypergroup.oracle_pairs"],
        "hypergroup.StructureTable.__init__": ["hypergroup.table_entries"],
        "conic_geometry.verify_intersection_trichotomy": ["conic_geometry.trichotomy_pairs"],
        "walk_analysis.minorization_constant": ["walk_analysis.minorization_exact_frac"],
        "finite_field.FieldSpec._build_square_tables": ["finite_field.table_builds"],
        "finite_field.FieldSpec.add_table": ["finite_field.table_builds"],
        "finite_field.FieldSpec.mul_table": ["finite_field.table_builds"],
        "coupling_sim.run_coupling_trials": [
            "coupling_sim.couple_short_s", "coupling_sim.couple_long_s",
            "coupling_sim.walk_steps", "coupling_sim.steps_per_s"],
        "coupling_sim.monte_carlo_tv": ["coupling_sim.walk_steps", "coupling_sim.steps_per_s"],
        "cli.main": ["cli.invocations"],
    }
    for mod_name, qualname, kind, metric, _ in PLAN:
        key = f"{mod_name}.{qualname}"
        if key not in installed:
            continue
        if kind != "count":
            out.add(f"{mod_name}.self_s")
        if metric is not None and metric != COUPLE:
            out.add(metric)
        out.update(derived.get(key, []))
    return out


def aggregate(spans: list[list], counts: dict[str, int], op_metric: dict[str, str]) -> dict:
    """Per-layer metrics of one traced pass.

    ``<layer>.self_s`` is the summed span time of the layer minus the time of
    its direct child spans.  A named time metric sums the spans carrying it,
    skipping spans nested inside another span with the same name.
    ``op_metric`` renames COUPLE spans by the op they ran under.
    """
    by_id = {rec[0]: rec for rec in spans}
    child_time: dict[int, float] = defaultdict(float)
    for sid, parent, _, _, t0, t1 in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0
    out: dict[str, float] = defaultdict(float)
    builds = 0
    for sid, parent, layer, metric, t0, t1 in spans:
        if layer == ROOT:
            continue
        dur = t1 - t0
        out[f"{layer}.self_s"] += dur - child_time[sid]
        if metric is None:
            continue
        if metric == "finite_field.table_build_s":
            builds += 1
        nested = False
        root_label = None
        up = parent
        while up >= 0:
            anc = by_id[up]
            if anc[3] == metric and anc[2] != ROOT:
                nested = True
            if anc[2] == ROOT:
                root_label = anc[3]
            up = anc[1]
        if metric == COUPLE:
            metric = op_metric.get(root_label, COUPLE)
        if not nested:
            out[metric] += dur
    out["finite_field.table_builds"] = builds
    for name in ("hypergroup.oracle_pairs", "hypergroup.table_entries",
                 "conic_geometry.trichotomy_pairs", "conic_geometry.discriminant_calls",
                 SCALAR_OPS, "coupling_sim.walk_steps", "cli.invocations"):
        out[name] = counts.get(name, 0)
    calls = counts.get("walk_analysis.minorization_calls", 0)
    out["walk_analysis.minorization_exact_frac"] = (
        counts.get("walk_analysis.minorization_exact", 0) / calls if calls else 0.0)
    sim_s = sum(out[m] for m in ("coupling_sim.couple_short_s", "coupling_sim.couple_long_s",
                                 "coupling_sim.mctv_s", COUPLE))
    out["coupling_sim.steps_per_s"] = out["coupling_sim.walk_steps"] / sim_s if sim_s else 0.0
    return dict(out)
