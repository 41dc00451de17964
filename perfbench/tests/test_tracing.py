"""Tracer patching, absent names, aggregation, and the run's exit contract."""

import io
from contextlib import redirect_stdout

import conicwalk
import conicwalk.cli as cli
import conicwalk.hypergroup as hg
import conicwalk.walk_analysis as wa
from perfbench import run, tracing
from perfbench.tracing import ROOT, Tracer, aggregate, provided_metrics


def test_install_patches_every_binding_and_uninstall_restores():
    original = hg.closed_row
    assert wa.closed_row is original and conicwalk.closed_row is original
    tracer = Tracer()
    tracer.install()
    try:
        assert hg.closed_row is not original
        assert wa.closed_row is hg.closed_row
        assert conicwalk.closed_row is hg.closed_row
        assert cli.build_table is hg.build_table
        assert tracer.missing == []
    finally:
        tracer.uninstall()
    assert hg.closed_row is original and wa.closed_row is original
    assert conicwalk.closed_row is original


def test_traced_call_records_spans_and_counts():
    from conicwalk.conic_geometry import ConicParams
    from conicwalk.finite_field import make_field

    params = ConicParams(make_field(7), 1, 1)
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.root("kernel"):
            wa.kernel_for_step(params)
    finally:
        tracer.uninstall()
    spans, counts = tracer.take()
    values = aggregate(spans, counts, {})
    assert counts["conic_geometry.discriminant_calls"] > 0
    assert counts["finite_field.scalar_ops"] > counts["conic_geometry.discriminant_calls"]
    assert 0 < values["hypergroup.closed_form_s"] <= values["walk_analysis.kernel_s"]
    assert values["hypergroup.self_s"] > 0


def test_missing_name_is_absent_not_zero(monkeypatch):
    plan = [e for e in tracing.PLAN if e[1] != "oracle_table"]
    plan.append(("hypergroup", "no_such_function", "span", "hypergroup.oracle_s", None))
    monkeypatch.setattr(tracing, "PLAN", plan)
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.missing == ["hypergroup.no_such_function"]
    provided = provided_metrics(tracer.installed)
    assert "hypergroup.oracle_s" not in provided
    assert "hypergroup.oracle_pairs" not in provided
    assert "hypergroup.closed_form_s" in provided


def test_self_time_subtracts_children_and_skips_nested_same_metric():
    spans = [
        [0, -1, ROOT, "op", 0.0, 10.0],
        [1, 0, "cli", None, 0.0, 10.0],
        [2, 1, "walk_analysis", "walk_analysis.kernel_s", 1.0, 7.0],
        [3, 2, "hypergroup", "hypergroup.closed_form_s", 2.0, 4.0],
        [4, 3, "hypergroup", "hypergroup.closed_form_s", 2.5, 3.0],
    ]
    values = aggregate(spans, {}, {})
    assert values["cli.self_s"] == 4.0
    assert values["walk_analysis.self_s"] == 4.0
    assert values["hypergroup.self_s"] == 2.0
    assert values["hypergroup.closed_form_s"] == 2.0


def test_run_without_sources_exits_nonzero_and_prints_no_result(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = run.main(["--workload", "coupling_mc", "--seed", "1", "--seconds", "1"])
    assert rc != 0
    assert buf.getvalue() == ""


def test_benchmark_json_matches_the_reported_metrics():
    import json
    from pathlib import Path

    from perfbench.workloads import LAYER_MAP, WORKLOADS

    spec = json.loads((Path(run.__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    all_installed = {f"{m}.{q}" for m, q, *_ in tracing.PLAN}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert set(per_layer) == provided_metrics(all_installed)
    assert all(run._unit(name) == unit for name, unit in per_layer.items())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS) == list(LAYER_MAP)
    assert all(set(moved) <= set(per_layer) for moved in LAYER_MAP.values())
