"""Self-tests of the benchmark, on its tiny-size traces.

    python3 -m pytest perfbench/tests -q
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys

import numpy as np
import pytest

import repro.detection.session as session_module
from perfbench import compare, gate, measure
from perfbench.env import ROOT
from perfbench.run import WORKLOAD_NAMES
from perfbench.traces import DOS_VICTIM, FLASH_TARGET, make_trace
from perfbench.tracing import SESSION, Tracer
from perfbench.workloads import WORKLOADS, get_workload, replay

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "5", "--seconds", "0.2", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _replayed(name: str, **trace_kwargs):
    """Tiny ``name`` trace, its reference reports, and one gated replay."""
    workload = get_workload(name, tiny=True)
    records, planted = make_trace(workload.trace, 3, **trace_kwargs)
    schema = workload.schema()
    archive = workload.archive(schema)
    session = workload.session(schema, sink=archive.ingest)
    result = replay(workload, session, workload.feed(records))
    reference = gate.reference_reports(workload, schema, records)
    return result.reports, reference, planted, archive, records


def test_spec_names_match_the_benchmark():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert WORKLOAD_NAMES == tuple(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == measure.E2E_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == measure.LAYER_UNITS


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    out = _run(workload, trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    for name, metric in result["metrics"].items():
        assert math.isfinite(metric["value"]), name
        assert metric["value"] >= 0, name
        if not trace:
            assert metric["value"] > 0, name
    table = out.stdout.splitlines()[:-1]
    for metric in wanted:
        assert any(line.split()[:1] == [metric["name"]] for line in table)


def test_run_fails_without_the_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    out = _run("collector_64", 0, cwd=tmp_path)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def test_traces_are_seeded():
    spec = get_workload("collector_64", tiny=True).trace
    a, planted_a = make_trace(spec, 7)
    b, planted_b = make_trace(spec, 7)
    c, _ = make_trace(spec, 8)
    assert np.array_equal(a, b) and planted_a == planted_b
    assert not np.array_equal(a["dst_ip"][: len(c)], c["dst_ip"][: len(a)])
    assert {p.key for p in planted_a} == {DOS_VICTIM, FLASH_TARGET}
    assert np.all(np.diff(a["timestamp"][: spec.n_background]) >= 0)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_gate_passes_the_program_as_is(workload):
    reports, reference, planted, archive, records = _replayed(workload)
    assert len(reports) == len(reference) > 0
    assert gate.report_failures(reports, reference) == 0
    assert gate.missed_changes(reports, planted) == []
    probe = np.array(sorted({p.key for p in planted}), dtype=np.uint64)
    for change in planted:
        assert gate.retrospective_found(archive, change, probe), change


def test_gate_fails_on_a_corrupted_report():
    reports, reference, _, _, _ = _replayed("collector_64")
    victim = next(i for i, r in enumerate(reports) if r.alarms)
    dropped = list(reports)
    dropped[victim] = dataclasses.replace(
        reports[victim], alarms=reports[victim].alarms[1:]
    )
    assert gate.report_failures(dropped, reference) == 1
    perturbed = list(reports)
    perturbed[victim] = dataclasses.replace(
        reports[victim], error_l2=np.nextafter(reports[victim].error_l2, np.inf)
    )
    assert gate.report_failures(perturbed, reference) == 1
    assert gate.report_failures(reports[:-1], reference) == 1


def test_gate_fails_on_a_removed_planted_change():
    reports, reference, planted, _, _ = _replayed("collector_64", plant=("dos",))
    assert gate.report_failures(reports, reference) == 0
    assert [c.kind for c in gate.missed_changes(reports, planted)] == ["flash_crowd"]


def test_self_times_sum_with_children_to_the_parent():
    workload = get_workload("seal_heavy_archive", tiny=True)
    records, _ = make_trace(workload.trace, 3)
    schema = workload.schema()
    archive = workload.archive(schema)
    session = workload.session(schema, sink=archive.ingest)
    global_before = session_module.build_interval_report
    tracer = Tracer()
    tracer.run = "t"
    tracer.instrument(session, type(schema.empty()))
    try:
        replay(workload, session, workload.feed(records))
    finally:
        tracer.restore()
    assert session_module.build_interval_report is global_before
    assert "ingest" not in vars(session) and "sink" in vars(session)

    spans = tracer.spans
    child_ns = [0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            parent = spans[span.parent]
            assert parent.start_ns <= span.start_ns <= span.end_ns <= parent.end_ns
            child_ns[span.parent] += span.duration_ns
    for span, children in zip(spans, child_ns):
        assert span.self_ns >= 0
        assert span.self_ns + children == span.duration_ns
    names = {s.name for s in spans}
    assert {SESSION, "detection.report", "forecast.step", "archive.ingest",
            "sketch.update_batch", "streams.extract"} <= names
    assert 0 < tracer.named_ns("t") < sum(
        s.duration_ns for s in spans if s.parent < 0
    )


def _log(path, provenance):
    run = {
        "workload": "collector_64", "trace": 0, "seconds": 1, "tiny": True,
        "provenance": provenance,
        "metrics": {"records_per_s": {"value": 100.0, "unit": "rec/s"}},
    }
    path.write_text(json.dumps(run) + "\n")
    return str(path)


def test_compare_refuses_runs_whose_provenance_differs(tmp_path, capsys):
    base = _log(tmp_path / "a.jsonl", {"kernel_threads": 1})
    same = _log(tmp_path / "b.jsonl", {"kernel_threads": 1})
    other = _log(tmp_path / "c.jsonl", {"kernel_threads": 4})
    assert compare.main([base, same]) == 0
    assert compare.main([base, other]) == 2
    assert "provenance differs" in capsys.readouterr().err


def _runs(values):
    return [
        {"workload": "collector_64", "trace": 0, "seconds": 1, "tiny": True,
         "metrics": {"records_per_s": {"value": v, "unit": "rec/s"}}}
        for v in values
    ]


def test_compare_marks_a_noisy_metric_unresolved(capsys):
    limits = {"records_per_s": ("higher", 0.1)}
    steady = _runs([100.0, 101.0, 99.0, 100.0, 100.5])
    noisy = _runs([70.0, 130.0, 100.0, 85.0, 115.0])
    assert compare.compare(steady, steady, limits) == 0
    assert compare.compare(steady, noisy, limits) == 1
    assert "UNRESOLVED" in capsys.readouterr().out
    # Noise does not hide a change that every run shows.
    faster = _runs([150.0, 200.0, 170.0, 160.0, 190.0])
    assert compare.compare(steady, faster, limits) == 0
    assert compare.compare(faster, steady, limits) == 1
