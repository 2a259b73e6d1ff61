"""Tests of the benchmark itself, on a one-cell-per-workload configuration.

    PYTHONPATH=src pytest bench -q
"""

from __future__ import annotations

import json
import re

import pytest

import compare
import golden
import layers
import run
import suite

SPEC = json.loads(run.SPEC.read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def tiny(name: str, seed: int = 0) -> suite.Workload:
    if name == "service_mixed":
        return suite.ServiceMixed(seed, requests=10)
    workload = suite.WORKLOADS[name]
    return workload(seed, cells=[(workload.presets[-1], "fpppp", "cdpc")])


@pytest.fixture(scope="module")
def traced() -> tuple[suite.Workload, dict]:
    workload = suite.Fig6Warm(1, cells=[
        ("sgi_base", "tomcatv", "page_coloring"),
        ("sgi_base", "tomcatv", "cdpc"),
    ])
    return workload, run.measure(workload, 0, trace=True)


def test_names_units_and_bounds_follow_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(suite.WORKLOADS)
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [w["name"] for w in SPEC["workloads"]] + [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(UNIT.match(m["unit"]) and m["better"] in ("higher", "lower") for m in metrics)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert SPEC["paths"] == ["bench"] and SPEC["command"] == ["python3", "bench/run.py"]


def test_every_spec_metric_is_measured(traced):
    _, measured = traced
    assert list(run.end_to_end(measured)) == [m["name"] for m in SPEC["end_to_end"]]
    assert list(run.per_layer(measured)["metrics"]) == [m["name"] for m in SPEC["per_layer"]]


def _corrupted(digests: dict) -> dict:
    """Every digest replaced by one no output can have."""
    if isinstance(digests, dict):
        return {key: _corrupted(value) for key, value in digests.items()}
    return "0" * 64 if isinstance(digests, str) else digests


@pytest.mark.parametrize("name", list(suite.WORKLOADS))
def test_a_golden_mismatch_is_counted_and_fails_the_run(name, tmp_path):
    clean = run.run_workload(name, 0, 0, False, workload=tiny(name), out_dir=tmp_path)
    assert clean["correct"] and clean["failed"] == 0 and clean["attempted"] > 0
    assert list(clean["result"]["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]

    broken = run.run_workload(name, 0, 0, False, workload=tiny(name),
                              digests=_corrupted(golden.load()), out_dir=tmp_path)
    assert not broken["correct"] and broken["result"]["correct"] is False
    assert broken["failed"] == broken["attempted"] == clean["attempted"]


def test_traced_results_equal_untraced(traced):
    workload, measured = traced
    assert measured["plain"][0].outputs == measured["traced"][0].outputs
    attempted, problems = run.check(workload, measured, golden.load())
    assert attempted == 4 and not problems


def test_cell_self_times_sum_to_the_cell_span(traced):
    _, measured = traced
    cells = [c for c in measured["ledger"].cells if c["layer"] == "sim.engine"]
    assert len(cells) == 2
    for cell in cells:
        assert cell["id"].startswith("sgi_base/tomcatv/")
        total = sum(layer["self_ns"] for layer in cell["layers"].values())
        assert "machine.kernel" in cell["layers"] and "sim.engine" in cell["layers"]
        assert abs(total - cell["duration_ns"]) <= 0.05 * cell["duration_ns"]


def test_service_and_predict_layers_are_recorded(tmp_path):
    record = run.run_workload("service_mixed", 3, 0, True, workload=tiny("service_mixed", 3),
                              out_dir=tmp_path)
    assert record["correct"], record
    layer = {name: item["value"] for name, item in record["per_layer"].items()}
    assert layer["service.batches"] >= 1 and layer["service.batch_s"] > 0
    assert layer["harness.campaign.self_s"] > 0
    trace = json.loads((tmp_path / "service_mixed.trace.json").read_text())
    names = {event["name"] for event in trace["traceEvents"]}
    assert {"service.request", "service.batch", "sim.engine"} <= names


def _runs(values: list[float]) -> list[dict]:
    return [
        {"fig6_warm": {"failed": 0, "end_to_end": {"wall_s": {"value": v}}}}
        for v in values
    ]


SPEC_WALL = {
    "workloads": [{"name": "fig6_warm"}],
    "end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1}],
}
PARENT = [10.0, 10.1, 9.9, 10.05, 9.95, 10.02, 9.98, 10.03, 9.97, 10.0]


@pytest.mark.parametrize("change, expected", [
    ([v * 0.8 for v in PARENT], "gain"),
    ([v * 1.2 for v in PARENT], "regression"),
    ([v * 1.01 for v in PARENT], "same"),
    ([8.0, 13.0, 9.0, 12.0, 10.0, 14.0, 7.5, 11.0, 10.5, 12.5], "unresolved"),
    ([v * 0.8 for v in PARENT[:5]], "too-few-pairs"),
])
def test_compare_verdicts(change, expected):
    rows = compare.compare(_runs(PARENT), _runs(change), SPEC_WALL)
    assert [row.verdict for row in rows] == [expected]


def test_compare_reads_concatenated_records_and_flags_failures(tmp_path):
    parent = tmp_path / "parent.json"
    change = tmp_path / "change.json"
    parent.write_text("\n".join(json.dumps({"workloads": r}) for r in _runs(PARENT)))
    failing = _runs(PARENT)
    failing[0]["fig6_warm"]["failed"] = 1
    change.write_text(json.dumps([{"workloads": r} for r in failing]))
    runs = compare.load_runs(parent)
    assert len(runs) == 10
    rows = compare.compare(runs, compare.load_runs(change), SPEC_WALL)
    assert [row.verdict for row in rows] == ["incorrect", "same"]


def test_ledger_wraps_every_boundary_and_restores_it():
    def current() -> list:
        values = []
        for owner, attr, _, _ in layers.BOUNDARIES:
            target = layers._resolve(owner)
            values.append(target.__dict__[attr] if isinstance(target, type)
                          else getattr(target, attr))
        return values

    originals = current()
    with layers.Ledger():
        assert all(a is not b for a, b in zip(current(), originals))
    assert all(a is b for a, b in zip(current(), originals))
