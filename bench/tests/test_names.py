"""BENCHMARK.json declares exactly what the runner emits."""

import re

from bench.compare import load_spec
from bench.runner import Sample, end_to_end_metrics
from bench.tracing import Recorder, layer_metrics
from bench.workloads import WORKLOADS

SPEC = load_spec()
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _declared(block):
    return {metric["name"]: metric["unit"] for metric in SPEC[block]}


def test_workloads_match():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    for workload in SPEC["workloads"]:
        assert workload["why"] == WORKLOADS[workload["name"]].why


def test_end_to_end_metrics_match():
    samples = [Sample(0, 0, False, 0.5, 10.0, [])]
    emitted = end_to_end_metrics([1.0, 2.0, 3.0], samples, 100.0)
    assert {name: unit for name, (_v, unit) in emitted.items()} == \
        _declared("end_to_end")


def test_per_layer_metrics_match():
    emitted = layer_metrics(Recorder(), 1, 0.0)
    assert {name: unit for name, (_v, unit) in emitted.items()} == \
        _declared("per_layer")


def test_spec_is_within_its_format_limits():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    names = [m["name"] for block in ("workloads", "end_to_end", "per_layer")
             for m in SPEC[block]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert all(len(w["why"]) <= 200 for w in SPEC["workloads"])
    assert 1 <= len(SPEC["per_layer"]) <= 128
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(metric["unit"])
        assert metric["better"] in ("higher", "lower")
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
