"""BENCHMARK.json names exactly what the benchmark prints."""

import json
from pathlib import Path

import layers
import report
import run

DEFINITION = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())


def test_workloads_match():
    names = [w["name"] for w in DEFINITION["workloads"]]
    assert names == list(run.WORKLOAD_NAMES)


def test_end_to_end_metrics_match():
    listed = {m["name"]: m["unit"] for m in DEFINITION["end_to_end"]}
    assert listed == report.END_TO_END


def test_per_layer_metrics_match():
    listed = [(m["name"], m["unit"], m["better"]) for m in DEFINITION["per_layer"]]
    assert listed == layers.per_layer_metrics()


def test_layer_map_names_known_metrics():
    spans = {name for name, _ in layers.spans()} | set(layers.DERIVED)
    workload_names = set(run.WORKLOAD_NAMES)
    for layer, metric, workload, unmoved in layers.LAYER_MAP:
        assert layer in spans
        assert metric in report.END_TO_END
        assert workload in workload_names
        assert unmoved is None or (unmoved in workload_names and unmoved != workload)
