"""Per-layer metrics against BENCHMARK.json and the program's classes."""

import importlib
import json
from pathlib import Path

import pytest

from perfbench.layers import DERIVED, RUN_EXTRAS, WRAPPED, per_layer_metrics
from perfbench.trace import LayerStats

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]


def test_every_per_layer_metric_is_computable_and_zero_when_idle():
    values = per_layer_metrics(PER_LAYER, {}, {})
    assert set(values) == set(PER_LAYER)
    assert all(v == 0.0 for v in values.values())


def test_every_derived_and_extra_metric_is_declared():
    assert set(DERIVED) <= set(PER_LAYER)
    assert set(RUN_EXTRAS) <= set(PER_LAYER)


def test_derived_ratios():
    table = {
        "snn.decide_batch": LayerStats(calls=4, value_sum=96.0),
        "risk.step": LayerStats(calls=10, value_sum=3.0),
        "serving.service.rebalance_many": LayerStats(calls=2, value_sum=32.0),
        "serving.store.load_session": LayerStats(calls=24),
    }
    values = per_layer_metrics(PER_LAYER, table, {"trace.overhead_share": 0.02})
    assert values["snn.decide_batch.rows_per_call"] == 24.0
    assert values["risk.step.binding_share"] == pytest.approx(0.3)
    assert values["serving.store.resident_hit_share"] == pytest.approx(0.25)
    assert values["serving.store.load_session.calls"] == 24.0
    assert values["trace.overhead_share"] == 0.02


@pytest.mark.parametrize("layer, module, cls, method, _", WRAPPED)
def test_wrapped_methods_exist(layer, module, cls, method, _):
    owner = getattr(importlib.import_module(module), cls)
    assert callable(getattr(owner, method))
