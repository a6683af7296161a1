"""Tests of the benchmark's own code (not of the program it measures).

Run with ``PYTHONPATH=src python -m pytest perfbench -q``. The workloads
are shrunk to a few thousand requests so the whole file takes seconds.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from perfbench.check import first_difference, flatten
from perfbench.host import (
    NOMINAL_REF_S,
    bracket_ref_s,
    normalised_rate,
    normalised_seconds,
)
from perfbench.run import declared_units, timed_run
from perfbench.traced import traced_run
from perfbench.tracing import NullTracer, Tracer
from perfbench.workloads import AnalyzeStream, ChunkFanout, Mitigate

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SPEC = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


class TinyMitigate(Mitigate):
    days, scale, n_groups = 1, 0.02, 2


class TinyAnalyzeStream(AnalyzeStream):
    days, scale, jobs = 2, 0.1, 1


class TinyChunkFanout(ChunkFanout):
    region, days, scale, jobs = "R3", 2, 0.1, 1
    rows, chunks = 300, 4


TINY = (TinyMitigate, TinyAnalyzeStream, TinyChunkFanout)


def _ready(cls, seed: int = 3):
    bench = cls()
    bench.setup(seed)
    bench.use(0)
    return bench


# --- normalisation -----------------------------------------------------------


def test_nominal_host_leaves_values_unchanged():
    assert normalised_rate(1234.5, NOMINAL_REF_S) == pytest.approx(1234.5)
    assert normalised_seconds(2.5, NOMINAL_REF_S) == pytest.approx(2.5)


def test_uniformly_slower_host_normalises_to_the_same_value():
    # Twice as slow: the kernel takes twice as long, the workload's rate
    # halves and its durations double.
    rate, seconds, ref = 1000.0, 3.0, 0.4
    assert normalised_rate(rate / 2, ref * 2) == pytest.approx(
        normalised_rate(rate, ref))
    assert normalised_seconds(seconds * 2, ref * 2) == pytest.approx(
        normalised_seconds(seconds, ref))


def test_normalisation_scales_linearly_with_the_reference():
    assert normalised_rate(100.0, 2 * NOMINAL_REF_S) == pytest.approx(200.0)
    assert normalised_seconds(1.0, 2 * NOMINAL_REF_S) == pytest.approx(0.5)
    assert bracket_ref_s(0.2, 0.4) == pytest.approx(0.3)


# --- correctness check ---------------------------------------------------------


@pytest.mark.parametrize("cls", TINY, ids=lambda c: c.name)
def test_timed_output_matches_the_serial_reference(cls):
    bench = _ready(cls)
    reference, facts = bench.reference(NullTracer())
    assert bench.invariants(reference, facts) == []
    assert first_difference(flatten(reference), flatten(bench.run())) is None


def test_perturbed_replay_count_is_caught_and_named():
    bench = _ready(TinyMitigate)
    reference, facts = bench.reference(NullTracer())
    expected = flatten(reference)
    output = bench.run()
    output["policies"]["peak-shaving"].cold_starts += 1
    assert first_difference(expected, flatten(output)) == (
        "$['policies']['peak-shaving'].cold_starts")
    output["policies"]["peak-shaving"].cold_starts -= 1
    output["xregion"].metrics.requests -= 1
    assert first_difference(expected, flatten(output)) == (
        "$['xregion'].metrics.requests")
    assert any("xregion" in p for p in bench.invariants(output, facts))


def test_perturbed_accumulator_array_is_caught_and_named():
    bench = _ready(TinyChunkFanout)
    reference, facts = bench.reference(NullTracer())
    output = bench.run()
    assert flatten(output) == flatten(reference)
    output._pod_cold_s = output._pod_cold_s.copy()
    output._pod_cold_s[0] += 1e-9
    assert first_difference(flatten(reference), flatten(output)) == (
        "$._pod_cold_s")


def test_lost_rows_break_the_conservation_invariant():
    bench = _ready(TinyChunkFanout)
    output, facts = bench.reference(NullTracer())
    facts["rows"][bench.region][0] += 1
    assert any("request rows" in p for p in bench.invariants(output, facts))


# --- tracing -------------------------------------------------------------------


def test_self_time_subtracts_child_coverage():
    tracer = Tracer()
    with tracer.span("pass", None):
        with tracer.span("a", "workload"):
            with tracer.span("b", "analysis"):
                pass
        with tracer.span("c", "core"):
            pass
    own = tracer.self_times()
    for index, span in enumerate(tracer.spans):
        children = sum(s.duration for s in tracer.spans if s.parent == index)
        assert own[index] == pytest.approx(span.duration - children)
    report = tracer.layer_report()
    assert report["wall"] == pytest.approx(tracer.spans[0].duration)
    assert sum(v for k, v in report.items() if k != "wall") == pytest.approx(
        report["wall"])


def test_unknown_layer_is_refused():
    with pytest.raises(ValueError, match="unknown layer"):
        with Tracer().span("x", "nonsense"):
            pass


# --- metric names ------------------------------------------------------------


def test_declared_names_are_well_formed_and_unique():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name) and len(name) <= 64, name


@pytest.mark.parametrize("cls", TINY, ids=lambda c: c.name)
def test_emitted_metric_names_are_the_declared_ones(cls, tmp_path):
    bench = _ready(cls)
    result, _ = timed_run(bench, 0.0, 1.0, None, probes=0)
    assert result["correct"] and result["attempted"] >= 1
    assert {k: m["unit"] for k, m in result["metrics"].items()} == (
        declared_units("end_to_end"))
    units = declared_units("per_layer")
    result, _ = traced_run(bench, 0.0, 1.0, 0.0, tmp_path, units)
    assert result["correct"], result
    assert set(result["metrics"]) == set(units)
    for name in result["metrics"]:
        assert NAME.fullmatch(name), name
    shares = [result["metrics"][f"layer.{layer}.share"]["value"]
              for layer in ("workload", "analysis", "core", "mitigation",
                            "runtime", "unattributed")]
    assert sum(shares) == pytest.approx(1.0)
