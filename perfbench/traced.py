"""The traced run: per-layer self time, program counters, runtime counters.

Repeats pairs of serial passes until ``--seconds`` are spent: one pass
with spans around every call into a layer and with the program's own
telemetry enabled (``repro.obs.telemetry.profiled``), one plain pass with
neither. Their wall-time ratio is the tracing overhead. Then it runs the
workload's timed path once under ``profiled()`` for the runtime layer's
counters (shards, dispatch bytes, arena reuse, faults, worker memory),
and, for ``chunk-fanout``, a codec round-trip probe.
"""

from __future__ import annotations

import gc
import json
import pickle
import statistics
import sys
import time
from pathlib import Path

from repro.obs.telemetry import profiled

from perfbench.check import first_difference, flatten
from perfbench.host import reference_kernel
from perfbench.tracing import LAYERS, NullTracer, Tracer
from perfbench.workloads import POLICIES, TICK_POLICIES, XREGION

#: The replay engines' per-path arrival counters: arrivals handled one at a
#: time, and arrivals handled in vectorised blocks, jumps or sweeps. Their
#: ratio is the wasted-work share ``mitigation.vector.scalar_arrival_share``.
_SCALAR_ARRIVALS = (
    "vector/cold/scalar_arrivals", "vector/chain/scalar_arrivals",
    "vector/episode/scalar_arrivals", "vector/coupled/scalar_arrivals",
    "xregion/replay/scalar_arrivals",
)
_VECTOR_ARRIVALS = (
    "vector/spec/accepted", "vector/chain/jumped_arrivals",
    "vector/coupled/chain_jumped", "vector/coupled/slot_swept",
    "xregion/replay/block_arrivals", "xregion/replay/jumped_arrivals",
    "xregion/replay/interleaved_arrivals",
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _state_bytes(output) -> int:
    """Pickled size of the merged accumulators a pass produced."""
    stats = output.get("stats") if isinstance(output, dict) else {"": output}
    if not stats:
        return 0
    return sum(len(pickle.dumps(acc, protocol=5)) for acc in stats.values())


def _layer_metrics(tracers: list[Tracer], counters: dict, timers: dict,
                   passes: int) -> dict[str, float]:
    report = {}
    for tracer in tracers:
        for layer, seconds in tracer.layer_report().items():
            report[layer] = report.get(layer, 0.0) + seconds

    def spans(layer, name):
        return sum(t.total(layer, name) for t in tracers) / passes

    wall = report.pop("wall")
    out = {}
    for layer in (*LAYERS, "unattributed"):
        out[f"layer.{layer}.self_s"] = report[layer] / passes
        out[f"layer.{layer}.share"] = _ratio(report[layer], wall)
    out["trace.wall_s"] = wall / passes
    out["workload.generate_s"] = spans("workload", "run_generation_shard")
    out["workload.build_s"] = spans("workload", "build_workload_shard")
    out["analysis.update_s"] = (spans("analysis", "RegionAccumulator.update")
                                + spans("analysis", "run_chunk_analysis"))
    out["analysis.merge_s"] = (spans("analysis", "_merge_by_region")
                               + spans("analysis", "RegionAccumulator.merge"))
    out["core.findings_s"] = spans("core", "extract_findings")
    for policy in (*POLICIES, XREGION):
        out[f"mitigation.replay_s.{policy}"] = spans(
            "mitigation", f"replay.{policy}")

    def count(name):
        return counters.get(name, 0) / passes

    out["analysis.merges"] = count("accumulators/merges")
    out["mitigation.repair.rounds"] = count("repair/rounds")
    out["mitigation.repair.functions_rereplayed"] = count(
        "repair/functions_rereplayed")
    hits = count("repair/fingerprint_hits")
    out["mitigation.repair.fingerprint_hit_ratio"] = _ratio(
        hits, hits + count("repair/fingerprint_misses"))
    out["mitigation.repair.event_fallbacks"] = count("repair/event_fallbacks")
    out["mitigation.repair.ticks_replayed"] = count("repair/ticks_replayed")
    out["mitigation.tick.steps"] = count("tick/steps")
    for cls in TICK_POLICIES:
        out[f"mitigation.tick.policy_s.{cls}"] = (
            timers.get(f"tick/policy/{cls}_s", 0.0) / passes)
    scalar = sum(count(k) for k in _SCALAR_ARRIVALS)
    out["mitigation.vector.scalar_arrival_share"] = _ratio(
        scalar, scalar + sum(count(k) for k in _VECTOR_ARRIVALS))
    return out


def _runtime_metrics(tel, wall: float, busy: float) -> dict[str, float]:
    volatile = tel.volatile
    shard_walls = sorted(dur for path, _track, _t0, dur in tel.spans
                         if path == "runtime/shard")
    leases = volatile.get("runtime/arena/leases", 0)
    workers = [value for key, value in tel.gauges.items()
               if key.startswith("mem/max_rss_kb[pid")]
    return {
        "runtime.wall_s": wall,
        "runtime.shards": volatile.get("runtime/shards", 0),
        "runtime.shard_wall_s.p50": (statistics.median(shard_walls)
                                     if shard_walls else 0.0),
        "runtime.shard_wall_s.max": max(shard_walls, default=0.0),
        "runtime.parent_busy_s": busy,
        "runtime.parent_wait_s": max(wall - busy, 0.0),
        "runtime.dispatch.pickled_bytes": volatile.get(
            "runtime/dispatch/pickled_bytes", 0),
        "runtime.dispatch.parked_bytes": volatile.get(
            "runtime/dispatch/parked_bytes", 0),
        "runtime.payload_bytes": volatile.get("runtime/payload_bytes", 0),
        "runtime.shm.bytes": volatile.get("runtime/shm/bytes", 0),
        "runtime.arena.reuse_ratio": _ratio(
            volatile.get("runtime/arena/reuses", 0), leases),
        "runtime.arena.allocs": volatile.get("runtime/arena/allocs", 0),
        "runtime.arena.declined": volatile.get("runtime/arena/declined", 0),
        "runtime.faults.retries": volatile.get("runtime/faults/retries", 0),
        "runtime.faults.channel_fallbacks": volatile.get(
            "runtime/faults/channel_fallbacks", 0),
        "runtime.worker_peak_rss_mb": max(workers, default=0.0) / 1024,
    }


def _span_records(tracers: list[Tracer]) -> list[dict]:
    return [
        {"pass": index, "name": s.name, "layer": s.layer, "start": s.start,
         "end": s.end, "parent": s.parent, "shard": s.shard}
        for index, tracer in enumerate(tracers) for s in tracer.spans
    ]


def traced_run(bench, seconds: float, import_s: float, input_build_s: float,
               out_dir: Path, units: dict[str, str]) -> tuple[dict, dict]:
    """Per-layer metrics for one workload; see the module docstring.

    A workload with an input mix is traced on its first input only.
    """
    bench.use(0)
    kernels = [reference_kernel()]
    tracers: list[Tracer] = []
    counters: dict[str, int] = {}
    timers: dict[str, float] = {}
    traced_s, untraced_s, mismatches = [], [], []
    expected = None
    deadline = time.perf_counter() + seconds
    while True:
        tracer = Tracer()
        gc.collect()
        with profiled() as tel:
            started = time.perf_counter()
            with tracer.span("pass", None):
                output, facts = bench.reference(tracer)
            traced_s.append(time.perf_counter() - started)
        for key, value in tel.counters.items():
            counters[key] = counters.get(key, 0) + value
        for key, value in tel.timers.items():
            timers[key] = timers.get(key, 0.0) + value
        tracers.append(tracer)
        flat = flatten(output)
        problems = bench.invariants(output, facts)
        if expected is None:
            expected = flat
            state_bytes = _state_bytes(output)
            requests_in = facts["requests"]
        del output
        mismatches.append(first_difference(expected, flat) or
                          ("; ".join(problems) if problems else None))

        gc.collect()
        started = time.perf_counter()
        plain, _ = bench.reference(NullTracer())
        untraced_s.append(time.perf_counter() - started)
        mismatches.append(first_difference(expected, flatten(plain)))
        del plain
        kernels.append(reference_kernel())
        if time.perf_counter() >= deadline:
            break

    passes = len(tracers)
    metrics = _layer_metrics(tracers, counters, timers, passes)
    metrics["trace.untraced_wall_s"] = _mean(untraced_s)
    metrics["trace.overhead_ratio"] = _mean(traced_s) / _mean(untraced_s) - 1
    metrics["setup.import_s"] = import_s
    metrics["setup.input_build_s"] = input_build_s
    metrics["workload.requests"] = requests_in
    metrics["analysis.state_bytes"] = state_bytes

    gc.collect()
    with profiled() as tel:
        cpu0 = time.process_time()
        started = time.perf_counter()
        pooled = bench.run()
        wall = time.perf_counter() - started
        busy = time.process_time() - cpu0
    metrics.update(_runtime_metrics(tel, wall, busy))
    mismatches.append(first_difference(expected, flatten(pooled)))
    metrics["host.raw_requests_per_s"] = bench.requests(pooled) / wall
    del pooled

    probe = getattr(bench, "codec_probe", None)
    codec = probe() if probe is not None else {}
    metrics["runtime.codec.shm_roundtrip_s_per_mb"] = codec.get(
        "shm_s_per_mb", 0.0)
    metrics["runtime.codec.pickle_roundtrip_s_per_mb"] = codec.get(
        "pickle_s_per_mb", 0.0)
    kernels.append(reference_kernel())
    metrics["host.ref_s"] = statistics.median(kernels)

    out_dir.mkdir(parents=True, exist_ok=True)
    spans_path = out_dir / f"spans-{bench.name}-seed{bench.seed}.json"
    spans_path.write_text(json.dumps(_span_records(tracers)))

    failed = sum(m is not None for m in mismatches)
    for m in mismatches:
        if m is not None:
            print(f"traced run: output differs at {m}", file=sys.stderr)
    result = {
        "correct": failed == 0, "attempted": len(mismatches), "failed": failed,
        "metrics": {name: {"value": float(value), "unit": units[name]}
                    for name, value in sorted(metrics.items())},
    }
    _print_layer_table(metrics)
    detail = {"host.ref_s": metrics["host.ref_s"], "kernels_s": kernels,
              "traced_s": traced_s, "untraced_s": untraced_s,
              "spans_file": str(spans_path.relative_to(out_dir.parent.parent))}
    return result, detail


def _print_layer_table(metrics: dict) -> None:
    wall = metrics["trace.wall_s"]
    print(f"{'layer':<14}{'self s':>10}{'share':>9}   (traced wall "
          f"{wall:.3f} s, overhead {metrics['trace.overhead_ratio']:+.1%})")
    for layer in (*LAYERS, "unattributed"):
        print(f"{layer:<14}{metrics[f'layer.{layer}.self_s']:>10.3f}"
              f"{metrics[f'layer.{layer}.share']:>9.1%}")
