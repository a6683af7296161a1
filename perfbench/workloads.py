"""The three benchmark workloads, each driven through public entry points.

Every workload has two paths over the same seed:

* ``run()`` — the timed path: one call to the program's batch entry point
  (``evaluate_policies`` + ``evaluate_cross_region``,
  ``StreamingTraceStudy.generate`` + ``extract_findings``, or
  ``analyze_bundle_chunks``), exactly as a user would make it;
* ``reference(tracer)`` — the same pipeline unrolled in-process into the
  public functions the pooled path calls per shard, in plan order, each
  call wrapped in a span of the layer it belongs to. With a
  :class:`~perfbench.tracing.NullTracer` it is the untraced serial
  reference every timed output is checked against.

Sizes and traces are fixed per workload; each class says what
``--seed`` varies and why the trace does not.
"""

from __future__ import annotations

import multiprocessing
import pickle
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from repro.analysis.accumulators import RegionAccumulator
from repro.core.findings import extract_findings
from repro.core.study import StreamingTraceStudy, _merge_by_region
from repro.mitigation.base import EvalMetrics
from repro.mitigation.cross_region import (
    DEFAULT_INTER_REGION_RTT_S,
    CrossRegionEvaluator,
    RoutingPolicy,
)
from repro.mitigation.evaluator import build_workload_shard
from repro.runtime import (
    AnalysisChunkTask,
    CrossRegionResult,
    ShardPlan,
    analyze_bundle_chunks,
    evaluate_cross_region,
    evaluate_policies,
    from_shm,
    iter_bundle_chunks,
    make_policy_evaluator,
    merge_eval_metrics,
    run_chunk_analysis,
    run_generation_shard,
    to_shm,
)
from repro.trace.tables import TraceBundle
from repro.workload.generator import generate_region

from perfbench.check import flatten, nan_fields
from perfbench.tracing import NullTracer

#: The five named policy configurations of ``repro mitigate``.
POLICIES = ("baseline", "dynamic-keepalive", "timer-prewarm",
            "histogram-prewarm", "peak-shaving")
#: Tick-phase policy classes whose per-policy timers telemetry records.
TICK_POLICIES = ("TimerPrewarmPolicy", "HistogramPrewarmPolicy",
                 "AsyncPeakShaver")
XREGION = "xregion-best-region"


class Workload:
    """Interface shared by the three workloads."""

    name = ""
    jobs = 1
    #: Inputs in one run's mix; repetitions cycle through them.
    variants = 1

    def setup(self, seed: int) -> None:
        """Build whatever inputs must exist before the first timed call."""
        self.seed = seed

    def use(self, variant: int) -> None:
        """Switch to input ``variant`` of this run's mix."""

    def run(self):
        raise NotImplementedError

    def requests(self, output) -> int:
        """Trace requests one ``run()`` processed."""
        raise NotImplementedError

    def reference(self, tracer):
        """Serial unrolled path; returns ``(output, facts)``.

        ``facts`` carries what the workload layer produced — at least
        ``requests``, the trace requests generated — for the invariants.
        """
        raise NotImplementedError

    def invariants(self, output, facts: dict) -> list[str]:
        """Conservation and sanity problems in ``output`` (empty when fine)."""
        raise NotImplementedError


class Mitigate(Workload):
    """§5 study in-process at ``jobs=1``: five policies on R2 plus
    cross-region R1->R3 ``best-region``, eight function groups each.

    The trace comes from the program's default seed 0; ``--seed`` picks
    the evaluator seeds (cold-start latency draws and policy randomness).
    R2's function popularity is heavy-tailed: at this scale a trace's
    request count varies 2.7x between trace seeds while a pass's tick cost
    (eight groups x three tick policies x 1440 ticks) does not, so a
    per-seed trace would make ``requests_per_s`` measure the seed rather
    than the program. The evaluator seed still moves the repair loop's
    work by up to 40%, so each run cycles through :attr:`variants`
    evaluator seeds.
    """

    name = "mitigate"
    variants = 3
    region, home, remotes = "R2", "R1", ("R3",)
    trace_seed, days, scale, n_groups = 0, 1, 0.2, 8

    def use(self, variant: int) -> None:
        self.eval_seed = self.seed * self.variants + variant + 1

    def run(self):
        policies = evaluate_policies(
            self.region, list(POLICIES), seed=self.trace_seed, days=self.days,
            scale=self.scale, jobs=1, n_groups=self.n_groups,
            eval_seed=self.eval_seed)
        xregion = evaluate_cross_region(
            self.home, self.remotes, "best-region", seed=self.trace_seed,
            days=self.days, scale=self.scale, jobs=1, n_groups=self.n_groups,
            eval_seed=self.eval_seed)
        return {"policies": policies, "xregion": xregion}

    def requests(self, output) -> int:
        """Requests in the two regions' traces; each trace request is
        replayed once per policy, so this counts the input, not replays."""
        return (output["policies"]["baseline"].requests
                + output["xregion"].metrics.requests)

    def _plan(self, region: str) -> ShardPlan:
        return ShardPlan.for_evaluation(
            region, seed=self.trace_seed, days=self.days, scale=self.scale,
            n_groups=self.n_groups, eval_seed=self.eval_seed)

    def reference(self, tracer):
        facts = {"requests_in": {}}
        merged: dict[str, EvalMetrics] = {}
        arrivals = 0
        for spec in self._plan(self.region):
            shard = spec.describe()
            with tracer.span("build_workload_shard", "workload", shard):
                profile, traces = build_workload_shard(
                    spec.region, seed=spec.seed, days=spec.n_days,
                    scale=spec.scale, group=spec.group,
                    n_groups=spec.n_groups)
            arrivals += sum(int(t.arrivals.size) for t in traces)
            for policy in POLICIES:
                with tracer.span(f"replay.{policy}", "mitigation", shard):
                    part = make_policy_evaluator(
                        profile, policy, seed=spec.shard_seed).run(
                            traces, horizon_s=None, name=policy)
                with tracer.span("merge_eval_metrics", "runtime", shard):
                    if policy in merged:
                        merged[policy].merge(part)
                    else:
                        merged[policy] = merge_eval_metrics([part], name=policy)
        facts["requests_in"][self.region] = arrivals

        xmerged = EvalMetrics(name="xregion:best-region")
        home_name = ""
        arrivals = 0
        for spec in self._plan(self.home):
            shard = spec.describe()
            with tracer.span("build_workload_shard", "workload", shard):
                _, traces = build_workload_shard(
                    spec.region, seed=spec.seed, days=spec.n_days,
                    scale=spec.scale, group=spec.group,
                    n_groups=spec.n_groups)
            arrivals += sum(int(t.arrivals.size) for t in traces)
            with tracer.span(f"replay.{XREGION}", "mitigation", shard):
                evaluator = CrossRegionEvaluator(
                    home=spec.region, remotes=self.remotes,
                    rtt_s=DEFAULT_INTER_REGION_RTT_S, seed=spec.shard_seed)
                part = evaluator.run(traces, policy=RoutingPolicy("best-region"),
                                     keepalive_s=60.0)
                home_name = evaluator.region_names[0]
            with tracer.span("merge_eval_metrics", "runtime", shard):
                xmerged.merge(part)
        facts["requests_in"][self.home] = arrivals
        facts["requests"] = sum(facts["requests_in"].values())
        output = {"policies": merged,
                  "xregion": CrossRegionResult(metrics=xmerged, home=home_name)}
        return output, facts

    def invariants(self, output, facts: dict) -> list[str]:
        problems = []
        wanted = facts["requests_in"]
        for policy in POLICIES:
            metrics = output["policies"].get(policy)
            if metrics is None:
                problems.append(f"policy {policy} missing")
                continue
            if metrics.requests != wanted[self.region]:
                problems.append(
                    f"{policy}: replayed {metrics.requests} requests, "
                    f"workload has {wanted[self.region]}")
            problems += nan_fields(metrics.summary(), policy)
        xmetrics = output["xregion"].metrics
        if xmetrics.requests != wanted[self.home]:
            problems.append(
                f"{XREGION}: replayed {xmetrics.requests} requests, "
                f"workload has {wanted[self.home]}")
        problems += nan_fields(xmetrics.summary(), XREGION)
        return problems


class AnalyzeStream(Workload):
    """Sharded generate-and-analyse of R1, R2, R3 at ``jobs=2`` over the
    pickle channel, then the paper's findings.

    The trace seed is this workload's only input, and it moves the rate by
    about 20% between seeds: rows vary 2x, per-row costs follow the
    heavy-tailed function mix, and the heaviest R2 day shard straggles
    differently. Region order moves it as much through the schedule. So
    the input is fixed (trace seed 0, regions in paper order) and
    ``--seed`` does not change it.
    """

    name = "analyze-stream"
    jobs = 2
    regions = ("R1", "R2", "R3")
    trace_seed, days, scale, chunk_days = 0, 3, 0.3, 1

    def run(self):
        study = StreamingTraceStudy.generate(
            self.regions, seed=self.trace_seed, days=self.days, scale=self.scale,
            jobs=self.jobs, chunk_days=self.chunk_days, channel="pickle")
        return {"stats": study.stats, "findings": extract_findings(study)}

    def requests(self, output) -> int:
        return sum(acc.n_requests for acc in output["stats"].values())

    def reference(self, tracer):
        plan = ShardPlan.for_generation(
            regions=self.regions, seed=self.trace_seed, days=self.days,
            chunk_days=self.chunk_days, scale=self.scale)
        rows: dict[str, list[int]] = {}
        accs = []
        for spec in plan.shards:
            shard = spec.describe()
            with tracer.span("run_generation_shard", "workload", shard):
                bundle = run_generation_shard(spec)
            counts = rows.setdefault(spec.region, [0, 0])
            counts[0] += len(bundle.requests)
            counts[1] += len(bundle.pods)
            with tracer.span("RegionAccumulator.update", "analysis", shard):
                acc = RegionAccumulator(spec.region, functions=bundle.functions,
                                        meta=dict(bundle.meta))
                acc.update(requests=bundle.requests, pods=bundle.pods)
            accs.append(acc)
            del bundle
        with tracer.span("_merge_by_region", "analysis"):
            stats = _merge_by_region(accs)
        with tracer.span("extract_findings", "core"):
            findings = extract_findings(StreamingTraceStudy(stats))
        return ({"stats": stats, "findings": findings},
                {"rows": rows, "requests": sum(r[0] for r in rows.values())})

    def invariants(self, output, facts: dict) -> list[str]:
        return _row_problems(output["stats"], facts["rows"]) + [
            f"finding {f.finding_id}.{key} is NaN"
            for f in output["findings"]
            for key, value in f.evidence.items()
            if isinstance(value, float) and np.isnan(value)
        ]


class ChunkFanout(Workload):
    """A parent-resident R2 bundle (built in set-up) fanned out chunk per
    shard at ``jobs=2`` through the shm input channel with the arena on.

    The bundle is the first :attr:`rows` requests of an R2 trace (seed 0)
    and the pods started among them, cut into :attr:`chunks` windows. A
    per-seed trace varies 3x in rows while the fan-out's time is mostly
    per-shard dispatch, and where a window starts moves its chunk sizes,
    hence the arena's power-of-two blocks and the parent's peak RSS (by
    up to 25% between days). So the input is fixed and ``--seed`` does
    not change it.
    """

    name = "chunk-fanout"
    jobs = 2
    region = "R2"
    trace_seed, days, scale = 0, 2, 0.3
    rows, chunks = 150_000, 24

    def setup(self, seed: int) -> None:
        super().setup(seed)
        # Generate in a child so the parent's peak RSS holds the bundle it
        # keeps, not the full trace it was cut from.
        context = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(max_workers=1, mp_context=context) as pool:
            self.bundle = pool.submit(
                _leading_bundle, self.region, self.trace_seed, self.days,
                self.scale, self.rows).result()
        self.chunk_s = _chunk_seconds(self.bundle.requests.timestamps_s,
                                      self.chunks)

    def run(self):
        return analyze_bundle_chunks(self.bundle, chunk_s=self.chunk_s,
                                     jobs=self.jobs, channel="shm")

    def requests(self, output) -> int:
        return output.n_requests

    def _tasks(self, tracer) -> list:
        bundle = self.bundle
        with tracer.span("iter_bundle_chunks", "runtime"):
            return [
                AnalysisChunkTask(region=bundle.region, index=chunk.index,
                                  functions=bundle.functions,
                                  meta=dict(bundle.meta), chunk=chunk)
                for chunk in iter_bundle_chunks(bundle, chunk_s=self.chunk_s)
            ]

    def reference(self, tracer):
        merged = None
        for task in self._tasks(tracer):
            shard = task.describe()
            with tracer.span("run_chunk_analysis", "analysis", shard):
                acc = run_chunk_analysis(task)
            with tracer.span("RegionAccumulator.merge", "analysis", shard):
                merged = acc if merged is None else merged.merge(acc)
        rows = {self.region: [len(self.bundle.requests), len(self.bundle.pods)]}
        return merged, {"rows": rows, "requests": rows[self.region][0]}

    def invariants(self, output, facts: dict) -> list[str]:
        return _row_problems({output.region: output}, facts["rows"])

    def codec_probe(self, repeats: int = 15) -> dict[str, float]:
        """Round-trip seconds per MB of one chunk task, shm vs pickle.

        The shm round trip is ``to_shm`` (park the arrays) plus
        ``from_shm`` (rebuild zero-copy views); the pickle one is
        ``dumps`` plus ``loads``. Both are divided by the task's pickled
        size, and the rebuilt task must match the original field by field.
        """
        task = self._tasks(NullTracer())[0]
        megabytes = len(pickle.dumps(task, protocol=5)) / 1e6
        reference = flatten(task)
        shm_s, pickle_s = [], []
        for _ in range(repeats):
            started = time.perf_counter()
            rebuilt = from_shm(to_shm(task, min_bytes=0))
            shm_s.append(time.perf_counter() - started)
            if flatten(rebuilt) != reference:
                raise RuntimeError("shm round trip changed the chunk task")
            del rebuilt
            started = time.perf_counter()
            rebuilt = pickle.loads(pickle.dumps(task, protocol=5))
            pickle_s.append(time.perf_counter() - started)
            if flatten(rebuilt) != reference:
                raise RuntimeError("pickle round trip changed the chunk task")
            del rebuilt
        return {
            "shm_s_per_mb": float(np.median(shm_s)) / megabytes,
            "pickle_s_per_mb": float(np.median(pickle_s)) / megabytes,
        }


def _leading_bundle(region: str, trace_seed: int, days: int, scale: float,
                    rows: int) -> TraceBundle:
    """The first ``rows`` requests of a trace and the pods started up to
    the last of them."""
    full = generate_region(region, seed=trace_seed, days=days, scale=scale)
    if len(full.requests) < rows:
        raise ValueError(f"{region} trace has {len(full.requests)} requests, "
                         f"fewer than {rows}")
    requests = full.requests.filter(np.arange(rows))
    last = requests.timestamps_s[-1]
    return TraceBundle(
        region=full.region, requests=requests,
        pods=full.pods.filter(full.pods.timestamps_s <= last),
        functions=full.functions, meta=dict(full.meta))


def _chunk_seconds(times: np.ndarray, chunks: int) -> float:
    """A chunk length that cuts ``[times[0], times[-1]]`` into exactly
    ``chunks`` of :func:`iter_bundle_chunks`'s epoch-aligned windows."""
    first, last = float(times[0]), float(times[-1])
    chunk_s = (last - first) / chunks
    while np.floor(last / chunk_s) - np.floor(first / chunk_s) + 1 > chunks:
        chunk_s *= 1.0005
    return chunk_s


def _row_problems(stats: dict, rows: dict) -> list[str]:
    problems = []
    for region, (requests, pods) in rows.items():
        acc = stats.get(region)
        if acc is None:
            problems.append(f"region {region} missing from the merge")
            continue
        summary = acc.summary()
        if summary["requests"] != requests:
            problems.append(f"{region}: merged {summary['requests']} request "
                            f"rows, bundle has {requests}")
        if summary["pods"] != pods:
            problems.append(f"{region}: merged {summary['pods']} pod rows, "
                            f"bundle has {pods}")
    if set(stats) != set(rows):
        problems.append(f"regions {sorted(stats)} != {sorted(rows)}")
    return problems


WORKLOADS = {cls.name: cls for cls in (Mitigate, AnalyzeStream, ChunkFanout)}
