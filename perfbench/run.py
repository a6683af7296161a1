"""Pipeline benchmark: one workload, timed (``--trace 0``) or traced (``1``).

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload mitigate --seed 1 --seconds 25 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; each metric is
``{"value": ..., "unit": ...}``. Every result is also appended to
``perfbench/out/history.jsonl`` together with the machine fingerprint.
Exits non-zero without a result when the program's source is missing.
"""

import time

_STARTED = time.perf_counter()

import atexit  # noqa: E402


def _stop_resource_tracker() -> None:
    """Stop and reap multiprocessing's resource tracker, if one was started.

    Shared-memory blocks start it as a child of this process, and nothing
    else waits for it, so without this it outlives the run. Registered
    before anything imports ``multiprocessing``, so it runs after every
    other exit hook that could still unlink a block.
    """
    import gc
    import sys

    tracker_module = sys.modules.get("multiprocessing.resource_tracker")
    if tracker_module is None:
        return
    gc.collect()
    tracker = tracker_module._resource_tracker
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()


atexit.register(_stop_resource_tracker)

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / "out"
#: Extra fresh-interpreter set-ups per timed run; ``setup_s`` is the median
#: over these and the run's own set-up.
SETUP_PROBES = 4


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _bootstrap() -> None:
    """Put the checkout's program and benchmark first on ``sys.path``."""
    package = ROOT / "src" / "repro" / "__init__.py"
    if not package.is_file():
        raise SystemExit(f"perfbench: no program source at {package.parent}; "
                         "run from the root of a full checkout")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import repro

    if Path(repro.__file__).resolve() != package.resolve():
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, "
                         f"not from {package.parent}")


def _cpu_seconds() -> float:
    times = os.times()
    return (times.user + times.system
            + times.children_user + times.children_system)


def _metric(value, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def declared_units(section: str) -> dict[str, str]:
    """``{name: unit}`` of one metric section of ``BENCHMARK.json``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {entry["name"]: entry["unit"] for entry in spec[section]}


def _check_declared(result: dict, units: dict[str, str]) -> None:
    """Refuse to print a metric set that differs from the declared one."""
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != units:
        raise SystemExit(f"perfbench: metrics {sorted(set(got) ^ set(units))} "
                         "do not match BENCHMARK.json")


def _setup_probe_seconds(workload: str, seed: int) -> float:
    """Set-up seconds of one fresh interpreter running this script."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", "0",
         "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


def timed_run(bench, seconds: float, setup_s: float, measure_setup,
              probes: int = SETUP_PROBES) -> tuple[dict, dict]:
    """Repeat the timed call for ``seconds``; end-to-end metrics.

    Repetitions cycle through the workload's input mix and stop at the end
    of the first full cycle past the deadline. Once the timing is over,
    ``measure_setup()`` is called ``probes``
    times, each between two reference kernels, for the set-up seconds of a
    fresh interpreter; ``setup_s`` is the median of those and this run's
    own ``setup_s``, each normalised by the kernels around it.
    """
    from perfbench.host import (
        bracket_ref_s,
        normalised_rate,
        normalised_seconds,
        reference_kernel,
    )
    from perfbench.check import first_difference, flatten
    from perfbench.tracing import NullTracer

    kernels = [reference_kernel()]
    reps = []
    deadline = time.perf_counter() + seconds
    while not reps or time.perf_counter() < deadline:
        for variant in range(bench.variants):
            bench.use(variant)
            gc.collect()
            cpu0 = _cpu_seconds()
            started = time.perf_counter()
            output = bench.run()
            wall = time.perf_counter() - started
            cpu = _cpu_seconds() - cpu0
            requests = bench.requests(output)
            flat = flatten(output)
            del output
            kernels.append(reference_kernel())
            reps.append({"variant": variant, "wall_s": wall, "cpu_s": cpu,
                         "requests": requests, "flat": flat,
                         "ref_s": bracket_ref_s(kernels[-2], kernels[-1])})
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    expected, problems = [], []
    for variant in range(bench.variants):
        bench.use(variant)
        reference, facts = bench.reference(NullTracer())
        expected.append(flatten(reference))
        problems.append(bench.invariants(reference, facts))
        del reference
    failed = 0
    for index, rep in enumerate(reps):
        variant = rep["variant"]
        differs = first_difference(expected[variant], rep.pop("flat"))
        rep["mismatch"] = differs
        if differs is not None or problems[variant]:
            failed += 1
            print(f"rep {index}: output differs from the serial reference "
                  f"at {differs}" if differs else
                  f"rep {index}: reference fails {problems[variant]}",
                  file=sys.stderr)

    setups = [setup_s]
    setups_norm = [normalised_seconds(setup_s, kernels[0])]
    kernels.append(reference_kernel())
    for _ in range(probes):
        setups.append(measure_setup())
        kernels.append(reference_kernel())
        setups_norm.append(normalised_seconds(
            setups[-1], bracket_ref_s(kernels[-2], kernels[-1])))
    ref_s = statistics.median(kernels)

    rates = [normalised_rate(r["requests"] / r["wall_s"], r["ref_s"])
             for r in reps]
    cpu_per_mreq = [normalised_seconds(r["cpu_s"] / r["requests"] * 1e6,
                                       r["ref_s"]) for r in reps]
    metrics = {
        "requests_per_s": _metric(statistics.median(rates), "1/s"),
        "cpu_s_per_mreq": _metric(statistics.median(cpu_per_mreq), "s"),
        "parent_peak_rss_mb": _metric(peak_rss_mb, "MiB"),
        "setup_s": _metric(statistics.median(setups_norm), "s"),
        "success_rate": _metric((len(reps) - failed) / len(reps), "ratio"),
    }
    detail = {
        "reps": reps, "setups_s": setups, "kernels_s": kernels,
        "host.ref_s": ref_s,
        "host.raw_requests_per_s": statistics.median(
            r["requests"] / r["wall_s"] for r in reps),
        "reference_problems": problems,
    }
    result = {"correct": failed == 0, "attempted": len(reps),
              "failed": failed, "metrics": metrics}
    return result, detail


def main(argv=None) -> int:
    args = _parse(argv)
    _bootstrap()
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r} "
                         f"(choose from {sorted(WORKLOADS)})")
    import_s = time.perf_counter() - _STARTED
    bench = WORKLOADS[args.workload]()
    started = time.perf_counter()
    bench.setup(args.seed)
    input_build_s = time.perf_counter() - started
    setup_s = time.perf_counter() - _STARTED
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    if args.trace:
        from perfbench.traced import traced_run

        units = declared_units("per_layer")
        result, detail = traced_run(bench, args.seconds, import_s,
                                    input_build_s, OUT_DIR, units)
    else:
        units = declared_units("end_to_end")
        result, detail = timed_run(
            bench, args.seconds, setup_s,
            lambda: _setup_probe_seconds(args.workload, args.seed))
    _check_declared(result, units)

    from perfbench.host import append_history, machine_fingerprint

    machine = machine_fingerprint(ROOT)
    machine["host.ref_s"] = detail["host.ref_s"]
    print("machine " + json.dumps(machine, sort_keys=True))
    append_history(OUT_DIR / "history.jsonl", {
        "key": f"{machine['commit'] or machine['source_digest']}"
               f"@{machine['machine_id']}",
        "machine": machine, "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "finished_unix": time.time(), "result": result, "detail": detail,
    })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
