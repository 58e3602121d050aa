"""Full-stack submission benchmark.

Runs one course workload through the real ``RaiSystem`` (client →
broker → scheduler → worker → container → buildspec → GPU payload →
storage → docdb), checks every job's output, and prints the metrics by
name with their units.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.

Usage, from the repository root::

    python3 perfbench/run.py --workload resubmit --seed 1 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics from untraced runs.
``--trace 1`` alternates untraced and traced runs and reports the
per-layer metrics (self time per layer, counts taken at each layer's
boundary, tracing overhead); it also writes the last traced run's spans
to ``perfbench/results/``.  ``--smoke`` uses tiny workload sizes.

Each run builds a fresh deployment, so a measurement repeats whole runs
until ``--seconds`` have passed and reports medians.  Host times are
scaled to a reference host by a fixed reference pass timed around every
run (``reference.py``); raw seconds stay in the report.  Simulated-time
metrics and byte counts are deterministic for a seed; they, the outcome
digest and the traced counts must repeat exactly across the runs.
"""

from __future__ import annotations

import os

#: BLAS/OpenMP pools pinned to one thread before NumPy loads: the CNN's
#: threads would otherwise compete with the measured process.
THREAD_SETTINGS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}
os.environ.update(THREAD_SETTINGS)

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"

#: (name, unit) of every end-to-end metric, as in BENCHMARK.json.
END_TO_END = (
    ("jobs_per_cpu_s", "jobs/s"),
    ("jobs_per_s", "jobs/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("latency_p50_s", "s"),
    ("latency_p95_s", "s"),
    ("makespan_s", "s"),
    ("container_s_per_job", "s"),
    ("upload_bytes_per_job", "bytes"),
    ("succeeded_frac", "ratio"),
)

#: (name, unit) of every per-layer metric, as in BENCHMARK.json.
PER_LAYER = (
    ("client.ms_per_job", "ms"),
    ("buildspec.parse_calls", "count"),
    ("buildspec.parse_ms_per_call", "ms"),
    ("buildspec.repeat_text_share", "ratio"),
    ("storage.ms_per_job", "ms"),
    ("storage.wire_bytes_per_job", "bytes"),
    ("storage.dedup_ratio", "ratio"),
    ("buildcache.lookups", "count"),
    ("buildcache.hit_rate", "ratio"),
    ("buildcache.lookup_ms_per_call", "ms"),
    ("buildcache.capture_ms_per_job", "ms"),
    ("buildcache.apply_ms_per_job", "ms"),
    ("buildcache.entries", "count"),
    ("vfs.pack_ms_per_job", "ms"),
    ("vfs.unpack_ms_per_job", "ms"),
    ("vfs.archive_bytes_per_job", "bytes"),
    ("container.exec_calls_per_job", "count"),
    ("container.exec_ms_per_job", "ms"),
    ("container.acquire_ms_per_job", "ms"),
    ("container.pool_hit_rate", "ratio"),
    ("gpu.infer_calls_per_job", "count"),
    ("gpu.infer_ms_per_job", "ms"),
    ("gpu.repeat_input_share", "ratio"),
    ("broker.publishes_per_job", "count"),
    ("broker.bytes_per_job", "bytes"),
    ("broker.ms_per_job", "ms"),
    ("broker.redeliveries", "count"),
    ("sched.select_calls", "count"),
    ("sched.ms_per_job", "ms"),
    ("sched.queue_wait_p50_s", "s"),
    ("sched.queue_wait_p95_s", "s"),
    ("docdb.writes_per_job", "count"),
    ("docdb.reads_per_job", "count"),
    ("docdb.write_ms_per_job", "ms"),
    ("docdb.read_ms_per_job", "ms"),
    ("docdb.examined_per_returned", "ratio"),
    ("obs.spans_per_job", "count"),
    ("obs.events_per_job", "count"),
    ("obs.ms_per_job", "ms"),
    ("usage.ms_per_job", "ms"),
    ("durability.appends_per_job", "count"),
    ("durability.bytes_per_job", "bytes"),
    ("durability.ms_per_job", "ms"),
    ("sim.residual_ms_per_job", "ms"),
    ("trace.wall_ms_per_job", "ms"),
    ("trace.overhead_frac", "ratio"),
)

#: End-to-end metrics on the simulated clock or counted in bytes: a
#: seed fixes them, so every run of a seed must reproduce them exactly.
SIM_METRICS = ("latency_p50_s", "latency_p95_s", "makespan_s",
               "container_s_per_job", "upload_bytes_per_job",
               "succeeded_frac")

#: Extra set-ups per measurement, on top of one per run, so the
#: ``setup_s`` median rests on enough samples.
EXTRA_SETUPS = 5
MIN_RUNS = 3
#: Hard stop well inside the 180-second budget of one invocation.
MAX_MEASURE_SECONDS = 120.0


def _percentile(values, q: float) -> float:
    """Linear-interpolation percentile (NumPy's default method)."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


class Run:
    """One whole run of a workload: set-up, timed drive, checks."""

    def __init__(self, workload_cls, seed, shape, recorder=None):
        from tracing import Instrumentation

        self.traced = recorder is not None
        self.recorder = recorder
        instrumentation = (Instrumentation(recorder).install()
                           if recorder is not None else None)
        workload = None
        try:
            started = time.perf_counter()
            workload = workload_cls(seed, shape, str(RESULTS))
            workload.build()
            self.setup_s = time.perf_counter() - started
            gc.collect()
            if recorder is not None:
                recorder.on = True
            cpu0, wall0 = time.process_time(), time.perf_counter()
            workload.drive()
            wall1, cpu1 = time.perf_counter(), time.process_time()
            if recorder is not None:
                recorder.on = False
                self.origin = wall0
            self.cpu_s, self.wall_s = cpu1 - cpu0, wall1 - wall0
            self.errors, self.digest = workload.check()
            self._measure(workload)
        finally:
            if workload is not None:
                workload.close()
            if instrumentation is not None:
                instrumentation.remove()

    def _measure(self, workload) -> None:
        system = workload.system
        subs = workload.submissions
        self.jobs = len(subs)
        self.succeeded = sum(1 for s in subs if s.result.succeeded)
        latencies = [s.result.finished_at - s.submitted_at for s in subs]
        self.sim = {
            "latency_p50_s": _percentile(latencies, 50),
            "latency_p95_s": _percentile(latencies, 95),
            "makespan_s": (max(s.result.finished_at for s in subs)
                           - min(s.submitted_at for s in subs)),
            "container_s_per_job":
                system.usage.totals.get("container_seconds", 0.0) / self.jobs,
            "upload_bytes_per_job":
                sum(s.result.upload_bytes or 0 for s in subs) / self.jobs,
            "succeeded_frac": self.succeeded / self.jobs,
        }
        self.cache_entries = (system.build_cache.entry_count
                              if system.build_cache is not None else 0)


def _layer_metrics(run: Run) -> dict:
    """Per-layer metrics of one traced run (``trace.overhead_frac`` aside).

    Times are in reference-host milliseconds (see ``reference.py``).
    """
    from tracing import END, LAYERS, NAME, START, CHILD

    rec, jobs, scale = run.recorder, run.jobs, run.scale
    wall_s = run.wall_s * scale
    by_name = {}
    for span in rec.spans:
        by_name[span[NAME]] = (by_name.get(span[NAME], 0.0)
                               + span[END] - span[START] - span[CHILD])
    ms = {name: 1e3 * scale * seconds for name, seconds in by_name.items()}
    calls, tally = rec.calls, rec.tally

    def per_job(value):
        return value / jobs

    def ratio(num, den):
        return num / den if den else 0.0

    def layer_ms(layer):
        return sum(value for name, value in ms.items()
                   if rec._layer_of[name] == layer)

    layer_self = {layer: layer_ms(layer) for layer in LAYERS}
    parse_calls = calls["buildspec.parse_build_spec"]
    lookups = calls["buildcache.lookup"]
    execs = calls["container.exec_line"]
    acquires = calls["container.acquire"]
    infers = calls["gpu.infer"]
    waits = rec.queue_waits or [0.0]
    out = {
        "client.ms_per_job": per_job(layer_self["client"]),
        "buildspec.parse_calls": parse_calls,
        "buildspec.parse_ms_per_call": ratio(layer_self["buildspec"],
                                             parse_calls),
        "buildspec.repeat_text_share": ratio(tally["parse_repeats"],
                                             parse_calls),
        "storage.ms_per_job": per_job(layer_self["storage"]),
        "storage.wire_bytes_per_job": per_job(tally["put_new_bytes"]
                                              + tally["get_bytes"]),
        "storage.dedup_ratio": ratio(tally["put_logical_bytes"],
                                     tally["put_new_bytes"]),
        "buildcache.lookups": lookups,
        "buildcache.hit_rate": ratio(tally["buildcache_hits"], lookups),
        "buildcache.lookup_ms_per_call": ratio(
            ms.get("buildcache.lookup", 0.0), lookups),
        "buildcache.capture_ms_per_job": per_job(
            ms.get("buildcache.capture", 0.0)),
        "buildcache.apply_ms_per_job": per_job(
            ms.get("buildcache.apply", 0.0)),
        "buildcache.entries": run.cache_entries,
        "vfs.pack_ms_per_job": per_job(ms.get("vfs.pack_tree", 0.0)),
        "vfs.unpack_ms_per_job": per_job(ms.get("vfs.unpack_tree", 0.0)),
        "vfs.archive_bytes_per_job": per_job(tally["pack_bytes"]),
        "container.exec_calls_per_job": per_job(execs),
        "container.exec_ms_per_job": per_job(
            ms.get("container.exec_line", 0.0)),
        "container.acquire_ms_per_job": per_job(
            ms.get("container.acquire", 0.0)),
        "container.pool_hit_rate": ratio(tally["pool_hits"], acquires),
        "gpu.infer_calls_per_job": per_job(infers),
        "gpu.infer_ms_per_job": per_job(layer_self["gpu"]),
        "gpu.repeat_input_share": ratio(tally["infer_repeats"], infers),
        "broker.publishes_per_job": per_job(calls["broker.publish"]),
        "broker.bytes_per_job": per_job(tally["publish_bytes"]),
        "broker.ms_per_job": per_job(layer_self["broker"]),
        "broker.redeliveries": tally["redeliveries"],
        "sched.select_calls": calls["sched.select"],
        "sched.ms_per_job": per_job(layer_self["sched"]),
        "sched.queue_wait_p50_s": _percentile(waits, 50),
        "sched.queue_wait_p95_s": _percentile(waits, 95),
        "docdb.writes_per_job": per_job(calls["docdb.insert_one"]
                                        + calls["docdb.update_one"]),
        "docdb.reads_per_job": per_job(calls["docdb.find"]
                                       + calls["docdb.find_one"]),
        "docdb.write_ms_per_job": per_job(
            ms.get("docdb.insert_one", 0.0)
            + ms.get("docdb.update_one", 0.0)),
        "docdb.read_ms_per_job": per_job(
            ms.get("docdb.find", 0.0) + ms.get("docdb.find_one", 0.0)),
        "docdb.examined_per_returned": ratio(tally["docdb_examined"],
                                             tally["docdb_returned"]),
        "obs.spans_per_job": per_job(calls["obs.start_span"]),
        "obs.events_per_job": per_job(calls["obs.emit"]),
        "obs.ms_per_job": per_job(layer_self["obs"]),
        "usage.ms_per_job": per_job(layer_self["usage"]),
        "durability.appends_per_job": per_job(calls["durability.append"]),
        "durability.bytes_per_job": per_job(tally["wal_bytes"]),
        "durability.ms_per_job": per_job(layer_self["durability"]),
        "sim.residual_ms_per_job": per_job(
            1e3 * wall_s - sum(layer_self.values())),
        "trace.wall_ms_per_job": per_job(1e3 * wall_s),
    }
    out["_layer_self_ms_per_job"] = {layer: per_job(value)
                                     for layer, value in layer_self.items()}
    out["_calls"] = dict(calls)
    return out


def _twin_names():
    """Per-layer metrics that are counts, not times: must repeat exactly."""
    return [name for name, unit in PER_LAYER
            if unit != "ms" and name != "trace.overhead_frac"]


def _rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(workload: str, seed: int, seconds: float, trace: bool,
            smoke: bool = False) -> dict:
    """Repeat whole runs for ``seconds``; returns the report dict."""
    from reference import calibrate, scale
    from tracing import Recorder
    from workloads import SHAPES, SMOKE_SHAPES, WORKLOADS

    cls = WORKLOADS[workload]
    shape = (SMOKE_SHAPES if smoke else SHAPES)[workload]
    RESULTS.mkdir(parents=True, exist_ok=True)

    started = time.perf_counter()
    blocks = [calibrate()]
    setups = []
    for _ in range(EXTRA_SETUPS):
        began = time.perf_counter()
        extra = cls(seed, shape, str(RESULTS))
        extra.build()
        setups.append((time.perf_counter() - began) * scale(blocks[0]))
        extra.close()

    runs = []
    min_runs = 2 * MIN_RUNS if trace else MIN_RUNS
    while True:
        # Trace mode alternates untraced and traced runs, so the
        # overhead estimate compares neighbours under the same load.
        traced = trace and len(runs) % 2 == 1
        run = Run(cls, seed, shape, Recorder() if traced else None)
        # The reference loop just before and after the run gives the
        # host's speed while it ran.
        blocks.append(calibrate())
        run.scale = scale(blocks[-2], blocks[-1])
        runs.append(run)
        setups.append(run.setup_s * run.scale)
        elapsed = time.perf_counter() - started
        if elapsed >= MAX_MEASURE_SECONDS:
            break
        if elapsed >= seconds and len(runs) >= min_runs:
            break

    errors = []
    for i, run in enumerate(runs):
        errors.extend(f"run {i}: {e}" for e in run.errors[:10])
    first = runs[0]
    for i, run in enumerate(runs[1:], start=1):
        if run.digest != first.digest:
            errors.append(f"run {i}: outcome digest {run.digest[:16]} != "
                          f"{first.digest[:16]} of run 0"
                          + (" (traced vs untraced)"
                             if run.traced != first.traced else ""))
        for name in SIM_METRICS:
            if run.sim[name] != first.sim[name]:
                errors.append(f"run {i}: {name} {run.sim[name]!r} != "
                              f"{first.sim[name]!r} of run 0")
    untraced = [run for run in runs if not run.traced]
    traced_runs = [run for run in runs if run.traced]

    metrics = {}
    if trace:
        twins = _twin_names()
        layers = [_layer_metrics(run) for run in traced_runs]
        base = layers[0]
        for i, layer in enumerate(layers[1:], start=1):
            for name in twins:
                if layer[name] != base[name]:
                    errors.append(f"traced run {i}: count {name} "
                                  f"{layer[name]!r} != {base[name]!r}")
        for name, _unit in PER_LAYER:
            if name == "trace.overhead_frac":
                continue
            metrics[name] = (base[name] if name in twins else
                             statistics.median(layer[name]
                                               for layer in layers))
        metrics["trace.overhead_frac"] = (
            statistics.median(run.wall_s * run.scale for run in traced_runs)
            / statistics.median(run.wall_s * run.scale for run in untraced)
            - 1.0)
        units = dict(PER_LAYER)
    else:
        metrics = {
            "jobs_per_cpu_s": statistics.median(
                run.jobs / (run.cpu_s * run.scale) for run in runs),
            "jobs_per_s": statistics.median(
                run.jobs / (run.wall_s * run.scale) for run in runs),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": _rss_mb(),
        }
        metrics.update(first.sim)
        units = dict(END_TO_END)
    attempted = sum(run.jobs for run in runs)
    failed = sum(run.jobs - run.succeeded for run in runs)
    return {
        "workload": workload, "seed": seed, "smoke": smoke,
        "trace": trace, "threads": THREAD_SETTINGS,
        "runs": [{"traced": run.traced, "setup_s": run.setup_s,
                  "cpu_s": run.cpu_s, "wall_s": run.wall_s,
                  "scale": run.scale, "jobs": run.jobs,
                  "digest": run.digest} for run in runs],
        "reference_blocks_s": blocks,
        "extra_setups_s": setups[:EXTRA_SETUPS],
        "digest": first.digest,
        "errors": errors,
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
        "layers": layers[-1] if trace else None,
        "_spans_run": traced_runs[-1] if trace else None,
    }


def _print_report(report: dict) -> None:
    print(f"workload {report['workload']}  seed {report['seed']}  "
          f"runs {len(report['runs'])}  digest {report['digest'][:16]}")
    print("threads " + " ".join(f"{k}={v}" for k, v
                                in report["threads"].items()))
    for i, run in enumerate(report["runs"]):
        print(f"  run {i:3d}{' traced' if run['traced'] else '':7s}  "
              f"setup {run['setup_s']:.4f}s  wall {run['wall_s']:.3f}s  "
              f"cpu {run['cpu_s']:.3f}s  jobs {run['jobs']}  "
              f"host scale {run['scale']:.3f}")
    layer = report["layers"]
    if layer is not None:
        # One run's numbers, so the column adds up to its traced wall.
        wall = layer["trace.wall_ms_per_job"]
        calls = layer["_calls"]
        print(f"  last traced run: {'layer':10s} {'calls':>8s} "
              f"{'self ms/job':>12s} {'share':>7s}")
        total = 0.0
        for name, value in layer["_layer_self_ms_per_job"].items():
            total += value
            count = sum(n for span, n in calls.items()
                        if span.startswith(name + "."))
            print(f"  {'':17s}{name:10s} {count:8d} {value:12.4f} "
                  f"{value / wall:7.1%}")
        residual = layer["sim.residual_ms_per_job"]
        total += residual
        print(f"  {'':17s}{'sim+glue':10s} {'':8s} {residual:12.4f} "
              f"{residual / wall:7.1%}")
        print(f"  {'':17s}{'= sum':10s} {'':8s} {total:12.4f} "
              f"(traced wall {wall:.4f} ms/job; median trace.overhead_frac "
              f"{report['metrics']['trace.overhead_frac']['value']:.3f})")
    for name, metric in report["metrics"].items():
        print(f"  {name:32s} {metric['value']:16.6f} {metric['unit']}")
    for error in report["errors"][:20]:
        print(f"  CHECK FAILED: {error}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny workload sizes (the smoke test)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no repro sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r} "
              f"(known: {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2

    report = measure(args.workload, args.seed, args.seconds,
                     bool(args.trace), smoke=args.smoke)
    spans_run = report.pop("_spans_run")
    stem = (f"{args.workload}-seed{args.seed}-trace{args.trace}"
            + ("-smoke" if args.smoke else ""))
    if spans_run is not None:
        spans = spans_run.recorder.export(spans_run.origin)
        spans.update(workload=args.workload, seed=args.seed,
                     threads=THREAD_SETTINGS)
        (RESULTS / f"{stem}-spans.json").write_text(json.dumps(spans))
    (RESULTS / f"{stem}.json").write_text(json.dumps(report, indent=1))
    _print_report(report)
    print(json.dumps({key: report[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
