"""Benchmark of the chainlens CLI: end-to-end metrics, or per-layer ones when traced.

Run from the root of a chainlens checkout:

    python3 perfbench/run.py --workload rank-10x --seed 0 --seconds 10 --trace 0

The workloads are defined in ``pipeline.py``.  A run sets its inputs up
``SETUP_REPS`` times (``setup_s`` is the median), then repeats whole
iterations of the workload's stages until at least ``--seconds`` have
passed, and reports the median of each metric, and of each stage figure
printed with them, over its samples.

With ``--trace 1`` a single iteration runs instead, with every chainlens
layer wrapped in spans, and the per-layer metrics of that iteration are
reported.  Its tracing overhead is the time the recording itself took,
measured inside the wrappers: on a shared machine two whole iterations
differ by several seconds anyway, which would hide a difference of a tenth
of that.

The last line of standard output is the result as JSON; a summary goes to
standard error, and the full record (environment, samples, checks) to
``.perfbench/results/``.  The run writes only under ``.perfbench/``.

BLAS threads are pinned, through this process's environment and before
numpy is imported, to ``BLAS_THREADS`` (at most the usable processors).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# One BLAS thread.  On a 2-vCPU machine (Xeon, OpenBLAS 0.3.31) a second
# thread made a 205x64 complex matrix-vector product take 4-9 ms instead of
# 20-90 us, and waking it made every run's timings depend on what the other
# processor was doing; chainlens's own measurements found no speed-up from it.
BLAS_THREADS = 1


def pin_blas_threads() -> int:
    """Pin the BLAS thread count, at most the usable processors; returns it."""
    threads = min(BLAS_THREADS, len(os.sched_getaffinity(0)))
    for name in BLAS_THREAD_VARIABLES:
        os.environ[name] = str(threads)
    return threads


def blas_runtime() -> dict:
    """OpenBLAS version and thread count as the loaded library reports them."""
    import ctypes

    import numpy as np

    info = {"blas_library": None, "openblas_config": None, "blas_threads_in_effect": None}
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                if config is not None and threads is not None:
                    config.restype, threads.restype = ctypes.c_char_p, ctypes.c_int
                    info.update(blas_library=os.path.basename(path),
                                openblas_config=config().decode(), blas_threads_in_effect=threads())
                    return info
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    info["openblas_config"] = f"{blas.get('name')} {blas.get('version')} (build-time)"
    return info


def environment(blas_threads: int) -> dict:
    import numpy as np

    cpu_model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        **blas_runtime(),
        "blas_threads_pinned": blas_threads,
        **{name: os.environ[name] for name in BLAS_THREAD_VARIABLES},
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def summarize(samples: dict[str, list[float]], units: dict[str, str]) -> str:
    """One line per metric or stage figure: median, unit and quartiles of its samples."""
    lines = [f"  {'name':<32} {'median':>12} {'unit':<5} {'q1':>12} {'q3':>12}  samples"]
    for name, sampled in samples.items():
        q1, med, q3 = statistics.quantiles(sampled, n=4) if len(sampled) > 1 else sampled * 3
        lines.append(f"  {name:<32} {med:>12.5g} {units[name]:<5} {q1:>12.5g} {q3:>12.5g}  {len(sampled)}")
    return "\n".join(lines)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "chainlens" / "__init__.py").is_file():
        print(f"perfbench: {root} is not a chainlens checkout (no src/chainlens)", file=sys.stderr)
        return 2
    blas_threads = pin_blas_threads()
    sys.path.insert(0, str(root / "src"))
    import layers
    import pipeline
    from spans import Tracer

    if args.workload not in pipeline.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r} "
              f"(one of {', '.join(pipeline.WORKLOADS)})", file=sys.stderr)
        return 2
    workload = pipeline.WORKLOADS[args.workload]
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    # a CLI call's time and its manifest's may differ by as much as wall_s may
    tolerance = next(m["bound"] for m in spec["end_to_end"] if m["name"] == "wall_s")

    workdir = root / ".perfbench" / workload.name
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    env = environment(blas_threads)
    print("environment: " + json.dumps(env), file=sys.stderr)

    run = pipeline.Run(workdir, args.seed, tolerance)
    setup_times = []
    for _ in range(pipeline.SETUP_REPS):
        start = time.perf_counter()
        pipeline.setup(run, workload)
        setup_times.append(time.perf_counter() - start)

    record = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env}
    if args.trace:
        tracer = Tracer()
        run.tracer = tracer
        instrumentation = layers.instrument(tracer)
        before = run.timed
        try:
            pipeline.iteration(run, workload)
        finally:
            instrumentation.restore()
            run.tracer = None
        values = layers.layer_metrics(tracer.spans)
        values["trace.overhead_s"] = tracer.overhead
        values["cli.manifest_disagreements"] = float(len(run.manifest_disagreements))
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in layers.metric_names().items()}
        print(layers.self_time_table(tracer.spans, run.timed - before), file=sys.stderr)
        print(layers.baseline_table(tracer.spans), file=sys.stderr)
        record["span_count"] = len(tracer.spans)
    else:
        walls = []
        started = time.perf_counter()
        while not walls or time.perf_counter() - started < args.seconds:
            before = run.timed
            pipeline.iteration(run, workload)
            walls.append(run.timed - before)
        samples = {"setup_s": setup_times, "wall_s": walls, **run.samples}
        values = {name: statistics.median(v) for name, v in samples.items()}
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
        stage_units = {name: pipeline.unit(name) for name in run.samples}
        print(summarize(samples, {**units, **stage_units}), file=sys.stderr)
        print(f"  peak_rss_mb {values['peak_rss_mb']:.1f} MB", file=sys.stderr)
        record.update(samples=samples, stage_figures={
            name: {"value": values[name], "unit": stage_units[name]} for name in run.samples})

    pipeline.check_digests(run)
    for line in run.manifest_disagreements:
        print(f"manifest disagreement beyond {tolerance:.0%}: {line}", file=sys.stderr)
    for line in run.failures:
        print(f"FAILED: {line}", file=sys.stderr)
    result = {"correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed, "metrics": metrics}
    record.update(result=result, failures=run.failures, manifest_disagreements=run.manifest_disagreements)
    results_dir = root / ".perfbench" / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
