"""bmfactor benchmark: one workload per run, timed end to end or traced per layer.

    python3 perfbench/run.py --workload verify_grid --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the library is imported from its ``src``.
Each run is a closed loop with one caller in this single-threaded process
(BLAS threads pinned to 1).  ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer ones from traced passes interleaved with untraced
passes on the same inputs.  Times are scaled to a reference machine speed by
calibrate.py.  Every metric is printed by name with its unit, the full record
goes to ``perfbench/results/``, and the last line of standard output is the
JSON summary.  perfbench/README.md describes the metrics.
"""

from __future__ import annotations

import os

# Must precede the first numpy import, here and in every child process.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("verify_grid", "high_degree", "inequality_random")
SETUP_RUNS = 11
IMPORT_RUNS = 3
IMPORT_PACKAGES = ("numpy", "scipy", "bmfactor")
CHUNK_S = 0.1  # wall time between two calibrations in an untraced pass
CHILD_KERNEL_REPEATS = 9
# Layers whose self time, call count or failure ratio the traced run reports.
SELF_TIME_LAYERS = (
    "cli.verify", "factors.factor", "factors.build_pencil", "oracle.rayleigh_factor",
    "oracle.gauss_rule", "oracle.recurrence_betas", "oracle.weighted_inner",
    "special.moment_table", "orthopoly.poly", "orthopoly.residual", "dunkl",
    "core.polynomial", "inequality",
)
CALL_LAYERS = ("factors.factor", "oracle.rayleigh_factor", "oracle.weighted_inner",
               "special.moment_table")
FAIL_LAYERS = ("factors.factor", "oracle.rayleigh_factor")

PROBE = """
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import bmfactor.cli
from perfbench.workloads import probe
probe(sys.argv[3], int(sys.argv[4]))
"""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def timed_children(cmd: list[str], runs: int) -> tuple[float, list[float], list[str]]:
    """(calibration factor, wall seconds, standard error) of ``runs`` runs of ``cmd``.

    Child processes are short, so one factor for the whole series, from the
    median of kernel timings taken between the children, is steadier than a
    factor per child.
    """
    from perfbench import calibrate

    kernel = calibrate.kernel_times(CHILD_KERNEL_REPEATS)
    walls, stderr = [], []
    for _ in range(runs):
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), check=True, timeout=120,
                              capture_output=True, text=True)
        walls.append(time.perf_counter() - start)
        stderr.append(proc.stderr)
        kernel += calibrate.kernel_times(CHILD_KERNEL_REPEATS)
    return calibrate.REFERENCE_S / statistics.median(kernel), walls, stderr


def setup_seconds(workload: str, seed: int) -> tuple[float, list[float]]:
    """(calibration factor, wall seconds) of fresh processes doing ``import bmfactor.cli`` plus the first query."""
    cmd = [sys.executable, "-c", PROBE, str(SRC), str(ROOT), workload, str(seed)]
    subprocess.run(cmd, cwd=ROOT, env=child_env(), check=True, timeout=120,
                   capture_output=True)  # may still write bytecode caches
    factor, walls, _stderr = timed_children(cmd, SETUP_RUNS)
    return factor, walls


def import_seconds() -> dict[str, float]:
    """Median import time of numpy, scipy and bmfactor in fresh processes, from -X importtime."""
    cmd = [sys.executable, "-X", "importtime", "-c", "import bmfactor.cli"]
    factor, _walls, stderr = timed_children(cmd, IMPORT_RUNS)
    parsed = [parse_importtime(text) for text in stderr]
    return {package: factor * statistics.median(p[package] for p in parsed) for package in IMPORT_PACKAGES}


def parse_importtime(text: str) -> dict[str, float]:
    """Seconds per package, each module's own time charged to its nearest enclosing package.

    A module imported while numpy was loading counts for numpy, one imported by
    bmfactor itself (argparse, csv, ...) for bmfactor, so the three never overlap.
    """
    totals = dict.fromkeys(IMPORT_PACKAGES, 0.0)
    entries = []
    for line in text.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue  # the header line or other output
        name = fields[2]
        depth = (len(name) - len(name.lstrip())) // 2
        entries.append((depth, name.strip(), int(fields[0]) * 1e-6))
    ancestors: list[str] = []
    for depth, name, seconds in reversed(entries):  # a parent precedes its children when reversed
        ancestors = ancestors[:depth] + [name]
        owner = next((a.split(".")[0] for a in reversed(ancestors) if a.split(".")[0] in totals), None)
        if owner:
            totals[owner] += seconds
    return totals


def untraced_pass(workload, inputs) -> tuple[list, list[float], float]:
    """(results, reference seconds per query, wall seconds) of one pass from a cleared cache.

    A calibration closes every chunk of about CHUNK_S, and each query's time is
    scaled by the mean of the calibrations on either side of its chunk.
    """
    from perfbench import calibrate, workloads

    workloads.MOMENT_TABLE.cache_clear()
    results, scaled, wall = [], [], 0.0
    before, start = calibrate.kernel_seconds(), 0
    for i, item in enumerate(inputs):
        results.append(workloads.timed(workload.query, item))
        chunk = [s for _r, s in results[start:]]
        if sum(chunk) >= CHUNK_S or i == len(inputs) - 1:
            after = calibrate.kernel_seconds()
            factor = calibrate.scale(before, after)
            scaled += [s * factor for s in chunk]
            wall += sum(chunk)
            before, start = after, i + 1
    return results, scaled, wall


def traced_pass(workload, inputs, tracer) -> tuple[list, float]:
    """(results, calibration factor) of one traced pass from a cleared cache."""
    from perfbench import calibrate, tracing, workloads

    workloads.MOMENT_TABLE.cache_clear()
    before = calibrate.kernel_seconds()
    with tracing.instrumented(tracer):
        results = tracer.wrap(tracing.ROOT, workload.execute)(inputs)
    return results, calibrate.scale(before, calibrate.kernel_seconds())


def statuses(queries) -> list[str]:
    return [o.status for outputs in queries for o in outputs]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "bmfactor" / "__init__.py").is_file():
        print(f"error: no bmfactor sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    import numpy as np
    import scipy

    import bmfactor
    from perfbench import stats, tracing, workloads

    if Path(bmfactor.__file__).resolve().parent != SRC / "bmfactor":
        print(f"error: imported bmfactor from {bmfactor.__file__}, not {SRC}", file=sys.stderr)
        return 2

    # Calibration and measured work must share a CPU; children inherit the pin.
    with contextlib.suppress(AttributeError, OSError):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    workload = workloads.make(args.workload)
    tally = workloads.Tally(workloads.load_baseline(args.workload))
    rng = np.random.default_rng(args.seed)
    record: dict = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__, "nproc": os.cpu_count(),
    }
    if args.trace:
        imports = import_seconds()
    else:
        setup_factor, setup_walls = setup_seconds(args.workload, args.seed)
        record["setup_wall_s"] = setup_walls
        record["setup_calibration_factor"] = setup_factor

    untraced_pass(workload, workload.pass_inputs(rng))  # first calls load LAPACK paths

    latencies, pass_qps, pass_wall = [], [], []
    untraced_s = traced_s = 0.0
    hits = misses = passes = 0
    layers: dict[str, dict[str, float]] = {}
    tracer = tracing.Tracer()
    deadline = time.perf_counter() + args.seconds
    while passes == 0 or time.perf_counter() < deadline:
        inputs = workload.pass_inputs(rng)
        results, scaled, wall = untraced_pass(workload, inputs)
        queries, problems = workload.check(inputs, results)
        tally.add(queries, problems)
        latencies += scaled
        pass_qps.append(len(queries) / sum(scaled))
        pass_wall.append(wall)
        untraced_s += sum(scaled)
        passes += 1
        if not args.trace:
            continue
        traced, factor = traced_pass(workload, inputs, tracer)
        if statuses(workload.check(inputs, traced)[0]) != statuses(queries):
            tally.problems.append("a traced pass returned different outcomes")
        info = workloads.MOMENT_TABLE.cache_info()
        hits, misses = hits + info.hits, misses + info.misses
        totals = tracing.layer_totals(tracer.spans)
        root_s = sum(end - start for layer, _p, start, end, _r in tracer.spans if layer == tracing.ROOT)
        self_sum = sum(t["self_s"] for t in totals.values())
        if abs(self_sum - root_s) > 1e-9 * max(root_s, 1.0):
            tally.problems.append(f"layer self times sum to {self_sum} s, root span is {root_s} s")
        traced_s += root_s * factor
        for layer, entry in totals.items():
            acc = layers.setdefault(layer, {"calls": 0, "failed": 0, "self_s": 0.0})
            acc["calls"] += entry["calls"]
            acc["failed"] += entry["failed"]
            acc["self_s"] += entry["self_s"] * factor
        tracer.spans.clear()

    metrics: dict[str, tuple[float, str]] = {}
    if args.trace:
        for layer in SELF_TIME_LAYERS:
            metrics[f"{layer}.self_s"] = (layers.get(layer, {}).get("self_s", 0.0) / passes, "s")
        metrics["trace.remainder_s"] = (layers[tracing.ROOT]["self_s"] / passes, "s")
        for layer in CALL_LAYERS:
            metrics[f"{layer}.calls"] = (layers.get(layer, {}).get("calls", 0) / passes, "count")
        for layer in FAIL_LAYERS:
            entry = layers.get(layer, {"calls": 0, "failed": 0})
            ratio = entry["failed"] / entry["calls"] if entry["calls"] else 0.0
            metrics[f"{layer}.fail_ratio"] = (ratio, "ratio")
        ratio = hits / (hits + misses) if hits + misses else 0.0
        metrics["special.moment_table.hit_ratio"] = (ratio, "ratio")
        for package, seconds in imports.items():
            metrics[f"import.{package}_s"] = (seconds, "s")
        metrics["trace.overhead_ratio"] = (traced_s / untraced_s, "ratio")
        metrics["check.fail_ratio"] = (tally.fail_ratio, "ratio")
        metrics["check.wrong_ratio"] = (tally.wrong_ratio, "ratio")
        metrics["check.max_rel_err"] = (tally.max_rel_err, "ratio")
        record["layers_per_pass"] = {
            k: {m: v / passes for m, v in e.items()} for k, e in sorted(layers.items())}
    else:
        metrics["setup_s"] = (statistics.median(setup_walls) * setup_factor, "s")
        metrics["throughput_qps"] = (statistics.median(pass_qps), "1/s")
        metrics["latency_p50_ms"] = (statistics.median(latencies) * 1e3, "ms")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")

    p90 = stats.percentile(latencies, 90)
    report = {
        **metrics,
        "latency_p90_ms": (None if p90 is None else p90 * 1e3, "ms"),
        "fail_ratio": (tally.fail_ratio, "ratio"),
        "wrong_ratio": (tally.wrong_ratio, "ratio"),
        "max_rel_err": (tally.max_rel_err, "ratio"),
    }
    record.update({
        "passes": passes, "pass_wall_s": pass_wall, "latency_samples": len(latencies),
        "attempted": tally.attempted, "failed": tally.failed, "wrong": tally.wrong,
        "correct": tally.correct, "worst_query": tally.worst, "problems": tally.problems,
        "regressions": sorted(tally.regressions), "not_ok_outputs": tally.bad_keys,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in report.items()},
    })
    results_dir = ROOT / "perfbench" / "results"
    results_dir.mkdir(exist_ok=True)
    out_file = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: python {record['python']}, "
          f"numpy {record['numpy']}, scipy {record['scipy']}, nproc {record['nproc']}")
    print(f"passes {passes}, latency samples {len(latencies)}, queries {tally.attempted}"
          + ("" if args.trace else f", setup samples {len(setup_walls)}"))
    for name, (value, unit) in report.items():
        shown = "n/a (fewer than 10 samples beyond p90)" if value is None else f"{value:.6g} {unit}"
        note = f"   worst: {tally.worst}" if name == "max_rel_err" and tally.worst else ""
        print(f"  {name:34s} {shown}{note}")
    print(f"correct {tally.correct}: {len(tally.regressions)} outputs worse than the baseline, "
          f"{len(tally.problems)} problems; record in {out_file.relative_to(ROOT)}")
    for line in tally.problems + sorted(tally.regressions)[:10]:
        print(f"  ! {line}")
    wrong = sorted(k for k, status in tally.bad_keys.items() if status == workloads.WRONG)
    if wrong:
        shown = ", ".join(wrong) if len(wrong) <= 40 else f"{wrong[0]}, ... (all in the record)"
        print(f"{len(wrong)} distinct wrong outputs: {shown}")
    print(json.dumps({
        "correct": tally.correct, "attempted": tally.attempted, "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
