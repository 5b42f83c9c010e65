"""Benchmark entry point; run from the repository root.

    python3 perfbench/run.py --workload train-2d-enc --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

One workload runs in this process.  Comment lines (``# ...``) report the
machine, the workload's own figures and any failed checks; the last line is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics of BENCHMARK.json with ``--trace 0``, its per-layer
metrics with ``--trace 1``.  ``--workload all`` runs every workload untraced
and traced in child processes and prints one table, with the tracing
overhead.  Results go to ``perfbench/work/`` (removed scratch aside).
"""

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / "work"
WORKLOAD_NAMES = ("train-2d-enc", "train-3d-bot", "infer-3d", "gradcheck")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = 1


def _cap_blas_threads() -> None:
    """Pin BLAS to one thread (before numpy loads).

    On the 2-vCPU machine the benchmark was built on, two OpenBLAS threads
    were 7-10% faster when nothing else ran but 1.5-2.5x slower while another
    process competed, and their run-to-run spread was wider; see README.md.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)


def _machine(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": platform.processor() or platform.machine(),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "seed": seed,
    }


def _fresh_import_seconds(times: int) -> float:
    """Median wall time of starting an interpreter and importing the package.

    Measured in fresh processes, because this process imports only once and
    that one import is the noisiest part of set-up.  No timeout: waiting
    with one polls the child in steps of up to 50 ms."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    samples = []
    for _ in range(times):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import xlunet"], env=env, cwd=ROOT, check=True)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def run_one(args) -> int:
    _cap_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH))
    import workloads
    from spans import Tracer

    import_s = time.perf_counter() - PROCESS_START
    fresh_import_s = None if args.trace else _fresh_import_seconds(workloads.SETUPS)
    run_dir = WORK / f"run-{args.workload}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    ctx = workloads.Context(args.seed, args.seconds, run_dir, tracer)
    try:
        o = workloads.WORKLOADS[args.workload](ctx)
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(run_dir, ignore_errors=True)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if not o.op_ms:
        print("no operation completed in the time given", file=sys.stderr)
        return 1

    op_s = sum(o.op_ms) / 1000.0
    tail_ms, tail_label = workloads.tail(o.op_ms)
    if tracer is None:
        metrics = {
            "setup_s": (fresh_import_s + o.setup_s, "s"),
            "op_p50_ms": (statistics.median(o.op_ms), "ms"),
            "op_tail_ms": (tail_ms, "ms"),
            "work_per_s": (o.work / op_s, "1/s"),
            "peak_rss_mb": (rss_mb, "MB"),
        }
    else:
        metrics = tracer.layer_metrics(o.units, op_s)
        metrics["trace.op_p50_ms"] = (statistics.median(o.op_ms), "ms")
        metrics["trace.spans"] = (tracer.total_spans, "count")
        tracer.write(WORK / f"TRACE_{args.workload}.jsonl.gz")

    report = dict(o.report)
    report["fail_ratio"] = (o.failed / o.attempted, "ratio")
    machine = _machine(args.seed)
    result = {
        "correct": o.failed == 0,
        "attempted": o.attempted,
        "failed": o.failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    record = dict(result, workload=args.workload, seconds=args.seconds, trace=args.trace,
                  machine=machine, ops=len(o.op_ms), tail=tail_label, work_unit=o.work_unit,
                  import_s=import_s, fresh_import_s=fresh_import_s, report={k: {"value": v, "unit": u} for k, (v, u) in report.items()},
                  problems=o.problems, op_ms=o.op_ms)
    (WORK / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )

    print(f"# workload {args.workload}: {len(o.op_ms)} timed operations, work in {o.work_unit},"
          f" op_tail_ms is the {tail_label}")
    print("# machine " + json.dumps(machine))
    for name, (value, unit) in report.items():
        print(f"# {name} = {value:.6g} {unit}")
    for problem in o.problems:
        print(f"# FAILED: {problem}")
    print(json.dumps(result))
    return 0


# ---------------------------------------------------------------------------
# every workload, untraced and traced


def _child(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, list[str]]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=900)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} (trace {trace}) exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), [line for line in lines[:-1] if line.startswith("# ")]


def run_all(args) -> int:
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOAD_NAMES:
        plain, notes = _child(workload, args.seed, args.seconds, 0)
        traced, _ = _child(workload, args.seed, args.seconds, 1)
        m = plain["metrics"]
        print(f"== {workload}  (seed {args.seed}, {args.seconds} s)")
        for note in notes:
            print("   " + note[2:])
        for name, value in m.items():
            print(f"   {name:<24} {value['value']:>12.6g} {value['unit']}")
        overhead = traced["metrics"]["trace.op_p50_ms"]["value"] / m["op_p50_ms"]["value"] - 1.0
        print(f"   {'tracing_overhead':<24} {100 * overhead:>12.3g} %")
        for name, value in traced["metrics"].items():
            print(f"   {name:<24} {value['value']:>12.6g} {value['unit']}")
        for run in (plain, traced):
            summary["correct"] &= run["correct"]
            summary["attempted"] += run["attempted"]
            summary["failed"] += run["failed"]
        for name, value in m.items():
            summary["metrics"][f"{workload}.{name}"] = value
        summary["metrics"][f"{workload}.tracing_overhead"] = {"value": 100 * overhead, "unit": "%"}
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "xlunet" / "__init__.py").is_file():
        print(f"{ROOT}: no src/xlunet package to benchmark", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
