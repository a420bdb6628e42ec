"""Benchmark entry point: one workload per process, or every workload in turn.

    python3 perfbench/run.py --workload fit_30x30x10 --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  The report goes to standard output: the environment record, every
metric by name with its unit, and every failed check.  The last line is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` every odd-numbered operation is traced and the metrics are the
per-layer ones.  A full record (and, when tracing, the spans) is written under
``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("fit_30x30x10", "cv_10x10x5", "data_30x30x10")
# BLAS threads are pinned because on two cores the default (one OpenBLAS
# thread per core under each of the solver's mode threads) oversubscribes and
# makes fit times too unsteady to compare.  SLTR_THREADS is cleared so the
# solver runs at its own default, one mode thread per CPU.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
# Importing numpy and scipy varies by 10-20% from one interpreter to the next.
IMPORT_PROBES = 7
MIN_OPS = 2


def pin_threads():
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("SLTR_THREADS", None)


def git_sha():
    """Commit of the checkout, or ``unknown`` outside a git work tree."""
    # The ceiling keeps git from finding a repository above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=60)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment(seed):
    import numpy
    import scipy

    from sltr.solver import default_thread_count

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (AttributeError, KeyError, TypeError):
        blas = {"name": "unknown", "version": "unknown"}
    return {
        "cpu_count": os.cpu_count(),
        "thread_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS + ("SLTR_THREADS",)},
        "solver_threads": default_thread_count(),
        "blas": blas,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": git_sha(),
        "seed": seed,
    }


def percentile_report(times):
    """The median, and the p90 when at least ten samples lie beyond it."""
    out = {"p50": statistics.median(times)}
    if len(times) >= 100:
        out["p90"] = statistics.quantiles(times, n=10, method="inclusive")[8]
    return out


def lower_quartile(times):
    if len(times) < 2:
        return times[0]
    return statistics.quantiles(times, n=4, method="inclusive")[0]


IMPORT_PROBE = "import time; t = time.perf_counter(); import sltr; print(time.perf_counter() - t)"


def import_seconds():
    """Median time to import the package, each time in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    runs = [float(subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, check=True,
                                 capture_output=True, text=True, timeout=120).stdout)
            for _ in range(IMPORT_PROBES)]
    return statistics.median(runs)


def run_op(wl, st, i, k, tracer):
    """Run operation ``i`` on input ``k``, traced when a tracer is given."""
    if tracer is None:
        return wl.op(st, k)
    with tracer.installed(), tracer.op(i):
        return wl.op(st, k)


def measure(wl, seed, seconds, trace, workdir, import_s=0.0):
    """Set up, run the reference operation, then the timed closed loop; return the record."""
    import spans

    tracer = spans.Tracer() if trace else None
    build_s = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        if tracer is None:
            st = wl.build(seed, workdir)
        else:
            with tracer.installed(), tracer.op(spans.SETUP_OP, "setup"):
                st = wl.build(seed, workdir)
        build_s.append(time.perf_counter() - t)

    failures, quality = [], {}
    attempted = failed = 0
    if hasattr(wl, "reference"):
        try:
            quality, reasons = wl.reference(st)
        except Exception as exc:  # a broken program must not stop the run; record why
            reasons = [f"{type(exc).__name__}: {exc}"]
        failures += [("reference", r) for r in reasons]
        attempted, failed = 1, int(bool(reasons))

    times = {False: [], True: []}
    cpu_times, traced_ops, pairs = [], [], {}
    deadline = time.perf_counter() + seconds
    i = 0
    while i < MIN_OPS or time.perf_counter() < deadline:
        # A traced run goes in pairs on one input: untraced, then traced.
        traced = tracer is not None and i % 2 == 1
        k = i // 2 if tracer is not None else i
        # process_time() is the CPU time of every thread of the process.
        t, c = time.perf_counter(), time.process_time()
        try:
            out, reasons = run_op(wl, st, i, k, tracer if traced else None), []
        except Exception as exc:  # a failed operation is counted and the loop goes on
            out, reasons = None, [f"{type(exc).__name__}: {exc}"]
        dt, cpu = time.perf_counter() - t, time.process_time() - c
        if out is not None:
            reasons = wl.check(st, k, out)
        del out
        times[traced].append(dt)
        pairs.setdefault(k, {})[traced] = dt
        if traced:
            traced_ops.append(i)
        else:
            cpu_times.append(cpu)
        failures += [(i, r) for r in reasons]
        attempted += 1
        failed += int(bool(reasons))
        i += 1

    untraced = times[False]
    pct = percentile_report(untraced)
    end_to_end = {
        "op_cpu_s.p50": (statistics.median(cpu_times), "s"),
        "op_s.p25": (lower_quartile(untraced), "s"),
        "setup_s": (import_s + statistics.median(build_s), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    report = {f"{wl.op_label}.{name}": (v, "s") for name, v in pct.items()}
    report[f"{wl.op_label}.n"] = (len(untraced), "count")
    report.update(wl.report(st))
    report.update(quality)
    report["failed_frac"] = (failed / attempted, "ratio")

    layers = {}
    if tracer is not None:
        layers = spans.layer_metrics(tracer.spans, traced_ops)
        layers["solver.fit_1thread_s"] = quality.get("solver.fit_1thread_s", (0.0, "s"))
        layers["trace.overhead_s"] = (statistics.median(
            p[True] - p[False] for p in pairs.values() if len(p) == 2), "s")
    return {
        "workload": wl.name,
        "seed": seed,
        "trace": int(trace),
        "op_count": len(untraced),
        "traced_op_count": len(times[True]),
        "import_s": import_s,
        "build_s": build_s,
        "op_times_s": untraced,
        "op_cpu_times_s": cpu_times,
        "traced_op_times_s": times[True],
        "end_to_end": end_to_end,
        "report": report,
        "per_layer": layers,
        "failures": failures,
        "attempted": attempted,
        "failed": failed,
    }, tracer


def print_report(record, env):
    print(f"# environment {json.dumps(env, sort_keys=True)}")
    print(f"# workload {record['workload']} seed={record['seed']} trace={record['trace']} "
          f"ops={record['op_count']} traced_ops={record['traced_op_count']}")
    rows = {**record["end_to_end"], **record["report"], **record["per_layer"]}
    for name, (value, unit) in rows.items():
        print(f"{name:32s} {value!r} {unit}")
    for op, reason in record["failures"]:
        print(f"# FAILED op {op}: {reason}")


def run_one(args):
    pin_threads()
    sys.path.insert(0, str(SRC))
    import workloads

    import_s = import_seconds()
    env = environment(args.seed)
    wl = workloads.WORKLOADS[args.workload]
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir) as workdir:
        record, tracer = measure(wl, args.seed, args.seconds, args.trace, workdir, import_s)
    record["environment"] = env
    stem = out_dir / f"{wl.name}-seed{args.seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1, default=str))
    if tracer is not None:
        tracer.save(f"{stem}.spans.npz")
    print_report(record, env)
    metrics = record["per_layer"] if args.trace else record["end_to_end"]
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def run_all(args):
    """Each workload in a fresh interpreter, one after the other."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        status = max(status, subprocess.run(cmd, timeout=900).returncode)
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 0:
        parser.error("--seconds must be >= 0")
    if not (SRC / "sltr" / "__init__.py").is_file():
        print(f"error: no sltr source tree at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
