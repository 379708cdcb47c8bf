"""lti2mpc benchmark: one workload per run, timings end to end or traced.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload surrogate-search --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.  The unit
of work is one surrogate search (serial, or with ``workers=2`` in
surrogate-search-w2), one replay pass or one CLI session; its wall times
are printed as search_s, search_w2_s, replay_s or session_s.  The metrics
are:

wall_rel     median over units of the unit's wall time divided by the time
             of the calibration kernel run around it (see calibration.py):
             the unit's cost with the host's speed drift cancelled
setup_s      median over several fresh processes of the time from the first
             import to inputs ready (surrogate plus forced_S,
             ``scenario_library()``, or the CLI configs), each scaled by the
             calibration kernel run right after it to a host on which one
             kernel pass takes CALIBRATION_PASS_S; the raw median is
             printed as setup_wall_s
peak_rss_mb  peak resident memory of the measuring process

``--trace 1`` wraps the package's public functions (see layers.py),
alternates untraced and traced serial units, and prints the per-layer
metrics plus the tracing overhead.  Spans are kept in memory and written
to ``.perfbench/`` when the run ends.

The names and units of the reported metrics are those of BENCHMARK.json;
a metric named there that the run does not compute is a failed check.
Each timing is printed with its sample count, its median and the highest
percentile that has at least ten samples beyond it.  Every output is
checked (see checks.py); ``attempted`` counts checks, ``failed`` counts
failed checks and exceptions, and fail_ratio = failed / attempted.  The
last line of standard output is the result as one JSON object.

BLAS is pinned to one thread per process before numpy loads, so the
``workers=2`` search never runs more than two compute threads; every
OpenBLAS that numpy and scipy load must report one thread.
"""

import os
import time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
_T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_SAMPLES = 5
SETUP_CALIBRATION_PASSES = 3
# A shared host's speed changes in spells of about a second, so a
# calibration block must be long enough to average over a few of them.
CALIBRATION_SHARE = 0.15


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    help="surrogate-search, surrogate-search-w2, replay-constrained, "
                         "cli-session, or all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full",
                    help="smoke: every workload at its minimal size")
    ap.add_argument("--setup-probe", action="store_true",
                    help="set up only and print the set-up seconds")
    return ap.parse_args(argv)


_THREAD_SYMBOLS = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                   "openblas_get_num_threads64_", "openblas_get_num_threads")


def blas_info():
    """Every OpenBLAS bundled with numpy and scipy: package, library file and
    the thread count it reports at run time (None if it exports no known
    thread query), plus the BLAS name and version each package was built with."""
    import ctypes

    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  (loads scipy's BLAS)

    info = {"build": {}, "libraries": []}
    for pkg in (numpy, scipy):
        try:
            blas = pkg.show_config(mode="dicts")["Build Dependencies"]["blas"]
            info["build"][pkg.__name__] = f"{blas.get('name')} {blas.get('version')}"
        except (KeyError, TypeError):
            info["build"][pkg.__name__] = "unknown"
        libdir = Path(pkg.__file__).parent.parent / f"{pkg.__name__}.libs"
        for lib in sorted(libdir.glob("*openblas*.so*")):
            entry = {"package": pkg.__name__, "library": lib.name, "threads": None}
            try:
                handle = ctypes.CDLL(str(lib))
            except OSError:
                handle = None
            for sym in _THREAD_SYMBOLS:
                fn = getattr(handle, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    entry["threads"] = int(fn())
                    break
            info["libraries"].append(entry)
    return info


def check_blas(checks, blas):
    """numpy and scipy each load an OpenBLAS that reports exactly one thread;
    a library whose thread count cannot be read fails the check."""
    for pkg in ("numpy", "scipy"):
        libs = [lib for lib in blas["libraries"] if lib["package"] == pkg]
        checks.check(libs, f"no OpenBLAS found under {pkg}.libs; thread count unmeasured")
        for lib in libs:
            checks.check(lib["threads"] == 1,
                         f"{pkg} BLAS {lib['library']} reports {lib['threads']} threads, "
                         "expected 1")


def machine_info():
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_info(),
        "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
        "platform": platform.platform(),
    }


def timing_stats(values):
    """Median, sample count and the highest percentile with >= 10 samples beyond it."""
    from tracer import percentile

    n = len(values)
    out = {"n": n, "median": statistics.median(values) if values else 0.0}
    q = int(100.0 * (1.0 - 10.0 / n)) if n else 0
    if q > 50:
        out[f"p{q}"] = percentile(values, q)
    return out


def setup_probe(args):
    """Seconds a fresh process takes from the first import to inputs ready,
    and the calibration kernel's pass time measured right after."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--size", args.size, "--setup-probe"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    wall, cal = proc.stdout.strip().splitlines()[-1].split()
    return float(wall), float(cal)


def measure(wl, rng, checks, seconds):
    """Repetitions of the unit for about ``seconds``: a repetition starts
    only if it would end closer to the deadline than stopping now.

    The calibration kernel runs before the first unit and after every unit,
    for CALIBRATION_SHARE of the first unit's time; each unit's relative
    cost is its wall time over the mean of the kernel times on either side.
    """
    from calibration import calibrate

    samples = {"wall_s": [], "wall_rel": [], "calibration_s": [calibrate()]}
    passes = 0
    rep_times = []
    t_end = time.perf_counter() + seconds
    while True:
        t_rep = time.perf_counter()
        try:
            gc.collect()
            t0 = time.perf_counter()
            out = wl.run(rng)
            wall = time.perf_counter() - t0
            cal = samples["calibration_s"]
            passes = passes or round(CALIBRATION_SHARE * wall / cal[-1])
            cal.append(calibrate(passes))
            samples["wall_s"].append(wall)
            samples["wall_rel"].append(wall / (0.5 * (cal[-2] + cal[-1])))
            wl.check(out, checks)
        except Exception as exc:  # a failing unit is counted, the run goes on
            traceback.print_exc()
            checks.exception(wl.name, exc)
        out = None  # the next unit starts without this one's results alive
        rep_times.append(time.perf_counter() - t_rep)
        if time.perf_counter() + 0.5 * statistics.median(rep_times) >= t_end:
            return samples


def measure_traced(wl, rng, checks, seconds):
    """Alternate untraced and traced serial units (``wl.traced_unit``);
    per-layer medians."""
    from layers import KEEP_CALLS, TARGETS, layer_metrics
    from tracer import Tracer

    tracer = Tracer()
    walls = {False: [], True: []}
    per_rep = []
    summaries = []
    rep_times = []
    t_end = time.perf_counter() + seconds
    while True:
        t_rep = time.perf_counter()
        order = [False, True]
        rng.shuffle(order)
        for traced in order:
            try:
                gc.collect()
                if traced:
                    tracer.rep_id = len(per_rep)
                    tracer.install(TARGETS, KEEP_CALLS)
                try:
                    t0 = time.perf_counter()
                    out = wl.traced_unit(rng)
                    walls[traced].append(time.perf_counter() - t0)
                finally:
                    tracer.uninstall()
                wl.check(out, checks)
                if traced:
                    m, summary = layer_metrics(tracer, tracer.rep_id, checks)
                    per_rep.append(m)
                    summaries.append(summary)
                    for calls in tracer.records.values():
                        calls.clear()
            except Exception as exc:
                traceback.print_exc()
                checks.exception(f"{wl.name} traced={traced}", exc)
        rep_times.append(time.perf_counter() - t_rep)
        if time.perf_counter() + 0.5 * statistics.median(rep_times) >= t_end:
            break
    if not per_rep:
        return {}, walls, tracer, []
    metrics = {k: statistics.median(m[k] for m in per_rep) for k in per_rep[0]}
    untraced = statistics.median(walls[False]) if walls[False] else 0.0
    traced = statistics.median(walls[True]) if walls[True] else 0.0
    metrics["trace.untraced_s"] = untraced
    metrics["trace.traced_s"] = traced
    metrics["trace.overhead_s"] = traced - untraced
    metrics["trace.spans"] = len(tracer.names) / len(per_rep)
    metrics["trace.absent"] = len(tracer.absent)
    return metrics, walls, tracer, summaries


def print_layer_table(summaries):
    """Calls, inclusive and self seconds, p50/p99 per traced function (median rep)."""
    names = sorted({n for s in summaries for n in s})
    print(f"{'span':40s} {'calls':>8s} {'incl_s':>10s} {'self_s':>10s} "
          f"{'p50_us':>10s} {'p99_us':>10s}")
    from tracer import percentile

    for name in names:
        rows = [s[name] for s in summaries if name in s]
        durations = [d for r in rows for d in r["durations"]]
        print(f"{name:40s} {statistics.median(r['calls'] for r in rows):8.0f} "
              f"{statistics.median(r['s'] for r in rows):10.4f} "
              f"{statistics.median(r['self_s'] for r in rows):10.4f} "
              f"{1e6 * percentile(durations, 50):10.1f} {1e6 * percentile(durations, 99):10.1f}")


def run_all(args, workloads):
    """Every workload in a fresh process of its own, one after the other."""
    results = {}
    for name in workloads:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", repr(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600, cwd=ROOT)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "lti2mpc").is_dir():
        print(f"error: no package source at {SRC / 'lti2mpc'}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    from checks import Checks, load_reference
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args, WORKLOADS)
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    cls = WORKLOADS[args.workload]
    wl = cls(args.size, ROOT, load_reference()[cls.reference_key])
    wl.setup()
    setup_times = [time.perf_counter() - _T0]
    import lti2mpc.linalg

    from calibration import CALIBRATION_PASS_S, calibrate

    if not Path(lti2mpc.linalg.__file__).resolve().is_relative_to(SRC):
        print(f"error: lti2mpc was imported from {lti2mpc.linalg.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    setup_cal = [calibrate(SETUP_CALIBRATION_PASSES)]
    if args.setup_probe:
        wl.close()
        print(f"{setup_times[0]!r} {setup_cal[0]!r}")
        return 0

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT.mkdir(exist_ok=True)
    checks = Checks()
    rng = random.Random(args.seed)
    machine = machine_info()
    check_blas(checks, machine["blas"])
    try:
        for _ in range(SETUP_SAMPLES - 1):
            wall, cal = setup_probe(args)
            setup_times.append(wall)
            setup_cal.append(cal)
        wl.warm()
        if args.trace == 0:
            samples = measure(wl, rng, checks, args.seconds)
        else:
            metrics, walls, tracer, summaries = measure_traced(
                wl, rng, checks, args.seconds)
    finally:
        wl.close()

    tag = f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}"
    print(f"workload {args.workload} ({args.size}), seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    print("machine " + json.dumps(machine))
    detail = {"workload": args.workload, "size": args.size, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "machine": machine}
    if args.trace == 0:
        stats = {key: timing_stats(values) for key, values in samples.items()}
        stats["setup_wall_s"] = timing_stats(setup_times)
        stats["setup_s"] = timing_stats([CALIBRATION_PASS_S * wall / cal
                                         for wall, cal in zip(setup_times, setup_cal)])
        labels = {"wall_s": wl.label}
        for key, st in stats.items():
            unit = "" if key.endswith("_rel") else " s"
            parts = [f"{key:13s} {labels.get(key, key):13s} median {st['median']:.6g}{unit}"]
            parts += [f"{k} {v:.6g}{unit}" for k, v in st.items() if k.startswith("p")]
            print(" ".join(parts + [f"n={st['n']}"]))
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print(f"{'peak_rss_mb':13s} {'peak_rss_mb':13s} {peak:.6g} MB n=1")
        metrics = {k: stats[k]["median"] for k in ("wall_rel", "setup_s")}
        metrics["peak_rss_mb"] = peak
        detail["timings"] = stats
        detail["samples"] = {**samples, "setup_wall_s": setup_times,
                             "setup_calibration_s": setup_cal}
    else:
        print_layer_table(summaries)
        print(f"absent targets: {tracer.absent or 'none'}")
        for key in ("trace.untraced_s", "trace.traced_s", "trace.overhead_s"):
            print(f"{key} {metrics.get(key, 0.0):.6g} s "
                  f"(n={len(walls[key == 'trace.traced_s'])})")
        tracer.write_csv(OUT / f"spans-{tag}.csv")
        detail["walls"] = {"untraced": walls[False], "traced": walls[True]}

    named = bench["end_to_end" if args.trace == 0 else "per_layer"]
    for m in named:
        checks.check(m["name"] in metrics, f"metric {m['name']} was not computed")
    result = {"correct": checks.failed == 0, "attempted": max(checks.attempted, 1),
              "failed": checks.failed,
              "metrics": {m["name"]: {"value": float(metrics.get(m["name"], 0.0)),
                                      "unit": m["unit"]} for m in named}}
    detail["fail_ratio"] = checks.failed / max(checks.attempted, 1)
    detail["failures"] = checks.messages
    print(f"fail_ratio {detail['fail_ratio']:.6g} ({checks.failed} failed of "
          f"{checks.attempted} checks)")
    detail["result"] = result
    (OUT / f"result-{tag}.json").write_text(json.dumps(detail, indent=1, default=str))
    print(json.dumps(result))
    return 0

if __name__ == "__main__":
    sys.exit(main())
