"""Benchmark of the stiefel-retractions package, built from this checkout's src/.

    python3 perfbench/run.py --workload pullback --seed 1 --seconds 50 --trace 0

--trace 0 measures the end-to-end metrics with nothing traced. --trace 1
traces one set-up, then alternates untraced and traced passes over the
inputs and reports the per-layer metrics; the untraced passes are the
reference for the tracing overhead. A readable report goes to standard
output; its last line is the JSON result. The full result, with
provenance, diagnostics and computed work counts, is written to
perfbench/out/, and --trace 1 also writes the spans there.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

import tracing
import workcount

# Fixed for this process before numpy loads; one thread gave the
# steadiest timings on a 2-core machine.
BLAS_THREADS = 1
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

RET_INV = workcount.RETRACTION_FNS
KERNELS = workcount.KERNELS
BENCH_FNS = ("gen_triple", "error_curve", "convergence_slope", "emit_report")


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _import_package():
    """Import stiefel_retractions from ROOT/src, or return None when it is not there."""
    src = ROOT / "src"
    if not (src / "stiefel_retractions" / "__init__.py").is_file():
        return None
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(src))
    import stiefel_retractions as sr
    import stiefel_retractions.cli  # noqa: F401  (sets sr.cli)

    if Path(sr.__file__).resolve().parent.parent != src:
        return None
    return sr


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def provenance(seed: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads_set": BLAS_THREADS,
        "blas_thread_vars": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "seed": seed,
    }


def _ms(seconds: float) -> float:
    return 1e3 * seconds


def end_to_end(setup_times, loop) -> dict:
    """User-visible metrics of one untraced loop.

    Latencies are 75th percentiles: on a shared machine whose speed
    drifts by +-20% over tens of seconds, the 75th percentile of a
    50-second run repeated far more closely across runs than the median.
    """
    stats = loop.stats
    p75 = tracing.p75_or_zero
    m = {
        "setup_s": (statistics.median(setup_times), "s"),
        "roundtrip_per_s": (stats.roundtrips / loop.seconds, "1/s"),
        "ok_frac": (stats.outcomes["ok"] / stats.attempted, "frac"),
    }
    for fn in ("pf_inv", "pl_inv", "pl_cay_inv", "pf_ret", "pl_ret", "pl_cay_ret"):
        m[f"{fn}_p75_ms"] = (_ms(p75(stats.latency[fn])), "ms")
    m["experiment_p75_s"] = (p75(stats.unit_s), "s")
    return m


def _layer_targets(sr) -> tuple[dict, list, list]:
    from stiefel_retractions import bench, cli, core, matfun, retractions

    targets = {f"matfun.{k}": getattr(matfun, k) for k in KERNELS}
    targets |= {f"retractions.{fn}": getattr(retractions, fn) for fn in RET_INV}
    targets |= {f"core.{fn}": getattr(core, fn) for fn in ("exp_beta", "rand_point", "rand_tangent")}
    targets |= {f"bench.{fn}": getattr(bench, fn) for fn in BENCH_FNS}
    targets["cli.main"] = cli.main
    modules = [sr, matfun, core, retractions, bench, cli]
    return targets, modules, [retractions.RETRACTION_PAIRS]


def per_layer(wl, spans, traced, ref, setup_wall) -> dict:
    """Per-layer metrics of the traced passes; `ref` holds the untraced passes."""
    loop = tracing.aggregate(spans, ("loop",))
    both = tracing.aggregate(spans, ("setup", "loop"))
    empty = tracing.Aggregate()
    med = tracing.median_or_zero
    wall = traced.seconds
    m = {}
    for k in KERNELS:
        a = loop.get(f"matfun.{k}", empty)
        m[f"matfun.{k}.calls"] = (a.calls, "count")
        m[f"matfun.{k}.p50_ms"] = (_ms(med(a.durations)), "ms")
        m[f"matfun.{k}.busy_frac"] = (a.busy / wall, "frac")
        m[f"matfun.{k}.refused"] = (a.refused, "count")
    flops = 0
    for fn in RET_INV:
        a = loop.get(f"retractions.{fn}", empty)
        bad = traced.stats.bad.get(fn, {})
        m[f"retractions.{fn}.self_p50_ms"] = (_ms(med(a.self_times)), "ms")
        m[f"retractions.{fn}.busy_frac"] = (a.busy / wall, "frac")
        m[f"retractions.{fn}.tail_ms"] = (_ms(tracing.tail(a.self_times)), "ms")
        m[f"retractions.{fn}.samples"] = (a.calls, "count")
        m[f"retractions.{fn}.wrong"] = (len(bad.get("wrong", ())), "count")
        m[f"retractions.{fn}.refused"] = (len(bad.get("refused", ())), "count")
        flops += a.calls * workcount.retraction_body(fn, wl.n, wl.p)[0]
    ret_self = sum(loop.get(f"retractions.{fn}", empty).busy for fn in RET_INV)
    m["retractions.self_gflops"] = (flops / ret_self / 1e9, "GFLOP/s")
    for fn in ("rand_point", "rand_tangent", "exp_beta"):
        a = both.get(f"core.{fn}", empty)
        m[f"core.{fn}.calls"] = (a.calls, "count")
        if fn != "exp_beta":  # exp_beta runs on geodesic_edge only
            m[f"core.{fn}.p50_ms"] = (_ms(med(a.durations)), "ms")
        m[f"core.{fn}.busy_frac"] = (a.busy / (wall + setup_wall), "frac")
    # bench and cli run on geodesic_edge only: shares, not absolute times
    for fn in BENCH_FNS:
        m[f"bench.{fn}.self_frac"] = (loop.get(f"bench.{fn}", empty).busy / wall, "frac")
    m["bench.emit_report.bytes_written"] = (traced.stats.bytes_written, "bytes")
    a = loop.get("cli.main", empty)
    m["cli.main.calls"] = (a.calls, "count")
    m["cli.main.busy_frac"] = (a.busy / wall, "frac")
    m["trace.overhead_frac"] = (
        (traced.seconds / traced.passes) / (ref.seconds / ref.passes) - 1.0, "frac")
    pl_inv = med(loop.get("retractions.pl_inv", empty).durations)
    m["trace.pl_inv_gap_frac"] = (
        pl_inv / statistics.median(ref.stats.latency["pl_inv"]) - 1.0, "frac")
    return m


def _absolute_layer_times(spans) -> dict:
    """Per traced name, for the report: calls, p50 duration and total self time."""
    out = {}
    for name, a in sorted(tracing.aggregate(spans, ("setup", "loop")).items()):
        out[name] = {"calls": a.calls, "p50_ms": _ms(statistics.median(a.durations)),
                     "self_s": a.busy}
    return out


def _problems(wl, stats) -> list[str]:
    """Reasons the outputs of one loop are not correct; empty when they are."""
    problems = [e.splitlines()[0] for e in stats.errors]
    if stats.outcomes["crashed"]:
        problems.append(f"{stats.outcomes['crashed']} operations crashed")
    if wl.pool == "edge":
        # failures at the domain edges are the measurement; they must repeat on every pass
        unstable = sorted(k for k, v in stats.classes.items() if len(v) > 1)
        if unstable:
            problems.append(f"outcome changed between passes for {unstable}")
    elif stats.failed:
        problems.append(f"{stats.failed} of {stats.attempted} operations failed")
    return problems


def main(argv=None) -> int:
    args = _parse(argv)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sr = _import_package()
    if sr is None:
        print(f"perfbench: package source not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    outdir = HERE / "out"
    outdir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result = {"workload": args.workload, "n": wl.n, "p": wl.p,
              "provenance": provenance(args.seed),
              "computed_work_per_call": workcount.table(wl.n, wl.p)}

    if args.trace == 0:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            state = workloads.setup(sr, args.workload, args.seed, outdir)
            setup_times.append(time.perf_counter() - t0)
        (main_loop,) = workloads.run_loop(sr, state, args.seconds)
        loops = [main_loop]
        metrics = end_to_end(setup_times, main_loop)
    else:
        tracer = tracing.Tracer((sr.DomainError, sr.ValidationError))
        targets = _layer_targets(sr)
        t0 = time.perf_counter()
        with tracer.installed(*targets):
            state = workloads.setup(sr, args.workload, args.seed, outdir)
        setup_wall = time.perf_counter() - t0
        tracer.phase = "loop"
        ref, main_loop = loops = workloads.run_loop(
            sr, state, args.seconds, (contextlib.nullcontext, lambda: tracer.installed(*targets)))
        metrics = per_layer(wl, tracer.spans, main_loop, ref, setup_wall)
        tracer.write(outdir / f"{stem}-spans.jsonl")
        result["layer_times"] = _absolute_layer_times(tracer.spans)

    stats = main_loop.stats
    diag = workloads.input_diagnostics(state)
    diag |= {"max_orth_defect": max(lp.stats.max_defect for lp in loops),
             "max_roundtrip_residual": max(lp.stats.max_residual for lp in loops)}
    if args.trace == 1:
        metrics |= {f"diag.{k}": (v, "1") for k, v in diag.items()}
    problems = [p for lp in loops for p in _problems(wl, lp.stats)]
    attempted = sum(lp.stats.attempted for lp in loops)
    failed = sum(lp.stats.failed for lp in loops)
    failures = {fn: {cls: sorted(labels) for cls, labels in c.items()}
                for fn, c in stats.bad.items()}
    result |= {"passes": main_loop.passes, "loop_s": main_loop.seconds,
               "outcomes": dict(stats.outcomes), "failures": failures,
               "diagnostics": diag, "problems": problems,
               "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    (outdir / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n")

    print(f"workload {args.workload}: n={wl.n} p={wl.p} seed={args.seed} "
          f"passes={main_loop.passes} loop={main_loop.seconds:.2f}s")
    print("provenance " + json.dumps(result["provenance"]))
    print("outcomes " + json.dumps(result["outcomes"]) + " failures " + json.dumps(failures))
    print("diagnostics " + json.dumps(diag))
    for p in problems:
        print(f"NOT CORRECT: {p}")
    for k, (v, u) in metrics.items():
        print(f"  {k:42s} {v:.6g} {u}")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
