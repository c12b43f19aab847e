"""Time-to-target benchmark for aaprox.

    python3 perfbench/run.py --workload dense_small --seed 0 --trace 0
    python3 perfbench/run.py --workload all

Run from the root of a checkout; the package is imported from ./src. Load is
a closed loop: one client in this process, and the next op starts only after
the last one returned. Each run prints a table of every metric, writes its
results to .bench_out/, and ends with one JSON line holding the metrics that
BENCHMARK.json lists for the mode (--trace 0: end to end, scaled to a nominal
host speed by workloads.HostProbe; --trace 1: per layer). Exit status is 0
when every output checked out, whether or not some ops failed; failed ops
are counted in the result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import warnings
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("dense_small", "dense_large", "kl_mirror", "libsvm_cli")
SETUP_REPS = 3
CAPTURE_PUSHES = 1000
THREAD_VARS = ("AAPROX_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS")
METHODS = ("pga", "nesterov", "aa_pga", "guarded_aa_pga", "bpg",
           "guarded_aa_bpg")
E2E_UNITS = dict(setup_s="s", plain_s="s", momentum_s="s", aa_s="s",
                 guarded_s="s", plain_tight_s="s", guarded_tight_s="s",
                 cli_run_s="s", round_s="s", failed_share="share",
                 peak_rss_mb="MB")


class BenchmarkError(RuntimeError):
    """The benchmark could not confirm that the program's output is right."""


def import_package():
    """Import aaprox from ./src before numpy, so its thread defaults apply."""
    init = os.path.join(ROOT, "src", "aaprox", "__init__.py")
    if not os.path.isfile(init):
        sys.exit("perfbench: %s not found; run from a checkout of the "
                 "repository" % os.path.relpath(init, ROOT))
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import aaprox
    if os.path.abspath(aaprox.__file__) != init:
        sys.exit("perfbench: imported aaprox from %s, not from ./src"
                 % aaprox.__file__)
    return aaprox


# -- statistics and output ----------------------------------------------------

def timing_summary(values: list[float]) -> dict:
    """Median, sample count, and the highest percentile with ten samples
    beyond it, when there are enough samples for one."""
    import numpy as np
    out = {"median": statistics.median(values), "n": len(values)}
    if len(values) > 10:
        q = int(100 * (1 - 10 / len(values)))
        out["p%d" % q] = float(np.percentile(values, q))
    return out


def metadata(workload, seed, seconds, trace, instances, jobs):
    import numpy as np
    import scipy
    cpu = "unknown"
    if os.path.exists("/proc/cpuinfo"):
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas")
    return {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "cpu": cpu, "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "blas": blas,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "commit": git_commit(),
        "load": "closed loop, one client, one process",
        "instances": [
            {"name": inst.name, "shape": inst.shape, "budgets": inst.budgets,
             "targets": {m: list(t) for m, t in inst.targets.items()},
             "reference": inst.reference} for inst in instances],
        "jobs": [{"instance": j.inst.name, "method": j.method,
                  "target": j.target, "metric": j.metric, "iters": j.iters,
                  "hit": j.hit} for j in jobs],
    }


def git_commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return "unknown (not a git checkout)"
    with open(head) as fh:
        ref = fh.read().strip()
    if ref.startswith("ref: "):
        path = os.path.join(ROOT, ".git", ref[5:])
        if not os.path.isfile(path):
            return "unknown (%s is packed)" % ref[5:]
        with open(path) as fh:
            return fh.read().strip()
    return ref


def final_line(mode_key: str, metrics: dict, units: dict, attempted: int,
               failed: int) -> str:
    """The result line; printed only when every output checked out."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        names = [m["name"] for m in json.load(fh)[mode_key]]
    missing = [n for n in names if n not in metrics]
    if missing:
        raise BenchmarkError("metrics not measured: %s" % ", ".join(missing))
    return json.dumps({
        "correct": True, "attempted": attempted, "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": units[n]}
                    for n in names}})


def print_table(title: str, rows: list[tuple[str, float, str, str]]) -> None:
    print(title)
    for name, value, unit, note in rows:
        print("  %-36s %14.6g %-6s %s" % (name, value, unit, note))


def print_jobs(instances, jobs) -> None:
    for inst in instances:
        ref = inst.reference
        print("  reference %s %s: F* = %.17g by %s, projected-gradient "
              "residual %.2e" % (inst.name, inst.shape, inst.fstar,
                                 ref["method"], ref["pg_residual"]))
    for j in jobs:
        print("  job %s %s %.0e: %d iterations%s" % (
            j.inst.name, j.method, j.target, j.iters,
            "" if j.hit else " (budget; the target was missed)"))


# -- runs ---------------------------------------------------------------------

def setup(workloads, name, seed):
    t0 = time.perf_counter()
    instances = workloads.build(name, seed, OUT)
    for inst in instances:
        workloads.reference(inst)
    jobs = workloads.calibrate(instances)
    return instances, jobs, time.perf_counter() - t0


def run_rounds(workloads, jobs, seconds, cli_dir, probe, chunks):
    """Run every job once per round until `seconds` have passed, following
    each op by probing the host for a share of its time."""
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        gc.collect()
        outcomes = []
        for job in jobs:
            outcomes.append(workloads.run_job(job, cli_dir))
            probe.follow(outcomes[-1].seconds, chunks)
        rounds.append(outcomes)
    return rounds


def end_to_end(workloads, name, seed, seconds):
    probe = workloads.HostProbe(workloads.PROBE_KIND[name])
    setup_chunks, round_chunks = [], []
    setup_times, signature = [], None
    for _ in range(SETUP_REPS):
        instances, jobs, seconds_taken = setup(workloads, name, seed)
        setup_times.append(seconds_taken)
        probe.follow(seconds_taken, setup_chunks)
        sig = [(j.inst.name, j.method, j.target, j.iters, j.hit) for j in jobs]
        if signature is not None and sig != signature:
            raise BenchmarkError("calibration differs between set-ups: the "
                                 "program is not deterministic")
        signature = sig
    cli_dir = os.path.join(OUT, "cli-" + name)
    rounds = run_rounds(workloads, jobs, seconds, cli_dir, probe, round_chunks)

    samples = {"setup_s": setup_times,
               "round_s": [sum(o.seconds for o in r) for r in rounds]}
    for metric in sorted({j.metric for j in jobs}):
        samples[metric] = [sum(o.seconds for j, o in zip(jobs, r)
                               if j.metric == metric) for r in rounds]
    summaries = {k: timing_summary(v) for k, v in samples.items()}
    attempted = len(jobs) * len(rounds)
    failures = Counter("%s %s %.0e: %s" % (j.inst.name, j.method, j.target,
                                           o.failure)
                       for r in rounds for j, o in zip(jobs, r) if o.failure)
    failed = sum(failures.values())
    speed = {k: probe.speed(setup_chunks if k == "setup_s" else round_chunks)
             for k in summaries}
    metrics = {k: s["median"] * speed[k] for k, s in summaries.items()}
    metrics["failed_share"] = failed / attempted
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)

    rows = []
    for key in E2E_UNITS:
        if key not in metrics:
            continue
        if key in summaries:
            s = summaries[key]
            note = "median of %d %s, unscaled %.6g" % (
                s["n"], "set-ups" if key == "setup_s" else "rounds",
                s["median"])
            note += "".join(", %s %.6g" % (k, v) for k, v in s.items()
                            if k.startswith("p"))
        elif key == "failed_share":
            note = "%d failed of %d attempted" % (failed, attempted)
        else:
            note = "peak resident memory of this process"
        rows.append((key, metrics[key], E2E_UNITS[key], note))
    print_jobs(instances, jobs)
    print_table("%s seed %d: end to end, %d rounds in %.1f s; times scaled "
                "to nominal host speed, x%.4f for set-up and x%.4f for rounds"
                % (name, seed, len(rounds), seconds, speed["setup_s"],
                   speed["round_s"]), rows)
    for reason, count in sorted(failures.items()):
        print("  failed %d times: %s" % (count, reason))
    results = {"metrics": metrics, "timings": summaries,
               "samples": samples, "host_speed": speed,
               "probe_chunks_s": {"setup": setup_chunks,
                                  "rounds": round_chunks},
               "attempted": attempted, "failed": failed,
               "failures": dict(failures),
               "meta": metadata(name, seed, seconds, 0, instances, jobs)}
    return results, attempted, failed, E2E_UNITS


def per_layer(workloads, tracing, name, seed, seconds):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        instances = workloads.build(name, seed, OUT)
    finally:
        tracer.uninstall()
    setup_calls, setup_total = dict(tracer.calls), dict(tracer.total)
    tracer.reset()
    for inst in instances:
        workloads.reference(inst)
    jobs = workloads.calibrate(instances)
    terms = [inst.problem.h for inst in instances]
    kernels = [inst.problem.kernel for inst in instances
               if hasattr(inst.problem, "kernel")]
    cli_dir = os.path.join(OUT, "cli-" + name)

    untraced, traced = [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        gc.collect()
        untraced.append([workloads.run_job(j, cli_dir) for j in jobs])
        first = not traced
        tracer.keep_spans = first
        tracer.capture_limit = CAPTURE_PUSHES if first else 0
        gc.collect()
        tracer.install(terms, kernels)
        try:
            base = len(traced) * len(jobs)
            traced.append([
                workloads.run_job(j, cli_dir, timer=lambda call, i=base + i:
                                  tracer.job(i, call))
                for i, j in enumerate(jobs)])
        finally:
            tracer.uninstall()
    if tracer.max_accounting_error > 1e-6:
        raise BenchmarkError("layer self times miss a job's time by %.3g of "
                             "it" % tracer.max_accounting_error)
    os.makedirs(OUT, exist_ok=True)
    tracer.save_spans(os.path.join(OUT, "spans-%s-seed%d.npz" % (name, seed)))

    R = len(traced)
    calls, total = tracer.calls, tracer.total
    layer_self = tracer.job_layer_self

    def us(span):
        return 1e6 * total[span] / calls[span] if calls.get(span) else 0.0

    m = {}
    for key in ("value", "grad", "prox", "hvalue"):
        m["problems.%s_calls" % key] = calls.get("problems." + key, 0) / R
        m["problems.%s_us" % key] = us("problems." + key)
    op_calls = setup_calls.get("problems.opnorm", 0) + calls.get(
        "problems.opnorm", 0)
    m["problems.opnorm_s"] = (setup_total.get("problems.opnorm", 0.0)
                              + total.get("problems.opnorm", 0.0)) / max(
                                  op_calls, 1)
    for key in ("push", "extrapolate", "solve", "combine", "slide"):
        m["anderson.%s_calls" % key] = calls.get("anderson." + key, 0) / R
        m["anderson.%s_us" % key] = us("anderson." + key)
    m["anderson.degenerate"] = sum(e.degenerate_count
                                   for e in tracer.engines) / R
    m["anderson.deficient"] = sum(e.deficiency_count
                                  for e in tracer.engines) / R
    m.update(tracer.replay())

    for method in METHODS:
        its = sum(o.iterations for r in traced for j, o in zip(jobs, r)
                  if j.method == method) / R
        secs = sum(o.seconds for r in untraced for j, o in zip(jobs, r)
                   if j.method == method)
        n_its = sum(o.iterations for r in untraced for j, o in zip(jobs, r)
                    if j.method == method)
        m["solvers.iters." + method] = its
        m["solvers.us_per_iter." + method] = (1e6 * secs / n_its if n_its
                                              else 0.0)
    m["solvers.guard_calls"] = calls.get("solvers.guard", 0) / R
    m["solvers.guard_us"] = us("solvers.guard")
    accepted = sum(o.accepted for r in traced for o in r)
    fallbacks = sum(o.fallbacks for r in traced for o in r)
    m["solvers.accept_share"] = accepted / max(accepted + fallbacks, 1)
    m["solvers.wasted_oracle_share"] = (tracer.wasted_calls
                                        / max(tracer.oracle_calls, 1))
    m["solvers.record_us"] = us("solvers.record")

    for key in ("kernel_grad", "conj_grad", "kernel_value", "prox", "guard"):
        m["bregman.%s_calls" % key] = calls.get("bregman." + key, 0) / R
        m["bregman.%s_us" % key] = us("bregman." + key)
    m["bregman.domain_errors"] = tracer.domain_errors / R

    def per_call_s(span, c, t):
        return t.get(span, 0.0) / c[span] if c.get(span) else 0.0

    m["datasets.generate_s"] = per_call_s("datasets.generate", setup_calls,
                                          setup_total)
    m["datasets.write_s"] = per_call_s("datasets.write", setup_calls,
                                       setup_total)
    m["datasets.parse_s"] = per_call_s("datasets.parse", calls, total)
    m["datasets.bytes"] = float(sum(os.path.getsize(inst.data_path)
                                    for inst in instances if inst.data_path))
    m["cli.trace_rows"] = sum(o.trace_rows for r in traced for o in r) / R
    m["cli.trace_bytes"] = sum(o.trace_bytes for r in traced for o in r) / R
    for layer in tracing.LAYERS:
        m["%s.self_s" % layer] = layer_self.get(layer, 0.0) / R
    m["trace_overhead"] = (
        statistics.median(sum(o.seconds for o in r) for r in traced)
        / statistics.median(sum(o.seconds for o in r) for r in untraced))

    units = {k: layer_unit(k) for k in m}
    print_jobs(instances, jobs)
    print_table("%s seed %d: per layer, %d traced and %d untraced rounds; "
                "self times per round account for each job to %.1e"
                % (name, seed, R, len(untraced), tracer.max_accounting_error),
                [(k, v, units[k], "") for k, v in sorted(m.items())])
    attempted = len(jobs) * (len(traced) + len(untraced))
    failed = sum(1 for r in traced + untraced for o in r if o.failure)
    results = {"metrics": m, "attempted": attempted, "failed": failed,
               "max_accounting_error": tracer.max_accounting_error,
               "meta": metadata(name, seed, seconds, 1, instances, jobs)}
    return results, attempted, failed, units


def layer_unit(name: str) -> str:
    if name.endswith("_us") or ".us_per_iter." in name:
        return "us"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_share"):
        return "share"
    if name == "trace_overhead":
        return "ratio"
    if name.endswith("bytes"):
        return "bytes"
    return "count"


def run_one(name: str, seed: int, seconds: float, trace: int) -> int:
    import_package()
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import tracing
    import workloads

    os.makedirs(OUT, exist_ok=True)
    seen = Counter()

    def record(message, category, filename, lineno, file=None, line=None):
        seen["%s: %s (%s:%d)" % (category.__name__, message,
                                 os.path.relpath(filename, ROOT), lineno)] += 1

    with warnings.catch_warnings():
        warnings.simplefilter("always", RuntimeWarning)
        warnings.showwarning = record
        try:
            if trace:
                results, attempted, failed, units = per_layer(
                    workloads, tracing, name, seed, seconds)
            else:
                results, attempted, failed, units = end_to_end(
                    workloads, name, seed, seconds)
        except (workloads.ReferenceMismatch, BenchmarkError) as exc:
            print("perfbench: %s: %s" % (name, exc), file=sys.stderr)
            return 1
    for text, count in sorted(seen.items()):
        print("  warning x%d: %s" % (count, text))
    results["warnings"] = dict(seen)
    path = os.path.join(OUT, "%s-seed%d-trace%d.json" % (name, seed, trace))
    with open(path, "w") as fh:
        json.dump(results, fh, indent=1, sort_keys=True, default=float)
    print(final_line("per_layer" if trace else "end_to_end",
                     results["metrics"], units, attempted, failed))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0,
                        help="0 gives the acceptance instances")
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload != "all":
        return run_one(args.workload, args.seed, args.seconds, args.trace)
    status = 0
    for name in WORKLOADS:  # one process per workload, one after another
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        status |= subprocess.run(cmd, cwd=ROOT).returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
