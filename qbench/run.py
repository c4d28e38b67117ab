"""qbingham benchmark: time to a verified experiment result, and where it goes.

    python3 qbench/run.py --workload field-n64 --seed 0 --seconds 20 --trace 0

Run from the repository root; the package is imported from ``src/``. Each
repetition runs one CLI experiment through ``qbingham.cli.run_experiment``
into ``.bench_out/`` and checks its artifacts (see ``workloads.py``).
Repetitions continue until ``--seconds`` have passed (see ``another``).

--trace 0 reports the end-to-end metrics: set-up time (median of fresh
processes), wall time, per-step latency, peak memory. --trace 1 alternates
untraced and traced repetitions, reports the per-layer metrics of the traced
ones (``tracing.py``), checks that both produce identical artifacts, and
reports the tracing overhead. The last line of stdout is one JSON object.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFERENCE = Path(__file__).resolve().parent / "reference.json"
SETUP_PROBES = 5
TAIL_BEYOND = 10  # the tail is the highest percentile with this many samples above it
# One BLAS/OpenMP thread. On 2 CPUs a second thread made closure-validate
# slower (8.9 vs 7.8 s wall, 0.85 vs 0.56 s set-up) and tied every timing to
# the contention on both CPUs.
BLAS_THREADS = 1


def pin_environment():
    """One process, pinned BLAS/OpenMP threads, the numpy kernels."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    os.environ["QBINGHAM_NO_NUMBA"] = "1"
    return len(os.sched_getaffinity(0))


def import_package():
    """Import qbingham from this checkout's src/, or exit 2 if it is not there."""
    if not (SRC / "qbingham" / "__init__.py").is_file():
        print(f"error: no qbingham sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import qbingham
    if Path(qbingham.__file__).resolve().parent != SRC / "qbingham":
        print(f"error: imported qbingham from {qbingham.__file__}", file=sys.stderr)
        sys.exit(2)
    return qbingham


def load_reference(workload, seed):
    with open(REFERENCE) as f:
        return json.load(f).get(workload.name, {}).get(workload.reference_key(seed))


# ---------------------------------------------------------------------------
# one repetition
# ---------------------------------------------------------------------------

@contextlib.contextmanager
def step_clock(workload, samples):
    """Append the latency of each of the workload's steps to ``samples``."""
    from qbingham import dynamics, leslie, sphere
    if workload.experiment == "field-run":
        owner, attr = dynamics.FieldSolver, "run"
        orig = owner.__dict__[attr]

        def timed(self, state, dt, n_steps, callback=None, **kw):
            last = time.perf_counter()

            def stamp(k, st):
                nonlocal last
                if callback is not None:
                    callback(k, st)
                now = time.perf_counter()
                samples.append(now - last)
                last = now
            return orig(self, state, dt, n_steps, callback=stamp, **kw)
    else:
        owner, attr = ((leslie, "step_homogeneous") if workload.experiment == "small-de"
                       else (sphere, "bingham_moments"))
        orig = getattr(owner, attr)

        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return orig(*args, **kwargs)
            finally:
                samples.append(time.perf_counter() - t0)
    setattr(owner, attr, timed)
    try:
        yield
    finally:
        setattr(owner, attr, orig)


def run_rep(workload, cfg, reference, instrument):
    """Run the experiment once under ``instrument`` and check its artifacts."""
    import qbingham.cli as cli
    import workloads
    out_dir = OUT / workload.name
    shutil.rmtree(out_dir, ignore_errors=True)
    t0 = time.perf_counter()
    try:
        with instrument:
            code = cli.run_experiment(cfg, str(out_dir), quiet=True)
        verdict = workloads.check(workload, cfg, out_dir, reference)
        verdict.gate("exit code 0", code == 0, code)
        digest = workloads.output_digest(out_dir)
    except Exception:  # the run failed as a whole; report it, keep measuring
        traceback.print_exc()
        verdict = workloads.Verdict(units=1, failed_units=1)
        verdict.gate("experiment completed", False, "raised, see stderr")
        digest = None
    wall = time.perf_counter() - t0
    return wall, verdict, digest


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------

def probe_setup(workload, seed):
    """Set-up time of fresh processes: imports through the experiment's objects."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload.name,
             "--seed", str(seed), "--probe-setup"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def another(durations, started, seconds):
    """Whether to start another repetition: until ``seconds`` have passed,
    unless it would end after 1.5 x ``seconds``. Always at least one."""
    if not durations:
        return True
    elapsed = time.perf_counter() - started
    return elapsed < seconds and elapsed + statistics.median(durations) <= 1.5 * seconds


def tail(samples):
    """(value, percentile): highest percentile with TAIL_BEYOND samples above it."""
    xs = sorted(samples)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def step_latency(workload, samples):
    """Median and tail of the step samples, with the tail's percentile."""
    p_tail, pct = tail(samples)
    return {"step_ms_p50": 1e3 * statistics.median(samples), "step_ms_tail": 1e3 * p_tail,
            "step_ms_tail_percentile": pct, "steps": len(samples),
            "step_unit": workload.step_unit}


def run_untraced(workload, cfg, reference, seconds, seed):
    setup = probe_setup(workload, seed)
    samples, walls, verdicts, digests = [], [], [], []
    t_start = time.perf_counter()
    while another(walls, t_start, seconds):
        wall, verdict, digest = run_rep(workload, cfg, reference,
                                        step_clock(workload, samples))
        walls.append(wall)
        verdicts.append(verdict)
        digests.append(digest)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "peak_mem_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    notes = {"repetitions": len(walls), "walls_s": walls, "setup_samples_s": setup,
             **step_latency(workload, samples)}
    same = len(set(digests)) == 1 and digests[0] is not None
    return metrics, verdicts, notes, {"repetitions produce identical outputs": same}


def run_traced(workload, cfg, reference, seconds):
    import tracing
    tracer = tracing.Tracer()
    plain, traced, verdicts, pairs, samples = [], [], [], [], []
    t_start = time.perf_counter()
    while another([u + t for u, t in zip(plain, traced)], t_start, seconds):
        wall_u, ver_u, dig_u = run_rep(workload, cfg, reference,
                                       step_clock(workload, samples))
        wall_t, ver_t, dig_t = run_rep(workload, cfg, reference, tracer)
        plain.append(wall_u)
        traced.append(wall_t)
        verdicts += [ver_u, ver_t]
        pairs.append(dig_u is not None and dig_u == dig_t)
    extra = {k: v for ver in verdicts for k, v in ver.extra.items()}
    metrics = tracing.layer_metrics(tracer, len(traced), extra)
    steps = step_latency(workload, samples)
    metrics["step_ms_p50"] = (steps["step_ms_p50"], "ms")
    metrics["step_ms_tail"] = (steps["step_ms_tail"], "ms")
    metrics["trace.untraced_wall_s"] = (statistics.median(plain), "s")
    metrics["trace.traced_wall_s"] = (statistics.median(traced), "s")
    metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(plain), "s")
    metrics["trace.spans"] = (len(tracer.span_name) / len(traced), "count")
    notes = {"pairs": len(pairs), "untraced_walls_s": plain, "traced_walls_s": traced, **steps}
    return metrics, verdicts, notes, {"traced outputs identical to untraced": all(pairs)}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def environment(args, nproc, cfg):
    import numpy
    import scipy
    import workloads
    from qbingham import _kernels
    return {
        "nproc": nproc,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "seed": args.seed,
        "experiment_seed": cfg.seed,
        "held_out_seed": workloads.HELD_OUT_SEED,
        "have_numba": bool(getattr(_kernels, "HAVE_NUMBA", False)),
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("field-n64", "closure-validate", "small-de"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    nproc = pin_environment()
    if args.probe_setup:
        t0 = time.perf_counter()
        import_package()
        import workloads
        workloads.setup(workloads.WORKLOADS[args.workload], args.seed)
        print(json.dumps({"setup_s": time.perf_counter() - t0}))
        return 0

    import_package()
    import workloads
    workload = workloads.WORKLOADS[args.workload]
    cfg = workload.config(args.seed)
    reference = load_reference(workload, args.seed)
    env = environment(args, nproc, cfg)
    OUT.mkdir(exist_ok=True)

    if args.trace:
        measured = run_traced(workload, cfg, reference, args.seconds)
    else:
        measured = run_untraced(workload, cfg, reference, args.seconds, args.seed)
    metrics, verdicts, notes, run_checks = measured
    for name, (value, _) in metrics.items():
        if not math.isfinite(value):
            raise ValueError(f"metric {name} is not finite: {value}")
    run_checks["numpy path (HAVE_NUMBA false)"] = not env["have_numba"]
    attempted = sum(v.units + 1 for v in verdicts)   # each run is an operation too
    failed = sum(v.failed_units + (not v.ok) for v in verdicts)
    correct = all(v.ok for v in verdicts) and all(run_checks.values())

    report(args, workload, env, metrics, verdicts, notes, run_checks, attempted, failed)
    result = {
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    detail = {**result, "env": env, "notes": notes, "run_checks": run_checks,
              "checks": [c for v in verdicts for c in v.checks],
              "extra": {k: val for v in verdicts for k, val in v.extra.items()}}
    name = f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(detail, indent=1, default=str) + "\n")
    print(json.dumps(result, allow_nan=False))
    return 0


def report(args, workload, env, metrics, verdicts, notes, run_checks, attempted, failed):
    """Human-readable summary; every metric with its unit."""
    print(f"# {workload.name}: {workload.why}")
    print("# env " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:14.6g} {unit}")
    print(f"{'fail_frac':40s} {failed / attempted:14.6g} 1  ({failed} of {attempted})")
    if not args.trace:
        for name in ("step_ms_p50", "step_ms_tail"):
            print(f"{name:40s} {notes[name]:14.6g} ms (reported, not gated)")
    print(f"# step = {notes['step_unit']}; tail = p{notes['step_ms_tail_percentile']:.1f} "
          f"of {notes['steps']} untraced steps")
    for ver in verdicts[:1]:
        for k, v in ver.extra.items():
            print(f"{k:40s} {v:14.6g} (reported, not gated)")
    bad = [(n, d) for v in verdicts for n, ok, d in v.checks if not ok]
    bad += [(n, "") for n, ok in run_checks.items() if not ok]
    for n, d in bad:
        print(f"# CHECK FAILED: {n} ({d})")
    if not bad:
        checks = len(verdicts[0].checks) + len(run_checks)
        print(f"# all {checks} output checks passed on {len(verdicts)} runs")


if __name__ == "__main__":
    sys.exit(main())
