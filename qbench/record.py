"""Record the reference values of every input set from the current tree.

    python3 qbench/record.py [--workload NAME ...]

Runs each workload once per input set, untraced, requires every gate to
pass, and stores the values the benchmark compares against in
reference.json. Re-record only when a change is meant to alter results.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import sys

import run


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", action="append",
                   choices=("field-n64", "closure-validate", "small-de"))
    args = p.parse_args(argv)
    run.pin_environment()
    run.import_package()
    import workloads
    ref = json.loads(run.REFERENCE.read_text()) if run.REFERENCE.exists() else {}
    ref["about"] = {"closure_tol": workloads.CLOSURE_TOL, "ref_factor": workloads.REF_FACTOR,
                    "input_sets": workloads.INPUT_SETS}
    run.OUT.mkdir(exist_ok=True)
    for name in args.workload or list(workloads.WORKLOADS):
        wl = workloads.WORKLOADS[name]
        table = {}
        for seed in range(workloads.INPUT_SETS) if wl.seeded else [0]:
            wall, verdict, _ = run.run_rep(wl, wl.config(seed), None, contextlib.nullcontext())
            bad = [c for c in verdict.checks if not c[1] and c[0] != "reference recorded"]
            if bad:
                print(f"{name} input set {seed}: gates failed: {bad}", file=sys.stderr)
                return 1
            table[wl.reference_key(seed)] = verdict.values
            print(f"{name} input set {seed}: {wall:.1f} s", flush=True)
        ref[name] = table
        run.REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
