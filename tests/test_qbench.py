import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _traced_run(workload):
    """The last stdout line of a 1 s traced qbench run of workload."""
    proc = subprocess.run(
        [sys.executable, "qbench/run.py", "--workload", workload,
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_traced_benchmark_run_is_correct():
    # qbench's tracer binds its targets in src/ by name; a renamed target
    # breaks --trace 1, and a failing check makes the run incorrect
    assert _traced_run("closure-validate")["correct"] is True


def test_traced_field_run_is_correct():
    # the field's traced names (transforms, the step, the frame contractions)
    # and field-n64's checks and references, which closure-validate does not reach
    assert _traced_run("field-n64")["correct"] is True
