import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_traced_benchmark_run_is_correct():
    # qbench's tracer binds its targets in src/ by name; a renamed target
    # breaks --trace 1, and a failing check makes the run incorrect
    proc = subprocess.run(
        [sys.executable, "qbench/run.py", "--workload", "closure-validate",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1])["correct"] is True
