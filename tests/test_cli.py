import json

import pytest

from qbingham import cli
from qbingham.closure import PhysicalityError
from qbingham.dynamics import DivergenceError, FieldSolver


def _raise(exc):
    def runner(cfg, log):
        raise exc
    return runner


def test_locked_output_exits_2(tmp_path):
    (tmp_path / ".qbingham.lock").write_text("12345")
    assert cli.main(["phase-table", "--out", str(tmp_path), "--quiet"]) == 2
    assert not (tmp_path / "manifest.json").exists()


def test_malformed_config_exits_2(tmp_path):
    # invalid JSON, and valid JSON whose top level is not an object
    bad = tmp_path / "bad.json"
    for doc in ("{not json", "[1, 2]", '"x"'):
        bad.write_text(doc)
        code = cli.main(["phase-table", "--config", str(bad),
                         "--out", str(tmp_path / "out"), "--quiet"])
        assert code == 2, doc


@pytest.mark.parametrize("exc", [
    DivergenceError("divergence residual 1.00e+00 after projection"),
    RuntimeError("state locked into a limit cycle"),
], ids=["divergence", "runtime-error-saying-locked"])
def test_numerical_failure_exits_3(tmp_path, monkeypatch, exc):
    monkeypatch.setitem(cli._RUNNERS, "phase-table", _raise(exc))
    assert cli.main(["phase-table", "--out", str(tmp_path), "--quiet"]) == 3
    # the lock is released after the failure
    assert not (tmp_path / ".qbingham.lock").exists()


def test_run_summary_reports_halvings(tmp_path, monkeypatch):
    dt = 0.05
    cfg = tmp_path / "field.json"
    cfg.write_text(json.dumps({"experiment": "field-run", "grid": {"n": 16},
                               "dt": dt, "steps": 3, "snapshot": False}))
    step = FieldSolver.step
    calls = []

    def step_once_rejected(self, state, dt):
        calls.append(dt)
        if len(calls) == 1:
            raise PhysicalityError("injected margin loss")
        return step(self, state, dt)

    monkeypatch.setattr(FieldSolver, "step", step_once_rejected)
    out = tmp_path / "out"
    assert cli.main(["field-run", "--config", str(cfg), "--out", str(out),
                     "--quiet"]) == 0
    summary = json.loads((out / "run_summary.json").read_text())
    assert summary["dt"] == dt
    assert summary["halvings"] == 1
    assert summary["dt_final"] == dt / 2
    assert summary["t_final"] == pytest.approx(1.5 * dt, rel=1e-14)
    assert calls == [dt, dt / 2, dt / 2, dt / 2]


def test_closure_validate_reports_wall_time(tmp_path):
    cfg = tmp_path / "closure.json"
    cfg.write_text(json.dumps({"experiment": "closure-validate", "samples": 16}))
    out = tmp_path / "out"
    assert cli.main(["closure-validate", "--config", str(cfg), "--out", str(out),
                     "--quiet"]) == 0
    summary = json.loads((out / "closure_summary.json").read_text())
    assert summary["wall_seconds"] >= summary["total_solve_seconds"]
