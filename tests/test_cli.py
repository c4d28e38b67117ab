import json
from dataclasses import asdict, replace

import pytest

from qbingham import cli
from qbingham.closure import PhysicalityError
from qbingham.config import ConfigError, default_config, validate_config
from qbingham.dynamics import DivergenceError, FieldSolver, smooth_random_state
from qbingham.spectral import Grid2D


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


def test_snapshot_round_trip(tmp_path):
    params = default_config("field-run").params
    grid = Grid2D(16, length=5.0)
    state = replace(smooth_random_state(grid, params, seed=3), t=0.75)
    path = str(tmp_path / "field.qbf")
    cli.write_snapshot(path, state, params)
    q5, v, t, length = cli.read_snapshot(path)
    assert q5.tobytes() == state.q5.tobytes()
    assert v.tobytes() == state.v.tobytes()
    assert (t, length) == (0.75, 5.0)
    side = json.loads((tmp_path / "field.qbf.json").read_text())
    assert side["params"] == asdict(params)


def test_snapshot_rejects_bad_magic_and_truncation(tmp_path):
    params = default_config("field-run").params
    state = smooth_random_state(Grid2D(16), params, seed=0)
    path = tmp_path / "field.qbf"
    cli.write_snapshot(str(path), state, params)
    raw = path.read_bytes()
    for name, data in (("magic.qbf", b"QBF0" + raw[4:]), ("short.qbf", raw[:100])):
        (tmp_path / name).write_bytes(data)
        with pytest.raises(ValueError):
            cli.read_snapshot(str(tmp_path / name))


def test_config_reports_every_error_at_once(tmp_path):
    doc = {"experiment": "small-de", "params": {"l2": 0.5, "L2": -0.6},
           "grid": {"size": 32}, "de_list": [0.1, 0.2]}
    with pytest.raises(ConfigError) as info:
        validate_config(doc)
    errors = info.value.errors
    assert len(errors) == 4, errors
    for part in ("params.l2: unknown key", "grid.size: unknown key",
                 "L1 + 2 L2 must be positive", "de_list: must be strictly decreasing"):
        assert sum(part in e for e in errors) == 1, (part, errors)
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(doc))
    assert cli.main(["small-de", "--config", str(cfg), "--out",
                     str(tmp_path / "out"), "--quiet"]) == 2
