import csv
import hashlib
import io
import json
import os
import re
import struct
import subprocess
import sys
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np
import pytest

from qbingham import cli, closure, sphere
from qbingham.closure import PhysicalityError
from qbingham.config import ConfigError, default_config, validate_config
from qbingham.dynamics import DivergenceError, FieldSolver, smooth_random_state
from qbingham.spectral import Grid2D
from qbingham.sphere import bingham_moments
from qbingham.tensors import from_matrix, qnorm
from conftest import haar_rotations
from dense_ops import full_sphere_moments


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


def test_non_finite_config_exits_2(tmp_path, capsys):
    # Python's json reads NaN and Infinity; an infinite seed used to raise
    # OverflowError out of the validator
    cfg = tmp_path / "inf.json"
    cfg.write_text('{"experiment": "small-de", "seed": Infinity}')
    assert cli.main(["small-de", "--config", str(cfg), "--out", str(tmp_path / "out"),
                     "--quiet"]) == 2
    assert "seed: expected a finite number, got inf" in capsys.readouterr().err


@pytest.mark.parametrize("experiment,doc,path", [
    ("small-de", {"params": {"alpha": 5}}, "params.alpha"),
    ("homogeneous-run", {"params": {"alpha": 6}}, "params.alpha"),
    ("phase-table", {"alphas": [5, 7]}, "alphas[0]"),
])
def test_alpha_below_the_nematic_fold_exits_2(tmp_path, capsys, experiment, doc, path):
    # no stable nematic root below alpha*: a configuration error, not the
    # BranchNotPresentError (exit 3) the run would meet
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": experiment, **doc}))
    assert cli.main([experiment, "--config", str(cfg), "--out", str(tmp_path / "out"),
                     "--quiet"]) == 2
    assert f"{path}: must be >= alpha* = 6.731486 (the nematic fold)" in capsys.readouterr().err
    assert not (tmp_path / "out" / "manifest.json").exists()


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
                               "dt": dt, "steps": 3, "snapshot": True}))
    step = FieldSolver.step
    calls = []
    states = []

    def step_once_rejected(self, state, dt):
        calls.append(dt)
        if len(calls) == 1:
            raise PhysicalityError("injected margin loss")
        states.append(step(self, state, dt))
        return states[-1]

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
    # the manifest hashes the snapshot files as written, and they hold the
    # run's final state
    hashes = json.loads((out / "manifest.json").read_text())["outputs"]
    for name in ("field_final.qbf", "field_final.qbf.json"):
        assert hashes[name] == hashlib.sha256((out / name).read_bytes()).hexdigest()
    q5, v, t, _ = cli.read_snapshot(str(out / "field_final.qbf"))
    assert q5.tobytes() == states[-1].q5.tobytes()
    assert v.tobytes() == states[-1].v.tobytes()
    assert t == states[-1].t


def test_runs_import_no_scipy_and_report_only_runtime_versions(tmp_path):
    # numpy is the one runtime dependency: a fresh process that runs
    # phase-table at its defaults and a small closure-validate (the Lambda
    # bound, the nematic root and fold, the closure) loads no scipy module
    cfg = tmp_path / "closure.json"
    cfg.write_text(json.dumps({"experiment": "closure-validate", "samples": 16}))
    code = ("import sys\n"
            "from qbingham import cli\n"
            f"assert cli.main(['phase-table', '--out', {str(tmp_path / 'phase')!r}, "
            "'--quiet']) == 0\n"
            f"assert cli.main(['closure-validate', '--config', {str(cfg)!r}, "
            f"'--out', {str(tmp_path / 'closure')!r}, '--quiet']) == 0\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120).stdout
    assert out.strip() == "[]"
    for name in ("phase", "closure"):
        manifest = json.loads((tmp_path / name / "manifest.json").read_text())
        assert set(manifest["versions"]) == {"qbingham", "numpy", "python"}


def test_closure_validate_reports_wall_time(tmp_path):
    cfg = tmp_path / "closure.json"
    cfg.write_text(json.dumps({"experiment": "closure-validate", "samples": 16}))
    out = tmp_path / "out"
    assert cli.main(["closure-validate", "--config", str(cfg), "--out", str(out),
                     "--quiet"]) == 0
    summary = json.loads((out / "closure_summary.json").read_text())
    assert summary["wall_seconds"] >= summary["total_solve_seconds"]


def test_closure_validate_reports_newton_work(tmp_path):
    # the summary's Newton counts roll up the per-sample columns; at the
    # default margin 0.1 every sample's fitted start meets the tolerance
    out = tmp_path / "out"
    assert cli.main(["closure-validate", "--seed", "3", "--out", str(out), "--quiet"]) == 0
    summary = json.loads((out / "closure_summary.json").read_text())
    rows = list(csv.DictReader(io.StringIO((out / "closure_samples.csv").read_text())))
    iters = [int(r["iterations"]) for r in rows]
    assert len(rows) == summary["samples"] == 1000
    assert summary["iterations_mean"] == sum(iters) / len(iters)
    assert summary["iterations_max"] == max(iters) == 0
    assert summary["damped_fraction"] == sum(r["damped"] == "True" for r in rows) / 1000 == 0.0


def _closure_validate_recorded(monkeypatch, doc):
    """closure-validate's summary, the q5 it solved for, the solve and the
    (B, quad) of every sphere.bingham_moments call."""
    solve, calls = {}, []
    map_batch, moments = closure.bingham_map_batch, sphere.bingham_moments

    def recorded_map(q5, **kw):
        solve["q5"], solve["res"] = q5, map_batch(q5, **kw)
        return solve["res"]

    def recorded_moments(B, quad):
        calls.append((B, quad))
        return moments(B, quad)
    monkeypatch.setattr(closure, "bingham_map_batch", recorded_map)
    monkeypatch.setattr(sphere, "bingham_moments", recorded_moments)
    outputs, ok = cli._RUNNERS["closure-validate"](validate_config(doc), lambda msg: None)
    assert ok
    return json.loads(outputs["closure_summary.json"]), solve["q5"], solve["res"], calls


def test_closure_validate_checks_forward_in_one_call(monkeypatch):
    # the 64 checked samples are one batch: one call, 64 distinct solved B
    summary, _, res, calls = _closure_validate_recorded(
        monkeypatch, {"experiment": "closure-validate", "samples": 100})
    assert len(calls) == 1
    (B, quad), = calls
    assert B.shape == (64, 5) == (summary["independent_forward_checked"], 5)
    rows = [np.flatnonzero((res.B5 == b).all(axis=1)) for b in B]
    assert all(len(r) == 1 for r in rows) and len({int(r[0]) for r in rows}) == 64
    assert len(quad.weights) == 64 * 65


@pytest.mark.parametrize("delta", [0.1, 0.02])
def test_closure_validate_forward_error_matches_per_point_loop(monkeypatch, delta):
    # the batch gives each check the bits of a call on it alone; the dense
    # oracle sums the nodes in another order, and its forward error differs
    # by at most 1.9e-15 over seeds 0-5 at both margins
    summary, q5, res, calls = _closure_validate_recorded(
        monkeypatch, {"experiment": "closure-validate", "samples": 64,
                      "params": {"delta": delta}})
    (B, quad), = calls
    idx = [int(np.flatnonzero((res.B5 == b).all(axis=1))[0]) for b in B]
    fwd = summary["independent_forward_max_err"]
    loop = max(float(qnorm(bingham_moments(res.B5[i][None], quad)[0] - q5[i]))
               for i in idx)
    assert abs(fwd - loop) <= 1e-15
    oracle = max(float(qnorm(full_sphere_moments(res.B5[i], quad).q_of_b - q5[i]))
                 for i in idx)
    assert abs(fwd - oracle) <= 5e-15


def test_csv_cells_are_plain_numbers(tmp_path):
    # numpy scalars are written as their float text, so every numeric cell
    # parses with float()
    for kind, doc, name in (
            ("closure-validate", {"samples": 16}, "closure_samples.csv"),
            ("homogeneous-run", {"t_final": 0.2}, "hom_series.csv")):
        cfg = tmp_path / f"{kind}.json"
        cfg.write_text(json.dumps({"experiment": kind, **doc}))
        out = tmp_path / kind
        assert cli.main([kind, "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
        rows = list(csv.DictReader(io.StringIO((out / name).read_text())))
        assert rows
        for row in rows:
            for col, cell in row.items():
                if col != "damped":
                    float(cell)


def _fmt_csv_bytes(header, rows):
    """The CSV writer _csv_bytes replaced, kept as its reference: each cell
    went through this _fmt before csv.writer."""
    def _fmt(x):
        if type(x) is float:
            return repr(x)
        if isinstance(x, (float, np.floating)):
            return repr(float(x))
        if isinstance(x, (np.integer,)):
            return str(int(x))
        return str(x)
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    for row in rows:
        w.writerow([_fmt(x) for x in row])
    return buf.getvalue().encode()


def test_csv_writer_matches_the_fmt_writer():
    # str() of a Python or numpy float64 is its shortest round-trip text, as
    # _fmt's repr(float(x)) was. np.float32 differs (_fmt widened it to its
    # float64 digits, str does not), and no runner writes one
    floats = [0.1, 1e-05, 1e16, 5e-324, -0.0, float("nan"), float("inf"), float("-inf")]
    rows = [floats, [np.float64(x) for x in floats],
            [3, np.int64(-7), True, False, np.bool_(True), np.bool_(False)],
            ["a,b", 'say "q"', "two\nlines", ""]]
    header = ["h1", "h,2", 'h"3']
    assert cli._csv_bytes(header, rows) == _fmt_csv_bytes(header, rows)


@pytest.mark.parametrize("doc", [
    {"experiment": "phase-table"},
    {"experiment": "homogeneous-run", "t_final": 0.3, "sample_every": 2},
    {"experiment": "field-run", "grid": {"n": 8}, "dt": 0.05, "steps": 3},
    {"experiment": "small-de", "t_final": 0.05},
    {"experiment": "closure-validate", "samples": 16},
], ids=lambda doc: doc["experiment"])
def test_every_runner_csv_is_the_fmt_writers(monkeypatch, doc):
    # each CSV a runner writes, byte for byte as the _fmt writer wrote its rows
    written, cli_csv = [], cli._csv_bytes

    def recorded(header, rows):
        rows = list(rows)
        written.append((cli_csv(header, rows), _fmt_csv_bytes(header, rows)))
        return written[-1][0]
    monkeypatch.setattr(cli, "_csv_bytes", recorded)
    cli._RUNNERS[doc["experiment"]](validate_config(doc), lambda msg: None)
    assert len(written) == 1
    new, old = written[0]
    assert new == old and new.count(b"\n") > 1


def _closure_validate_draws(seed, samples=1000, delta=0.02):
    """closure-validate's eigenvalues, rotations and forward-check indices at
    one seed, the rotations by rotate(rng, n)."""
    def draws(rotate):
        rng = np.random.default_rng(seed)
        eigs = cli._sample_physical(rng, samples, delta)
        rots = rotate(rng, samples)
        return eigs, rots, rng.choice(samples, size=64, replace=False)
    return draws(cli._random_rotations), draws(haar_rotations)


@pytest.mark.parametrize("seed", range(16))
def test_random_rotations_are_qr_rotations(seed):
    # on each of qbench's 16 closure-validate input sets: orthogonal to
    # 1e-15 with det +1, within 5e-14 of the QR-and-sign-fix rotations of the
    # same draws (Gram-Schmidt and Householder QR differ by ~u cond(A)), and
    # the same random stream, so the same eigenvalues and checked indices
    (eigs, rots, idx), (eigs_qr, rots_qr, idx_qr) = _closure_validate_draws(seed)
    assert np.abs(rots.swapaxes(1, 2) @ rots - np.eye(3)).max() <= 1e-15
    assert np.all(np.linalg.det(rots) > 0)
    assert np.abs(rots - rots_qr).max() <= 5e-14
    assert eigs.tobytes() == eigs_qr.tobytes()
    assert idx.tolist() == idx_qr.tolist()


def test_closure_validate_solves_the_qr_samples(monkeypatch):
    # the run's inputs are those the QR rotations gave, to their rounding,
    # and it checks the same rows
    _, q5, res, calls = _closure_validate_recorded(
        monkeypatch, {"experiment": "closure-validate", "params": {"delta": 0.02}})
    (B, _), = calls
    _, (eigs, rots, idx) = _closure_validate_draws(0)
    assert B.tobytes() == res.B5[idx].tobytes()
    full = np.c_[eigs, -eigs.sum(axis=1)]
    qr = from_matrix(np.einsum("nik,nk,njk->nij", rots, full, rots))
    np.testing.assert_allclose(q5, qr, rtol=0, atol=5e-14)


def test_repeated_closure_validate_writes_the_same_artifacts(tmp_path):
    # the second run in a process reuses the cached full-sphere rule; its
    # artifacts equal the first run's but for the timings
    cfg = validate_config({"experiment": "closure-validate", "samples": 64})
    runs = []
    for k in range(2):
        assert cli.run_experiment(cfg, str(tmp_path / str(k)), quiet=True) == 0
        runs.append({p.name: p.read_bytes() for p in (tmp_path / str(k)).iterdir()})
    first, second = runs
    assert first["closure_samples.csv"] == second["closure_samples.csv"]
    drop = _TIMING_KEYS | {"wall_time_s", "outputs"}
    for name in ("closure_summary.json", "manifest.json"):
        a, b = (json.loads(r[name]) for r in runs)
        assert {k: v for k, v in a.items() if k not in drop} == (
            {k: v for k, v in b.items() if k not in drop}), name


def test_homogeneous_run_keeps_the_reflection(tmp_path):
    # n0 in the shear plane: the reflection gate passes and the run exits 0
    cfg = tmp_path / "hom.json"
    cfg.write_text(json.dumps({"experiment": "homogeneous-run", "t_final": 0.5,
                               "theta0": 2.0}))
    out = tmp_path / "out"
    assert cli.main(["homogeneous-run", "--config", str(cfg), "--out", str(out),
                     "--quiet"]) == 0
    assert json.loads((out / "manifest.json").read_text())["status"] == "pass"


def test_reflection_gate_rejects_an_out_of_plane_series():
    # 11 rows (10 steps) of max|Q| 0.4: the bound is 640 u 0.4 = 2.8e-14
    q5 = np.zeros((11, 5))
    q5[:, :3] = [0.2, -0.1, 0.4]
    assert cli._keeps_reflection(q5)
    q5[5, 4] = 2e-14
    assert cli._keeps_reflection(q5)
    for col in (3, 4):
        bad = q5.copy()
        bad[7, col] = -1e-13
        assert not cli._keeps_reflection(bad)
    assert not cli._keeps_reflection(np.full((2, 5), np.nan))


def test_field_run_keeps_the_dissipation_law(tmp_path):
    # an unforced run on a 16^2 grid: the ledger energy falls at every
    # sample, so the run passes its own gate and exits 0
    cfg = tmp_path / "field.json"
    cfg.write_text(json.dumps({"experiment": "field-run", "grid": {"n": 16},
                               "dt": 0.05, "steps": 4}))
    out = tmp_path / "out"
    assert cli.main(["field-run", "--config", str(cfg), "--out", str(out),
                     "--quiet"]) == 0
    summary = json.loads((out / "run_summary.json").read_text())
    assert summary["monotone"] is True
    assert summary["max_uptick"] < 0.0
    assert summary["uptick_tolerance"] == 1e-10 * abs(summary["initial_total_energy"])
    assert json.loads((out / "manifest.json").read_text())["status"] == "pass"


def test_dissipation_gate_rejects_a_rising_series():
    # |E_0| = 2: a rise of up to 2e-10 between samples is rounding, more is not
    falling = [-2.0, -2.1, -2.2, -2.3]
    assert cli._energy_monotone(falling)[2]
    assert cli._energy_monotone([-2.0])[::2] == (0.0, True)
    assert cli._energy_monotone([-2.0, -2.1, -2.1 + 1e-10, -2.2])[2]
    up, tol, ok = cli._energy_monotone([-2.0, -2.1, -2.1 + 3e-10, -2.2])
    assert not ok and tol == 2e-10 and up == pytest.approx(3e-10, rel=1e-5)
    assert not cli._energy_monotone([2.0, 1.9, 1.95, 1.8])[2]
    assert not cli._energy_monotone([2.0, np.nan, 1.8])[2]


def _write_snapshot(path, state, params):
    """The snapshot and its sidecar, as field-run writes them."""
    data, side = cli._snapshot_bytes(state, params)
    path.write_bytes(data)
    path.with_name(path.name + ".json").write_bytes(side)


def test_snapshot_round_trip(tmp_path):
    params = default_config("field-run").params
    grid = Grid2D(16, length=5.0)
    state = replace(smooth_random_state(grid, params, seed=3), t=0.75)
    path = tmp_path / "field.qbf"
    _write_snapshot(path, state, params)
    q5, v, t, length = cli.read_snapshot(str(path))
    assert q5.tobytes() == state.q5.tobytes()
    assert v.tobytes() == state.v.tobytes()
    assert (t, length) == (0.75, 5.0)
    side = json.loads((tmp_path / "field.qbf.json").read_text())
    assert side["params"] == asdict(params)


def test_snapshot_rejects_bad_magic_and_truncation(tmp_path):
    params = default_config("field-run").params
    state = smooth_random_state(Grid2D(16), params, seed=0)
    path = tmp_path / "field.qbf"
    _write_snapshot(path, state, params)
    raw = path.read_bytes()
    four_q = raw[:12] + struct.pack("<Q", 4) + raw[20:]
    for name, data, msg in (("magic.qbf", b"QBF0" + raw[4:], "not a qbingham"),
                            ("short.qbf", raw[:100], "found 100"),
                            ("junk.qbf", raw + bytes(40), f"found {len(raw) + 40}"),
                            ("counts.qbf", four_q, "found (4, 3)")):
        (tmp_path / name).write_bytes(data)
        with pytest.raises(ValueError, match=re.escape(msg)):
            cli.read_snapshot(str(tmp_path / name))


def test_phase_table_far_above_critical(tmp_path):
    cfg = tmp_path / "phase.json"
    cfg.write_text(json.dumps({"experiment": "phase-table", "alphas": [62, 100]}))
    out = tmp_path / "out"
    assert cli.main(["phase-table", "--config", str(cfg), "--out", str(out),
                     "--quiet"]) == 0
    rows = json.loads((out / "phase_table.json").read_text())
    assert [r["alpha"] for r in rows] == [62, 100]
    assert all(r["pass"] for r in rows)


def test_phase_table_gates_the_out_space_rates(tmp_path, monkeypatch):
    # the closed-form rates and coercivity constant are reported, and a
    # non-positive one fails the row
    from qbingham import equilibrium
    cfg = tmp_path / "phase.json"
    cfg.write_text(json.dumps({"experiment": "phase-table", "alphas": [7, 8]}))
    out = tmp_path / "out"
    assert cli.main(["phase-table", "--config", str(cfg), "--out", str(out),
                     "--quiet"]) == 0
    rows = json.loads((out / "phase_table.json").read_text())
    header = (out / "phase_table.csv").read_text().splitlines()[0].split(",")
    for key in ("h_par", "h_perp", "rate_par", "rate_perp", "coercivity"):
        assert key in header
        assert all(r[key] > 0 for r in rows)
    assert all(r["coercivity"] == min(r["h_par"], r["h_perp"]) for r in rows)

    real = equilibrium.phase_constants
    for field in ("h_par", "h_perp", "rate_par", "rate_perp"):
        def negated(*args, field=field):
            return replace(real(*args), **{field: -1.0})
        monkeypatch.setattr(equilibrium, "phase_constants", negated)
        assert cli.main(["phase-table", "--config", str(cfg), "--out",
                         str(tmp_path / field), "--quiet"]) == 3
        rows = json.loads((tmp_path / field / "phase_table.json").read_text())
        assert not any(r["pass"] for r in rows)


def test_small_de_uses_theta0(tmp_path):
    tables = []
    for theta0 in (1.0, 0.3):
        cfg = tmp_path / f"small_de_{theta0}.json"
        cfg.write_text(json.dumps({"experiment": "small-de", "de_list": [0.2, 0.1],
                                   "t_final": 0.2, "theta0": theta0}))
        out = tmp_path / f"out_{theta0}"
        assert cli.main(["small-de", "--config", str(cfg), "--out", str(out),
                         "--quiet"]) == 0
        tables.append((out / "small_de.csv").read_text())
    assert tables[0] != tables[1]


def test_config_reports_every_error_at_once(tmp_path):
    doc = {"experiment": "small-de", "params": {"l2": 0.5, "delta": 0.5},
           "grid": {"size": 32}, "de_list": [0.1, 0.2]}
    with pytest.raises(ConfigError) as info:
        validate_config(doc)
    errors = info.value.errors
    assert len(errors) == 4, errors
    for part in ("params.l2: unknown key", "grid: unknown key",
                 "delta must lie in (0, 1/3)", "de_list: must be strictly decreasing"):
        assert sum(part in e for e in errors) == 1, (part, errors)
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(doc))
    assert cli.main(["small-de", "--config", str(cfg), "--out",
                     str(tmp_path / "out"), "--quiet"]) == 2


@pytest.mark.parametrize("experiment,doc,message", [
    ("small-de", {"dt": 0.01}, "dt: unknown key (allowed: "),
    ("energy-audit", {"snapshot": False}, "snapshot: unknown key (allowed: "),
    ("phase-table", {"params": {"alpha": 8.0}}, "params.alpha: unknown key (allowed: L1, L2)"),
    ("small-de", {"de_list": [0.2], "t_final": 0.2},
     "de_list: expected at least 2 values to fit a slope"),
    ("closure-validate", {"quadrature": {"n_polar": 8, "n_azimuthal": 16}},
     "quadrature.n_polar, quadrature.n_azimuthal: the 8 x 16 rule integrates degree < 16"),
])
def test_config_error_exits_2_before_running(tmp_path, capsys, experiment, doc, message):
    # a key the experiment never reads would change nothing (small-de steps
    # each De at its own dt, energy-audit writes no snapshot), so it is
    # rejected like a typo; one De gives no slope, so small-de would run and
    # then always exit 3, as closure-validate would on a rule too coarse for
    # its forward check
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": experiment, **doc}))
    out = tmp_path / "out"
    assert cli.main([experiment, "--config", str(cfg), "--out", str(out), "--quiet"]) == 2
    assert message in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


# a tiny config of every experiment, and a valid value other than the tiny
# one for every config field and params sub-field
_TINY = {
    "phase-table": {"alphas": [8.0]},
    "closure-validate": {"samples": 8, "quadrature": {"n_polar": 32, "n_azimuthal": 64}},
    "homogeneous-run": {"t_final": 0.1},
    "field-run": {"grid": {"n": 8}, "dt": 0.05, "steps": 2},
    "small-de": {"de_list": [0.2, 0.1], "t_final": 0.05},
    "energy-audit": {"grid": {"n": 8}, "dt": 0.05, "steps": 2},
}
_CHANGED = {
    "seed": 5, "dt": 0.02, "steps": 3, "sample_every": 2, "alphas": (9.0,), "samples": 5,
    "de_list": (0.3, 0.15), "t_final": 0.08, "shear_rate": 0.5, "theta0": 0.3,
    "snapshot": False, "q_amplitude": 0.3, "v_amplitude": 0.2, "n_polar": 24,
    "n_azimuthal": 48, "grid_n": 12, "grid_length": 5.0,
    "params.alpha": 8.0, "params.epsilon": 0.1, "params.de": 0.5, "params.re": 2.0,
    "params.gamma": 0.3, "params.L1": 2.0, "params.L2": 0.2, "params.delta": 0.05,
}
_TIMING_KEYS = {"wall_seconds", "total_solve_seconds", "mean_solve_ms"}


def _artifacts(cfg):
    """The runner's artifacts, with the timing keys of its JSON summaries dropped."""
    outputs, _ok = cli._RUNNERS[cfg.experiment](cfg, lambda msg: None)
    for name, data in outputs.items():
        obj = json.loads(data) if name.endswith(".json") else None
        if isinstance(obj, dict) and _TIMING_KEYS & set(obj):
            outputs[name] = {k: v for k, v in obj.items() if k not in _TIMING_KEYS}
    return outputs


@pytest.mark.parametrize("experiment,rejected", [
    ("phase-table", 21), ("closure-validate", 20), ("homogeneous-run", 16),
    ("field-run", 8), ("small-de", 18), ("energy-audit", 10),
])
def test_keys_an_experiment_rejects_change_no_artifact(experiment, rejected):
    # every field and params sub-field whose key validate_config rejects for
    # this experiment (93 of the 150 pairs) is changed in turn: no artifact
    # moves, so no rejected key had an effect
    doc = {"experiment": experiment, **_TINY[experiment]}
    cfg = validate_config(doc)
    base = _artifacts(cfg)
    assert base
    key_paths = {f.name: f.metadata["path"] for f in fields(cfg) if f.metadata}
    changed = []
    for name, value in _CHANGED.items():
        field, _, sub = name.partition(".")
        path = name if sub else key_paths[field]
        head, _, key = path.rpartition(".")
        v = list(value) if isinstance(value, tuple) else value
        try:
            validate_config({**doc, head: {**doc.get(head, {}), key: v}} if head
                            else {**doc, key: v})
        except ConfigError as exc:
            assert len(exc.errors) == 1 and "unknown key" in exc.errors[0], exc.errors
        else:
            continue  # a key the experiment reads
        new = (replace(cfg, params=replace(cfg.params, **{sub: value})) if sub
               else replace(cfg, **{field: value}))
        assert _artifacts(new) == base, path
        changed.append(path)
    assert len(changed) == rejected, changed
