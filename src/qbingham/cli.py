"""Command-line experiment harness.

Subcommands mirror the experiment kinds; every run writes its artifacts
atomically into --out together with a manifest (config echo and hash,
content hashes, library versions, wall time). One process per output
directory, enforced by a lockfile. Exit codes: 0 success, 2 configuration
or usage error, 3 numerical failure.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import struct
import sys
import time

import numpy as np

__all__ = ["main", "run_experiment", "write_snapshot", "read_snapshot",
           "OutputLockedError"]

SNAPSHOT_MAGIC = b"QBF1"


class OutputLockedError(RuntimeError):
    """The output directory holds the lockfile of another run."""


# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------

def _fmt(x):
    """Shortest round-trip text for CSV cells."""
    if isinstance(x, float):
        return repr(x)
    if isinstance(x, (np.floating,)):
        return repr(float(x))
    if isinstance(x, (np.integer,)):
        return str(int(x))
    return str(x)


def _csv_bytes(header, rows):
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    for row in rows:
        w.writerow([_fmt(x) for x in row])
    return buf.getvalue().encode()


def _json_bytes(obj):
    return (json.dumps(obj, indent=2, sort_keys=True, default=_json_default) + "\n").encode()


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _write_atomic(path, data):
    tmp = path + ".tmp"
    with open(tmp, "wb") as f:
        f.write(data)
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, path)


@contextlib.contextmanager
def _dir_lock(out_dir):
    lock = os.path.join(out_dir, ".qbingham.lock")
    try:
        fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        raise OutputLockedError(
            f"output directory is locked by another run ({lock}); remove the "
            "lockfile if that run is dead") from None
    try:
        os.write(fd, str(os.getpid()).encode())
        os.close(fd)
        yield
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.remove(lock)


def write_snapshot(path, state, params):
    """Flat binary field snapshot plus a JSON parameter sidecar.

    Layout (little endian): magic "QBF1", uint64 n, uint64 5, uint64 3,
    float64 t, float64 length, then n*n*5 float64 Q components (C order,
    components q11,q22,q12,q13,q23 fastest), then n*n*3 float64 velocity.
    """
    n = state.grid.n
    head = SNAPSHOT_MAGIC + struct.pack(
        "<QQQdd", n, 5, 3, float(state.t), float(state.grid.length))
    body = (np.ascontiguousarray(state.q5, dtype="<f8").tobytes()
            + np.ascontiguousarray(state.v, dtype="<f8").tobytes())
    _write_atomic(path, head + body)
    from dataclasses import asdict
    side = {"params": asdict(params), "t": float(state.t),
            "grid": {"n": n, "length": float(state.grid.length)}}
    _write_atomic(path + ".json", _json_bytes(side))


def read_snapshot(path):
    """Read a snapshot back as (q5, v, t, length)."""
    with open(path, "rb") as f:
        raw = f.read()
    if raw[:4] != SNAPSHOT_MAGIC:
        raise ValueError("not a qbingham field snapshot")
    n, nq, nv, t, length = struct.unpack("<QQQdd", raw[4:4 + 8 * 3 + 16])
    off = 4 + 8 * 3 + 16
    q = np.frombuffer(raw, dtype="<f8", count=n * n * nq, offset=off).reshape(n, n, nq)
    off += n * n * nq * 8
    v = np.frombuffer(raw, dtype="<f8", count=n * n * nv, offset=off).reshape(n, n, nv)
    return q.copy(), v.copy(), t, length


# ---------------------------------------------------------------------------
# experiment runners (each returns {filename: bytes}, plus extra status)
# ---------------------------------------------------------------------------

def _run_phase_table(cfg, log):
    from .equilibrium import crit_residual, leslie_dissipation_bound, phase_constants
    header = None
    rows = []
    for a in cfg.alphas:
        pc = phase_constants(a, cfg.params.L1, cfg.params.L2)
        d = pc.as_dict()
        checks = {
            "res_crit": abs(crit_residual(pc.eta, a)),
            "rel_alpha_identity": abs(a - pc.A0 / (pc.A2 - pc.A4)) / a,
            "ineq_a": 3 * pc.A2**2 + 2 * pc.A0 * pc.A2 - 5 * pc.A0 * pc.A4,
            "ineq_b": 6 * pc.A2 - 5 * pc.A4 - pc.A0,
            "xi_sum_defect": abs(pc.xi2 + pc.xi3 - 1.0 / a),
            "psi_sum_defect": abs(pc.psi2 + pc.psi3 - a),
            "parodi_defect": abs(pc.alpha2 + pc.alpha3 - (pc.alpha6 - pc.alpha5)),
            "gamma2_defect": abs(pc.gamma2 + pc.S2),
            "diss_1": pc.alpha1 + pc.gamma2**2 / pc.gamma1,
            "diss_2": pc.alpha4,
            "diss_3": pc.alpha5 + pc.alpha6 - pc.gamma2**2 / pc.gamma1,
            "diss_4": 1.0 / pc.gamma1,
            "diss_form_bound": leslie_dissipation_bound(pc),
        }
        # diss_3 is reported for reference; it is negative on this branch,
        # so the gate uses the sharp bound of the full quadratic form
        ok = (checks["res_crit"] <= 1e-10 and checks["rel_alpha_identity"] <= 1e-8
              and checks["ineq_a"] > 0 and checks["ineq_b"] > 0
              and checks["xi_sum_defect"] <= 1e-10
              and checks["parodi_defect"] <= 1e-12
              and checks["diss_1"] > 0 and checks["diss_2"] > 0
              and checks["diss_form_bound"] > 0 and checks["diss_4"] > 0)
        d.update(checks)
        d["pass"] = ok
        if header is None:
            header = list(d)
        rows.append([d[k] for k in header])
        log(f"alpha={a:g}: eta={pc.eta:.6f} S2={pc.S2:.6f} zeta={pc.zeta:.6f} "
            f"pass={ok}")
    recs = [dict(zip(header, r)) for r in rows]
    failed = [r for r in recs if not r["pass"]]
    return {
        "phase_table.csv": _csv_bytes(header, rows),
        "phase_table.json": _json_bytes(recs),
    }, not failed


def _sample_physical(rng, n, margin):
    """Uniform eigenvalue pairs inside the margin simplex."""
    out = np.empty((n, 2))
    k = 0
    while k < n:
        cand = rng.uniform(-1 / 3 + margin, 2 / 3 - margin, size=(2 * n, 2))
        q3 = -cand.sum(axis=1)
        good = cand[(q3 >= -1 / 3 + margin) & (q3 <= 2 / 3 - margin)]
        take = min(n - k, len(good))
        out[k:k + take] = good[:take]
        k += take
    return out


def _random_rotations(rng, n):
    """Haar-ish rotations from QR of Gaussian matrices."""
    a = rng.normal(size=(n, 3, 3))
    q, r = np.linalg.qr(a)
    sgn = np.sign(np.einsum("nii->ni", r))
    sgn[sgn == 0] = 1.0
    q = q * sgn[:, None, :]
    det = np.linalg.det(q)
    q[det < 0, :, 2] *= -1.0
    return q


def _run_closure_validate(cfg, log):
    from .closure import bingham_map_batch, spread_bound
    from .sphere import build_quadrature, bingham_moments
    from .tensors import from_matrix, to_matrix, qnorm

    t_start = time.perf_counter()
    rng = np.random.default_rng(cfg.seed)
    margin = cfg.params.delta
    eigs2 = _sample_physical(rng, cfg.samples, margin)
    eigs = np.concatenate([eigs2, -eigs2.sum(axis=1, keepdims=True)], axis=1)
    rots = _random_rotations(rng, cfg.samples)
    qmats = np.einsum("nik,nk,njk->nij", rots, eigs, rots)
    q5 = from_matrix(qmats)

    t0 = time.perf_counter()
    res = bingham_map_batch(q5, delta=margin, tol=1e-11)
    solve_s = time.perf_counter() - t0
    lam = spread_bound(margin)

    # independent forward check through the full-sphere quadrature
    quad = build_quadrature(cfg.n_polar, cfg.n_azimuthal)
    check_idx = rng.choice(cfg.samples, size=min(cfg.samples, 64), replace=False)
    fwd_err = 0.0
    for i in check_idx:
        mo = bingham_moments(res.B5[i], quad)
        fwd_err = max(fwd_err, float(qnorm(mo.q_of_b - q5[i])))

    rows = []
    for i in range(cfg.samples):
        rows.append([
            *eigs[i], float(res.residual[i]), int(res.iterations[i]),
            bool(res.used_damping[i]), float(res.spread[i]),
        ])
    summary = {
        "samples": cfg.samples,
        "margin": margin,
        "max_residual": float(res.residual.max()),
        "max_spread": float(res.spread.max()),
        "spread_bound": lam,
        "spread_bound_satisfied": bool(res.spread.max() <= lam),
        "independent_forward_max_err": fwd_err,
        "independent_forward_checked": int(len(check_idx)),
        "total_solve_seconds": solve_s,
        "wall_seconds": time.perf_counter() - t_start,
        "mean_solve_ms": 1e3 * solve_s / cfg.samples,
    }
    log(f"closure-validate: max residual {summary['max_residual']:.3e}, "
        f"max spread {summary['max_spread']:.2f} <= {lam:.2f}: "
        f"{summary['spread_bound_satisfied']}")
    ok = (summary["max_residual"] <= 1e-10 and summary["spread_bound_satisfied"]
          and fwd_err <= 1e-10)
    return {
        "closure_samples.csv": _csv_bytes(
            ["q1", "q2", "q3", "residual", "iterations", "damped", "spread"], rows),
        "closure_summary.json": _json_bytes(summary),
    }, ok


def _run_homogeneous(cfg, log):
    from .dynamics import HomState, default_hom_dt, shear_kappa, step_homogeneous
    from .equilibrium import phase_constants, uniaxial_field
    from .leslie import extract_director
    from .tensors import biaxiality

    p = cfg.params
    pc = phase_constants(p.alpha, p.L1, p.L2)
    kappa = shear_kappa(cfg.shear_rate)
    n0 = np.array([np.cos(cfg.theta0), np.sin(cfg.theta0), 0.0])
    state = HomState(q5=uniaxial_field(pc.S2, n0), kappa=kappa)
    dt = cfg.dt or default_hom_dt(p, pc)
    n_steps = int(np.ceil(cfg.t_final / dt))
    dt = cfg.t_final / n_steps

    rows = []
    prev = n0
    for k in range(n_steps + 1):
        ndir, _ = extract_director(state.q5, prev)
        prev = ndir
        theta = float(np.arctan2(ndir[1], ndir[0]))
        rows.append([state.t, *state.q5, float(biaxiality(state.q5)), theta, *ndir])
        if k < n_steps:
            state = step_homogeneous(state, dt, p)
    log(f"homogeneous-run: {n_steps} steps, final angle {rows[-1][7]:.5f}")
    sampled = rows[::cfg.sample_every] if cfg.sample_every > 1 else rows
    return {
        "hom_series.csv": _csv_bytes(
            ["t", "q11", "q22", "q12", "q13", "q23", "biaxiality",
             "angle", "nx", "ny", "nz"], sampled),
    }, True


def _field_common(cfg, log, audit):
    from .dynamics import FieldSolver, energy_report, smooth_random_state
    from .spectral import Grid2D

    p = cfg.params
    grid = Grid2D(cfg.grid_n, cfg.grid_length)
    state = smooth_random_state(grid, p, cfg.seed, q_amplitude=cfg.q_amplitude,
                                v_amplitude=cfg.v_amplitude)
    solver = FieldSolver(grid, p)
    dt = cfg.dt or solver.default_dt(state)
    state = solver.close(state)

    series = [energy_report(state, p)]

    def sample(k, st):
        if audit or k % cfg.sample_every == 0:
            series.append(energy_report(st, p))

    t0 = time.perf_counter()
    state = solver.run(state, dt, cfg.steps, callback=sample)
    wall = time.perf_counter() - t0
    log(f"field run: {cfg.steps} steps of dt={dt:g} in {wall:.1f}s; "
        f"E {series[0].total:.6f} -> {series[-1].total:.6f}")

    header = ["t", "kinetic", "bulk", "elastic", "total",
              "d_viscous", "d_closure", "d_rotational"]
    rows = [[r.t, r.kinetic, r.bulk, r.elastic, r.total,
             r.d_viscous, r.d_closure, r.d_rotational] for r in series]
    return grid, state, series, {
        "energy_series.csv": _csv_bytes(header, rows),
    }, dt, wall


def _run_field(cfg, log):
    grid, state, series, outputs, dt, wall = _field_common(cfg, log, audit=False)
    if cfg.snapshot:
        # snapshot written separately because of its two-file layout
        outputs["__snapshot__"] = state
    dt_final = state.hist.dt  # run() halves dt on a physicality loss
    outputs["run_summary.json"] = _json_bytes({
        "steps": cfg.steps, "dt": dt, "wall_seconds": wall,
        "dt_final": dt_final, "halvings": round(math.log2(dt / dt_final)),
        "t_final": state.t,
        "final_total_energy": series[-1].total,
        "initial_total_energy": series[0].total,
    })
    return outputs, True


def _run_energy_audit(cfg, log):
    grid, state, series, outputs, dt, wall = _field_common(cfg, log, audit=True)
    e = np.array([r.total for r in series])
    d = np.array([r.dissipation for r in series])
    t = np.array([r.t for r in series])
    scale = abs(e[0])
    upticks = np.diff(e)
    max_uptick = float(upticks.max()) if len(upticks) else 0.0
    monotone = bool(max_uptick <= 1e-10 * scale)
    drop = float(e[0] - e[-1])
    integrated = float(np.trapezoid(d, t))
    balance_rel = abs(integrated - drop) / max(abs(drop), 1e-300)
    verdict = {
        "steps": cfg.steps, "dt": dt, "wall_seconds": wall,
        "energy_initial": float(e[0]), "energy_final": float(e[-1]),
        "max_uptick": max_uptick, "uptick_tolerance": 1e-10 * scale,
        "monotone": monotone,
        "energy_drop": drop, "integrated_dissipation": integrated,
        "dissipation_balance_rel_err": balance_rel,
        "balance_ok": bool(balance_rel <= 0.01),
    }
    ok = monotone and verdict["balance_ok"]
    log(f"energy-audit: monotone={monotone} balance_rel={balance_rel:.3e} -> "
        f"{'PASS' if ok else 'FAIL'}")
    outputs["audit.json"] = _json_bytes(verdict)
    return outputs, ok


def _run_small_de(cfg, log):
    from .dynamics import shear_kappa
    from .leslie import small_de_experiment

    table = small_de_experiment(cfg.params, list(cfg.de_list),
                                shear_kappa(cfg.shear_rate), cfg.t_final)
    recs = table.as_records()
    for r in recs:
        log(f"De={r['De']:g}: sup angle err {r['sup_angle_err']:.5f}, "
            f"sup biaxiality {r['sup_biaxiality']:.3e}")
    log(f"fitted slope: {table.fitted_slope}")
    header = ["De", "sup_angle_err", "sup_biaxiality", "fitted_slope_running", "error"]
    rows = [[r[h] if r[h] is not None else "" for h in header] for r in recs]
    ok = all(not r["error"] for r in recs) and table.fitted_slope is not None
    return {
        "small_de.csv": _csv_bytes(header, rows),
        "small_de.json": _json_bytes({
            "rows": recs, "fitted_slope": table.fitted_slope,
            "alpha": table.alpha, "zeta": table.zeta,
            "theta_leslie": table.theta_leslie,
        }),
    }, ok


_RUNNERS = {
    "phase-table": _run_phase_table,
    "closure-validate": _run_closure_validate,
    "homogeneous-run": _run_homogeneous,
    "field-run": _run_field,
    "energy-audit": _run_energy_audit,
    "small-de": _run_small_de,
}


def run_experiment(cfg, out_dir, quiet=False):
    """Run one experiment; returns the process exit code."""
    from . import __version__
    import scipy

    def log(msg):
        if not quiet:
            print(msg, file=sys.stderr)

    os.makedirs(out_dir, exist_ok=True)
    with _dir_lock(out_dir):
        t0 = time.perf_counter()
        outputs, ok = _RUNNERS[cfg.experiment](cfg, log)
        wall = time.perf_counter() - t0

        snapshot_state = outputs.pop("__snapshot__", None)
        hashes = {}
        for name, data in outputs.items():
            path = os.path.join(out_dir, name)
            _write_atomic(path, data)
            hashes[name] = hashlib.sha256(data).hexdigest()
        if snapshot_state is not None:
            path = os.path.join(out_dir, "field_final.qbf")
            write_snapshot(path, snapshot_state, cfg.params)
            for name in ("field_final.qbf", "field_final.qbf.json"):
                with open(os.path.join(out_dir, name), "rb") as f:
                    hashes[name] = hashlib.sha256(f.read()).hexdigest()

        cfg_text = json.dumps(cfg.raw, sort_keys=True).encode()
        manifest = {
            "experiment": cfg.experiment,
            "seed": cfg.seed,
            "config": cfg.raw,
            "config_sha256": hashlib.sha256(cfg_text).hexdigest(),
            "outputs": hashes,
            "versions": {
                "qbingham": __version__,
                "numpy": np.__version__,
                "scipy": scipy.__version__,
                "python": sys.version.split()[0],
            },
            "wall_time_s": wall,
            "status": "pass" if ok else "fail",
        }
        _write_atomic(os.path.join(out_dir, "manifest.json"), _json_bytes(manifest))
        log(f"wrote {len(hashes) + 1} files to {out_dir} in {wall:.1f}s")
    return 0 if ok else 3


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="qbingham",
        description="Q-tensor liquid crystal experiments with the Bingham closure")
    sub = parser.add_subparsers(dest="command", required=True)
    from .config import EXPERIMENTS
    for kind in EXPERIMENTS:
        p = sub.add_parser(kind, help=f"run the {kind} experiment")
        p.add_argument("--config", help="JSON config file (defaults built in)")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, help="override the RNG seed")
        p.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)

    from .config import ConfigError, validate_config, default_config
    try:
        if args.config:
            with open(args.config) as f:
                doc = json.load(f)
            if not isinstance(doc, dict):
                raise ConfigError(["top level must be a JSON object"])
            doc.setdefault("experiment", args.command)
            if doc["experiment"] != args.command:
                raise ConfigError([
                    f"experiment: config says {doc['experiment']!r} but the "
                    f"subcommand is {args.command!r}"])
            if args.seed is not None:
                doc["seed"] = args.seed
            cfg = validate_config(doc)
        else:
            over = {} if args.seed is None else {"seed": args.seed}
            cfg = default_config(args.command, **over)
    except (ConfigError, OSError, json.JSONDecodeError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2

    try:
        return run_experiment(cfg, args.out, quiet=args.quiet)
    except OutputLockedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, ArithmeticError) as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
