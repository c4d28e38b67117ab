"""Command-line experiment harness.

Subcommands mirror the experiment kinds; every run writes its artifacts
atomically into --out together with a manifest (config echo and hash,
content hashes, library versions, wall time). A CSV cell is the str() of
its value, quoted where csv needs it. One process per output directory,
enforced by a lockfile. Exit codes: 0 success, 2 configuration or usage
error, 3 numerical failure.
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
from dataclasses import asdict, astuple, fields

import numpy as np

__all__ = ["main", "run_experiment", "read_snapshot", "OutputLockedError"]

SNAPSHOT_MAGIC = b"QBF1"


class OutputLockedError(RuntimeError):
    """The output directory holds the lockfile of another run."""


# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------

def _csv_bytes(header, rows):
    """CSV of a header and rows; str() of a Python or numpy float64 is the
    shortest text that reads back to the same double."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue().encode()


def _json_bytes(obj):
    return (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode()


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


def _snapshot_bytes(state, params):
    """(binary snapshot, JSON parameter sidecar) of a field state.

    Layout (little endian): magic "QBF1", uint64 n, uint64 5, uint64 3,
    float64 t, float64 length, then n*n*5 float64 Q components (C order,
    components q11,q22,q12,q13,q23 fastest), then n*n*3 float64 velocity.
    """
    n = state.grid.n
    head = SNAPSHOT_MAGIC + struct.pack(
        "<QQQdd", n, 5, 3, float(state.t), float(state.grid.length))
    body = (np.ascontiguousarray(state.q5, dtype="<f8").tobytes()
            + np.ascontiguousarray(state.v, dtype="<f8").tobytes())
    side = {"params": asdict(params), "t": float(state.t),
            "grid": {"n": n, "length": float(state.grid.length)}}
    return head + body, _json_bytes(side)


def read_snapshot(path):
    """Read a snapshot back as (q5, v, t, length)."""
    with open(path, "rb") as f:
        raw = f.read()
    if raw[:4] != SNAPSHOT_MAGIC:
        raise ValueError("not a qbingham field snapshot")
    off = 4 + 8 * 3 + 16
    if len(raw) < off:
        raise ValueError(f"snapshot header needs {off} bytes, file has {len(raw)}")
    n, nq, nv, t, length = struct.unpack("<QQQdd", raw[4:off])
    if (nq, nv) != (5, 3):
        raise ValueError(f"snapshot component counts: expected (5, 3), found ({nq}, {nv})")
    size = off + 8 * n * n * (nq + nv)
    if len(raw) != size:
        raise ValueError(f"snapshot of n={n}: expected {size} bytes, found {len(raw)}")
    q = np.frombuffer(raw, dtype="<f8", count=n * n * nq, offset=off).reshape(n, n, nq)
    off += n * n * nq * 8
    v = np.frombuffer(raw, dtype="<f8", count=n * n * nv, offset=off).reshape(n, n, nv)
    return q.copy(), v.copy(), t, length


# ---------------------------------------------------------------------------
# experiment runners (each returns {filename: bytes}, plus extra status)
# ---------------------------------------------------------------------------

# the gates of a phase-table row: each defect within its tolerance, each
# quantity positive. psi_sum_defect, gamma2_defect and diss_3 are reported
# only: diss_3 is negative on this branch, so the gate uses the sharp bound
# of the full quadratic form. H_n is coercive off the rotation plane and the
# bulk relaxes there at positive rates, the linear stability the Hilbert
# expansion rests on
_PHASE_TOLERANCES = {
    "res_crit": 1e-10, "rel_alpha_identity": 1e-8, "xi_sum_defect": 1e-10,
    "parodi_defect": 1e-12,
}
_PHASE_POSITIVE = ("ineq_a", "ineq_b", "diss_1", "diss_2", "diss_form_bound", "diss_4",
                   "coercivity", "rate_par", "rate_perp")


def _run_phase_table(cfg, log):
    from .equilibrium import crit_residual, leslie_dissipation_bound, phase_constants
    recs = []
    for a in cfg.alphas:
        pc = phase_constants(a, cfg.params.L1, cfg.params.L2)
        d = asdict(pc)
        d.update({
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
            "coercivity": min(pc.h_par, pc.h_perp),
        })
        ok = (all(d[k] <= tol for k, tol in _PHASE_TOLERANCES.items())
              and all(d[k] > 0 for k in _PHASE_POSITIVE))
        d["pass"] = ok
        recs.append(d)
        log(f"alpha={a:g}: eta={pc.eta:.6f} S2={pc.S2:.6f} zeta={pc.zeta:.6f} "
            f"pass={ok}")
    return {
        "phase_table.csv": _csv_bytes(list(recs[0]), [list(r.values()) for r in recs]),
        "phase_table.json": _json_bytes(recs),
    }, all(r["pass"] for r in recs)


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
    """Haar rotations: the Q of the QR factorization of Gaussian 3x3 matrices
    with R's diagonal positive and det Q = +1, by Gram-Schmidt (column 1
    orthogonalized twice; once leaves ~1e-14 in RtR - I), column 2 the cross
    product of columns 0 and 1."""
    a = rng.normal(size=(n, 3, 3))
    c0 = a[..., 0] / np.linalg.norm(a[..., 0], axis=1, keepdims=True)
    c1 = a[..., 1]
    for _ in range(2):
        c1 = c1 - (c0 * c1).sum(axis=1, keepdims=True) * c0
    c1 /= np.linalg.norm(c1, axis=1, keepdims=True)
    return np.stack([c0, c1, np.cross(c0, c1)], axis=2)


def _run_closure_validate(cfg, log):
    from .closure import bingham_map_batch, spread_bound
    from .sphere import build_quadrature, bingham_moments
    from .tensors import from_matrix, qnorm

    t_start = time.perf_counter()
    rng = np.random.default_rng(cfg.seed)
    margin = cfg.params.delta
    eigs2 = _sample_physical(rng, cfg.samples, margin)
    eigs = np.concatenate([eigs2, -eigs2.sum(axis=1, keepdims=True)], axis=1)
    rots = _random_rotations(rng, cfg.samples)
    qmats = (rots * eigs[:, None, :]) @ rots.swapaxes(1, 2)
    q5 = from_matrix(qmats)

    t0 = time.perf_counter()
    res = bingham_map_batch(q5, delta=margin, tol=1e-11)
    solve_s = time.perf_counter() - t0
    lam = spread_bound(margin)

    # independent forward check through the full-sphere quadrature
    quad = build_quadrature(cfg.n_polar, cfg.n_azimuthal)
    check_idx = rng.choice(cfg.samples, size=min(cfg.samples, 64), replace=False)
    fwd_err = float(qnorm(bingham_moments(res.B5[check_idx], quad) - q5[check_idx]).max())

    rows = zip(*eigs.T.tolist(), res.residual.tolist(), res.iterations.tolist(),
               res.used_damping.tolist(), res.spread.tolist())
    summary = {
        "samples": cfg.samples,
        "margin": margin,
        "max_residual": float(res.residual.max()),
        "max_spread": float(res.spread.max()),
        "iterations_mean": float(res.iterations.mean()),
        "iterations_max": int(res.iterations.max()),
        "damped_fraction": float(res.used_damping.mean()),
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


def _keeps_reflection(q5):
    """Whether a homogeneous-run series q5 (T, 5), one row per step from
    t = 0, keeps q13 = q23 = 0 to rounding.

    n0 and the shear lie in the x-y plane, so the reflection z -> -z maps
    the problem to itself and the exact solution has q13 = q23 = 0; the
    initial Q has them 0 to the bit. Rounding can enter a step only through
    its four RK4 stage rates, each rotated out of the eigenframe by 9-term
    sums (at most ~9 u of h |dQ/dt| <= |Q| each, u the unit roundoff), so
    under 40 u max|Q| a step; the gate allows 64 u max|Q| per step."""
    u = np.finfo(float).eps / 2.0
    bound = 64.0 * u * max(len(q5) - 1, 1) * np.abs(q5).max()
    return bool(np.abs(q5[:, 3:]).max() <= bound)


def _run_homogeneous(cfg, log):
    from .dynamics import default_hom_dt, shear_kappa
    from .equilibrium import phase_constants
    from .leslie import homogeneous_trajectory
    from .tensors import biaxiality

    p = cfg.params
    pc = phase_constants(p.alpha, p.L1, p.L2)
    n0 = np.array([np.cos(cfg.theta0), np.sin(cfg.theta0), 0.0])
    rows, errors = [], {}
    for _rows, state, ndir, _dt in homogeneous_trajectory(
            p, shear_kappa(cfg.shear_rate), n0, cfg.t_final, [p.de],
            [cfg.dt or default_hom_dt(p.de, pc)], pc, errors):
        n = ndir[0]
        rows.append([state.t[0], *state.q5[0], float(biaxiality(state.closure.q_eigs[0])),
                     float(np.arctan2(n[1], n[0])), *n])
    if errors:
        raise errors[0]
    ok = _keeps_reflection(np.array(rows)[:, 1:6])
    log(f"homogeneous-run: {len(rows) - 1} steps, final angle {rows[-1][7]:.5f}, "
        f"q13 = q23 = 0 kept: {ok}")
    return {
        "hom_series.csv": _csv_bytes(
            ["t", "q11", "q22", "q12", "q13", "q23", "biaxiality",
             "angle", "nx", "ny", "nz"], rows[::cfg.sample_every]),
    }, ok


def _field_common(cfg, log, sample_every):
    from .dynamics import EnergyReport, FieldSolver, energy_report, smooth_random_state
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
        if k % sample_every == 0:
            series.append(energy_report(st, p))

    t0 = time.perf_counter()
    state = solver.run(state, dt, cfg.steps, callback=sample)
    wall = time.perf_counter() - t0
    log(f"field run: {cfg.steps} steps of dt={dt:g} in {wall:.1f}s; "
        f"E {series[0].total:.6f} -> {series[-1].total:.6f}")

    return state, series, {
        "energy_series.csv": _csv_bytes([f.name for f in fields(EnergyReport)],
                                        map(astuple, series)),
    }, dt, wall


# the energy of an unforced field run may rise between two ledger samples
# by at most this share of |E_0|, rounding on a dissipative step
UPTICK_REL = 1e-10


def _energy_monotone(e):
    """(largest rise between consecutive samples of the energy series e, its
    tolerance UPTICK_REL |E_0|, whether the rise stays within it): the
    dissipation law dE/dt <= 0 of an unforced run, up to rounding."""
    max_uptick = float(np.diff(e).max()) if len(e) > 1 else 0.0
    tolerance = UPTICK_REL * abs(float(e[0]))
    return max_uptick, tolerance, max_uptick <= tolerance


def _run_field(cfg, log):
    state, series, outputs, dt, wall = _field_common(cfg, log, cfg.sample_every)
    max_uptick, tolerance, monotone = _energy_monotone([r.total for r in series])
    log(f"field-run: max energy uptick {max_uptick:.3e} (tolerance {tolerance:.3e}) "
        f"-> {'PASS' if monotone else 'FAIL'}")
    if cfg.snapshot:
        outputs["field_final.qbf"], outputs["field_final.qbf.json"] = (
            _snapshot_bytes(state, cfg.params))
    dt_final = state.hist.dt  # run() halves dt on a physicality loss
    outputs["run_summary.json"] = _json_bytes({
        "steps": cfg.steps, "dt": dt, "wall_seconds": wall,
        "dt_final": dt_final, "halvings": round(math.log2(dt / dt_final)),
        "t_final": state.t,
        "final_total_energy": series[-1].total,
        "initial_total_energy": series[0].total,
        "max_uptick": max_uptick, "uptick_tolerance": tolerance, "monotone": monotone,
    })
    return outputs, monotone


def _run_energy_audit(cfg, log):
    state, series, outputs, dt, wall = _field_common(cfg, log, 1)
    e = np.array([r.total for r in series])
    d = np.array([r.dissipation for r in series])
    t = np.array([r.t for r in series])
    max_uptick, tolerance, monotone = _energy_monotone(e)
    drop = float(e[0] - e[-1])
    integrated = float(np.trapezoid(d, t))
    balance_rel = abs(integrated - drop) / max(abs(drop), 1e-300)
    verdict = {
        "steps": cfg.steps, "dt": dt, "wall_seconds": wall,
        "energy_initial": float(e[0]), "energy_final": float(e[-1]),
        "max_uptick": max_uptick, "uptick_tolerance": tolerance,
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

    n0 = np.array([np.cos(cfg.theta0), np.sin(cfg.theta0), 0.0])
    table = small_de_experiment(cfg.params, list(cfg.de_list),
                                shear_kappa(cfg.shear_rate), cfg.t_final, n0)
    recs = table["rows"]
    for r in recs:
        log(f"De={r['De']:g}: sup angle err {r['sup_angle_err']:.5f}, "
            f"sup biaxiality {r['sup_biaxiality']:.3e}")
    log(f"fitted slope: {table['fitted_slope']}")
    header = list(recs[0])
    rows = [["" if v is None else v for v in r.values()] for r in recs]
    ok = all(not r["error"] for r in recs) and table["fitted_slope"] is not None
    return {
        "small_de.csv": _csv_bytes(header, rows),
        "small_de.json": _json_bytes(table),
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

    def log(msg):
        if not quiet:
            print(msg, file=sys.stderr)

    os.makedirs(out_dir, exist_ok=True)
    with _dir_lock(out_dir):
        t0 = time.perf_counter()
        outputs, ok = _RUNNERS[cfg.experiment](cfg, log)
        wall = time.perf_counter() - t0

        hashes = {}
        for name, data in outputs.items():
            path = os.path.join(out_dir, name)
            _write_atomic(path, data)
            hashes[name] = hashlib.sha256(data).hexdigest()

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

    from .config import ConfigError, validate_config
    try:
        doc = {}
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
