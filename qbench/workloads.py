"""The three pinned workloads: configs, set-up, output checks and references.

Every workload runs one CLI experiment through ``qbingham.cli.run_experiment``
and verifies the artifacts it writes. A check is a named pass/fail with the
measured value beside it; reference values come from ``reference.json``,
recorded from the tree that introduced the benchmark (see ``record.py``).
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

# Tolerance every experiment here solves the closure to (closure-validate
# passes it explicitly, the others use the package default of the same value).
CLOSURE_TOL = 1e-11
# A reference value v passes when |x - v| <= REF_FACTOR * CLOSURE_TOL * max(1, |v|).
# Tightening the closure tolerance tenfold moves the recorded values by at most
# 2e-12 (energies) and 2e-10 (small-de slope), so this leaves a margin of 50x.
REF_FACTOR = 1e3
# --seed n selects input set n % INPUT_SETS of a seeded workload; references
# exist for all of them.
INPUT_SETS = 16
HELD_OUT_SEED = 7  # for checking a claimed gain on inputs it was not tuned on

GATE_RESIDUAL = 1e-10
GATE_FORWARD = 1e-10
GATE_DIVERGENCE = 1e-10
MONOTONE_REL = 1e-10

# keys of the experiment summaries that hold timings, not results
_TIMING_KEYS = {"wall_seconds", "total_solve_seconds", "mean_solve_ms"}


@dataclass
class Verdict:
    """Outcome of checking one experiment's artifacts."""

    units: int                   # operations the run attempted
    failed_units: int = 0        # of which failed
    checks: list = field(default_factory=list)    # (name, ok, detail)
    values: dict = field(default_factory=dict)    # results compared to the reference
    extra: dict = field(default_factory=dict)     # reported, not gated

    def gate(self, name, ok, detail=""):
        self.checks.append((name, bool(ok), detail))

    @property
    def ok(self):
        return all(ok for _, ok, _ in self.checks)


@dataclass(frozen=True)
class Workload:
    name: str
    experiment: str
    overrides: dict
    seeded: bool     # whether --seed selects the experiment's inputs (else seed 0)
    step_unit: str   # what one step_ms sample times
    why: str

    def config(self, seed):
        from qbingham.config import default_config
        seed = input_seed(seed) if self.seeded else 0
        return default_config(self.experiment, seed=seed, **self.overrides)

    def reference_key(self, seed):
        return str(input_seed(seed)) if self.seeded else "any"


def input_seed(seed):
    return int(seed) % INPUT_SETS


WORKLOADS = {
    w.name: w for w in (
        # Pinned to seed 0: the initial data sets the eigenvalue range of B and
        # with it the closure node count (peak memory 143-165 MB over seeds
        # 1-10), which spread wall_s by 19% across seeds against 10-14% of
        # host noise on the other workloads.
        Workload(
            "field-n64", "field-run",
            {"grid": {"n": 64}, "dt": 0.1, "steps": 30, "sample_every": 1},
            seeded=False, step_unit="field step plus its energy-ledger sample",
            why="2D (Q, v) field run, 64x64 grid, 30 steps with the ledger every "
                "step: warm-started batched closure, spectral transforms, implicit solves"),
        Workload(
            "closure-validate", "closure-validate",
            {"params": {"delta": 0.02}},
            seeded=True, step_unit="full-sphere forward check (bingham_moments)",
            why="1000 cold closure inversions near the simplex edge with node-upgrade "
                "retries, plus 64 dense forward checks; no spectral work or stepping"),
        Workload(
            "small-de", "small-de", {},
            seeded=False, step_unit="homogeneous RK4 step (step_homogeneous)",
            why="small-Deborah limit at 4 De values: 15k single-point closure calls, "
                "so per-call overhead dominates"),
    )
}


# ---------------------------------------------------------------------------
# set-up: what each experiment builds before its first timed operation
# ---------------------------------------------------------------------------

def setup(workload, seed):
    """Imports plus the objects the experiment constructs before it starts work."""
    import qbingham  # noqa: F401
    import qbingham.cli  # noqa: F401
    cfg = workload.config(seed)
    p = cfg.params
    if workload.experiment == "field-run":
        from qbingham.dynamics import FieldSolver, smooth_random_state
        from qbingham.spectral import Grid2D
        grid = Grid2D(cfg.grid_n, cfg.grid_length)
        smooth_random_state(grid, p, cfg.seed, q_amplitude=cfg.q_amplitude,
                            v_amplitude=cfg.v_amplitude)
        FieldSolver(grid, p)
    elif workload.experiment == "closure-validate":
        from qbingham.sphere import build_quadrature
        build_quadrature(cfg.n_polar, cfg.n_azimuthal)
    else:
        from qbingham.equilibrium import phase_constants
        phase_constants(p.alpha, p.L1, p.L2)


# ---------------------------------------------------------------------------
# artifact readers
# ---------------------------------------------------------------------------

def _read_json(out_dir, name):
    with open(os.path.join(out_dir, name)) as f:
        return json.load(f)


def _read_csv(out_dir, name):
    with open(os.path.join(out_dir, name), newline="") as f:
        rows = list(csv.reader(f))
    return rows[0], rows[1:]


def output_digest(out_dir):
    """Hash of every artifact except the manifest, with timing fields removed."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(out_dir)):
        if name == "manifest.json" or name.startswith("."):
            continue
        with open(os.path.join(out_dir, name), "rb") as f:
            data = f.read()
        if name.endswith(".json"):
            doc = json.loads(data)
            if isinstance(doc, dict):
                doc = {k: v for k, v in doc.items() if k not in _TIMING_KEYS}
            data = json.dumps(doc, sort_keys=True).encode()
        h.update(name.encode() + b"\0" + data + b"\0")
    return h.hexdigest()


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def check(workload, cfg, out_dir, reference):
    """Gate the artifacts of one run and compare them with the reference."""
    manifest = _read_json(out_dir, "manifest.json")
    checker = {"field-run": _check_field, "closure-validate": _check_closure,
               "small-de": _check_small_de}[workload.experiment]
    verdict = checker(cfg, out_dir)
    verdict.gate("manifest status pass", manifest.get("status") == "pass",
                 manifest.get("status"))
    if reference is None:
        verdict.gate("reference recorded", False, "no reference for this input set")
    else:
        atol = REF_FACTOR * CLOSURE_TOL
        for key, ref in reference.items():
            got = verdict.values.get(key)
            ok = (got is not None and math.isfinite(got)
                  and abs(got - ref) <= atol * max(1.0, abs(ref)))
            verdict.gate(f"reference {key}", ok, f"{got!r} vs {ref!r}")
    return verdict


def _margin(q5):
    """min(lambda_min + 1/3, 2/3 - lambda_max) over a qvec field, by LAPACK
    rather than the package's own eig_sym3."""
    from qbingham.tensors import to_matrix
    w = np.linalg.eigvalsh(to_matrix(q5.reshape(-1, 5)))
    return float(np.minimum(w[:, 0] + 1.0 / 3.0, 2.0 / 3.0 - w[:, 2]).min())


def _check_field(cfg, out_dir):
    header, rows = _read_csv(out_dir, "energy_series.csv")
    a = np.array(rows, dtype=float)
    col = {h: a[:, i] for i, h in enumerate(header)}
    t, e = col["t"], col["total"]
    d = col["d_viscous"] + col["d_closure"] + col["d_rotational"]
    dts = np.diff(t)
    halvings = int(round(math.log2(cfg.dt / dts.min()))) if len(dts) else 0
    v = Verdict(units=cfg.steps, failed_units=halvings)
    v.gate("ledger sampled every step", len(rows) == cfg.steps + 1, len(rows))
    v.gate("no dt halving", halvings == 0, halvings)
    uptick = float(np.diff(e).max())
    v.gate("energy monotone", uptick <= MONOTONE_REL * abs(e[0]), f"max uptick {uptick:.3e}")
    drop = float(e[0] - e[-1])
    v.extra["energy_balance_rel"] = abs(float(np.trapezoid(d, t)) - drop) / max(abs(drop), 1e-300)

    from qbingham.cli import read_snapshot
    from qbingham.spectral import Grid2D
    q5, vel, _, length = read_snapshot(os.path.join(out_dir, "field_final.qbf"))
    div = Grid2D(q5.shape[0], length).divergence_residual(vel)
    v.gate("divergence residual", div <= GATE_DIVERGENCE, f"{div:.3e}")
    margin = _margin(q5)
    v.gate("margin >= delta/2", margin >= cfg.params.delta / 2.0, f"{margin:.4f}")
    v.values.update({f"final_{k}": float(col[k][-1])
                     for k in ("kinetic", "bulk", "elastic", "total")})
    v.values["initial_total"] = float(e[0])
    return v


def _check_closure(cfg, out_dir):
    s = _read_json(out_dir, "closure_summary.json")
    header, rows = _read_csv(out_dir, "closure_samples.csv")
    res = np.array([float(r[header.index("residual")]) for r in rows])
    spread = np.array([float(r[header.index("spread")]) for r in rows])
    bad = int(np.sum(~(res <= GATE_RESIDUAL)))
    v = Verdict(units=cfg.samples + s["independent_forward_checked"], failed_units=bad)
    v.gate("all samples solved", len(rows) == cfg.samples, len(rows))
    v.gate("closure residual", res.max() <= GATE_RESIDUAL, f"{res.max():.3e}")
    v.gate("spread <= Lambda(delta)", spread.max() <= s["spread_bound"],
           f"{spread.max():.2f} <= {s['spread_bound']:.2f}")
    fwd = s["independent_forward_max_err"]
    v.gate("forward error", fwd <= GATE_FORWARD, f"{fwd:.3e}")
    v.gate("64 forward checks", s["independent_forward_checked"] == 64,
           s["independent_forward_checked"])
    if not fwd <= GATE_FORWARD:
        v.failed_units += 1
    v.values.update({"max_residual": float(res.max()), "max_spread": float(spread.max()),
                     "spread_bound": float(s["spread_bound"])})
    v.extra["solve_s"] = float(s["total_solve_seconds"])
    return v


def _check_small_de(cfg, out_dir):
    s = _read_json(out_dir, "small_de.json")
    rows = s["rows"]
    errs = [r for r in rows
            if r["error"] or not (math.isfinite(r["sup_angle_err"])
                                  and math.isfinite(r["sup_biaxiality"]))]
    v = Verdict(units=len(rows), failed_units=len(errs))
    v.gate("every De row finite", not errs and len(rows) == len(cfg.de_list),
           f"{len(errs)} bad of {len(rows)}")
    slope = s["fitted_slope"]
    v.gate("fitted slope present", slope is not None and math.isfinite(slope), slope)
    if slope is not None:
        v.values["fitted_slope"] = float(slope)
        v.extra["small_de_slope"] = float(slope)
    for r in rows:
        v.values[f"sup_angle_err_de{r['De']:g}"] = float(r["sup_angle_err"])
        v.values[f"sup_biaxiality_de{r['De']:g}"] = float(r["sup_biaxiality"])
    return v
