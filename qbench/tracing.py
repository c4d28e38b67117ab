"""Spans around calls into qbingham's public functions, and the per-layer
metrics derived from them.

Tracing lives entirely in the benchmark: ``Tracer`` swaps each traced
function for a wrapper in every loaded ``qbingham`` module that binds it
(``from .closure import mq_apply_frame`` leaves a second reference in
``dynamics``), and traced methods on their class. A span records its name,
start, end, parent span and whether it raised. The wrapper's own bookkeeping
and the observers that read counts from return values are charged to the
caller as tracing cost, not as its self time. Self time is a span's duration
minus its children and that tracing cost.
"""
from __future__ import annotations

import collections
import importlib
import statistics
import sys
from time import perf_counter

import numpy as np


def _newton_batch(acc, args, kwargs, out):
    iters, damped = out[2], out[3]
    nodes = len((kwargs["nodes"] if "nodes" in kwargs else args[2])[0])
    n = len(iters)
    if n == 0:
        return
    it = int(iters.sum())
    acc["points"] += n
    acc["iters"] += it
    acc["sweeps"] += int(iters.max()) + 1
    acc["damped"] += int(damped.sum())
    acc["node_points"] += n * nodes
    # one exp per point, node and moment evaluation; line-search evaluations
    # happen inside the kernel and cannot be counted from here
    acc["exp_evals"] += nodes * (it + n)
    acc["tmp_bytes_max"] = max(acc["tmp_bytes_max"], 8 * n * nodes)


def _bingham_map_batch(acc, args, kwargs, out):
    n = len(out.residual)
    if n == 0:
        return
    acc["points"] += n
    acc["residual_max"] = max(acc["residual_max"], float(out.residual.max()))
    acc["spread_max"] = max(acc["spread_max"], float(out.spread.max()))
    w = out.q_eigs
    margin = float(np.minimum(w[:, 0] + 1.0 / 3.0, 2.0 / 3.0 - w[:, 2]).min())
    acc["margin_min"] = min(acc.get("margin_min", margin), margin)


def _eig_sym3(acc, args, kwargs, out):
    acc["matrices"] += int(np.prod(np.shape(args[0])[:-2]))


def _transform(acc, args, kwargs, out):
    acc["transforms"] += int(np.prod(np.shape(args[1])[2:]))


def _divergence_residual(acc, args, kwargs, out):
    acc["max"] = max(acc["max"], float(out))


def _step_homogeneous(acc, args, kwargs, out):
    depth = kwargs.get("_depth", args[4] if len(args) > 4 else 0)
    if depth > 0:
        acc["halved_calls"] += 1


# (module, function or Class.method, observer); observers read counts from
# the return value after the span has ended
TARGETS = (
    ("_kernels", "newton_batch", _newton_batch),
    ("closure", "bingham_map_batch", _bingham_map_batch),
    ("closure", "mq_apply_frame", None),
    ("closure", "m4_contract_frame", None),
    ("tensors", "eig_sym3", _eig_sym3),
    ("sphere", "bingham_moments", None),
    ("sphere", "build_quadrature", None),
    ("spectral", "Grid2D.fft", _transform),
    ("spectral", "Grid2D.ifft", _transform),
    ("spectral", "Grid2D.divergence_residual", _divergence_residual),
    ("spectral", "elastic_symbols", None),
    ("dynamics", "FieldSolver.run", None),
    ("dynamics", "FieldSolver.step", None),
    ("dynamics", "FieldSolver.rhs", None),
    ("dynamics", "mu_field", None),
    ("dynamics", "elastic_operator", None),
    ("dynamics", "distortion_stress", None),
    ("dynamics", "energy_report", None),
    ("dynamics", "smooth_random_state", None),
    ("dynamics", "step_homogeneous", _step_homogeneous),
    ("dynamics", "homogeneous_rhs", None),
    ("leslie", "small_de_experiment", None),
    ("leslie", "step_director", None),
    ("leslie", "extract_director", None),
    ("equilibrium", "phase_constants", None),
    ("cli", "run_experiment", None),
)


class Tracer:
    """Records spans while active; ``with tracer:`` installs the wrappers."""

    def __init__(self):
        self.names = []
        self.name_ids = {}
        self.span_name = []
        self.start = []
        self.end = []
        self.parent = []
        self.outer = []      # no enclosing span of the same name
        self.failed = []
        self.cost = []       # tracing cost inside the span, outside its children
        self.acc = collections.defaultdict(lambda: collections.defaultdict(int))
        self._stack = []
        self._active = []
        self._undo = []

    def _wrap(self, name, fn, observe):
        nid = self.name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
            self._active.append(0)
        span_name, start, end, parent = self.span_name, self.start, self.end, self.parent
        outer, failed, cost, stack, active = (
            self.outer, self.failed, self.cost, self._stack, self._active)
        acc = self.acc[name]

        def wrapper(*args, **kwargs):
            t_in = perf_counter()
            i = len(span_name)
            up = stack[-1] if stack else -1
            span_name.append(nid)
            parent.append(up)
            outer.append(active[nid] == 0)
            start.append(0.0)
            end.append(0.0)
            failed.append(True)
            cost.append(0.0)
            active[nid] += 1
            stack.append(i)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                active[nid] -= 1
                start[i] = t0
                end[i] = t1
            failed[i] = False
            if observe is not None:
                observe(acc, args, kwargs, out)
            if up >= 0:
                cost[up] += (t0 - t_in) + (perf_counter() - t1)
            return out

        return wrapper

    def __enter__(self):
        for modname, qual, observe in TARGETS:
            mod = importlib.import_module(f"qbingham.{modname}")
            name = f"{modname}.{qual}"
            if "." in qual:
                cls_name, attr = qual.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[attr]
                self._set(cls, attr, self._wrap(name, orig, observe), orig)
                continue
            orig = getattr(mod, qual)
            wrapped = self._wrap(name, orig, observe)
            for mname, m in list(sys.modules.items()):
                if mname == "qbingham" or mname.startswith("qbingham."):
                    for key, val in list(vars(m).items()):
                        if val is orig:
                            self._set(m, key, wrapped, orig)
        # the experiment body, as a child of run_experiment
        cli = importlib.import_module("qbingham.cli")
        for kind, fn in list(cli._RUNNERS.items()):
            cli._RUNNERS[kind] = self._wrap("cli.runner", fn, None)
            self._undo.append((cli._RUNNERS.__setitem__, kind, fn))
        return self

    def _set(self, owner, attr, new, orig):
        setattr(owner, attr, new)
        self._undo.append((lambda a, v, o=owner: setattr(o, a, v), attr, orig))

    def __exit__(self, *exc):
        while self._undo:
            put, key, orig = self._undo.pop()
            put(key, orig)
        return False

    # -- aggregation --------------------------------------------------------
    def stats(self):
        """Per name: calls, failed, outermost inclusive ms, self ms, durations."""
        n = len(self.span_name)
        dur = np.array(self.end) - np.array(self.start)
        par = np.array(self.parent, dtype=np.int64)
        child = np.zeros(n)
        has_parent = par >= 0
        np.add.at(child, par[has_parent], dur[has_parent])
        self_s = dur - child - np.array(self.cost)
        ids = np.array(self.span_name, dtype=np.int64)
        outer = np.array(self.outer, dtype=bool)
        failed = np.array(self.failed, dtype=bool)
        out = {}
        for nid, name in enumerate(self.names):
            sel = ids == nid
            out[name] = {
                "calls": int(sel.sum()),
                "failed": int((sel & failed).sum()),
                "ms": 1e3 * float(dur[sel & outer].sum()),
                "self_ms": 1e3 * float(self_s[sel].sum()),
                "ok_ms": 1e3 * dur[sel & ~failed],
            }
        # Newton attempts made directly by a bingham_map_batch call
        nb = self.name_ids.get("_kernels.newton_batch")
        bm = self.name_ids.get("closure.bingham_map_batch")
        attempts = 0
        if nb is not None and bm is not None:
            from_nb = (ids == nb) & has_parent
            attempts = int((ids[par[from_nb]] == bm).sum())
        return out, attempts


def _div(a, b):
    return a / b if b else 0.0


LAYERS = ("_kernels", "closure", "tensors", "sphere", "spectral", "dynamics",
          "leslie", "equilibrium", "cli")


def layer_metrics(tracer, reps, extra):
    """Per-layer metrics per traced repetition, as {name: (value, unit)}."""
    st, attempts = tracer.stats()
    empty = {"calls": 0, "failed": 0, "ms": 0.0, "self_ms": 0.0, "ok_ms": np.zeros(0)}

    def s(name):
        return st.get(name, empty)

    def a(name):
        return tracer.acc[name]

    m = {}

    def put(name, value, unit):
        m[name] = (float(value), unit)

    nb, nba = s("_kernels.newton_batch"), a("_kernels.newton_batch")
    put("newton_batch.calls", nb["calls"] / reps, "count")
    put("newton_batch.points", nba["points"] / reps, "count")
    put("newton_batch.self_ms", nb["self_ms"] / reps, "ms")
    put("newton_batch.sweeps", nba["sweeps"] / reps, "count")
    put("newton_batch.updates", nba["iters"] / reps, "count")
    put("newton_batch.iters_mean", _div(nba["iters"], nba["points"]), "count")
    put("newton_batch.damped_frac", _div(nba["damped"], nba["points"]), "ratio")
    put("newton_batch.nodes", _div(nba["node_points"], nba["points"]), "count")
    put("newton_batch.exp_evals", nba["exp_evals"] / reps, "count")
    put("newton_batch.ns_per_exp", _div(1e6 * nb["self_ms"], nba["exp_evals"]), "ns")
    put("newton_batch.tmp_mb", nba["tmp_bytes_max"] / 1e6, "MB")

    bm, bma = s("closure.bingham_map_batch"), a("closure.bingham_map_batch")
    put("bingham_map_batch.calls", bm["calls"] / reps, "count")
    put("bingham_map_batch.points", bma["points"] / reps, "count")
    put("bingham_map_batch.batch_mean", _div(bma["points"], bm["calls"]), "count")
    put("bingham_map_batch.self_ms", bm["self_ms"] / reps, "ms")
    put("bingham_map_batch.attempts_per_call", _div(attempts, bm["calls"]), "count")
    put("closure.residual_max", bma["residual_max"], "1")
    put("closure.spread_max", bma["spread_max"], "1")
    put("closure.margin_min", bma.get("margin_min", 0.0), "1")
    put("mq_apply_frame.ms", s("closure.mq_apply_frame")["ms"] / reps, "ms")
    put("m4_contract_frame.ms", s("closure.m4_contract_frame")["ms"] / reps, "ms")

    eg = s("tensors.eig_sym3")
    put("eig_sym3.calls", eg["calls"] / reps, "count")
    put("eig_sym3.matrices", a("tensors.eig_sym3")["matrices"] / reps, "count")
    put("eig_sym3.ms", eg["ms"] / reps, "ms")
    put("eig_sym3.us_per_call", _div(1e3 * eg["ms"], eg["calls"]), "us")

    put("bingham_moments.calls", s("sphere.bingham_moments")["calls"] / reps, "count")
    put("bingham_moments.ms", s("sphere.bingham_moments")["ms"] / reps, "ms")
    put("build_quadrature.ms", s("sphere.build_quadrature")["ms"] / reps, "ms")

    for kind in ("fft", "ifft"):
        put(f"{kind}.calls", s(f"spectral.Grid2D.{kind}")["calls"] / reps, "count")
        put(f"{kind}.ms", s(f"spectral.Grid2D.{kind}")["ms"] / reps, "ms")
    transforms = a("spectral.Grid2D.fft")["transforms"] + a("spectral.Grid2D.ifft")["transforms"]
    put("spectral.transforms", transforms / reps, "count")
    put("elastic_symbols.calls", s("spectral.elastic_symbols")["calls"] / reps, "count")
    put("elastic_symbols.ms", s("spectral.elastic_symbols")["ms"] / reps, "ms")

    step = s("dynamics.FieldSolver.step")
    good_steps = step["calls"] - step["failed"]
    put("FieldSolver.step.ms_p50",
        statistics.median(step["ok_ms"]) if len(step["ok_ms"]) else 0.0, "ms")
    put("FieldSolver.step.rejects", step["failed"] / reps, "count")
    put("FieldSolver.step.self_ms", step["self_ms"] / reps, "ms")
    put("FieldSolver.rhs.self_ms", s("dynamics.FieldSolver.rhs")["self_ms"] / reps, "ms")
    mu = s("dynamics.mu_field")
    put("mu_field.calls_per_step", _div(mu["calls"], good_steps), "count")
    put("mu_field.self_ms", mu["self_ms"] / reps, "ms")
    put("elastic_operator.ms", s("dynamics.elastic_operator")["ms"] / reps, "ms")
    put("distortion_stress.ms", s("dynamics.distortion_stress")["ms"] / reps, "ms")
    put("energy_report.self_ms", s("dynamics.energy_report")["self_ms"] / reps, "ms")
    put("dynamics.divergence_residual_max",
        a("spectral.Grid2D.divergence_residual")["max"], "1")
    hom = s("dynamics.step_homogeneous")
    put("step_homogeneous.calls", hom["calls"] / reps, "count")
    put("step_homogeneous.self_ms", hom["self_ms"] / reps, "ms")
    put("step_homogeneous.halvings",
        a("dynamics.step_homogeneous")["halved_calls"] / 2 / reps, "count")
    put("homogeneous_rhs.calls", s("dynamics.homogeneous_rhs")["calls"] / reps, "count")
    put("homogeneous_rhs.self_ms", s("dynamics.homogeneous_rhs")["self_ms"] / reps, "ms")
    put("ledger.energy_balance_rel", extra.get("energy_balance_rel", 0.0), "1")

    put("step_director.ms", s("leslie.step_director")["ms"] / reps, "ms")
    put("extract_director.ms", s("leslie.extract_director")["ms"] / reps, "ms")
    put("leslie.small_de_slope", extra.get("small_de_slope", 0.0), "1")

    put("phase_constants.calls", s("equilibrium.phase_constants")["calls"] / reps, "count")
    put("phase_constants.ms", s("equilibrium.phase_constants")["ms"] / reps, "ms")

    put("cli.write_ms", s("cli.run_experiment")["self_ms"] / reps, "ms")

    for layer in LAYERS:
        own = sum(v["self_ms"] for k, v in st.items() if k.split(".")[0] == layer)
        put(f"layer.{layer.lstrip('_')}.self_ms", own / reps, "ms")
    return m
