"""Experiment configuration: strict parsing with full error reporting.

Configs are declarative JSON. Each key is declared once, by the
ExperimentConfig field it sets (see _key): its path ("grid.n" is the key n of
the nested "grid" object), default, kind and lower bound. Each experiment
accepts seed and the key paths _READS declares it reads, and rejects any
other key (a typo like "l2" for "L2", or dt, which small-de never reads, must
fail loudly, not silently default); every violation is reported with its path.

The "quadrature" object sets only the full-sphere reference rule of
closure-validate's forward checks; the closure solver sizes its own
eigenframe rule from the eigenvalue spread of B. The rule must be exact to
the degree the margin params.delta needs (_FORWARD_SIZING): below it the
forward check missed its 1e-10 gate on every input set tried, so the run
would exit 3. A margin below the sizing's narrowest, 0.002, is rejected: at
0.001 every input set tried had a solve past the exponent budget. The default
64 x 65 rule is exact below degree 128, as 64 x 128 would be: its odd
azimuth count serves the even integrands like twice as many.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

from .dynamics import ModelParams
from .equilibrium import critical_alpha

__all__ = ["ExperimentConfig", "ConfigError", "validate_config", "default_config",
           "EXPERIMENTS"]

# the key paths each experiment reads ("params": every key of it); all accept
# seed too, which --seed sets on every subcommand and the manifest records
_FIELD = "grid.n grid.length dt steps q_amplitude v_amplitude params"
_HOM = "t_final shear_rate theta0 params.alpha params.delta"
_READS = {
    "phase-table": "alphas params.L1 params.L2",
    "closure-validate": "samples quadrature.n_polar quadrature.n_azimuthal params.delta",
    "homogeneous-run": "dt sample_every params.de " + _HOM,
    "field-run": "sample_every snapshot " + _FIELD,
    "small-de": "de_list " + _HOM,
    "energy-audit": _FIELD,
}
EXPERIMENTS = tuple(_READS)

# (margin, degree): closure-validate's forward check at margin params.delta
# needs a full-sphere rule exact below the degree of the narrowest row whose
# margin is >= delta. On every coarser rule the check failed (> 1e-10) for
# each of 64 input sets, in a sweep over margins 0.3 to 0.002 (CHANGES.md).
_FORWARD_SIZING = ((0.3, 16), (0.25, 20), (0.2, 22), (0.15, 24), (0.1, 28), (0.07, 30),
                   (0.05, 32), (0.035, 34), (0.02, 36), (0.015, 40), (0.01, 42),
                   (0.007, 44), (0.002, 48))

_PARAM_DEFAULTS = {
    "alpha": 7.0, "epsilon": 0.05, "de": 1.0, "re": 1.0, "gamma": 0.5,
    "L1": 1.0, "L2": 0.5, "delta": 0.1,
}


class ConfigError(ValueError):
    """Invalid configuration; .errors lists every violation found."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("invalid configuration:\n  " + "\n  ".join(self.errors))


def _key(path, default, kind=float, bound=None):
    """A field read from the config key at path.

    kind is int or float (a number; a None default makes null valid), list
    (a non-empty list of floats, the bound applying to each), bool, or a
    class built from an object of float keys, the default naming them and
    their values. bound is (">=" or ">", lower bound) or None.
    """
    return field(metadata={"path": path, "default": default, "kind": kind, "bound": bound})


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    seed: int = _key("seed", 0, int, (">=", 0))
    params: ModelParams = _key("params", _PARAM_DEFAULTS, ModelParams)
    n_polar: int = _key("quadrature.n_polar", 64, int, (">=", 8))
    n_azimuthal: int = _key("quadrature.n_azimuthal", 65, int, (">=", 16))
    grid_n: int = _key("grid.n", 128, int, (">=", 8))
    grid_length: float = _key("grid.length", 6.283185307179586, float, (">", 0))
    dt: float | None = _key("dt", None, float, (">", 0))
    steps: int = _key("steps", 2000, int, (">=", 1))
    sample_every: int = _key("sample_every", 1, int, (">=", 1))
    alphas: tuple = _key("alphas", (7.0, 8.0, 10.0), list, (">", 0))
    samples: int = _key("samples", 1000, int, (">=", 1))
    de_list: tuple = _key("de_list", (0.2, 0.1, 0.05, 0.025), list, (">", 0))
    t_final: float = _key("t_final", 5.0, float, (">", 0))
    shear_rate: float = _key("shear_rate", 1.0)
    theta0: float = _key("theta0", 1.0)
    snapshot: bool = _key("snapshot", True, bool)
    q_amplitude: float = _key("q_amplitude", 0.5, float, (">=", 0))
    v_amplitude: float = _key("v_amplitude", 0.1, float, (">=", 0))
    raw: dict = field(repr=False, default_factory=dict)


_KEYS = {f.name: f.metadata for f in fields(ExperimentConfig) if f.metadata}


def _check_number(errors, path, val, bound=None, integer=False):
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        errors.append(f"{path}: expected a number, got {type(val).__name__}")
        return None
    if isinstance(val, float) and not math.isfinite(val):  # json reads NaN, Infinity
        errors.append(f"{path}: expected a finite number, got {val}")
        return None
    if integer and int(val) != val:
        errors.append(f"{path}: expected an integer")
        return None
    if bound is not None:
        op, lo = bound
        if val <= lo if op == ">" else val < lo:
            errors.append(f"{path}: must be {op} {lo}")
            return None
    return int(val) if integer else float(val)


def validate_config(doc):
    """Validate a parsed config dict; raises ConfigError listing all problems.

    A key the experiment does not read is unknown; an unknown experiment
    allows the keys of all. The bounds of the model parameters are
    ModelParams' own; its ValueError is reported as one "params" error.
    params.alpha and each alphas[i] must reach the nematic fold alpha*, below
    which no stable nematic root exists; de_list needs 2 values for a slope.
    """
    if not isinstance(doc, dict):
        raise ConfigError(["top level must be a JSON object"])
    errors = []
    exp = doc.get("experiment")
    if exp is None:
        errors.append("experiment: missing (one of: " + ", ".join(EXPERIMENTS) + ")")
    elif exp not in EXPERIMENTS:
        errors.append(f"experiment: unknown kind {exp!r}")

    # the names each object allows ("" is the top level), and the objects
    allowed = {"": {"experiment", "seed"}}
    for path in (_READS[exp] if exp in EXPERIMENTS else " ".join(_READS.values())).split():
        head, _, name = path.rpartition(".")
        allowed[""].add(head or name)
        if head:
            allowed.setdefault(head, set()).add(name)
        elif name == "params":
            allowed[name] = set(_PARAM_DEFAULTS)
    objects = {}
    for name, names in allowed.items():
        obj = doc.get(name, {}) if name else doc
        if not isinstance(obj, dict):
            errors.append(f"{name}: expected an object")
            obj = {}
        errors += [f"{name}.{k}: unknown key (allowed: {', '.join(sorted(names))})"
                   .removeprefix(".") for k in obj if k not in names]
        objects[name] = {k: v for k, v in obj.items() if k in names}

    values = {}
    for fname, k in _KEYS.items():
        path, default, kind, bound = k["path"], k["default"], k["kind"], k["bound"]
        head, _, name = path.rpartition(".")
        val = objects.get(head, {}).get(name, default)
        if kind in (int, float):
            values[fname] = (val if val is None and default is None
                             else _check_number(errors, path, val, bound, kind is int))
        elif kind is list:
            if not isinstance(val, (list, tuple)) or not val:
                errors.append(f"{path}: expected a non-empty list of numbers")
                val = []
            values[fname] = tuple(_check_number(errors, f"{path}[{i}]", v, bound)
                                  for i, v in enumerate(val))
        elif kind is bool:
            if not isinstance(val, bool):
                errors.append(f"{path}: expected true/false")
            values[fname] = val
        else:
            nums = {n: _check_number(errors, f"{path}.{n}", v)
                    for n, v in {**default, **objects.get(name, {})}.items() if n in default}
            if None not in nums.values():
                try:
                    values[fname] = kind(**nums)
                except ValueError as exc:
                    errors.append(f"{path}: {exc}")

    de = values["de_list"]
    if len(de) == 1:
        errors.append("de_list: expected at least 2 values to fit a slope")
    elif None not in de and any(b >= a for a, b in zip(de, de[1:])):
        errors.append("de_list: must be strictly decreasing")
    a_star = critical_alpha()[0]
    alphas = [(f"alphas[{i}]", a) for i, a in enumerate(values["alphas"])]
    if "params" in values:
        alphas.append(("params.alpha", values["params"].alpha))
    errors += [f"{path}: must be >= alpha* = {a_star:.6f} (the nematic fold)"
               for path, a in alphas if a is not None and a < a_star]

    rule = values["n_polar"], values["n_azimuthal"]
    if exp == "closure-validate" and "params" in values:
        delta, narrowest = values["params"].delta, _FORWARD_SIZING[-1][0]
        if delta < narrowest:
            errors.append(
                f"params.delta: closure-validate needs >= {narrowest:g}, the narrowest "
                f"margin its forward check was sized at; nearer the boundary a solve "
                f"needs an eigenvalue spread of B past the exponent budget and fails")
        elif None not in rule:
            errors += _forward_rule_errors(*rule, delta)

    if errors:
        raise ConfigError(errors)
    return ExperimentConfig(experiment=exp, raw=doc, **values)


def _forward_rule_errors(n_polar, n_azimuthal, delta):
    """The error of a full-sphere rule too coarse for the forward check at
    margin delta. The Bingham integrands are even in m, so the rule is exact
    below degree 2 n_polar in the polar angle and below n_azimuthal in the
    azimuth, or 2 n_azimuthal when that is odd (no node is then the antipode
    of another, and each latitude pair samples 2 n_azimuthal azimuths)."""
    degree = min(2 * n_polar, n_azimuthal * (1 + n_azimuthal % 2))
    need = next((d for m, d in reversed(_FORWARD_SIZING) if m >= delta), 16)
    if degree >= need:
        return []
    half = need // 2
    return [f"quadrature.n_polar, quadrature.n_azimuthal: the {n_polar} x {n_azimuthal} "
            f"rule integrates degree < {degree} exactly, but the forward check at "
            f"params.delta = {delta:g} needs degree < {need} (n_polar >= {half} and "
            f"n_azimuthal >= {need}, or odd and >= {half})"]


def default_config(experiment, **overrides):
    """Built-in config for one experiment kind, fully validated."""
    return validate_config({"experiment": experiment, **overrides})
