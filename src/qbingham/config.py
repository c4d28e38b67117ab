"""Experiment configuration: strict parsing with full error reporting.

Configs are declarative JSON. Unknown keys anywhere are rejected (a typo
like "l2" for "L2" must fail loudly, not silently default) and every
violation is reported at once with its key path.

The "quadrature" object sets only the full-sphere reference rule of
closure-validate's forward checks; the closure solver sizes its own
eigenframe rule from the eigenvalue spread of B.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .dynamics import ModelParams

__all__ = ["ExperimentConfig", "ConfigError", "validate_config", "default_config",
           "EXPERIMENTS"]

EXPERIMENTS = (
    "phase-table", "closure-validate", "homogeneous-run", "field-run",
    "small-de", "energy-audit",
)

_PARAM_DEFAULTS = {
    "alpha": 7.0, "epsilon": 0.05, "de": 1.0, "re": 1.0, "gamma": 0.5,
    "L1": 1.0, "L2": 0.5, "delta": 0.1,
}
_QUAD_DEFAULTS = {"n_polar": 64, "n_azimuthal": 128}
_GRID_DEFAULTS = {"n": 128, "length": 6.283185307179586}

_TOP_DEFAULTS = {
    "experiment": None,
    "seed": 0,
    "params": None,
    "quadrature": None,
    "grid": None,
    "dt": None,
    "steps": 2000,
    "sample_every": 1,
    "alphas": [7.0, 8.0, 10.0],
    "samples": 1000,
    "de_list": [0.2, 0.1, 0.05, 0.025],
    "t_final": 5.0,
    "shear_rate": 1.0,
    "theta0": 1.0,
    "snapshot": True,
    "q_amplitude": 0.5,
    "v_amplitude": 0.1,
}


class ConfigError(ValueError):
    """Invalid configuration; .errors lists every violation found."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("invalid configuration:\n  " + "\n  ".join(self.errors))


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    seed: int
    params: ModelParams
    n_polar: int
    n_azimuthal: int
    grid_n: int
    grid_length: float
    dt: float | None
    steps: int
    sample_every: int
    alphas: tuple
    samples: int
    de_list: tuple
    t_final: float
    shear_rate: float
    theta0: float
    snapshot: bool
    q_amplitude: float
    v_amplitude: float
    raw: dict = field(repr=False, default_factory=dict)


def _check_number(errors, path, val, lo=None, hi=None, integer=False,
                  strict_lo=False, strict_hi=False):
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        errors.append(f"{path}: expected a number, got {type(val).__name__}")
        return None
    if integer and int(val) != val:
        errors.append(f"{path}: expected an integer")
        return None
    if lo is not None and (val <= lo if strict_lo else val < lo):
        errors.append(f"{path}: must be {'>' if strict_lo else '>='} {lo}")
        return None
    if hi is not None and (val >= hi if strict_hi else val > hi):
        errors.append(f"{path}: must be {'<' if strict_hi else '<='} {hi}")
        return None
    return int(val) if integer else float(val)


def _reject_unknown(errors, path, given, allowed):
    for k in given:
        if k not in allowed:
            errors.append(f"{path}{k}: unknown key (allowed: {', '.join(sorted(allowed))})")


def validate_config(doc):
    """Validate a parsed config dict; raises ConfigError listing all problems.

    The bounds of the model parameters are ModelParams' own; its ValueError
    is reported as one "params" error.
    """
    errors = []
    if not isinstance(doc, dict):
        raise ConfigError(["top level must be a JSON object"])

    _reject_unknown(errors, "", doc, set(_TOP_DEFAULTS))

    exp = doc.get("experiment")
    if exp is None:
        errors.append("experiment: missing (one of: " + ", ".join(EXPERIMENTS) + ")")
    elif exp not in EXPERIMENTS:
        errors.append(f"experiment: unknown kind {exp!r}")

    seed = _check_number(errors, "seed", doc.get("seed", _TOP_DEFAULTS["seed"]),
                         lo=0, integer=True)

    pdoc = doc.get("params") or {}
    if not isinstance(pdoc, dict):
        errors.append("params: expected an object")
        pdoc = {}
    _reject_unknown(errors, "params.", pdoc, set(_PARAM_DEFAULTS))
    pvals = {k: _check_number(errors, f"params.{k}", v)
             for k, v in {**_PARAM_DEFAULTS, **pdoc}.items() if k in _PARAM_DEFAULTS}
    params = None
    if None not in pvals.values():
        try:
            params = ModelParams(**pvals)
        except ValueError as exc:
            errors.append(f"params: {exc}")

    qdoc = doc.get("quadrature") or {}
    if not isinstance(qdoc, dict):
        errors.append("quadrature: expected an object")
        qdoc = {}
    _reject_unknown(errors, "quadrature.", qdoc, set(_QUAD_DEFAULTS))
    qm = {**_QUAD_DEFAULTS, **qdoc}
    n_polar = _check_number(errors, "quadrature.n_polar", qm["n_polar"], lo=8, integer=True)
    n_az = _check_number(errors, "quadrature.n_azimuthal", qm["n_azimuthal"], lo=16, integer=True)

    gdoc = doc.get("grid") or {}
    if not isinstance(gdoc, dict):
        errors.append("grid: expected an object")
        gdoc = {}
    _reject_unknown(errors, "grid.", gdoc, set(_GRID_DEFAULTS))
    gm = {**_GRID_DEFAULTS, **gdoc}
    grid_n = _check_number(errors, "grid.n", gm["n"], lo=8, integer=True)
    grid_len = _check_number(errors, "grid.length", gm["length"], lo=0, strict_lo=True)

    dt = doc.get("dt", None)
    if dt is not None:
        dt = _check_number(errors, "dt", dt, lo=0, strict_lo=True)
    steps = _check_number(errors, "steps", doc.get("steps", _TOP_DEFAULTS["steps"]),
                          lo=1, integer=True)
    sample_every = _check_number(errors, "sample_every",
                                 doc.get("sample_every", _TOP_DEFAULTS["sample_every"]),
                                 lo=1, integer=True)
    samples = _check_number(errors, "samples", doc.get("samples", _TOP_DEFAULTS["samples"]),
                            lo=1, integer=True)
    t_final = _check_number(errors, "t_final", doc.get("t_final", _TOP_DEFAULTS["t_final"]),
                            lo=0, strict_lo=True)
    shear_rate = _check_number(errors, "shear_rate",
                               doc.get("shear_rate", _TOP_DEFAULTS["shear_rate"]))
    theta0 = _check_number(errors, "theta0", doc.get("theta0", _TOP_DEFAULTS["theta0"]))
    q_amp = _check_number(errors, "q_amplitude",
                          doc.get("q_amplitude", _TOP_DEFAULTS["q_amplitude"]), lo=0)
    v_amp = _check_number(errors, "v_amplitude",
                          doc.get("v_amplitude", _TOP_DEFAULTS["v_amplitude"]), lo=0)

    alphas = doc.get("alphas", _TOP_DEFAULTS["alphas"])
    if not isinstance(alphas, (list, tuple)) or not alphas:
        errors.append("alphas: expected a non-empty list of numbers")
        alphas = []
    else:
        alphas = [_check_number(errors, f"alphas[{i}]", a, lo=0, strict_lo=True)
                  for i, a in enumerate(alphas)]

    de_list = doc.get("de_list", _TOP_DEFAULTS["de_list"])
    if not isinstance(de_list, (list, tuple)) or not de_list:
        errors.append("de_list: expected a non-empty list of numbers")
        de_list = []
    else:
        de_list = [_check_number(errors, f"de_list[{i}]", d, lo=0, strict_lo=True)
                   for i, d in enumerate(de_list)]
        if None not in de_list and any(b >= a for a, b in zip(de_list, de_list[1:])):
            errors.append("de_list: must be strictly decreasing")

    snapshot = doc.get("snapshot", _TOP_DEFAULTS["snapshot"])
    if not isinstance(snapshot, bool):
        errors.append("snapshot: expected true/false")
        snapshot = True

    if errors:
        raise ConfigError(errors)

    return ExperimentConfig(
        experiment=exp, seed=seed, params=params,
        n_polar=n_polar, n_azimuthal=n_az,
        grid_n=grid_n, grid_length=grid_len,
        dt=dt, steps=steps, sample_every=sample_every,
        alphas=tuple(alphas), samples=samples, de_list=tuple(de_list),
        t_final=t_final, shear_rate=shear_rate, theta0=theta0,
        snapshot=snapshot, q_amplitude=q_amp, v_amplitude=v_amp,
        raw=doc,
    )


def default_config(experiment, **overrides):
    """Built-in config for one experiment kind, fully validated."""
    doc = {"experiment": experiment}
    doc.update(overrides)
    return validate_config(doc)
