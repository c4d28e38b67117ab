"""Config catalogue: the keys each experiment accepts; for every key, the
error a wrong type, a non-integer and a value just past its bound give (in an
experiment that reads the key), the structural errors, and the built-in
config of every experiment. Messages are compared as sets: the validator
reports every violation at once, in no promised order."""
import json
from dataclasses import fields, replace

import pytest

from qbingham.config import (
    _FORWARD_SIZING, EXPERIMENTS, ConfigError, default_config, validate_config,
)
from qbingham.dynamics import ModelParams
from qbingham.equilibrium import critical_alpha

A_STAR = critical_alpha()[0]

TOP_KEYS = ("experiment, grid, params, quadrature, seed, dt, steps, sample_every, alphas, "
            "samples, de_list, t_final, shear_rate, theta0, snapshot, q_amplitude, "
            "v_amplitude")
# the top-level keys of every experiment, which an unknown experiment allows
ALLOWED = ", ".join(sorted(TOP_KEYS.split(", ")))

# the key paths each experiment accepts, seed and those it reads: 57 of the
# 150 (experiment, key path) pairs
_PARAMS = {f"params.{k}" for k in ("alpha", "epsilon", "de", "re", "gamma", "L1", "L2",
                                   "delta")}
_FIELD = {"grid.n", "grid.length", "dt", "steps", "q_amplitude", "v_amplitude", *_PARAMS}
READS = {
    "phase-table": {"seed", "alphas", "params.L1", "params.L2"},
    "closure-validate": {"seed", "samples", "quadrature.n_polar", "quadrature.n_azimuthal",
                         "params.delta"},
    "homogeneous-run": {"seed", "dt", "sample_every", "t_final", "shear_rate", "theta0",
                        "params.alpha", "params.de", "params.delta"},
    "field-run": {"seed", "sample_every", "snapshot", *_FIELD},
    "small-de": {"seed", "de_list", "t_final", "shear_rate", "theta0", "params.alpha",
                 "params.delta"},
    "energy-audit": {"seed", *_FIELD},
}

# a valid value, other than the default, for every key path
VALID = {
    "seed": 3, "dt": 0.05, "steps": 7, "sample_every": 2, "alphas": [8], "samples": 9,
    "de_list": [0.3, 0.1], "t_final": 1, "shear_rate": -2, "theta0": 0, "snapshot": False,
    "q_amplitude": 0.25, "v_amplitude": 0, "quadrature.n_polar": 32,
    "quadrature.n_azimuthal": 64, "grid.n": 32, "grid.length": 3, "params.alpha": 8,
    "params.epsilon": 0.1, "params.de": 0.5, "params.re": 2, "params.gamma": 0.25,
    "params.L1": 2, "params.L2": 0, "params.delta": 0.05,
}

# (key path, integer, value just past the bound, its message); None: unbounded
NUMBERS = [
    ("seed", True, -1, "must be >= 0"),
    ("steps", True, 0, "must be >= 1"),
    ("sample_every", True, 0, "must be >= 1"),
    ("samples", True, 0, "must be >= 1"),
    ("dt", False, 0.0, "must be > 0"),
    ("t_final", False, 0.0, "must be > 0"),
    ("shear_rate", False, None, None),
    ("theta0", False, None, None),
    ("q_amplitude", False, -1e-12, "must be >= 0"),
    ("v_amplitude", False, -1e-12, "must be >= 0"),
    ("quadrature.n_polar", True, 7, "must be >= 8"),
    ("quadrature.n_azimuthal", True, 15, "must be >= 16"),
    ("grid.n", True, 7, "must be >= 8"),
    ("grid.length", False, 0.0, "must be > 0"),
    ("alphas[1]", False, 0.0, "must be > 0"),
    ("de_list[1]", False, 0.0, "must be > 0"),
]

# the bounds of params.* are ModelParams' own, reported as one "params" error
PARAMS = [
    ("alpha", 0.0, "alpha must be positive"),
    ("epsilon", -1e-12, "epsilon must be nonnegative"),
    ("de", 0.0, "De must be positive"),
    ("re", 0.0, "Re must be positive"),
    ("gamma", 1.0, "gamma must lie in (0,1)"),
    ("L1", 0.0, "L1 must be positive"),
    ("L2", -0.5, "L1 + 2 L2 must be positive"),
    ("delta", 1.0 / 3.0, "delta must lie in (0, 1/3)"),
]

DEFAULTS = {
    "seed": 0,
    "params": ModelParams(alpha=7.0, epsilon=0.05, de=1.0, re=1.0, gamma=0.5,
                          L1=1.0, L2=0.5, delta=0.1),
    "n_polar": 64, "n_azimuthal": 65,
    "grid_n": 128, "grid_length": 6.283185307179586,
    "dt": None, "steps": 2000, "sample_every": 1,
    "alphas": (7.0, 8.0, 10.0), "samples": 1000,
    "de_list": (0.2, 0.1, 0.05, 0.025),
    "t_final": 5.0, "shear_rate": 1.0, "theta0": 1.0, "snapshot": True,
    "q_amplitude": 0.5, "v_amplitude": 0.1,
}


def _reader(path):
    """The first experiment that reads the key at path (an object's name
    stands for its keys; an element alphas[i] for its list)."""
    key = path.split("[")[0]
    return next(e for e in EXPERIMENTS
                if any(p == key or p.startswith(key + ".") for p in READS[e]))


def _doc(path, value, experiment=None):
    """A doc of experiment (by default one that reads the key at path) with
    that key set to value; list elements follow a valid first element (above
    the nematic fold, for alphas)."""
    doc = {"experiment": experiment or _reader(path)}
    if "[" in path:
        key = path.split("[")[0]
        doc[key] = [8.0, value]
    elif "." in path:
        outer, inner = path.split(".")
        doc[outer] = {inner: value}
    else:
        doc[path] = value
    return doc


def _unknown(experiment, path):
    """The error of a key at path that experiment does not read."""
    head, _, name = path.rpartition(".")
    reads = READS[experiment] | {"experiment"}
    if head and any(p.startswith(head + ".") for p in reads):
        allowed = {p.split(".")[1] for p in reads if p.startswith(head + ".")}
        return f"{path}: unknown key (allowed: {', '.join(sorted(allowed))})"
    allowed = {p.split(".")[0] for p in reads}
    return f"{head or name}: unknown key (allowed: {', '.join(sorted(allowed))})"


def _errors(doc):
    with pytest.raises(ConfigError) as info:
        validate_config(doc)
    return set(info.value.errors)


def _as_dict(cfg):
    return {f.name: getattr(cfg, f.name) for f in fields(cfg) if f.name != "raw"}


def _field(path):
    return {"quadrature.n_polar": "n_polar", "quadrature.n_azimuthal": "n_azimuthal",
            "grid.n": "grid_n", "grid.length": "grid_length"}.get(path, path)


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_each_experiment_accepts_exactly_the_keys_it_reads(experiment):
    # a key the experiment never reads is rejected like a typo, with its
    # path, and its value goes unchecked
    assert sorted(VALID) == sorted(set().union(*READS.values()))
    for path, value in VALID.items():
        if path in READS[experiment]:
            validate_config(_doc(path, value, experiment))
        else:
            assert _errors(_doc(path, "x", experiment)) == {_unknown(experiment, path)}, path
    assert sum(map(len, READS.values())) == 57 and len(VALID) * len(EXPERIMENTS) == 150


@pytest.mark.parametrize("path", [p for p, *_ in NUMBERS] + [f"params.{k}" for k, *_ in PARAMS])
@pytest.mark.parametrize("bad", ["x", True, [1.0], {"a": 1}])
def test_wrong_type(path, bad):
    assert _errors(_doc(path, bad)) == {
        f"{path}: expected a number, got {type(bad).__name__}"}


@pytest.mark.parametrize("path", [p for p, *_ in NUMBERS] + [f"params.{k}" for k, *_ in PARAMS])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")],
                         ids=["nan", "inf", "-inf"])
def test_non_finite(path, bad):
    # json reads NaN and Infinity; no bound comparison rejects NaN, and an
    # infinite integer key must not reach int()
    assert _errors(_doc(path, bad)) == {f"{path}: expected a finite number, got {bad}"}


def test_non_finite_from_json_text():
    assert _errors(json.loads('{"experiment": "small-de", "t_final": NaN}')) == {
        "t_final: expected a finite number, got nan"}
    assert _errors(json.loads('{"experiment": "homogeneous-run", "params": {"de": NaN}}')) == {
        "params.de: expected a finite number, got nan"}
    assert _errors(json.loads('{"experiment": "small-de", "seed": Infinity}')) == {
        "seed: expected a finite number, got inf"}


@pytest.mark.parametrize("key", ["de", "delta", "alpha"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf")], ids=["nan", "inf"])
def test_model_params_reject_non_finite(key, bad):
    with pytest.raises(ValueError, match=f"^{key} must be finite$"):
        ModelParams(**{**vars(DEFAULTS["params"]), key: bad})


@pytest.mark.parametrize("path", [p for p, integer, *_ in NUMBERS if integer])
def test_non_integer(path):
    assert _errors(_doc(path, 8.5)) == {f"{path}: expected an integer"}
    # an integral float is an integer
    cfg = validate_config(_doc(path, 1000.0))
    assert isinstance(_as_dict(cfg)[_field(path)], int)


@pytest.mark.parametrize("path,past,msg", [(p, v, m) for p, _, v, m in NUMBERS if m])
def test_past_the_bound(path, past, msg):
    assert _errors(_doc(path, past)) == {f"{path}: {msg}"}


@pytest.mark.parametrize("key,past,msg", PARAMS)
def test_params_past_the_bound(key, past, msg):
    assert _errors(_doc(f"params.{key}", past)) == {f"params: {msg}"}


@pytest.mark.parametrize("path,lo", [
    ("seed", 0), ("steps", 1), ("sample_every", 1), ("samples", 1),
    ("q_amplitude", 0.0), ("v_amplitude", 0.0),
    ("quadrature.n_polar", 8), ("quadrature.n_azimuthal", 16), ("grid.n", 8),
])
def test_inclusive_bound_accepted(path, lo):
    # the forward check's rule sizing admits the smallest rule only at the
    # widest margins
    doc = _doc(path, lo)
    if path.startswith("quadrature."):
        doc["params"] = {"delta": 0.3}
    assert _as_dict(validate_config(doc))[_field(path)] == lo


def _rule(n_polar, n_azimuthal, delta):
    return {"experiment": "closure-validate", "params": {"delta": delta},
            "quadrature": {"n_polar": n_polar, "n_azimuthal": n_azimuthal}}


def test_forward_rule_too_coarse_for_the_margin():
    # 8 x 16 passes the key bounds, but its forward check reads 1.8e-4 at
    # the default margin against the 1e-10 gate
    assert _errors(_rule(8, 16, 0.1)) == {
        "quadrature.n_polar, quadrature.n_azimuthal: the 8 x 16 rule integrates "
        "degree < 16 exactly, but the forward check at params.delta = 0.1 needs "
        "degree < 28 (n_polar >= 14 and n_azimuthal >= 28, or odd and >= 14)"}


def _too_coarse(doc):
    """The degree a rejected rule was told it needs."""
    (msg,) = _errors(doc)
    q = doc["quadrature"]
    assert msg.startswith("quadrature.n_polar, quadrature.n_azimuthal: the "
                          f"{q['n_polar']} x {q['n_azimuthal']} rule integrates"), msg
    return int(msg.split("needs degree < ")[1].split()[0])


@pytest.mark.parametrize("delta,need", _FORWARD_SIZING)
def test_forward_rule_sizing(delta, need):
    # at each sized margin the smallest rule of the needed degree and the
    # default 64 x 65 are accepted, and one polar or azimuthal step less is
    # not (at 0.3 the key bounds are the sizing)
    validate_config(_rule(need // 2, need, delta))
    validate_config(_rule(64, 65, delta))
    if need > 16:
        assert _too_coarse(_rule(need // 2 - 1, 128, delta)) == need
        assert _too_coarse(_rule(64, need - 2, delta)) == need


@pytest.mark.parametrize("delta,need", [
    (1 / 3 - 1e-9, 16), (0.12, 24), (0.02, 36), (0.0199, 36), (0.0149, 40)])
def test_forward_rule_sizing_between_margins(delta, need):
    # a margin takes the row of the narrowest sized margin at or above it;
    # the default 64 x 65 stays accepted
    validate_config(_rule(need // 2, need, delta))
    validate_config(_rule(64, 65, delta))
    if need > 16:
        assert _too_coarse(_rule(64, need - 2, delta)) == need


@pytest.mark.parametrize("delta", [0.001, 1e-6])
def test_closure_validate_margin_below_the_sizing_rejected(delta):
    # at 0.001 a solve passes the exponent budget on every input set; 0.002,
    # the narrowest sized margin, is accepted with the default rule
    assert _errors({"experiment": "closure-validate", "params": {"delta": delta}}) == {
        "params.delta: closure-validate needs >= 0.002, the narrowest margin its "
        "forward check was sized at; nearer the boundary a solve needs an "
        "eigenvalue spread of B past the exponent budget and fails"}
    assert validate_config({"experiment": "closure-validate",
                            "params": {"delta": 0.002}}).params.delta == 0.002
    # the margin is closure-validate's alone
    assert validate_config({"experiment": "field-run",
                            "params": {"delta": delta}}).params.delta == delta


def test_odd_azimuthal_count_resolves_twice_its_degree():
    # at margin 0.02 (degree 36) 19 azimuths resolve the even integrands
    # like 38, while 17 (34) and 18 do not
    validate_config(_rule(64, 19, 0.02))
    for n_azimuthal in (17, 18, 34):
        assert _too_coarse(_rule(64, n_azimuthal, 0.02)) == 36


def test_dt_null_accepted_steps_null_rejected():
    assert validate_config({"experiment": "field-run", "dt": None}).dt is None
    assert validate_config({"experiment": "field-run", "dt": 0.25}).dt == 0.25
    assert _errors({"experiment": "field-run", "steps": None}) == {
        "steps: expected a number, got NoneType"}


@pytest.mark.parametrize("key", ["alphas", "de_list"])
@pytest.mark.parametrize("bad", [[], "x", 3.0, None])
def test_lists_must_be_non_empty(key, bad):
    assert _errors({"experiment": _reader(key), key: bad}) == {
        f"{key}: expected a non-empty list of numbers"}


def test_lists_report_each_element():
    assert _errors({"experiment": "phase-table", "alphas": ["a", -1.0, 2.0]}) == {
        "alphas[0]: expected a number, got str", "alphas[1]: must be > 0",
        f"alphas[2]: must be >= alpha* = {A_STAR:.6f} (the nematic fold)"}
    cfg = validate_config({"experiment": "phase-table", "alphas": [9, 7.5]})
    assert cfg.alphas == (9.0, 7.5) and all(type(a) is float for a in cfg.alphas)


@pytest.mark.parametrize("doc,paths", [
    ({"params": {"alpha": 5}}, ["params.alpha"]),
    ({"params": {"alpha": 6.73}}, ["params.alpha"]),
    ({"alphas": [5, 7]}, ["alphas[0]"]),
    ({"alphas": [6, 8, 1.0]}, ["alphas[0]", "alphas[2]"]),
])
def test_alpha_below_the_nematic_fold(doc, paths):
    # no stable nematic root exists there; the runs used to fail numerically
    assert _errors({"experiment": _reader(paths[0]), **doc}) == {
        f"{p}: must be >= alpha* = {A_STAR:.6f} (the nematic fold)" for p in paths}


def test_alpha_at_the_nematic_fold_accepted():
    assert validate_config({"experiment": "phase-table", "alphas": [A_STAR]}).alphas == (
        A_STAR,)
    cfg = validate_config({"experiment": "small-de", "params": {"alpha": A_STAR}})
    assert cfg.params.alpha == A_STAR


@pytest.mark.parametrize("de_list", [[0.1, 0.2], [0.1, 0.1], [0.3, 0.1, 0.2]])
def test_de_list_must_decrease(de_list):
    assert _errors({"experiment": "small-de", "de_list": de_list}) == {
        "de_list: must be strictly decreasing"}


def test_de_list_order_unchecked_past_a_bad_element():
    assert _errors({"experiment": "small-de", "de_list": [0.1, "x", 0.2]}) == {
        "de_list[1]: expected a number, got str"}


@pytest.mark.parametrize("key", ["params", "quadrature", "grid"])
@pytest.mark.parametrize("bad", [3, "x", [1]])
def test_nested_must_be_objects(key, bad):
    assert _errors({"experiment": _reader(key), key: bad}) == {f"{key}: expected an object"}


@pytest.mark.parametrize("key", ["params", "quadrature", "grid"])
@pytest.mark.parametrize("bad", [False, [], 0, None, ""])
def test_falsy_nested_values_are_not_objects(key, bad):
    experiment = _reader(key)
    assert _errors({"experiment": experiment, key: bad}) == {f"{key}: expected an object"}
    assert _as_dict(validate_config({"experiment": experiment, key: {}})) == _as_dict(
        default_config(experiment))


@pytest.mark.parametrize("key,allowed", [
    ("params", "L1, L2, alpha, de, delta, epsilon, gamma, re"),
    ("quadrature", "n_azimuthal, n_polar"),
    ("grid", "length, n"),
])
def test_unknown_nested_keys(key, allowed):
    experiment = "closure-validate" if key == "quadrature" else "field-run"
    assert _errors({"experiment": experiment, key: {"zz": 1, "aa": 2}}) == {
        f"{key}.zz: unknown key (allowed: {allowed})",
        f"{key}.aa: unknown key (allowed: {allowed})"}


def test_unknown_top_key():
    assert _errors({"experiment": "field-run", "step": 3}) == {
        "step: unknown key (allowed: dt, experiment, grid, params, q_amplitude, "
        "sample_every, seed, snapshot, steps, v_amplitude)"}
    assert _errors({"experiment": "nope", "step": 3}) == {
        "experiment: unknown kind 'nope'", f"step: unknown key (allowed: {ALLOWED})"}


@pytest.mark.parametrize("bad", [1, "yes", None])
def test_snapshot_must_be_bool(bad):
    assert _errors({"experiment": "field-run", "snapshot": bad}) == {
        "snapshot: expected true/false"}
    assert validate_config({"experiment": "field-run", "snapshot": False}).snapshot is False


def test_experiment_missing_or_unknown():
    assert _errors({}) == {"experiment: missing (one of: " + ", ".join(EXPERIMENTS) + ")"}
    assert _errors({"experiment": "phase"}) == {"experiment: unknown kind 'phase'"}
    with pytest.raises(ConfigError) as info:
        validate_config(["phase-table"])
    assert info.value.errors == ["top level must be a JSON object"]


def test_every_error_of_a_doc_at_once():
    doc = {"experiment": "nope", "seed": -1, "steps": 1.5, "dt": "x", "snapshot": 0,
           "alphas": [], "de_list": [0.1, 0.2], "params": {"gamma": 2.0, "foo": 1},
           "quadrature": {"n_polar": 4}, "grid": [1], "extra": 1}
    assert _errors(doc) == {
        "experiment: unknown kind 'nope'", "seed: must be >= 0",
        "steps: expected an integer", "dt: expected a number, got str",
        "snapshot: expected true/false",
        "alphas: expected a non-empty list of numbers",
        "de_list: must be strictly decreasing",
        "params: gamma must lie in (0,1)",
        "params.foo: unknown key (allowed: L1, L2, alpha, de, delta, epsilon, gamma, re)",
        "quadrature.n_polar: must be >= 8", "grid: expected an object",
        f"extra: unknown key (allowed: {ALLOWED})"}


def test_overrides_reach_their_fields():
    # each experiment's keys, all set at once, reach their fields; every other
    # field keeps its default
    floats = ("grid_length", "dt", "t_final", "shear_rate", "theta0", "q_amplitude",
              "v_amplitude")
    for experiment in EXPERIMENTS:
        doc = {"experiment": experiment}
        for path in READS[experiment]:
            head, _, name = path.rpartition(".")
            (doc.setdefault(head, {}) if head else doc)[name] = VALID[path]
        cfg = validate_config(doc)
        assert cfg.raw is doc
        params = {k.split(".")[1]: float(VALID[k])
                  for k in READS[experiment] if k.startswith("params.")}
        want = {**DEFAULTS, "params": replace(DEFAULTS["params"], **params)}
        want.update({_field(p): tuple(map(float, VALID[p])) if p in ("alphas", "de_list")
                     else VALID[p] for p in READS[experiment] if not p.startswith("params.")})
        assert _as_dict(cfg) == {"experiment": experiment, **want}
        assert all(type(getattr(cfg, f)) is float for f in floats if getattr(cfg, f) is not None)


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_default_config(experiment):
    cfg = default_config(experiment)
    assert _as_dict(cfg) == {"experiment": experiment, **DEFAULTS}
    assert cfg.raw == {"experiment": experiment}
    assert default_config(experiment, seed=4).seed == 4
