"""Pipeline configuration: parsing, defaults, validation, and hashing.

A config is one JSON object.  Validation resolves it against the default
tree, rejects unknown keys at every level, and returns a fully-expanded
echo in which every effective value is visible; the sha256 hash of that
echo identifies the run.  Precedence: built-in defaults < config file <
``--set`` overrides.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import re
from dataclasses import dataclass

from .cate import CateFitSpec, UncertaintySpec
from .errors import ConfigError
from .ingest import SPLIT_NAMES, TableSchema
from .learners import LearnerSpec
from .policy_eval import DIRECTIONS, ENSEMBLE_MODES, ESTIMATORS
from .simulation import SimulationSpec

__all__ = [
    "PipelineConfig",
    "validate_config",
    "load_config",
    "apply_overrides",
    "config_hash",
]

_REQUIRED = object()

# names the evaluate stage claims for its reference policies
RESERVED_POLICY_NAMES = frozenset(
    {"doctors", "random", "propensity", "treat-all-0", "treat-all-1", "optimal"}
    | {f"ensemble-{m}" for m in ENSEMBLE_MODES}
)

_NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9._-]*\Z")

BOUNDS_METHODS = {
    "fixed": {"eta_low": _REQUIRED, "eta_high": _REQUIRED},
    "quantile": {"q_low": 0.01, "q_high": 0.99},
    "min-count": {"min_count": 10},
}


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _string(value, path):
    if not isinstance(value, str) or not value:
        raise ConfigError(f"{path} must be a non-empty string")
    return value


def _boolean(value, path):
    if not isinstance(value, bool):
        raise ConfigError(f"{path} must be true or false")
    return value


def _number(lo=None, hi=None, *, lo_open=False, hi_open=False):
    def check(value, path):
        if not _is_number(value):
            raise ConfigError(f"{path} must be a number")
        v = float(value)
        if lo is not None and (v <= lo if lo_open else v < lo):
            raise ConfigError(f"{path} must be {'>' if lo_open else '>='} {lo}, got {value}")
        if hi is not None and (v >= hi if hi_open else v > hi):
            raise ConfigError(f"{path} must be {'<' if hi_open else '<='} {hi}, got {value}")
        return v

    return check


def _integer(lo=None):
    def check(value, path):
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{path} must be an integer")
        if lo is not None and value < lo:
            raise ConfigError(f"{path} must be >= {lo}, got {value}")
        return value

    return check


def _choice(options):
    def check(value, path):
        if value not in options:
            raise ConfigError(f"{path} must be one of {list(options)}, got {value!r}")
        return value

    return check


def _string_list(value, path):
    if not isinstance(value, list) or any(not isinstance(v, str) for v in value):
        raise ConfigError(f"{path} must be a list of strings")
    return list(value)


def _fractions(value, path):
    if not isinstance(value, list) or len(value) != len(SPLIT_NAMES):
        raise ConfigError(
            f"{path} must list {len(SPLIT_NAMES)} fractions ({'/'.join(SPLIT_NAMES)})"
        )
    if any(not _is_number(v) or v < 0 for v in value):
        raise ConfigError(f"{path} entries must be non-negative numbers")
    total = sum(float(v) for v in value)
    if abs(total - 1.0) > 1e-9:
        raise ConfigError(f"{path} must sum to 1, got {total}")
    return [float(v) for v in value]


def _learner(task=None):
    def check(value, path):
        if not isinstance(value, dict):
            raise ConfigError(f"{path} must be an object with a 'kind' key")
        try:
            spec = LearnerSpec.from_dict(value)
            spec.validate(task)
        except ConfigError as exc:
            raise ConfigError(f"{path}: {exc}") from None
        return spec.to_dict()

    return check


def _bounds(value, path):
    if not isinstance(value, dict):
        raise ConfigError(f"{path} must be an object with a 'method' key")
    method = value.get("method")
    if method not in BOUNDS_METHODS:
        raise ConfigError(
            f"{path}.method must be one of {sorted(BOUNDS_METHODS)}, got {method!r}"
        )
    params = BOUNDS_METHODS[method]
    unknown = set(value) - set(params) - {"method"}
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} under {path} for method {method!r}")
    out = {"method": method}
    for key, default in params.items():
        if key in value:
            raw = value[key]
        elif default is _REQUIRED:
            raise ConfigError(f"{path}.{key} is required for method {method!r}")
        else:
            raw = default
        if key == "min_count":
            out[key] = _integer(1)(raw, f"{path}.{key}")
        else:
            out[key] = _number(0.0, 1.0)(raw, f"{path}.{key}")
    return out


def _menu(value, path):
    if not isinstance(value, dict) or not value:
        raise ConfigError(f"{path} must name at least one model")
    out = {}
    for name, entry in value.items():
        p = f"{path}.{name}"
        if not isinstance(name, str) or not _NAME_RE.match(name):
            raise ConfigError(f"{path}: model name {name!r} must match {_NAME_RE.pattern}")
        if name in RESERVED_POLICY_NAMES:
            raise ConfigError(f"{path}: model name {name!r} is reserved for a built-in policy")
        if not isinstance(entry, dict):
            raise ConfigError(f"{p} must be an object")
        unknown = set(entry) - {"kind", "learner", "g_constant"}
        if unknown:
            raise ConfigError(f"unknown key(s) {sorted(unknown)} under {p}")
        kind = entry.get("kind")
        if kind not in ("s", "t", "x"):
            raise ConfigError(f"{p}.kind must be one of ['s', 't', 'x'], got {kind!r}")
        if "learner" not in entry:
            raise ConfigError(f"{p}.learner is required")
        learner = _learner("regression")(entry["learner"], f"{p}.learner")
        g = entry.get("g_constant")
        if g is not None:
            g = _number(0.0, 1.0)(g, f"{p}.g_constant")
        out[name] = {"kind": kind, "learner": learner, "g_constant": g}
    return out


def _ensembles(value, path):
    names = _string_list(value, path)
    bad = [v for v in names if v not in ENSEMBLE_MODES]
    if bad:
        raise ConfigError(f"{path} entries must be from {list(ENSEMBLE_MODES)}, got {bad}")
    if len(set(names)) != len(names):
        raise ConfigError(f"{path} lists a mode twice")
    return names


def _estimators(value, path):
    names = _string_list(value, path)
    if not names:
        raise ConfigError(f"{path} must name at least one estimator")
    bad = [v for v in names if v not in ESTIMATORS]
    if bad:
        raise ConfigError(f"{path} entries must be from {list(ESTIMATORS)}, got {bad}")
    if len(set(names)) != len(names):
        raise ConfigError(f"{path} lists an estimator twice")
    return names


def _uncertainty(value, path):
    if not isinstance(value, dict):
        raise ConfigError(f"{path} must be an object")
    unknown = set(value) - {"alpha_stat", "lam", "alpha_causal", "b_boot", "seed"}
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} under {path}")
    if "lam" in value and "alpha_causal" in value:
        raise ConfigError(f"{path}: give either lam or alpha_causal, not both")
    alpha_stat = _number(0.0, 1.0, hi_open=True)(value.get("alpha_stat", 0.9), f"{path}.alpha_stat")
    if "alpha_causal" in value:
        a = _number(0.0)(value["alpha_causal"], f"{path}.alpha_causal")
        lam = math.exp(a)
    else:
        lam = _number(1.0)(value.get("lam", 1.0), f"{path}.lam")
    b_boot = _integer(0)(value.get("b_boot", 200), f"{path}.b_boot")
    try:
        UncertaintySpec(alpha_stat=alpha_stat, lam=lam, b_boot=b_boot)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    seed = _integer(0)(value.get("seed", 0), f"{path}.seed")
    return {"alpha_stat": alpha_stat, "lam": lam, "b_boot": b_boot, "seed": seed}


# Schema nodes: ("value", default, check) for scalars/lists,
# ("section", {...}) for fixed sub-objects, ("custom", default, check) for
# sub-trees whose checker owns unknown-key rejection and defaulting.
_SCHEMA = {
    "data": (
        "section",
        {
            "path": ("value", _REQUIRED, _string),
            "treatment": ("value", _REQUIRED, _string),
            "outcome": ("value", _REQUIRED, _string),
            "secondary_outcomes": ("value", [], _string_list),
            "ignore": ("value", [], _string_list),
            "delimiter": ("value", ",", _string),
        },
    ),
    "splits": (
        "section",
        {
            "fractions": ("value", [0.6, 0.15, 0.25], _fractions),
            "seed": ("value", 0, _integer(0)),
        },
    ),
    "propensity": (
        "section",
        {
            "learner": ("custom", {"kind": "logistic", "lam": 1.0}, _learner("classification")),
            "calibrate": ("value", True, _boolean),
            "bounds": ("custom", {"method": "quantile"}, _bounds),
            # propensity.seed and cate.seed are recorded in the manifest seeds
            # but change nothing: every learner fit is deterministic
            "seed": ("value", 0, _integer(0)),
        },
    ),
    "cate": (
        "section",
        {
            "menu": (
                "custom",
                {"t-ridge": {"kind": "t", "learner": {"kind": "ridge", "lam": 1.0}}},
                _menu,
            ),
            "ensembles": ("value", [], _ensembles),
            "seed": ("value", 0, _integer(0)),  # no effect, as propensity.seed
        },
    ),
    "uncertainty": ("custom", {}, _uncertainty),
    "deferral": (
        "section",
        {
            "mode": ("value", "conservative", _choice(("inclusive", "conservative"))),
            "profile_lam": ("value", 0.1, _number(0.0, lo_open=True)),
        },
    ),
    "policy": (
        "section",
        {
            "direction": ("value", "higher-better", _choice(DIRECTIONS)),
            "threshold": ("value", 0.0, _number()),
        },
    ),
    "evaluation": (
        "section",
        {
            "estimators": ("value", ["IPW", "DR"], _estimators),
            "bootstrap_b": ("value", 1000, _integer(1)),
            "rank_step": ("value", 0.1, _number(0.0, 1.0, lo_open=True)),
            "plug_in": (
                "custom",
                {"kind": "gbt", "n_trees": 100, "max_depth": 3, "min_samples_leaf": 10},
                _learner("regression"),
            ),
            "seed": ("value", 0, _integer(0)),
        },
    ),
    "simulation": (
        "section",
        {
            "enabled": ("value", False, _boolean),
            "only": ("value", False, _boolean),
            "lam": ("value", 0.5, _number(0.0, 1.0)),
            "effect_size": ("value", 0.5, _number(0.0, lo_open=True)),
            "noise_factor": ("value", 1.2, _number(0.0, lo_open=True)),
            "runs": ("value", 5, _integer(2)),
            "train_frac": ("value", 0.7, _number(0.0, 1.0, lo_open=True, hi_open=True)),
            "seed": ("value", 0, _integer(0)),
        },
    ),
    "identification": (
        "section",
        {"acknowledged": ("value", False, _boolean)},
    ),
    "report": (
        "section",
        {
            "include_timings": ("value", False, _boolean),
            "bins": ("value", 20, _integer(2)),
        },
    ),
    "output_dir": ("value", "out", _string),
}


def _resolve(raw, schema, prefix=""):
    where = prefix or "top level"
    if not isinstance(raw, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = set(raw) - set(schema)
    if unknown:
        raise ConfigError(f"unknown config key(s) {sorted(unknown)} at {where}")
    out = {}
    for key, node in schema.items():
        path = f"{prefix}.{key}" if prefix else key
        kind = node[0]
        if kind == "section":
            out[key] = _resolve(raw.get(key, {}), node[1], path)
        else:
            _, default, check = node
            if key in raw:
                value = raw[key]
            elif default is _REQUIRED:
                raise ConfigError(f"missing required config key {path}")
            else:
                value = copy.deepcopy(default)
            out[key] = check(value, path)
    return out


def config_hash(echo: dict) -> str:
    """sha256 over the canonical JSON form of the resolved config."""
    canon = json.dumps(echo, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class PipelineConfig:
    """A validated config: the fully-resolved echo plus its hash."""

    echo: dict
    hash: str
    source: str | None = None

    @property
    def out_dir(self) -> str:
        return self.echo["output_dir"]

    def table_schema(self) -> TableSchema:
        d = self.echo["data"]
        return TableSchema(
            treatment=d["treatment"],
            outcome=d["outcome"],
            secondary_outcomes=tuple(d["secondary_outcomes"]),
            ignore=tuple(d["ignore"]),
        )

    def propensity_spec(self) -> LearnerSpec:
        return LearnerSpec.from_dict(self.echo["propensity"]["learner"])

    def bounds_kwargs(self) -> dict:
        b = dict(self.echo["propensity"]["bounds"])
        method = b.pop("method")
        return {"method": method, **b}

    def cate_menu(self) -> dict:
        menu = {}
        for name, entry in self.echo["cate"]["menu"].items():
            menu[name] = CateFitSpec(
                kind=entry["kind"],
                learner=LearnerSpec.from_dict(entry["learner"]),
                g_constant=entry["g_constant"],
            )
        return menu

    @property
    def ensembles(self) -> tuple:
        return tuple(self.echo["cate"]["ensembles"])

    def theta(self) -> UncertaintySpec:
        u = self.echo["uncertainty"]
        return UncertaintySpec(alpha_stat=u["alpha_stat"], lam=u["lam"], b_boot=u["b_boot"])

    def decision_rule(self):
        from .policy_eval import DecisionRule

        p = self.echo["policy"]
        return DecisionRule(threshold=p["threshold"], direction=p["direction"])

    @property
    def estimators(self) -> tuple:
        return tuple(self.echo["evaluation"]["estimators"])

    def plug_in_spec(self) -> LearnerSpec:
        return LearnerSpec.from_dict(self.echo["evaluation"]["plug_in"])

    def sim_spec(self) -> SimulationSpec:
        s = self.echo["simulation"]
        return SimulationSpec(
            lam=s["lam"],
            effect_size=s["effect_size"],
            noise_factor=s["noise_factor"],
        )

    def seeds(self) -> dict:
        return {
            "splits": self.echo["splits"]["seed"],
            "propensity": self.echo["propensity"]["seed"],
            "cate": self.echo["cate"]["seed"],
            "uncertainty": self.echo["uncertainty"]["seed"],
            "evaluation": self.echo["evaluation"]["seed"],
            "simulation": self.echo["simulation"]["seed"],
        }


def validate_config(raw: dict, source: str | None = None) -> PipelineConfig:
    """Resolve a raw config dict against the schema; reject unknown keys."""
    echo = _resolve(raw, _SCHEMA)
    return PipelineConfig(echo=echo, hash=config_hash(echo), source=source)


def _parse_override(text: str) -> tuple[list, object]:
    if "=" not in text:
        raise ConfigError(f"override {text!r} must look like dotted.key=value")
    key, _, value = text.partition("=")
    key = key.strip()
    if not key:
        raise ConfigError(f"override {text!r} has an empty key")
    try:
        parsed = json.loads(value)
    except json.JSONDecodeError:
        parsed = value  # bare strings pass through unquoted
    return key.split("."), parsed


def apply_overrides(raw: dict, assignments) -> dict:
    """Set dotted-path keys on a copy of ``raw``; values parse as JSON first.

    Overrides win over the file, which wins over defaults.
    """
    out = copy.deepcopy(raw)
    for text in assignments:
        keys, value = _parse_override(text)
        node = out
        for key in keys[:-1]:
            nxt = node.get(key)
            if nxt is None:
                nxt = node[key] = {}
            elif not isinstance(nxt, dict):
                raise ConfigError(
                    f"override {text!r} descends into non-object key {key!r}"
                )
            node = nxt
        node[keys[-1]] = value
    return out


def load_config(path, overrides=()) -> PipelineConfig:
    """Read, override, and validate a JSON config file."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
    if overrides:
        raw = apply_overrides(raw, overrides)
    return validate_config(raw, source=str(path))
