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
from .cate.meta import KINDS
from .deferral import MODES as DEFERRAL_MODES
from .errors import ConfigError, SchemaError
from .ingest import DEFAULT_FRACTIONS, SPLIT_NAMES, TableSchema
from .learners import LearnerSpec
from .policy_eval import DIRECTIONS, ENSEMBLE_MODES, ESTIMATORS, PLUG_IN_LEARNER, DecisionRule
from .propensity import PROPENSITY_LEARNER
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
    """A check of a number in a range; NaN is refused, and so are ±inf where
    the range has a bound (each comparison with NaN is false)."""
    def check(value, path):
        if not _is_number(value):
            raise ConfigError(f"{path} must be a number")
        try:
            v = float(value)
        except OverflowError:  # an integer beyond the floats
            v = math.inf if value > 0 else -math.inf
        if math.isnan(v) or math.isinf(v) and (lo is not None or hi is not None):
            raise ConfigError(f"{path} must be a finite number, got {v}")
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


def _delimiter(value, path):
    # csv takes one character; a quote or a line break would split the fields wrongly
    if not isinstance(value, str) or len(value) != 1 or value in '"\r\n':
        raise ConfigError(
            f"{path} must be one character other than a quote or a line break, got {value!r}"
        )
    return value


def _string_list(value, path):
    if not isinstance(value, list) or any(not isinstance(v, str) for v in value):
        raise ConfigError(f"{path} must be a list of strings")
    return list(value)


def _fractions(value, path):
    if not isinstance(value, list) or len(value) != len(SPLIT_NAMES):
        raise ConfigError(
            f"{path} must list {len(SPLIT_NAMES)} fractions ({'/'.join(SPLIT_NAMES)})"
        )
    # largest-remainder rounding gives a zero fraction no row, which ingest refuses
    fractions = [_number(0.0, lo_open=True)(v, f"{path}[{i}]") for i, v in enumerate(value)]
    total = sum(fractions)
    if abs(total - 1.0) > 1e-9:
        raise ConfigError(f"{path} must sum to 1, got {total}")
    return fractions


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


_UNIT = _number(0.0, 1.0)

# per bounds method, the keys besides "method"
_BOUNDS = {
    "fixed": {"eta_low": ("value", _REQUIRED, _UNIT), "eta_high": ("value", _REQUIRED, _UNIT)},
    "quantile": {"q_low": ("value", 0.01, _UNIT), "q_high": ("value", 0.99, _UNIT)},
    "min-count": {"min_count": ("value", 10, _integer(1))},
}


def _bounds(value, path):
    if not isinstance(value, dict):
        raise ConfigError(f"{path} must be an object with a 'method' key")
    method = value.get("method")
    if method not in _BOUNDS:
        raise ConfigError(f"{path}.method must be one of {sorted(_BOUNDS)}, got {method!r}")
    rest = {k: v for k, v in value.items() if k != "method"}
    out = {"method": method, **_resolve(rest, _BOUNDS[method], path)}
    for low, high in (("eta_low", "eta_high"), ("q_low", "q_high")):
        if low in out and out[low] >= out[high]:
            raise ConfigError(f"{path}: {low} must be below {high}, got {out[low]} >= {out[high]}")
    return out


_MENU_ENTRY = {
    "kind": ("value", _REQUIRED, _choice(KINDS)),
    "learner": ("value", _REQUIRED, _learner("regression")),
    "g_constant": ("value", None, lambda v, path: None if v is None else _UNIT(v, path)),
}


def _menu(value, path):
    if not isinstance(value, dict) or not value:
        raise ConfigError(f"{path} must name at least one model")
    out = {}
    for name, entry in value.items():
        if not isinstance(name, str) or not _NAME_RE.match(name):
            raise ConfigError(f"{path}: model name {name!r} must match {_NAME_RE.pattern}")
        if name in RESERVED_POLICY_NAMES:
            raise ConfigError(f"{path}: model name {name!r} is reserved for a built-in policy")
        out[name] = _resolve(entry, _MENU_ENTRY, f"{path}.{name}")
    return out


def _names(options, noun, least=0):
    def check(value, path):
        names = _string_list(value, path)
        if len(names) < least:
            raise ConfigError(f"{path} must name at least one {noun}")
        bad = [v for v in names if v not in options]
        if bad:
            raise ConfigError(f"{path} entries must be from {list(options)}, got {bad}")
        if len(set(names)) != len(names):
            raise ConfigError(f"{path} lists one {noun} twice")
        return names

    return check


_UNCERTAINTY = {
    "alpha_stat": ("value", 0.9, _number(0.0, 1.0, hi_open=True)),
    "lam": ("value", 1.0, _number(1.0)),
    "b_boot": ("value", 200, _integer(0)),
    "seed": ("value", 0, _integer(0)),
}


def _rank_step(value, path):
    # the rank curve's grid has round(1 / step) + 1 levels, so any other step draws another
    # grid; each level holds an n x 6 stack of the test rows, so the grid stops at 101 levels
    step = _number(0.01, 1.0, hi_open=True)(value, path)
    levels = 1.0 / step
    if abs(levels - round(levels)) > 1e-9:
        raise ConfigError(f"{path} must divide 1 (1/step an integer), got {value}")
    return step


def _uncertainty(value, path):
    if isinstance(value, dict) and "alpha_causal" in value:
        if "lam" in value:
            raise ConfigError(f"{path}: give either lam or alpha_causal, not both")
        value = dict(value)
        a = _number(0.0)(value.pop("alpha_causal"), f"{path}.alpha_causal")
        try:
            value["lam"] = math.exp(a)
        except OverflowError:
            raise ConfigError(f"{path}.alpha_causal is too large, got {a}") from None
    out = _resolve(value, _UNCERTAINTY, path)
    if out["alpha_stat"] > 0.0 and out["b_boot"] < 2:
        raise ConfigError(f"{path}: b_boot must be >= 2 when alpha_stat > 0")
    return out


# Schema nodes: ("value", default, check), where ``check`` returns the
# resolved value, and ("section", {...}) for fixed sub-objects.
_SCHEMA = {
    "data": (
        "section",
        {
            "path": ("value", _REQUIRED, _string),
            "treatment": ("value", _REQUIRED, _string),
            "outcome": ("value", _REQUIRED, _string),
            "secondary_outcomes": ("value", [], _string_list),
            "ignore": ("value", [], _string_list),
            "delimiter": ("value", ",", _delimiter),
        },
    ),
    "splits": (
        "section",
        {
            "fractions": ("value", list(DEFAULT_FRACTIONS), _fractions),
            "seed": ("value", 0, _integer(0)),
        },
    ),
    "propensity": (
        "section",
        {
            "learner": ("value", PROPENSITY_LEARNER, _learner("classification")),
            "calibrate": ("value", True, _boolean),
            "bounds": ("value", {"method": "quantile"}, _bounds),
            # propensity.seed and cate.seed are recorded in the manifest seeds
            # but change nothing: every learner fit is deterministic
            "seed": ("value", 0, _integer(0)),
        },
    ),
    "cate": (
        "section",
        {
            "menu": (
                "value",
                {"t-ridge": {"kind": "t", "learner": {"kind": "ridge", "lam": 1.0}}},
                _menu,
            ),
            "ensembles": ("value", [], _names(ENSEMBLE_MODES, "mode")),
            "seed": ("value", 0, _integer(0)),  # no effect, as propensity.seed
        },
    ),
    "uncertainty": ("value", {}, _uncertainty),
    "deferral": (
        "section",
        {
            "mode": ("value", "conservative", _choice(DEFERRAL_MODES)),
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
            "estimators": ("value", ["IPW", "DR"], _names(ESTIMATORS, "estimator", least=1)),
            "bootstrap_b": ("value", 1000, _integer(1)),
            "rank_step": ("value", 0.1, _rank_step),
            "plug_in": ("value", PLUG_IN_LEARNER, _learner("regression")),
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
            # the share of rows each study run fits on, train and validation together
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
        if node[0] == "section":
            out[key] = _resolve(raw.get(key, {}), node[1], path)
        else:
            _, default, check = node
            if key in raw:
                value = raw[key]
            elif default is _REQUIRED:
                raise ConfigError(f"{path} is required")
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
            ignore=(*d["secondary_outcomes"], *d["ignore"]),
        )

    def propensity_spec(self) -> LearnerSpec:
        return LearnerSpec.from_dict(self.echo["propensity"]["learner"])

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

    def decision_rule(self) -> DecisionRule:
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
    cfg = PipelineConfig(echo=echo, hash=config_hash(echo), source=source)
    try:
        cfg.table_schema()  # its role rule: no column is named twice
    except SchemaError as exc:
        raise ConfigError(f"data: {exc}") from None
    return cfg


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
