import copy
import json
import math
import re
from pathlib import Path

import pytest

from conftest import synthetic_covariates
from treatpolicy.cate import CateFitSpec
from treatpolicy.cli import main
from treatpolicy.config import (
    RESERVED_POLICY_NAMES,
    apply_overrides,
    config_hash,
    load_config,
    validate_config,
)
from treatpolicy.errors import ConfigError
from treatpolicy.ingest import TableSchema
from treatpolicy.learners import LearnerSpec
from treatpolicy.policy_eval import ENSEMBLE_MODES
from treatpolicy.simulation import SimulationSpec, run_study


def minimal(**extra):
    raw = {"data": {"path": "table.csv", "treatment": "treat", "outcome": "outcome"}}
    raw.update(extra)
    return raw


class TestDefaults:
    def test_every_section_is_echoed(self):
        echo = validate_config(minimal()).echo
        assert set(echo) == {
            "data", "splits", "propensity", "cate", "uncertainty", "deferral",
            "policy", "evaluation", "simulation", "identification", "report",
            "output_dir",
        }

    def test_documented_defaults(self):
        echo = validate_config(minimal()).echo
        assert echo["splits"]["fractions"] == [0.6, 0.15, 0.25]
        assert echo["propensity"]["learner"] == {"kind": "logistic", "lam": 1.0}
        assert echo["propensity"]["calibrate"] is True
        assert echo["propensity"]["bounds"] == {"method": "quantile", "q_low": 0.01, "q_high": 0.99}
        assert echo["cate"]["menu"] == {
            "t-ridge": {"kind": "t", "learner": {"kind": "ridge", "lam": 1.0}, "g_constant": None}
        }
        assert echo["cate"]["ensembles"] == []
        assert echo["uncertainty"] == {"alpha_stat": 0.9, "lam": 1.0, "b_boot": 200, "seed": 0}
        assert echo["deferral"] == {"mode": "conservative", "profile_lam": 0.1}
        assert echo["policy"] == {"direction": "higher-better", "threshold": 0.0}
        assert echo["evaluation"]["estimators"] == ["IPW", "DR"]
        assert echo["evaluation"]["bootstrap_b"] == 1000
        assert echo["simulation"]["enabled"] is False
        assert echo["identification"]["acknowledged"] is False
        assert echo["output_dir"] == "out"

    def test_echo_is_idempotent(self):
        cfg = validate_config(minimal())
        again = validate_config(cfg.echo)
        assert again.echo == cfg.echo
        assert again.hash == cfg.hash

    def test_data_keys_are_required(self):
        with pytest.raises(ConfigError, match="data.path"):
            validate_config({})
        with pytest.raises(ConfigError, match="data.outcome"):
            validate_config({"data": {"path": "t.csv", "treatment": "t"}})


class TestUnknownKeys:
    def test_top_level(self):
        with pytest.raises(ConfigError, match=r"\['outputdir'\] at top level"):
            validate_config(minimal(outputdir="x"))

    def test_nested_section(self):
        raw = minimal(evaluation={"bootstrp_b": 5})
        with pytest.raises(ConfigError, match=r"\['bootstrp_b'\] at evaluation"):
            validate_config(raw)

    def test_menu_entry(self):
        raw = minimal(cate={"menu": {"m": {"kind": "t", "learner": {"kind": "ridge"}, "lam": 1}}})
        with pytest.raises(ConfigError, match="cate.menu.m"):
            validate_config(raw)

    def test_bounds_param_for_other_method(self):
        raw = minimal(propensity={"bounds": {"method": "fixed", "eta_low": 0.1,
                                             "eta_high": 0.9, "q_low": 0.01}})
        with pytest.raises(ConfigError, match="q_low"):
            validate_config(raw)

    def test_uncertainty(self):
        with pytest.raises(ConfigError, match="alpha"):
            validate_config(minimal(uncertainty={"alpha": 0.9}))


class TestScalarChecks:
    def test_split_fractions(self):
        with pytest.raises(ConfigError, match="3 fractions"):
            validate_config(minimal(splits={"fractions": [0.5, 0.5]}))
        with pytest.raises(ConfigError, match="sum to 1"):
            validate_config(minimal(splits={"fractions": [0.5, 0.3, 0.3]}))

    def test_negative_seed(self):
        with pytest.raises(ConfigError, match="splits.seed"):
            validate_config(minimal(splits={"seed": -1}))

    def test_bad_mode_choice(self):
        with pytest.raises(ConfigError, match="deferral.mode"):
            validate_config(minimal(deferral={"mode": "strict"}))

    def test_rank_step_open_at_zero(self):
        with pytest.raises(ConfigError, match="rank_step"):
            validate_config(minimal(evaluation={"rank_step": 0}))
        # rank_curve refuses a step of 1, so the config does too
        with pytest.raises(ConfigError, match="rank_step must be < 1.0"):
            validate_config(minimal(evaluation={"rank_step": 1.0}))

    def test_simulation_ranges(self):
        with pytest.raises(ConfigError, match="simulation.runs"):
            validate_config(minimal(simulation={"runs": 1}))
        with pytest.raises(ConfigError, match="train_frac"):
            validate_config(minimal(simulation={"train_frac": 1.0}))
        with pytest.raises(ConfigError, match="effect_size"):
            validate_config(minimal(simulation={"effect_size": 0}))

    def test_report_bins_minimum(self):
        with pytest.raises(ConfigError, match="report.bins"):
            validate_config(minimal(report={"bins": 1}))

    def test_boolean_typed(self):
        with pytest.raises(ConfigError, match="true or false"):
            validate_config(minimal(identification={"acknowledged": "yes"}))


class TestMenu:
    def menu(self, entries):
        return minimal(cate={"menu": entries})

    def test_reserved_names_rejected(self):
        for name in ("doctors", "treat-all-1", "ensemble-average"):
            assert name in RESERVED_POLICY_NAMES
            raw = self.menu({name: {"kind": "t", "learner": {"kind": "ridge"}}})
            with pytest.raises(ConfigError, match="reserved"):
                validate_config(raw)

    def test_reserved_names_are_the_names_of_every_policy_outside_the_menu(self):
        # the study values what evaluate builds (baselines and every ensemble mode)
        # and the true optimum, so a policy added there must be reserved here
        X, T = synthetic_covariates(300, 3, seed=5)
        ridge = LearnerSpec.from_dict({"kind": "ridge", "lam": 1.0})
        menu = {"m-t": CateFitSpec(kind="t", learner=ridge),
                "m-s": CateFitSpec(kind="s", learner=ridge)}
        study = run_study(X, T, SimulationSpec(lam=0.5, effect_size=1.0), menu, runs=2, seed=0,
                          modes=ENSEMBLE_MODES)
        assert study.failures == []
        assert set(study.policies) - set(menu) == RESERVED_POLICY_NAMES

    def test_name_charset(self):
        for bad in ("-lead", "has space", ""):
            raw = self.menu({bad: {"kind": "t", "learner": {"kind": "ridge"}}})
            with pytest.raises(ConfigError, match="name"):
                validate_config(raw)
        ok = self.menu({"Model.v2_x": {"kind": "t", "learner": {"kind": "ridge"}}})
        assert "Model.v2_x" in validate_config(ok).echo["cate"]["menu"]

    def test_learner_required_and_task_checked(self):
        with pytest.raises(ConfigError, match="learner is required"):
            validate_config(self.menu({"m": {"kind": "t"}}))
        with pytest.raises(ConfigError, match="m.learner"):
            validate_config(self.menu({"m": {"kind": "t", "learner": {"kind": "logistic"}}}))

    def test_bad_meta_kind(self):
        with pytest.raises(ConfigError, match="m.kind"):
            validate_config(self.menu({"m": {"kind": "r", "learner": {"kind": "ridge"}}}))

    def test_g_constant_range(self):
        raw = self.menu({"m": {"kind": "x", "learner": {"kind": "ridge"}, "g_constant": 1.5}})
        with pytest.raises(ConfigError, match="g_constant"):
            validate_config(raw)

    def test_empty_menu_rejected(self):
        with pytest.raises(ConfigError, match="at least one model"):
            validate_config(self.menu({}))

    @pytest.mark.parametrize("key, value", [
        ("max_depth", 0),
        ("n_trees", 2.5),
        ("n_trees", "10"),
        ("learning_rate", math.nan),
        ("learning_rate", -1),
        ("min_samples_leaf", True),
    ])
    def test_gbt_hyperparameter_values(self, key, value):
        learner = {"kind": "gbt", key: value}
        with pytest.raises(ConfigError, match=rf"m\.learner: gbt {key} must be"):
            validate_config(self.menu({"m": {"kind": "t", "learner": learner}}))
        with pytest.raises(ConfigError, match=rf"evaluation\.plug_in: gbt {key} must be"):
            validate_config(minimal(evaluation={"plug_in": learner}))

    def test_gbt_hyperparameter_boundaries_accepted(self):
        learner = {"kind": "gbt", "n_trees": 0, "max_depth": 1, "min_samples_leaf": 1,
                   "learning_rate": 1}
        echo = validate_config(self.menu({"m": {"kind": "t", "learner": learner}})).echo
        assert echo["cate"]["menu"]["m"]["learner"] == learner


class TestBounds:
    def test_fixed_requires_both_etas(self):
        raw = minimal(propensity={"bounds": {"method": "fixed", "eta_low": 0.1}})
        with pytest.raises(ConfigError, match="eta_high is required"):
            validate_config(raw)

    def test_quantile_defaults_fill_in(self):
        echo = validate_config(minimal(propensity={"bounds": {"method": "quantile"}})).echo
        assert echo["propensity"]["bounds"] == {"method": "quantile", "q_low": 0.01, "q_high": 0.99}

    def test_min_count_positive(self):
        raw = minimal(propensity={"bounds": {"method": "min-count", "min_count": 0}})
        with pytest.raises(ConfigError, match="min_count"):
            validate_config(raw)

    def test_unknown_method(self):
        raw = minimal(propensity={"bounds": {"method": "adaptive"}})
        with pytest.raises(ConfigError, match="bounds.method"):
            validate_config(raw)


class TestUncertainty:
    def test_lam_and_alpha_causal_exclusive(self):
        raw = minimal(uncertainty={"lam": 1.2, "alpha_causal": 0.1})
        with pytest.raises(ConfigError, match="not both"):
            validate_config(raw)

    def test_alpha_causal_resolves_to_lam(self):
        echo = validate_config(minimal(uncertainty={"alpha_causal": 0.1})).echo
        assert echo["uncertainty"]["lam"] == pytest.approx(math.exp(0.1), abs=1e-15)
        assert "alpha_causal" not in echo["uncertainty"]
        zero = validate_config(minimal(uncertainty={"alpha_causal": 0.0})).echo
        assert zero["uncertainty"]["lam"] == 1.0
        with pytest.raises(ConfigError, match="alpha_causal"):
            validate_config(minimal(uncertainty={"alpha_causal": -0.2}))
        with pytest.raises(ConfigError, match="alpha_causal must be a number"):
            validate_config(minimal(uncertainty={"alpha_causal": None}))

    def test_lam_below_one_rejected(self):
        with pytest.raises(ConfigError, match="lam"):
            validate_config(minimal(uncertainty={"lam": 0.99}))

    def test_alpha_stat_strictly_below_one(self):
        with pytest.raises(ConfigError, match="alpha_stat"):
            validate_config(minimal(uncertainty={"alpha_stat": 1.0}))

    def test_negative_b_boot_rejected(self):
        with pytest.raises(ConfigError, match="b_boot"):
            validate_config(minimal(uncertainty={"b_boot": -1}))


class TestListChecks:
    def test_estimators(self):
        with pytest.raises(ConfigError, match="at least one estimator"):
            validate_config(minimal(evaluation={"estimators": []}))
        with pytest.raises(ConfigError, match="twice"):
            validate_config(minimal(evaluation={"estimators": ["IPW", "IPW"]}))
        with pytest.raises(ConfigError, match="AIPW"):
            validate_config(minimal(evaluation={"estimators": ["AIPW"]}))

    def test_ensembles(self):
        with pytest.raises(ConfigError, match="voting"):
            validate_config(minimal(cate={"ensembles": ["voting"]}))
        with pytest.raises(ConfigError, match="twice"):
            validate_config(minimal(cate={"ensembles": ["average", "average"]}))


class TestHash:
    def test_stable_and_value_sensitive(self):
        a = validate_config(minimal())
        b = validate_config(minimal())
        c = validate_config(minimal(evaluation={"bootstrap_b": 5}))
        assert a.hash == b.hash
        assert a.hash != c.hash

    def test_key_order_irrelevant(self):
        fwd = {"data": {"path": "t.csv", "treatment": "t", "outcome": "y"}, "splits": {"seed": 3}}
        rev = {"splits": {"seed": 3}, "data": {"outcome": "y", "treatment": "t", "path": "t.csv"}}
        assert validate_config(fwd).hash == validate_config(rev).hash

    def test_hash_matches_canonical_json(self):
        cfg = validate_config(minimal())
        assert cfg.hash == config_hash(json.loads(json.dumps(cfg.echo)))


class TestAccessors:
    def test_schema_and_seeds(self):
        cfg = validate_config(minimal())
        schema = cfg.table_schema()
        assert schema.treatment == "treat" and schema.outcome == "outcome"
        assert set(cfg.seeds()) == {
            "splits", "propensity", "cate", "uncertainty", "evaluation", "simulation"
        }

    def test_bounds_kwargs_and_menu_objects(self):
        cfg = validate_config(minimal())
        assert cfg.echo["propensity"]["bounds"] == {
            "method": "quantile", "q_low": 0.01, "q_high": 0.99
        }
        menu = cfg.cate_menu()
        assert list(menu) == ["t-ridge"]
        assert menu["t-ridge"].kind == "t"
        assert menu["t-ridge"].learner.kind == "ridge"

    def test_theta_reflects_uncertainty_section(self):
        cfg = validate_config(minimal(uncertainty={"alpha_stat": 0.8, "lam": 2.0, "b_boot": 7}))
        theta = cfg.theta()
        assert (theta.alpha_stat, theta.lam, theta.b_boot) == (0.8, 2.0, 7)


class TestOverrides:
    def test_json_coercion(self):
        out = apply_overrides({}, ["a.b=1", "a.flag=true", "a.arr=[1,2]", "a.s=plain"])
        assert out == {"a": {"b": 1, "flag": True, "arr": [1, 2], "s": "plain"}}

    def test_quoted_string_stays_string(self):
        out = apply_overrides({}, ['k="5"'])
        assert out == {"k": "5"}

    def test_overrides_win_over_file(self):
        raw = minimal(evaluation={"bootstrap_b": 7})
        out = apply_overrides(raw, ["evaluation.bootstrap_b=9"])
        assert out["evaluation"]["bootstrap_b"] == 9
        assert raw["evaluation"]["bootstrap_b"] == 7  # input untouched

    def test_descending_into_scalar_rejected(self):
        with pytest.raises(ConfigError, match="non-object"):
            apply_overrides({"output_dir": "x"}, ["output_dir.sub=1"])

    def test_malformed_assignments(self):
        with pytest.raises(ConfigError, match="dotted.key=value"):
            apply_overrides({}, ["noequals"])
        with pytest.raises(ConfigError, match="empty key"):
            apply_overrides({}, ["=5"])


class TestLoadConfig:
    def test_round_trip_with_overrides(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(minimal()))
        cfg = load_config(path, overrides=["splits.seed=3"])
        assert cfg.echo["splits"]["seed"] == 3
        assert cfg.source == str(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read config"):
            load_config(tmp_path / "absent.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(path)


def bounds(**keys):
    return {"propensity": {"bounds": keys}}


def menu_learner(**learner):
    return {"cate": {"menu": {"m": {"kind": "t", "learner": learner}}}}


def data(**keys):
    return {"data": {"path": "t.csv", "treatment": "t", "outcome": "y", **keys}}


# values a stage would refuse, or silently misread, after the earlier stages
# had run; each is refused when the config is loaded
LOAD_TIME_REFUSALS = [
    pytest.param(bounds(method="quantile", q_low=0.9, q_high=0.1),
                 "q_low must be below q_high", id="quantile-inverted"),
    pytest.param(bounds(method="quantile", q_low=0.5, q_high=0.5),
                 "q_low must be below q_high", id="quantile-equal"),
    pytest.param(bounds(method="quantile", q_low=0.995),
                 "q_low must be below q_high", id="quantile-above-default-high"),
    pytest.param(bounds(method="fixed", eta_low=0.9, eta_high=0.1),
                 "eta_low must be below eta_high", id="fixed-inverted"),
    pytest.param(bounds(method="fixed", eta_low=0.3, eta_high=0.3),
                 "eta_low must be below eta_high", id="fixed-equal"),
    pytest.param({"evaluation": {"rank_step": 1.0}},
                 r"evaluation\.rank_step must be < 1\.0", id="rank-step-one"),
    # the rank curve's grid has round(1 / step) + 1 levels: 0.3 gave thirds, 0.4 halves
    # and 0.7 only the two ends
    *(pytest.param({"evaluation": {"rank_step": step}},
                   rf"evaluation\.rank_step must divide 1 \(1/step an integer\), got {step}",
                   id=f"rank-step-{step}")
      for step in (0.3, 0.4, 0.7)),
    pytest.param(menu_learner(kind="ridge", lam=-1),
                 r"cate\.menu\.m\.learner: ridge lam must be a finite number >= 0",
                 id="ridge-negative-lam"),
    pytest.param(menu_learner(kind="ridge", lam=True),
                 "ridge lam must be a finite number >= 0", id="ridge-boolean-lam"),
    pytest.param(menu_learner(kind="lasso", max_iter=0),
                 "lasso max_iter must be an integer >= 1", id="lasso-zero-max-iter"),
    pytest.param(menu_learner(kind="lasso", tol=0),
                 "lasso tol must be a finite number > 0", id="lasso-zero-tol"),
    pytest.param({"evaluation": {"plug_in": {"kind": "ols", "fit_intercept": "no"}}},
                 r"evaluation\.plug_in: ols fit_intercept must be true or false",
                 id="ols-string-fit-intercept"),
    pytest.param({"propensity": {"learner": {"kind": "logistic", "penalty": "elasticnet"}}},
                 r"propensity\.learner: logistic penalty must be one of \['none', 'l1', 'l2'\]",
                 id="logistic-unknown-penalty"),
    pytest.param({"propensity": {"learner": {"kind": "logistic", "lam": math.inf}}},
                 "logistic lam must be a finite number >= 0", id="logistic-infinite-lam"),
    # math.exp overflows here, which no config check caught
    pytest.param({"uncertainty": {"alpha_causal": 1000}},
                 r"uncertainty\.alpha_causal is too large", id="alpha-causal-overflow"),
    # each comparison with NaN is false, so NaN passed every range check
    pytest.param({"evaluation": {"rank_step": math.nan}},
                 r"evaluation\.rank_step must be a finite number, got nan", id="rank-step-nan"),
    pytest.param({"simulation": {"train_frac": math.nan}},
                 r"simulation\.train_frac must be a finite number", id="train-frac-nan"),
    pytest.param({"policy": {"threshold": math.nan}},
                 r"policy\.threshold must be a finite number", id="threshold-nan"),
    pytest.param({"splits": {"fractions": [math.nan, 0.5, 0.5]}},
                 r"splits\.fractions\[0\] must be a finite number", id="fraction-nan"),
    # a zero fraction gets no row, which ingest refuses only after parsing the whole table
    pytest.param({"splits": {"fractions": [0.8, 0.0, 0.2]}},
                 r"splits\.fractions\[1\] must be > 0\.0, got 0\.0", id="fraction-zero"),
    pytest.param({"deferral": {"profile_lam": math.inf}},
                 r"deferral\.profile_lam must be a finite number, got inf", id="profile-lam-inf"),
    pytest.param({"uncertainty": {"lam": math.inf}},
                 r"uncertainty\.lam must be a finite number", id="lam-inf"),
    pytest.param({"uncertainty": {"alpha_causal": math.inf}},
                 r"uncertainty\.alpha_causal must be a finite number", id="alpha-causal-inf"),
    pytest.param({"evaluation": {"rank_step": 10 ** 400}},
                 r"evaluation\.rank_step must be a finite number, got inf", id="huge-integer"),
    # ingest refused these only after the config had passed
    pytest.param(data(outcome="t"), "data: column 't' assigned more than one role",
                 id="treatment-is-outcome"),
    pytest.param(data(secondary_outcomes=["z"], ignore=["z"]),
                 "data: column 'z' assigned more than one role", id="secondary-and-ignored"),
    *(pytest.param(data(delimiter=d), r"data\.delimiter must be one character other than a "
                   f"quote or a line break, got {re.escape(repr(d))}", id=f"delimiter-{name}")
      for d, name in ((";;", "two-characters"), ('"', "quote"), ("\n", "newline"),
                      ("\r", "carriage-return"))),
    # checked only here: the spec classes, run_study and rank_curve take these as given
    pytest.param({"uncertainty": {"alpha_stat": 0.5, "b_boot": 1}},
                 r"uncertainty: b_boot must be >= 2 when alpha_stat > 0", id="one-replicate"),
    pytest.param({"policy": {"direction": "sideways"}},
                 r"policy\.direction must be one of \['higher-better', 'lower-better'\], "
                 "got 'sideways'", id="direction-sideways"),
    pytest.param({"simulation": {"lam": 1.5}},
                 r"simulation\.lam must be <= 1\.0, got 1\.5", id="simulation-lam-above-one"),
    pytest.param({"simulation": {"noise_factor": 0}},
                 r"simulation\.noise_factor must be > 0\.0, got 0", id="noise-factor-zero"),
    *(pytest.param({"simulation": {"train_frac": frac}},
                   rf"simulation\.train_frac must be {bound}, got {frac}", id=f"train-frac-{frac}")
      for frac, bound in ((0.0, r"> 0\.0"), (-0.2, r"> 0\.0"), (1.5, r"< 1\.0"))),
    # the grid holds one n x 6 stack of the test rows per level, so memory and time
    # grow as 1/step
    *(pytest.param({"evaluation": {"rank_step": step}},
                   rf"evaluation\.rank_step must be >= 0\.01, got {step}", id=f"rank-step-{step}")
      for step in (0.005, 1e-8)),
]


class TestLoadTimeRefusals:
    @pytest.mark.parametrize("extra, message", LOAD_TIME_REFUSALS)
    def test_validate_config_refuses(self, extra, message):
        with pytest.raises(ConfigError, match=message):
            validate_config(minimal(**extra))

    @pytest.mark.parametrize("extra, message", LOAD_TIME_REFUSALS)
    def test_validate_config_command_exits_2(self, extra, message, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(minimal(**extra)))
        assert main(["validate-config", str(path)]) == 2
        assert re.search(f"config error: .*{message}", capsys.readouterr().err)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, 10 ** 400])
    def test_infinite_threshold_accepted(self, value):
        # the threshold has no range, so only NaN is refused there
        assert validate_config(minimal(policy={"threshold": value})).echo["policy"]["threshold"] \
            == float("inf") * (1 if value > 0 else -1)

    @pytest.mark.parametrize("step", [0.01, 0.1, 0.125, 0.25, 0.5])
    def test_rank_step_dividing_one_accepted(self, step):
        assert validate_config(minimal(evaluation={"rank_step": step})).echo[
            "evaluation"]["rank_step"] == step

    def test_secondary_outcomes_and_ignored_columns_are_left_out_alike(self):
        cfg = validate_config(data(secondary_outcomes=["y2"], ignore=["id"]))
        assert cfg.table_schema() == TableSchema(treatment="t", outcome="y", ignore=("y2", "id"))

    def test_linear_boundaries_accepted(self):
        learner = {"kind": "lasso", "lam": 0, "tol": 1e-12, "max_iter": 1, "fit_intercept": False}
        propensity = {"learner": {"kind": "logistic", "penalty": "none", "lam": 0.0},
                      "bounds": {"method": "fixed", "eta_low": 0.0, "eta_high": 1e-9}}
        echo = validate_config(minimal(cate={"menu": {"m": {"kind": "t", "learner": learner}}},
                                       propensity=propensity,
                                       evaluation={"rank_step": 0.5})).echo
        assert echo["cate"]["menu"]["m"]["learner"] == learner
        assert echo["propensity"]["learner"] == propensity["learner"]
        assert echo["propensity"]["bounds"] == propensity["bounds"]


# sets every key of every section; bounds are set per case
FULL_RAW = {
    "data": {"path": "cohort.csv", "treatment": "treat", "outcome": "y",
             "secondary_outcomes": ["y2"], "ignore": ["id"], "delimiter": ";"},
    "splits": {"fractions": [0.5, 0.25, 0.25], "seed": 3},
    "propensity": {
        "learner": {"kind": "logistic", "penalty": "l1", "lam": 0.5, "tol": 1e-7,
                    "max_iter": 50, "fit_intercept": True},
        "calibrate": False,
        "seed": 4,
    },
    "cate": {
        "menu": {
            "s-ols": {"kind": "s", "learner": {"kind": "ols", "fit_intercept": False}},
            "x-gbt": {"kind": "x", "g_constant": 1,
                      "learner": {"kind": "gbt", "n_trees": 20, "max_depth": 2,
                                  "learning_rate": 0.2, "min_samples_leaf": 5}},
            "t-lasso": {"kind": "t", "learner": {"kind": "lasso", "lam": 0.1, "max_iter": 500},
                        "g_constant": None},
        },
        "ensembles": ["majority", "average"],
        "seed": 5,
    },
    "uncertainty": {"alpha_stat": 0.8, "alpha_causal": 0, "b_boot": 10, "seed": 6},
    "deferral": {"mode": "inclusive", "profile_lam": 1},
    "policy": {"direction": "lower-better", "threshold": 2},
    "evaluation": {"estimators": ["DR"], "bootstrap_b": 50, "rank_step": 0.25,
                   "plug_in": {"kind": "ridge", "lam": 2}, "seed": 7},
    "simulation": {"enabled": True, "only": False, "lam": 0.25, "effect_size": 1,
                   "noise_factor": 2, "runs": 3, "train_frac": 0.5, "seed": 8},
    "identification": {"acknowledged": True},
    "report": {"include_timings": True, "bins": 12},
    "output_dir": "results",
}

FULL_ECHO = {
    "data": {"path": "cohort.csv", "treatment": "treat", "outcome": "y",
             "secondary_outcomes": ["y2"], "ignore": ["id"], "delimiter": ";"},
    "splits": {"fractions": [0.5, 0.25, 0.25], "seed": 3},
    "propensity": {
        "learner": {"kind": "logistic", "fit_intercept": True, "lam": 0.5, "max_iter": 50,
                    "penalty": "l1", "tol": 1e-7},
        "calibrate": False,
        "seed": 4,
    },
    "cate": {
        "menu": {
            "s-ols": {"kind": "s", "learner": {"kind": "ols", "fit_intercept": False},
                      "g_constant": None},
            "x-gbt": {"kind": "x", "g_constant": 1.0,
                      "learner": {"kind": "gbt", "learning_rate": 0.2, "max_depth": 2,
                                  "min_samples_leaf": 5, "n_trees": 20}},
            "t-lasso": {"kind": "t", "learner": {"kind": "lasso", "lam": 0.1, "max_iter": 500},
                        "g_constant": None},
        },
        "ensembles": ["majority", "average"],
        "seed": 5,
    },
    "uncertainty": {"alpha_stat": 0.8, "lam": 1.0, "b_boot": 10, "seed": 6},
    "deferral": {"mode": "inclusive", "profile_lam": 1.0},
    "policy": {"direction": "lower-better", "threshold": 2.0},
    "evaluation": {"estimators": ["DR"], "bootstrap_b": 50, "rank_step": 0.25,
                   "plug_in": {"kind": "ridge", "lam": 2}, "seed": 7},
    "simulation": {"enabled": True, "only": False, "lam": 0.25, "effect_size": 1.0,
                   "noise_factor": 2.0, "runs": 3, "train_frac": 0.5, "seed": 8},
    "identification": {"acknowledged": True},
    "report": {"include_timings": True, "bins": 12},
    "output_dir": "results",
}


@pytest.mark.parametrize("bounds, resolved, digest", [
    ({"method": "fixed", "eta_low": 0.05, "eta_high": 0.95},
     {"method": "fixed", "eta_low": 0.05, "eta_high": 0.95},
     "e3f122cf4cb04ca3632ecf6de190358cde80369cb429fffe554e4706eed20692"),
    ({"method": "quantile", "q_low": 0},
     {"method": "quantile", "q_low": 0.0, "q_high": 0.99},
     "d34c37de1bb61141c1ceb7e574da4ffd659a0c035928619d1ead355b562baf89"),
    ({"method": "min-count"}, {"method": "min-count", "min_count": 10},
     "6873997d057b61d21fa130c15b383768514d63cf89b78d2cfb35ab6a487d0ffe"),
])
def test_full_echo_is_pinned(bounds, resolved, digest):
    raw = copy.deepcopy(FULL_RAW)
    raw["propensity"]["bounds"] = bounds
    cfg = validate_config(raw)
    expected = copy.deepcopy(FULL_ECHO)
    expected["propensity"]["bounds"] = resolved
    assert cfg.echo == expected
    # == takes 1 for 1.0; the JSON text, which the hash is taken over, does not
    assert json.dumps(cfg.echo, sort_keys=True) == json.dumps(expected, sort_keys=True)
    assert cfg.hash == digest



def test_every_json_config_in_the_readme_validates():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```json\n(.*?)^```", readme, flags=re.DOTALL | re.MULTILINE)
    assert blocks
    for text in blocks:
        validate_config(json.loads(text))
