"""The model-file format: every registered type round-trips, old files load,
broken files are refused naming the file."""

import json
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from conftest import make_dataset

from treatpolicy.cate.meta import CateModel, fit_meta_learner
from treatpolicy.errors import SchemaError
from treatpolicy.learners import (
    CalibratedClassifier,
    LearnerSpec,
    calibrate,
    decode_model,
    encode_model,
    fit_classifier,
    fit_gbt,
    fit_linear,
    fit_regressor,
    load_model,
    save_model,
)
from treatpolicy.propensity import fit_propensity

DATA = Path(__file__).parent / "data"
LOGISTIC = LearnerSpec.from_dict({"kind": "logistic", "lam": 1.0})


def world(seed=5, n=80, d=3):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    t = (rng.random(n) < 1.0 / (1.0 + np.exp(-X[:, 0]))).astype(int)
    y = X @ np.array([1.0, -0.5, 0.25]) + t * (1.0 + X[:, 1]) + rng.normal(scale=0.3, size=n)
    return make_dataset(X, t, y)


def model_of(type_name):
    data = world()
    X, t, y = data.covariates, data.treatment.astype(float), data.outcome
    if type_name == "linear":
        return fit_linear(X, y, penalty="l2", lam=1)
    if type_name == "gbt":
        return fit_gbt(X, y, n_trees=3, max_depth=2, learning_rate=1)
    if type_name == "calibrated":
        return calibrate(fit_classifier(LOGISTIC, X[:50], t[:50]), X[50:], t[50:])
    if type_name == "fitted":
        return fit_regressor(LearnerSpec.from_dict({"kind": "ridge", "lam": 1.0}), X, y)
    if type_name == "cate":
        gbt = LearnerSpec.from_dict({"kind": "gbt", "n_trees": 2, "max_depth": 2})
        return fit_meta_learner("x", data, gbt, propensity=fit_classifier(LOGISTIC, X, t))
    prop = fit_propensity(data.subset(np.arange(50)), LOGISTIC, data.subset(np.arange(50, 80)))
    return replace(prop, bounds=(np.float64(0.1), 0.9))


def predictions(model, X):
    return model.predict_proba(X) if isinstance(model, CalibratedClassifier) else model.predict(X)


TYPES = ["linear", "gbt", "calibrated", "fitted", "cate", "propensity"]


@pytest.mark.parametrize("type_name", TYPES)
class TestEveryModelType:
    def test_round_trip(self, type_name):
        model = model_of(type_name)
        encoded = encode_model(model)
        assert encoded["type"] == type_name
        back = decode_model(json.loads(json.dumps(encoded)))
        assert encode_model(back) == encoded
        X = world(seed=6).covariates
        np.testing.assert_array_equal(predictions(back, X), predictions(model, X))

    def test_unknown_key_is_ignored(self, type_name):
        encoded = encode_model(model_of(type_name))
        assert encode_model(decode_model({**encoded, "retired_field": [1, 2]})) == encoded

    def test_missing_field_is_refused_by_name(self, type_name):
        encoded = encode_model(model_of(type_name))
        for field in [k for k in encoded if k != "type"]:
            short = {k: v for k, v in encoded.items() if k != field}
            with pytest.raises(SchemaError, match=rf"'{type_name}' model lacks .*'{field}'"):
                decode_model(short)


def test_a_component_without_a_codec_is_refused():
    with pytest.raises(TypeError, match="no codec registered for object"):
        encode_model(CateModel(kind="t", family="stub", components={"mu0": object()}))


class TestCommittedFiles:
    """Model files written by an earlier release: a calibrated logistic propensity model
    with bounds, and an x-kind CATE model of 2-tree gbt components blended by a fitted
    logistic propensity.  They must load, predict as they did and save to the same bytes."""

    @pytest.mark.parametrize("name", ["propensity_model.json", "cate_model.json"])
    def test_loads_predicts_and_saves_the_same_bytes(self, tmp_path, name):
        expected = json.loads((DATA / "model_predictions.json").read_text())
        model = load_model(DATA / name)
        np.testing.assert_allclose(predictions(model, np.array(expected["X"])), expected[name],
                                   rtol=1e-12, atol=0.0)
        save_model(model, tmp_path / name)
        assert (tmp_path / name).read_bytes() == (DATA / name).read_bytes()


class TestBrokenFiles:
    def test_unparsable_file_names_the_file(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("{not json")
        with pytest.raises(SchemaError, match=re.escape(f"{path}: not valid JSON")):
            load_model(path)

    def test_missing_field_names_the_file_type_and_field(self, tmp_path):
        path = tmp_path / "model.json"
        doc = json.loads((DATA / "propensity_model.json").read_text())
        del doc["model"]["scorer"]["base"]["model"]["n_iter"]
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError, match=re.escape(f"{path}: 'linear' model lacks field(s) ['n_iter']")):
            load_model(path)

    @pytest.mark.parametrize("doc", [[], {"format": "treatpolicy-model", "version": 1}])
    def test_document_without_a_model_is_refused(self, tmp_path, doc):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError, match=re.escape(str(path))):
            load_model(path)

    def test_tree_missing_a_field_is_refused(self, tmp_path):
        path = tmp_path / "model.json"
        doc = json.loads((DATA / "cate_model.json").read_text())
        del doc["model"]["components"]["mu0"]["model"]["trees"][1]["value"]
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError, match=re.escape(f"{path}: Tree lacks field(s) ['value']")):
            load_model(path)
