"""Configuration defaults, file loading, and validation."""

import json

import pytest

from exflow.config import (
    Config,
    ConfigError,
    config_from_dict,
    load_config,
)


def test_defaults():
    config = Config()
    assert "error" in config.log_method_names
    assert "java.lang.System#exit(1)" in config.abort_signatures
    assert config.generic_catch_types == {
        "java.lang.Throwable", "java.lang.Exception"}
    assert config.exact_test_cutoff == 12
    assert config.transitive_origins is False
    assert config.continuity_correction is True


def test_from_dict_overrides():
    config = config_from_dict({
        "log_method_names": ["audit"],
        "exact_test_cutoff": 6,
        "transitive_origins": True,
        "continuity_correction": False,
    })
    assert config.log_method_names == {"audit"}
    assert config.exact_test_cutoff == 6
    assert config.transitive_origins is True
    assert config.continuity_correction is False
    # untouched keys keep their defaults
    assert config.abort_signatures == Config().abort_signatures


def test_load_from_file(tmp_path):
    path = tmp_path / "conf.json"
    path.write_text(json.dumps(
        {"config": {"generic_catch_types": ["java.lang.Throwable"]}}))
    config = load_config(path)
    assert config.generic_catch_types == {"java.lang.Throwable"}


def test_load_requires_config_key(tmp_path):
    path = tmp_path / "conf.json"
    path.write_text("{}")
    with pytest.raises(ConfigError, match="'config' key"):
        load_config(path)


def test_load_rejects_bad_json(tmp_path):
    path = tmp_path / "conf.json"
    path.write_text("nope{")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_config(path)


def test_load_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "absent.json")


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError, match=r"unknown keys \['mystery'\]"):
        config_from_dict({"mystery": 1})


@pytest.mark.parametrize("doc,fragment", [
    ({"log_method_names": "log"}, "list of strings"),
    ({"log_method_names": [1]}, "list of strings"),
    ({"log_method_names": []}, "must not be empty"),
    ({"exact_test_cutoff": -1}, "non-negative"),
    ({"exact_test_cutoff": True}, "non-negative"),
    ({"exact_test_cutoff": "12"}, "non-negative"),
    ({"transitive_origins": 1}, "expected a boolean"),
    ([], "expected an object"),
    ({"exact_test_cutoff": 51}, "above 50"),
])
def test_bad_values_rejected(doc, fragment):
    with pytest.raises(ConfigError, match=fragment):
        config_from_dict(doc)


def test_abort_signatures_must_parse():
    with pytest.raises(ConfigError, match="abort_signatures"):
        config_from_dict({"abort_signatures": ["System.exit"]})
    config = config_from_dict({"abort_signatures": ["app.Main#die(0)"]})
    assert config.abort_signatures == {"app.Main#die(0)"}


def test_config_is_immutable():
    config = Config()
    with pytest.raises(AttributeError):
        config.exact_test_cutoff = 5
