"""Runtime configuration: detector keyword sets and report knobs.

A config file is JSON with the settings under a top-level "config" key, so
a platform-model file may carry its own configuration in one document.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

from .model import PlatformModelError, parse_signature
from .record import Record
from .syntax.errors import not_utf8

DEFAULT_LOG_METHOD_NAMES = frozenset({
    "log", "trace", "debug", "info", "warn", "warning", "error", "fatal",
    "severe", "fine", "finer", "finest",
})

DEFAULT_ABORT_SIGNATURES = frozenset({
    "java.lang.System#exit(1)",
    "java.lang.Runtime#halt(1)",
})

DEFAULT_GENERIC_CATCH_TYPES = frozenset({
    "java.lang.Throwable",
    "java.lang.Exception",
})

MAX_EXACT_TEST_CUTOFF = 50  # 100 vs 100 takes 18 s, 50 vs 50 about 1 s


class ConfigError(Exception):
    pass


class Config(Record):
    __slots__ = ("log_method_names", "abort_signatures", "generic_catch_types",
                 "exact_test_cutoff", "transitive_origins",
                 "continuity_correction")

    def __init__(self,
                 log_method_names: frozenset[str] = DEFAULT_LOG_METHOD_NAMES,
                 abort_signatures: frozenset[str] = DEFAULT_ABORT_SIGNATURES,
                 generic_catch_types: frozenset[str] = (
                     DEFAULT_GENERIC_CATCH_TYPES),
                 exact_test_cutoff: int = 12,
                 transitive_origins: bool = False,
                 continuity_correction: bool = True):
        self.log_method_names = log_method_names
        self.abort_signatures = abort_signatures
        self.generic_catch_types = generic_catch_types
        self.exact_test_cutoff = exact_test_cutoff
        self.transitive_origins = transitive_origins
        self.continuity_correction = continuity_correction

    def __setattr__(self, name: str, value: object) -> None:
        # __init__ sets each field once; nothing sets one again
        if hasattr(self, name):
            raise AttributeError(f"cannot assign to field {name!r}")
        super().__setattr__(name, value)

    def __hash__(self) -> int:
        return hash((self.log_method_names, self.abort_signatures,
                     self.generic_catch_types, self.exact_test_cutoff,
                     self.transitive_origins, self.continuity_correction))


_STRING_SET_KEYS = ("log_method_names", "abort_signatures", "generic_catch_types")
_BOOL_KEYS = ("transitive_origins", "continuity_correction")


def load_config(path: Union[str, Path]) -> Config:
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read config: {exc}")
    except UnicodeDecodeError as exc:
        raise ConfigError(not_utf8(path, exc))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}")
    if not isinstance(doc, dict) or "config" not in doc:
        raise ConfigError(f"{path}: expected an object with a 'config' key")
    return config_from_dict(doc["config"], str(path))


def config_from_dict(doc: object, source: str = "config") -> Config:
    if not isinstance(doc, dict):
        raise ConfigError(f"{source}: config: expected an object")
    known = set(_STRING_SET_KEYS) | set(_BOOL_KEYS) | {"exact_test_cutoff"}
    unknown = set(doc) - known
    if unknown:
        raise ConfigError(f"{source}: config: unknown keys {sorted(unknown)}")
    settings: dict[str, object] = {}
    for key in _STRING_SET_KEYS:
        if key in doc:
            value = doc[key]
            if (not isinstance(value, list)
                    or not all(isinstance(v, str) for v in value)):
                raise ConfigError(f"{source}: config.{key}: expected a list of strings")
            if not value:
                raise ConfigError(f"{source}: config.{key}: must not be empty")
            settings[key] = frozenset(value)
    if "exact_test_cutoff" in doc:
        value = doc["exact_test_cutoff"]
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            raise ConfigError(
                f"{source}: config.exact_test_cutoff: expected a non-negative integer")
        if value > MAX_EXACT_TEST_CUTOFF:
            raise ConfigError(
                f"{source}: config.exact_test_cutoff: {value} is above "
                f"{MAX_EXACT_TEST_CUTOFF}, where the exact test gets too slow")
        settings["exact_test_cutoff"] = value
    for key in _BOOL_KEYS:
        if key in doc:
            value = doc[key]
            if not isinstance(value, bool):
                raise ConfigError(f"{source}: config.{key}: expected a boolean")
            settings[key] = value
    config = Config(**settings)
    for signature in config.abort_signatures:
        try:
            parse_signature(signature)
        except PlatformModelError as exc:
            raise ConfigError(f"{source}: config.abort_signatures: {exc}")
    return config
