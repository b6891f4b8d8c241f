import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).parent
sys.path.insert(0, str(TESTS))

from exflow import Config, analyze_project, load_platform_model  # noqa: E402

FIG1_DIR = TESTS / "data" / "fig1"
JRE_MINI = TESTS / "data" / "platform" / "jre_mini.json"


@pytest.fixture(scope="session")
def fig1_dir() -> Path:
    return FIG1_DIR


@pytest.fixture(scope="session")
def jre_mini_path() -> Path:
    return JRE_MINI


@pytest.fixture(scope="session")
def jre_mini():
    return load_platform_model(JRE_MINI)


@pytest.fixture(scope="session")
def fig1_result(jre_mini):
    return analyze_project(FIG1_DIR, jre_mini)


@pytest.fixture(scope="session")
def fig1_transitive_result(jre_mini):
    return analyze_project(FIG1_DIR, jre_mini,
                           Config(transitive_origins=True))
