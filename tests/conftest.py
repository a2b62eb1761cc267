"""Pytest fixtures shared by the whole suite."""

import os
import pathlib
import re

import pytest

from repro import World
from repro.analysis.lint import Baseline, default_config, lint_paths

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.fixture
def world():
    # The flight recorder is purely passive (no scheduler events, no
    # metrics), so arming it for every test changes nothing about the
    # run; on failure the hook below dumps the black box post-mortem.
    return World(seed=1234, flight=True)


@pytest.fixture(scope="session")
def src_lint():
    """One whole-program reprolint run over ``src/`` against the
    committed baseline, shared by every test that inspects the real
    tree (a full run parses every file and builds the call graph)."""
    return lint_paths(
        [REPO_ROOT / "src"], config=default_config(REPO_ROOT),
        baseline=Baseline.load(REPO_ROOT / "tools" / "reprolint_baseline.json"),
        root=REPO_ROOT)


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    """On test failure, dump every armed flight recorder the test held.

    Worlds reachable through fixture arguments whose recorder is armed
    and non-empty are written as canonical JSON to ``$FLIGHT_DUMP_DIR``
    (default ``.flight/``); CI uploads the directory as an artifact.
    """
    outcome = yield
    report = outcome.get_result()
    if report.when != "call" or not report.failed:
        return
    worlds = [(name, value)
              for name, value in sorted(getattr(item, "funcargs", {}).items())
              if isinstance(value, World)
              and value.flight.enabled and value.flight.recorded]
    if not worlds:
        return
    dump_dir = pathlib.Path(os.environ.get("FLIGHT_DUMP_DIR", ".flight"))
    dump_dir.mkdir(parents=True, exist_ok=True)
    slug = re.sub(r"[^A-Za-z0-9_.-]+", "-", item.nodeid)
    for name, value in worlds:
        path = dump_dir / f"{slug}--{name}.json"
        path.write_text(value.flight_json() + "\n", encoding="utf-8")
