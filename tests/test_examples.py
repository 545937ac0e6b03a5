"""Smoke tests for the example scripts.

The fast examples are executed end to end in-process; the slower ones
(full-size datasets, sequential baselines on thousands of vertices) are
compile-checked and their mains verified importable, keeping the unit
suite quick while still catching rot.
"""

import os
import py_compile
import runpy
import sys

import pytest

EXAMPLES_DIR = os.path.join(os.path.dirname(__file__), "..", "examples")

ALL_EXAMPLES = [
    "quickstart.py",
    "social_network.py",
    "scaling_study.py",
    "web_crawl.py",
    "custom_scoring.py",
    "analysis_pipeline.py",
    "hierarchical_clustering.py",
]

FAST_EXAMPLES = ["quickstart.py", "analysis_pipeline.py"]


@pytest.mark.parametrize("name", ALL_EXAMPLES)
def test_example_compiles(name):
    py_compile.compile(os.path.join(EXAMPLES_DIR, name), doraise=True)


@pytest.mark.parametrize("name", ALL_EXAMPLES)
def test_example_defines_main(name):
    source = open(os.path.join(EXAMPLES_DIR, name), encoding="utf-8").read()
    assert "def main()" in source
    assert '__name__ == "__main__"' in source
    assert source.startswith("#!/usr/bin/env python3")
    assert '"""' in source  # every example carries a docstring


@pytest.mark.parametrize("name", FAST_EXAMPLES)
def test_fast_example_runs(name, capsys, monkeypatch):
    path = os.path.join(EXAMPLES_DIR, name)
    monkeypatch.setattr(sys, "argv", [path])
    runpy.run_path(path, run_name="__main__")
    out = capsys.readouterr().out
    assert "communities" in out


def test_scaling_study_tiny(capsys, monkeypatch):
    """scaling_study accepts --scale; run it extremely small."""
    path = os.path.join(EXAMPLES_DIR, "scaling_study.py")
    monkeypatch.setattr(sys, "argv", [path, "--scale", "0.125"])
    runpy.run_path(path, run_name="__main__")
    out = capsys.readouterr().out
    assert "rmat-24-16" in out
    assert "speed-up" in out
