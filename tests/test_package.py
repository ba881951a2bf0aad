"""The public surface: every exported name resolves and every demo runs.

A public name stays only while a pipeline, the CLI or a demo uses it, so
the demos are pinned here as users of the package.  The traced benchmark
reaches into the package by module and attribute name, so those names are
pinned here too.
"""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import losscarto

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_star_import_resolves_all():
    assert len(losscarto.__all__) == len(set(losscarto.__all__))
    namespace = {}
    exec("from losscarto import *", namespace)  # AttributeError on a dangling name
    assert set(losscarto.__all__) <= set(namespace)


def test_demos_present():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_exits_zero(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr


def _load_bench_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    tracing = _load_bench_tracing()
    for mod, attr, _label, _record in tracing.FUNCTIONS:
        owner = importlib.import_module(f"losscarto.{mod}")
        assert callable(owner.__dict__.get(attr)), f"losscarto.{mod}.{attr}"
    for attr, _label in tracing.POLY_OPERATORS:
        assert callable(losscarto.polyalg.Poly.__dict__.get(attr)), f"Poly.{attr}"
