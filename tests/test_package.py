"""The public surface: every exported name resolves and every demo runs.

A public name stays only while a pipeline, the CLI or a demo uses it, so
the demos are pinned here as users of the package, and every exported
name must be used somewhere outside the tests.  The traced benchmark
reaches into the package by module and attribute name, so those names are
pinned here too, and one short traced benchmark run checks them end to end.
"""

import ast
import importlib
import importlib.util
import inspect
import json
import os
import shutil
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


def _names_used(path: Path) -> set[str]:
    """Every name, attribute and imported name in one source file."""
    used = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name.split(".")[-1])
    return used


def test_every_export_has_a_user():
    # a user is package code other than the export list itself, a demo or the benchmark
    package = ROOT / "src" / "losscarto"
    files = [p for p in package.glob("*.py") if p.name != "__init__.py"]
    files += DEMOS + sorted((ROOT / "bench").glob("*.py"))
    used = set().union(*map(_names_used, files))
    assert sorted(set(losscarto.__all__) - used) == []


def test_every_module_constant_is_read():
    # a module-level UPPER_CASE constant nothing in the package reads is a leftover
    defined, read = set(), set()
    for path in sorted((ROOT / "src" / "losscarto").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
            defined.update(t.id for t in targets if isinstance(t, ast.Name) and t.id.isupper())
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    assert defined and sorted(defined - read) == []


def _attack_config_keywords(path: Path) -> set[str]:
    """Keywords of AttackConfig(...) calls, and the --config keys the CLI overrides."""
    keys = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Call):
            func = node.func
            if getattr(func, "id", getattr(func, "attr", None)) == "AttackConfig":
                keys.update(kw.arg for kw in node.keywords if kw.arg)
        elif isinstance(node, ast.Tuple) and len(node.elts) == 2:
            key, val = node.elts  # ("budget", ns.budget): a flag that overrides a config key
            if (isinstance(key, ast.Constant) and isinstance(val, ast.Attribute)
                    and isinstance(val.value, ast.Name) and val.value.id == "ns"
                    and val.attr == key.value):
                keys.add(key.value)
    return keys


def _callers() -> list[Path]:
    """The package, the demos and the benchmark: every caller outside the tests."""
    return sorted((ROOT / "src" / "losscarto").glob("*.py")) + DEMOS + sorted((ROOT / "bench").glob("*.py"))


def test_every_attack_config_field_has_a_setter():
    # a setting no caller outside the tests sets is a module constant, not a field
    set_somewhere = set().union(*map(_attack_config_keywords, _callers()))
    fields = set(losscarto.AttackConfig.__dataclass_fields__)
    assert sorted(fields - set_somewhere) == []


def _keywords_passed(path: Path) -> set[tuple[str, str]]:
    """(function, keyword) for every call f(..., keyword=...) or obj.f(..., keyword=...)."""
    passed = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            passed.update((name, kw.arg) for kw in node.keywords if kw.arg)
    return passed


def test_every_keyword_only_option_has_a_setter():
    # an option of an exported function that only the tests set does nothing for a user
    options = {
        (name, param.name)
        for name in losscarto.__all__
        if inspect.isfunction(getattr(losscarto, name))
        for param in inspect.signature(getattr(losscarto, name)).parameters.values()
        if param.kind is inspect.Parameter.KEYWORD_ONLY
    }
    passed = set().union(*map(_keywords_passed, _callers()))
    assert options and sorted(options - passed) == []


def test_one_forward_pass():
    # every loss value, region and wall comes from network._pre_outputs at float,
    # Fraction or int dtype; a matrix product anywhere else would start a second
    # forward pass
    inside, outside = 0, []
    for path in sorted((ROOT / "src" / "losscarto").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        shared = {
            id(node)
            for func in ast.walk(tree)
            if isinstance(func, ast.FunctionDef) and (path.name, func.name) == ("network.py", "_pre_outputs")
            for node in ast.walk(func)
        }
        for node in ast.walk(tree):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
                if id(node) in shared:
                    inside += 1
                else:
                    outside.append(f"{path.name}:{node.lineno}")
    assert outside == [] and inside == 1


def test_one_query_budget():
    # the oracle's budget is the attack's only one: QueryBudgetExceeded, or a subclass
    # of it, is raised inside LossOracle and nowhere else in the package
    budget_errors = {
        name for name, obj in vars(losscarto.errors).items()
        if isinstance(obj, type) and issubclass(obj, losscarto.QueryBudgetExceeded)
    }
    inside, outside = 0, []
    for path in sorted((ROOT / "src" / "losscarto").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        oracle = {
            id(node)
            for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef) and (path.name, cls.name) == ("attack.py", "LossOracle")
            for node in ast.walk(cls)
        }
        for node in ast.walk(tree):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if getattr(exc, "id", getattr(exc, "attr", None)) in budget_errors:
                if id(node) in oracle:
                    inside += 1
                else:
                    outside.append(f"{path.name}:{node.lineno}")
    assert outside == [] and inside > 0


def test_unsorted_constructor_callers():
    # Poly._presorted keeps the order of the terms it is given. Besides
    # _canonical, which sorts them first, only code whose output order is
    # canonical by construction calls it: the segment builder, the product of
    # a factorization, normalized and negation. A new caller that would skip
    # the sort fails here
    allowed = {
        ("polyalg.py", "_canonical"), ("polyalg.py", "normalized"), ("polyalg.py", "__neg__"),
        ("virtual.py", "_extend"), ("virtual.py", "product"),
    }
    found, outside = set(), []
    for path in sorted((ROOT / "src" / "losscarto").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owner = {
            id(node): func.name
            for func in ast.walk(tree)
            if isinstance(func, ast.FunctionDef) and (path.name, func.name) in allowed
            for node in ast.walk(func)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "_presorted":
                if id(node) in owner:
                    found.add((path.name, owner[id(node)]))
                else:
                    outside.append(f"{path.name}:{node.lineno}")
    assert outside == [] and found == allowed


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


def _modules_after(statement: str) -> set[str]:
    """The modules a fresh interpreter holds after running statement, with src/ on its path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])])
    proc = subprocess.run(
        [sys.executable, "-c", f"{statement}; import sys; print(*sys.modules, sep='\\n')"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    return set(proc.stdout.split())


def test_import_loads_only_what_numpy_does():
    # the benchmark's setup_s is mostly a fresh interpreter's `import losscarto`: past what
    # `import numpy` loads, it may load the package and the standard library, and nothing else
    extra = _modules_after("import losscarto") - _modules_after("import numpy")
    assert "losscarto.attack" in extra
    assert sorted(name for name in extra if name.split(".")[0] not in {"losscarto", *sys.stdlib_module_names}) == []


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


def test_bench_smoke(tmp_path):
    # one short traced run of an exact-side and an attack workload in a copy of the
    # tree: they check the seed-7 sheet digests, the recall references, that traced
    # stage queries sum to the oracle's count, and the traced names; no timing
    skip = shutil.ignore_patterns("out", "__pycache__")
    for part in ("bench", "src"):
        shutil.copytree(ROOT / part, tmp_path / part, ignore=skip)
    for workload in ("sheets-shallow", "attack-shallow"):
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
             "--seconds", "1", "--trace", "1"],
            cwd=tmp_path, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, workload + proc.stdout[-2000:] + proc.stderr[-2000:]
        assert json.loads(proc.stdout.splitlines()[-1])["correct"] is True, workload
