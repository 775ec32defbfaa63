"""Repo lint gate: the source tree must always byte-compile cleanly.

``python -m compileall`` runs unconditionally (it needs nothing beyond
the stdlib); ``ruff check`` runs only where ruff is installed, so the
gate degrades gracefully in minimal containers without silently
weakening CI environments that do carry the linter.
"""

import compileall
import json
import os
import shutil
import subprocess
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO_ROOT, "src")


def test_source_tree_byte_compiles():
    assert compileall.compile_dir(SRC, quiet=2, force=True), (
        "src/ contains files that do not byte-compile; run "
        "`python -m compileall src` for details"
    )


def test_ruff_clean_when_available():
    ruff = shutil.which("ruff")
    if ruff is None:
        import pytest

        pytest.skip("ruff not installed in this environment")
    result = subprocess.run(
        [ruff, "check", SRC],
        capture_output=True,
        text=True,
        check=False,
    )
    assert result.returncode == 0, f"ruff check failed:\n{result.stdout}"


def test_tests_tree_byte_compiles():
    tests_dir = os.path.join(REPO_ROOT, "tests")
    assert compileall.compile_dir(tests_dir, quiet=2, force=True)


def test_running_interpreter_matches_supported_floor():
    # pyproject declares requires-python >= 3.9; the gate itself should
    # never run under something older without noticing.
    assert sys.version_info >= (3, 9)


def test_source_parses_at_supported_floor():
    """``src/`` uses no syntax or ``bisect`` ``key=`` argument newer
    than the 3.9 floor, so a newer interpreter running the suite
    still catches them."""
    import ast

    offenders = []
    for directory, _, names in os.walk(SRC):
        for name in sorted(names):
            if not name.endswith(".py"):
                continue
            path = os.path.join(directory, name)
            with open(path, encoding="utf-8") as handle:
                tree = ast.parse(handle.read(), path, feature_version=(3, 9))
            for node in ast.walk(tree):
                if not isinstance(node, ast.Call):
                    continue
                function = node.func
                called = getattr(function, "id", getattr(function, "attr", ""))
                if called.startswith(("bisect", "insort")) and any(
                    keyword.arg == "key" for keyword in node.keywords
                ):
                    offenders.append(f"{path}:{node.lineno}")
    assert not offenders, f"bisect key= needs Python 3.10: {offenders}"


def test_preference_edits_pass_the_engine_chokepoint():
    """Every function in ``src/`` that writes a flow's φ (``x.weight =``)
    or Π (``x.restrict_to(...)``) also calls
    ``notify_preferences_changed``: the engine journals an edit only
    there, the fairness auditor learns of edits only from the journal,
    and the willing-interface caches are refreshed only there. Nothing
    assigns ``x.allowed_interfaces`` directly. ``net/flow.py`` itself
    (construction, restore) is exempt, as is an object setting its own
    ``self.weight``."""
    import ast

    exempt = os.path.join(SRC, "repro", "net", "flow.py")
    offenders = []
    for directory, _, names in os.walk(SRC):
        for name in sorted(names):
            path = os.path.join(directory, name)
            if not name.endswith(".py") or path == exempt:
                continue
            with open(path, encoding="utf-8") as handle:
                tree = ast.parse(handle.read(), path)
            for node in ast.walk(tree):
                if (
                    isinstance(node, ast.Attribute)
                    and node.attr == "allowed_interfaces"
                    and isinstance(node.ctx, ast.Store)
                ):
                    offenders.append(f"{path}:{node.lineno} allowed_interfaces =")
            for function in ast.walk(tree):
                if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                edits, notifies = False, False
                for node in ast.walk(function):
                    if isinstance(node, ast.Attribute) and node.attr == "weight":
                        edits |= isinstance(node.ctx, ast.Store) and not (
                            isinstance(node.value, ast.Name)
                            and node.value.id == "self"
                        )
                    elif isinstance(node, ast.Call):
                        called = getattr(
                            node.func, "attr", getattr(node.func, "id", "")
                        )
                        edits |= called == "restrict_to"
                        notifies |= called == "notify_preferences_changed"
                if edits and not notifies:
                    offenders.append(f"{path}:{function.lineno} {function.name}")
    assert not offenders, (
        "φ/Π edits that bypass notify_preferences_changed (the fairness "
        f"auditor and the willing-interface caches would never see them): "
        f"{offenders}"
    )


def test_bench_smoke_regression_gate():
    """``bench smoke --check-regression`` holds against the committed
    baseline: a >20% like-for-like packets/s loss at the gated cell
    (F=1000, I=8) fails the build. Set ``MIDRR_SKIP_BENCH_REGRESSION``
    to skip on hosts whose load makes wall-clock gating meaningless.
    """
    import pytest

    if os.environ.get("MIDRR_SKIP_BENCH_REGRESSION"):
        pytest.skip("MIDRR_SKIP_BENCH_REGRESSION set")
    baseline = os.path.join(REPO_ROOT, "BENCH_core.json")
    if not os.path.exists(baseline):
        pytest.skip("no committed BENCH_core.json to gate against")
    # A fresh interpreter: wall-clock gating inside the loaded pytest
    # process reads systematically slow (GC pressure from the suite's
    # accumulated object graphs), which is load, not a regression.
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run(
        [
            sys.executable,
            "-m",
            "repro.cli",
            "bench",
            "smoke",
            "--check-regression",
            "--baseline",
            baseline,
        ],
        capture_output=True,
        text=True,
        env=env,
        check=False,
    )
    assert result.returncode == 0, (
        f"bench smoke gate failed:\n{result.stdout}\n{result.stderr}"
    )


# Run in a fresh interpreter: imports every module under ``src/repro``
# (package exports resolve lazily, so ``import repro`` alone loads
# almost nothing) and lists the top-level packages of the modules that
# adds whose file lies outside both ``src/`` and the standard library
# (site-packages excluded).
_THIRD_PARTY_PROBE = """
import importlib, json, os, pkgutil, sys, sysconfig
src = os.path.realpath(sys.argv[1])
paths = sysconfig.get_paths()
site = {os.path.realpath(paths[k]) for k in ("purelib", "platlib")}
stdlib = {os.path.realpath(paths[k]) for k in ("stdlib", "platstdlib")}
sys.path.insert(0, src)
before = set(sys.modules)
import repro
for info in pkgutil.walk_packages(repro.__path__, "repro."):
    importlib.import_module(info.name)

def inside(path, roots):
    return any(os.path.commonpath([path, root]) == root for root in roots)

foreign = set()
for name in set(sys.modules) - before:
    origin = getattr(sys.modules[name], "__file__", None)
    if origin is None:
        continue  # built-in, frozen or namespace module
    origin = os.path.realpath(origin)
    if inside(origin, [src]):
        continue
    if inside(origin, stdlib) and not inside(origin, site):
        continue
    foreign.add(name.partition(".")[0])
print(json.dumps(sorted(foreign)))
"""


def test_package_imports_only_the_standard_library():
    """``repro`` is stdlib-only: a stray third-party import fails here."""
    result = subprocess.run(
        [sys.executable, "-c", _THIRD_PARTY_PROBE, SRC],
        capture_output=True,
        text=True,
        check=False,
    )
    assert result.returncode == 0, result.stderr
    foreign = json.loads(result.stdout.strip().splitlines()[-1])
    assert foreign == [], f"repro modules loaded third-party modules: {foreign}"
