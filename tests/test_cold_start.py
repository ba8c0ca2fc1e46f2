"""A one-shot CLI request loads no module it does not use.

``import heckeperiods.cli`` must not load ``dataclasses`` (which brings
``inspect``, ``dis`` and ``tokenize``) or ``ast``: the records are plain
classes and named tuples, and only the surd parser (``parse_quad_surd``,
reached through the fixture loader by ``ratio`` and ``eigen``) imports
``ast``.  It must still load every module the benchmark tracer wraps,
because ``Tracer.install`` looks each one up in ``sys.modules``.

Each check runs in a fresh interpreter started with ``-S``, so that no
``.pth`` file of the environment imports anything first.  A watched module
that the standard-library modules the package imports load by themselves
on some Python version is not the package's doing, and is not counted."""

import ast
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "heckeperiods"
WATCHED = {"dataclasses", "inspect", "ast"}

PROBE = r"""
import contextlib, io, json, sys
import heckeperiods.cli as cli
report = {"after_import": sorted(sys.modules)}
with contextlib.redirect_stdout(io.StringIO()):
    for argv in (
        ["theorem1", "--level", "1", "--weight", "12", "--n", "1", "--character", "kronecker:-3"],
        ["trace", "--level", "1", "--weight", "12", "--character", "kronecker:-3", "--m", "1", "--n", "1"],
    ):
        cli.main(argv)
report["ast_after_requests"] = "ast" in sys.modules
from heckeperiods import parse_quad_surd
report["surd"] = str(parse_quad_surd("1135193+19*sqrt(144169)"))
report["ast_after_parse"] = "ast" in sys.modules
print(json.dumps(report))
"""


def _fresh(code: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout)


@pytest.fixture(scope="module")
def probe() -> dict:
    return _fresh(PROBE)


@pytest.fixture(scope="module")
def stdlib_loads() -> set[str]:
    """What the package's module-level standard-library imports load on
    their own, the watched modules left out of the list imported."""
    names = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.Import):
                names.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module != "__future__":
                names.add(node.module)
    names -= WATCHED
    return set(_fresh(f"import json, sys, {', '.join(sorted(names))}; print(json.dumps(sorted(sys.modules)))"))


def _tracer_modules() -> set[str]:
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return {module for module, _ in tracer.TARGETS.values()}


def test_cli_import_loads_every_tracer_module_and_no_record_machinery(probe, stdlib_loads):
    loaded = set(probe["after_import"])
    assert not (WATCHED - stdlib_loads) & loaded
    assert _tracer_modules() <= loaded


def test_ast_loads_only_when_surd_text_is_parsed(probe, stdlib_loads):
    if "ast" in stdlib_loads:
        pytest.skip("this Python's standard library loads ast with the modules the package imports")
    assert "ast" not in probe["after_import"]
    assert probe["ast_after_requests"] is False
    assert probe["surd"] == "1135193 + 19*sqrt(144169)"
    assert probe["ast_after_parse"] is True
