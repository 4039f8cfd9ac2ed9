"""The public surface of ``chainlens`` and its runtime dependencies."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import chainlens

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "chainlens").glob("*.py"))


def test_every_public_name_resolves():
    missing = [name for name in chainlens.__all__ if not hasattr(chainlens, name)]
    assert not missing
    assert len(set(chainlens.__all__)) == len(chainlens.__all__)


def test_star_import_binds_the_public_names():
    namespace: dict = {}
    exec("from chainlens import *", namespace)
    assert set(chainlens.__all__) <= set(namespace)


def imported_modules(path: Path) -> set[str]:
    """Top-level names of the absolute imports in one source file."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            found.add(node.module.split(".")[0])
    return found


def test_runtime_imports_are_the_standard_library_and_numpy():
    allowed = set(sys.stdlib_module_names) | {"numpy", "chainlens"}
    assert SOURCES
    imports = {path.name: imported_modules(path) for path in SOURCES}
    assert "numpy" in set().union(*imports.values())
    assert {name: mods - allowed for name, mods in imports.items() if mods - allowed} == {}


def test_cli_import_loads_no_xml_or_network_module():
    """GraphML text is escaped without xml.sax.saxutils, whose import pulls in
    urllib.request, http.client, email, ssl and socket.  (numpy itself loads
    urllib.parse, so urllib is not checked.)"""
    heavy = ("xml", "email", "http", "ssl", "socket", "urllib.request")
    code = f"import sys, chainlens.cli; print(sorted(set({heavy!r}) & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(SOURCES[0].parent.parent)}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
