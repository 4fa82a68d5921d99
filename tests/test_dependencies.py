"""The package depends on the standard library and numpy only.

scipy, mpmath, sympy and the test tools may be installed next to it, so an
accidental import of one of them would pass every other test.
"""
import ast
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).parents[1]
PACKAGE = ROOT / "src" / "belllab"
FORBIDDEN = ("scipy", "mpmath", "sympy", "hypothesis", "pytest")


def test_cli_import_loads_no_optional_package():
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = f"import sys, belllab.cli; print(sorted({{m.split('.')[0] for m in sys.modules}} & {set(FORBIDDEN)!r}))"
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_source_imports_only_stdlib_and_numpy():
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                if name.split(".")[0] not in allowed:
                    found.setdefault(path.name, []).append(name)
    assert len(list(PACKAGE.glob("*.py"))) >= 7
    assert found == {}
