import ast
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parent.parent


def declared_dependencies() -> set[str]:
    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    names = set()
    for requirement in project["dependencies"]:
        name = requirement
        for stop in "<>=!~;[ ":
            name = name.split(stop)[0]
        names.add(name.lower().replace("-", "_"))
    return names


def test_every_import_is_stdlib_deo_or_declared():
    allowed = set(sys.stdlib_module_names) | {"deo"} | declared_dependencies()
    undeclared = []
    for source in sorted((ROOT / "src" / "deo").glob("*.py")):
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            undeclared += [f"{source.name}: {m}" for m in modules if m.split(".")[0] not in allowed]
    assert undeclared == []
