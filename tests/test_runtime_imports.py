"""The package's runtime needs numpy and the standard library only."""

import ast
import sys
from pathlib import Path

import cwcancel


def test_imports_are_relative_numpy_or_standard_library():
    sources = sorted(Path(cwcancel.__file__).parent.glob("*.py"))
    assert sources
    found = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}: {name}" for name in names
                      if name.partition(".")[0] != "numpy"
                      and name.partition(".")[0] not in sys.stdlib_module_names]
    assert found == []
