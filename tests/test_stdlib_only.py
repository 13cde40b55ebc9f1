"""The README promises no runtime dependency: every absolute import in the
package's modules names a standard-library module."""

import ast
import sys
from pathlib import Path

import wordmaps


def test_package_imports_only_the_standard_library():
    sources = sorted(Path(wordmaps.__file__).parent.glob("*.py"))
    assert sources
    foreign = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [f"{path.name}: {name}" for name in names
                        if name.split(".")[0] not in sys.stdlib_module_names]
    assert not foreign
