"""The README promises no runtime dependency: every absolute import in the
package's modules names a standard-library module.  The CLI's import also
stays lean, as every command pays for it."""

import ast
import os
import subprocess
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


def test_cli_import_skips_dataclasses_and_inspect():
    # dataclasses imports inspect, which brings ast, dis and tokenize; csv
    # is imported by the csv output branch alone
    code = ("import sys, wordmaps.cli; "
            "print(*sorted({'dataclasses', 'inspect', 'csv'} & set(sys.modules)))")
    src = str(Path(wordmaps.__file__).resolve().parent.parent)
    done = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, check=True, timeout=60)
    assert done.stdout.split() == []
