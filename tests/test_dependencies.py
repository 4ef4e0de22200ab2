"""numpy is the only runtime dependency: every absolute import in the
package is the standard library or numpy."""

import ast
import sys
from pathlib import Path

import mobmeta


def test_runtime_imports_are_stdlib_or_numpy():
    package = Path(mobmeta.__file__).parent
    modules = sorted(package.rglob("*.py"))
    assert len(modules) > 10
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.partition(".")[0]
                assert top in sys.stdlib_module_names or top == "numpy", (
                    f"{path.relative_to(package)} imports {name}"
                )
