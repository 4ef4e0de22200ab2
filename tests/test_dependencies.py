"""numpy is the only runtime dependency: every absolute import in the
package is the standard library or numpy, and the reference external
predictor imports the standard library alone."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mobmeta

PACKAGE = Path(mobmeta.__file__).parent


def imports(path: Path) -> list[str]:
    """Every module an `import` or `from ... import` in `path` names; a
    relative one as ".module"."""
    names = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names.append("." * node.level + (node.module or ""))
    return names


def test_runtime_imports_are_stdlib_or_numpy():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) > 10
    for path in modules:
        for name in imports(path):
            top = name.partition(".")[0]
            assert (not top or top in sys.stdlib_module_names
                    or top == "numpy"), (
                f"{path.relative_to(PACKAGE)} imports {name}"
            )


def test_extpred_imports_only_the_standard_library():
    names = imports(PACKAGE / "extpred.py")
    assert "argparse" in names
    for name in names:
        assert name.partition(".")[0] in sys.stdlib_module_names, (
            f"extpred.py imports {name}"
        )


def test_importing_extpred_imports_no_numpy():
    # a fold's child starts with `python -m mobmeta.extpred`; the package
    # import before it must not pull in numpy either
    path = [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, mobmeta.extpred; "
         "print(sorted(m for m in sys.modules if m.startswith(('mobmeta', "
         "'numpy'))))"],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    assert proc.stdout.strip() == "['mobmeta', 'mobmeta.extpred']"


def test_package_names_resolve_lazily():
    from mobmeta import DataError, Dataset
    from mobmeta import core

    assert (Dataset, DataError) == (core.Dataset, core.DataError)
    for name in set(mobmeta.__all__) - {"__version__"}:
        assert getattr(mobmeta, name) is getattr(core, name)
    with pytest.raises(AttributeError, match="no attribute 'LstmModel'"):
        mobmeta.LstmModel
    with pytest.raises(ImportError):
        from mobmeta import LstmModel  # noqa: F401
