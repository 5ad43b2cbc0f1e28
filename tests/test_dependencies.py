import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).parents[1] / "src" / "okbody"


def test_public_names_resolve():
    import okbody
    assert len(okbody.__all__) == len(set(okbody.__all__))
    missing = [name for name in okbody.__all__ if not hasattr(okbody, name)]
    assert not missing


def test_package_imports_only_itself_and_the_standard_library():
    # pyproject.toml declares dependencies = []; the test extras (sympy,
    # hypothesis) are installed alongside, so an import of one of them in
    # the package would otherwise go unnoticed
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    stray = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            stray += [f"{path.name}:{node.lineno}: {name}" for name in names
                      if name.partition(".")[0] not in sys.stdlib_module_names]
    assert not stray


def test_import_loads_neither_dataclasses_nor_inspect():
    # a fresh interpreter, so that no earlier import hides one: dataclasses
    # pulls in inspect, ast, dis and tokenize, most of what the package's
    # cold import used to cost; okbody.elliptic, off the body's path, is
    # loaded only when imported by name
    probe = ("import sys; before = set(sys.modules); import okbody; "
             "print(' '.join(sorted(set(sys.modules) - before)))")
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    added = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                           capture_output=True, text=True).stdout.split()
    assert "okbody.varieties" in added
    assert not {"dataclasses", "inspect", "okbody.elliptic"} & set(added)


def test_every_hypothesis_test_draws_fixed_examples():
    # conftest.py loads one profile: each @given test is derandomized and
    # reads no saved examples, on top of its own example count and deadline
    from hypothesis import settings

    assert settings.default.derandomize
    assert settings.default.database is None
    tests = [test for path in sorted(Path(__file__).parent.glob("test_*.py"))
             for name, test in vars(importlib.import_module(path.stem)).items()
             if name.startswith("test_") and hasattr(test, "hypothesis")]
    assert len(tests) >= 15
    for test in tests:
        drawn = test._hypothesis_internal_use_settings
        assert drawn.derandomize and drawn.database is None, test.__name__
