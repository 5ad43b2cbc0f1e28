import ast
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
