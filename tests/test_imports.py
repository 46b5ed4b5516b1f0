"""Every imported name in the package and its tests is used.

An import that nothing reads is dead code that still costs a module load
and misleads a reader about what a file depends on. `from __future__`
imports are exempt; a package `__init__` may re-export through `__all__`.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted([*(ROOT / "src" / "evgnn").glob("*.py"),
                *(ROOT / "tests").glob("*.py")])


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement of source and never read."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                bound[a.asname or a.name.split(".")[0]] = node.lineno
        elif (isinstance(node, ast.ImportFrom)
              and node.module != "__future__"):
            for a in node.names:
                if a.name != "*":
                    bound[a.asname or a.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in sorted(bound.items())
            if name not in used]


@pytest.mark.parametrize("path", FILES,
                         ids=[str(p.relative_to(ROOT)) for p in FILES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_checker_flags_an_unused_name():
    src = ("from __future__ import annotations\n"
           "import math\nimport os.path\nfrom a import b as c, d\n"
           "print(os.sep, d)\n")
    assert unused_imports(src) == ["c (line 4)", "math (line 2)"]
