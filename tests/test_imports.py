"""Every imported name is used, no private name crosses a module, and
every package definition is read.

An import that nothing reads is dead code that still costs a module load
and misleads a reader about what a file depends on. `from __future__`
imports are exempt; a package `__init__` may re-export through `__all__`.

An underscore name is its module's own: no package module imports one
from another, so a module's private helpers can change without a search.

Likewise every top-level function and class of the package must be read
by the package itself or by the benchmark: code that only the tests call
belongs in tests/. And every parameter of a package function is read: a
parameter that nothing reads still makes every caller build and pass it.

Every field of a package dataclass is read as an attribute by some
package statement outside its own declaration: a field that nothing
reads is still computed, passed and kept by every code path that builds
one. A field of a model-file dataclass (model.py) must be read by another
module: a field that nothing computes with still has to be written,
parsed and kept in step by the model file.

Only event_io raises a StreamError: an EventStream checks its rows when
built, so a second stream check elsewhere could only drift from it.

An oracle takes only data types from the code it checks, and
rne_mulshift, the rounding the model format defines: code it shared
with that code would fail alike on both sides of the comparison.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "evgnn").glob("*.py"))
FILES = sorted([*PACKAGE, *(ROOT / "tests").glob("*.py")])
# The scalar reference of the neighbour search stays in the package by
# name: it states the search's semantics next to the code it checks.
UNREAD_OK = ["graph_builder.brute_force_neighbors"]
# The benchmark calls trace_from_run by its (model, deg, entries_scanned)
# signature; the function goes with the benchmark's change that drops the
# call (ROADMAP item 1).
UNREAD_PARAMS_OK = ["perf_model.trace_from_run(model)"]
# The benchmark's tracer sums RunResult.macs for its MAC metrics; the field
# stays until the benchmark's change reads the MACs elsewhere (ROADMAP
# item 1).
UNREAD_FIELDS_OK = ["engine.RunResult.macs"]
# What each oracle may import from the modules it checks (CHECKED). The
# scalar oracle, process_event with its primitives, shares engine.py with
# the batch path, so its rule waits until it has a module of its own.
CHECKED = ("engine", "graph_builder")
ORACLE_IMPORTS = {"static_oracle": ["engine.RunResult", "engine.rne_mulshift",
                                    "graph_builder.Adjacency"]}


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


def private_imports(source: str) -> list[str]:
    """Underscore names that source imports from a package module."""
    return [f"{a.name} (line {node.lineno})"
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom)
            and (node.level > 0 or (node.module or "").startswith("evgnn"))
            for a in node.names if a.name.startswith("_")]


@pytest.mark.parametrize("path", PACKAGE,
                         ids=[str(p.relative_to(ROOT)) for p in PACKAGE])
def test_no_private_imports(path):
    assert private_imports(path.read_text()) == []


def test_checker_flags_a_private_import():
    src = ("from __future__ import annotations\n"
           "from os import _exit\nfrom .model import _a, b\n"
           "from . import _m\nfrom evgnn.quant import _c\n")
    assert private_imports(src) == ["_a (line 3)", "_m (line 4)",
                                    "_c (line 5)"]


def names_read(node: ast.AST) -> set[str]:
    """Names node reads: bare names, attributes and from-imports."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.ImportFrom):
            out |= {a.name for a in n.names}
    return out


def unread_definitions(package: dict[str, str],
                       readers: list[str]) -> list[str]:
    """Top-level functions and classes of package that nothing reads.

    package maps module names to sources. A definition counts as read
    when another statement of its own module, another package module or
    one of the reader sources names it; its own body does not count.
    """
    trees = {m: ast.parse(src) for m, src in package.items()}
    read = set().union(*(names_read(ast.parse(src)) for src in readers))
    out = []
    for mod, tree in trees.items():
        elsewhere = read.union(*(names_read(t) for m, t in trees.items()
                                 if m != mod))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                own = set().union(*(names_read(other) for other in tree.body
                                    if other is not node))
                if node.name not in own | elsewhere:
                    out.append(f"{mod}.{node.name}")
    return out


def test_package_definitions_are_read():
    package = {p.stem: p.read_text() for p in PACKAGE}
    readers = [p.read_text() for p in (ROOT / "perfbench").glob("*.py")]
    assert unread_definitions(package, readers) == UNREAD_OK


def test_checker_flags_an_unread_definition():
    package = {
        "a": ("def f():\n    return g()\n"
              "def g():\n    pass\n"
              "def h():\n    return h()\n"
              "class C:\n    pass\n"
              "class D:\n    pass\n"),
        "b": "from .a import D\n",
    }
    readers = ["import a\na.f()\n"]
    assert unread_definitions(package, readers) == ["a.h", "a.C"]


def unread_parameters(module: str, source: str) -> list[str]:
    """Parameters of source's functions and lambdas that they never read.

    A name that starts with an underscore marks a parameter that a
    callback takes only to fit its caller's signature, and is exempt.
    """
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            a = node.args
            params = [*a.posonlyargs, *a.args, *a.kwonlyargs,
                      *filter(None, [a.vararg, a.kwarg])]
            read = {n.id for n in ast.walk(node)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            name = getattr(node, "name", f"<lambda line {node.lineno}>")
            out += [f"{module}.{name}({p.arg})" for p in params
                    if p.arg not in read and not p.arg.startswith("_")]
    return out


def test_package_parameters_are_read():
    found = [u for p in PACKAGE for u in unread_parameters(p.stem,
                                                           p.read_text())]
    assert found == UNREAD_PARAMS_OK


def test_checker_flags_an_unread_parameter():
    src = ("def f(a, b, *c, d, _e, **g):\n    return a + g['k']\n"
           "class K:\n    def m(self, x):\n        return self\n"
           "h = lambda y, _z: 0\n"
           "def outer(w):\n    def inner():\n        return w\n"
           "    return inner\n")
    assert unread_parameters("mod", src) == [
        "mod.f(b)", "mod.f(d)", "mod.f(c)", "mod.m(x)",
        "mod.<lambda line 6>(y)"]


def dataclass_fields(tree: ast.Module) -> list[tuple[str, ast.AnnAssign]]:
    """(class name, field declaration) of each field of tree's top-level
    dataclasses."""
    return [(cls.name, s) for cls in tree.body
            if isinstance(cls, ast.ClassDef)
            and any("dataclass" in names_read(d) for d in cls.decorator_list)
            for s in cls.body
            if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)]


def attribute_reads(node: ast.AST) -> Counter[str]:
    """How often node reads each attribute name (x.name, load context)."""
    return Counter(n.attr for n in ast.walk(node)
                   if isinstance(n, ast.Attribute)
                   and isinstance(n.ctx, ast.Load))


def unread_fields(module: str, package: dict[str, str]) -> list[str]:
    """Fields of module's dataclasses that no other module of package
    reads as an attribute; package maps module names to sources."""
    read = sum((attribute_reads(ast.parse(src)) for m, src in package.items()
                if m != module), Counter())
    return [f"{module}.{cls}.{s.target.id}"
            for cls, s in dataclass_fields(ast.parse(package[module]))
            if not read[s.target.id]]


def unread_package_fields(package: dict[str, str],
                          allowed: list[str]) -> list[str]:
    """Fields of package's dataclasses that no package statement but
    their own declaration reads as an attribute, less those in allowed;
    then each allowed field that is read or does not exist, marked stale.

    package maps module names to sources. A read in the defining module
    counts; a field is matched by name, not by the type of its reader.
    """
    trees = {m: ast.parse(src) for m, src in package.items()}
    read = sum(map(attribute_reads, trees.values()), Counter())
    unread = [f"{m}.{cls}.{s.target.id}" for m, tree in trees.items()
              for cls, s in dataclass_fields(tree)
              if read[s.target.id] == attribute_reads(s)[s.target.id]]
    return ([f for f in unread if f not in allowed]
            + [f"{f} (stale)" for f in allowed if f not in unread])


def test_package_fields_are_read():
    package = {p.stem: p.read_text() for p in PACKAGE}
    assert unread_package_fields(package, UNREAD_FIELDS_OK) == []


def test_checker_flags_an_unread_package_field():
    package = {
        "a": ("@dataclass\nclass P:\n    x: int\n    y: int\n"
              "    z: int = 0\n    w: int = dflt.w\n"
              "    def f(self):\n        return self.x\n"
              "@dataclass(frozen=True)\nclass Q:\n    v: int\n    u: int\n"
              "def h(q):\n    return q.u\n"
              "class R:\n    s: int\n"),
        "b": "def g(p, q):\n    q.v = p.z\n",
    }
    assert unread_package_fields(package, []) == ["a.P.y", "a.P.w", "a.Q.v"]
    # P.y is read only by a test, which is not package code
    test = "def test_p(p):\n    assert p.y\n"
    assert unread_package_fields({**package, "t": test}, []) == ["a.P.w",
                                                                "a.Q.v"]
    assert unread_package_fields(package, ["a.Q.v", "a.P.x", "a.S.t"]) == [
        "a.P.y", "a.P.w", "a.P.x (stale)", "a.S.t (stale)"]


def test_model_fields_are_read():
    package = {p.stem: p.read_text() for p in PACKAGE}
    assert unread_fields("model", package) == []


def test_checker_flags_an_unread_field():
    package = {
        "a": ("@dataclass\nclass P:\n    x: int\n    y: int = 0\n"
              "    z: int = 1\n    def f(self):\n        return self.z\n"
              "@dataclasses.dataclass(frozen=True)\nclass Q:\n    w: int\n"
              "class R:\n    v: int\n"),
        "b": "def g(p, q):\n    p.y = q.v\n    return p.x\n",
    }
    assert unread_fields("a", package) == ["a.P.y", "a.P.z", "a.Q.w"]


def referent(node: ast.AST) -> str | None:
    """The name that node, x or mod.x, refers to."""
    return getattr(node, "id", getattr(node, "attr", None))


def stream_errors(source: str) -> set[str]:
    """StreamError and the classes of source derived from it."""
    out = {"StreamError"}
    for node in ast.parse(source).body:  # a base precedes its subclasses
        if (isinstance(node, ast.ClassDef)
                and any(referent(b) in out for b in node.bases)):
            out.add(node.name)
    return out


def stream_raises(source: str, errors: set[str]) -> list[str]:
    """The raise statements of source that raise one of errors."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            name = referent(exc)
            if name in errors:
                found.append((node.lineno, name))
    return [f"{name} (line {line})" for line, name in sorted(found)]


def test_only_event_io_raises_stream_errors():
    errors = stream_errors((ROOT / "src" / "evgnn" / "event_io.py")
                           .read_text())
    assert {"OutOfBounds", "NonMonotoneTime"} < errors
    assert [f"{p.stem}: {r}" for p in PACKAGE if p.stem != "event_io"
            for r in stream_raises(p.read_text(), errors)] == []


def test_checker_flags_a_stream_raise():
    errors = stream_errors(
        "class StreamError(ValueError):\n    pass\n"
        "class A(StreamError):\n    pass\n"
        "class B(mod.A):\n    pass\n"
        "class C(ValueError):\n    pass\n")
    assert errors == {"StreamError", "A", "B"}
    src = ("try:\n    f()\nexcept StreamError:\n    raise B('x')\n"
           "raise event_io.A\nraise C(1)\nraise\n"
           "raise mod.StreamError('y', 3)\n")
    assert stream_raises(src, errors) == ["B (line 4)", "A (line 5)",
                                          "StreamError (line 8)"]


def package_imports(source: str) -> list[str]:
    """Every package name that source imports, as module.name; a whole
    module, imported by name, is module.*."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            out += [a.name.split(".", 1)[1] + ".*" for a in node.names
                    if a.name.startswith("evgnn.")]
        elif isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "evgnn"):
            mod = (node.module or "").removeprefix("evgnn").lstrip(".")
            out += [f"{mod}.{a.name}" if mod else f"{a.name}.*"
                    for a in node.names]
    return out


@pytest.mark.parametrize("oracle", sorted(ORACLE_IMPORTS))
def test_oracles_import_only_data_types(oracle):
    taken = package_imports((ROOT / "src" / "evgnn" / f"{oracle}.py")
                            .read_text())
    assert [t for t in taken if t.split(".")[0] in CHECKED
            and t not in ORACLE_IMPORTS[oracle]] == []


def test_checker_lists_package_imports():
    src = ("from .engine import a, b as c\nfrom . import graph_builder\n"
           "import evgnn.quant\nfrom evgnn.event_io import d\n"
           "from evgnn import model\nimport os.path\nfrom os import sep\n")
    assert package_imports(src) == ["engine.a", "engine.b", "graph_builder.*",
                                    "quant.*", "event_io.d", "model.*"]
