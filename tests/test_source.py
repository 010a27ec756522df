"""Checks on the package's source text that need no linter: stdlib ``ast`` only."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "jacprop").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads, except on lines marked ``# noqa: F401``."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1] + lines[node.lineno - 1]:
                    imported[alias.asname or alias.name.split(".")[0]] = alias.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in read]


def test_the_check_sees_an_unused_import():
    source = "import os\nimport sys  # noqa: F401\nfrom math import (\n    pi,\n    tau,\n)\nprint(pi)\n"
    assert unused_imports(source) == ["line 1: os", "line 5: tau"]


# __init__.py imports to re-export
@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "__init__.py"], ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


# numpy's module-level reductions go through a Python wrapper; the ndarray methods do the same
# reduction at less cost per call, which the small arrays of every request pay many times over
REDUCTIONS = frozenset({"all", "any", "max", "min", "sum", "argmax"})


def module_reductions(source: str) -> list[str]:
    """Each use of ``np.all``, ``np.any``, ``np.max``, ``np.min``, ``np.sum`` or ``np.argmax``."""
    found = [
        (node.lineno, node.attr)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "np"
        and node.attr in REDUCTIONS
    ]
    return [f"line {line}: np.{name}" for line, name in sorted(found)]


def test_the_check_sees_a_module_reduction():
    source = (
        "import numpy as np\n"
        "ok = np.isfinite(x).all() and x.max(axis=0) > x.sum()\n"
        "if not np.all(np.isfinite(x)):\n"
        "    pass\n"
        "peak = max(np.max(z, axis=0), np.argmax(z))\n"
        "key = np.sum  # np.min in a comment is not code\n"
    )
    assert module_reductions(source) == ["line 3: np.all", "line 5: np.argmax", "line 5: np.max", "line 6: np.sum"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_module_reductions(path):
    assert module_reductions(path.read_text(encoding="utf-8")) == []


# ndarray.dot gives the bits of @ only between C-contiguous operands over an inner dimension above 1;
# the value pass in model.py is the one place that keeps that rule
def dot_calls(source: str) -> list[str]:
    """Each call of a ``.dot`` attribute: ``w.dot(x)``, ``np.dot(w, x)``."""
    found = [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "dot"
    ]
    return [f"line {line}: .dot" for line in sorted(found)]


def test_the_check_sees_a_dot_call():
    source = (
        "import numpy as np\n"
        "y = w @ x  # w.dot(x) in a comment is not code\n"
        "z = w.dot(x)\n"
        "f = w.dot\n"
        "p = np.dot(a, b) + a.T.dot(b)\n"
    )
    assert dot_calls(source) == ["line 3: .dot", "line 5: .dot", "line 5: .dot"]


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "model.py"], ids=lambda p: p.name)
def test_no_dot_calls_outside_the_value_pass(path):
    assert dot_calls(path.read_text(encoding="utf-8")) == []


# numpy overflows quietly in one place, activations._guarded, which each caller enters only where its own
# tests name what overflows
def errstate_uses(source: str, owner: str | None = None) -> list[str]:
    """Each use of ``errstate``, by name or as an attribute, outside the body of a top-level function ``owner``."""
    tree = ast.parse(source)
    owned = {
        id(node)
        for function in tree.body
        if isinstance(function, ast.FunctionDef) and function.name == owner
        for node in ast.walk(function)
    }
    found = [
        node.lineno
        for node in ast.walk(tree)
        if id(node) not in owned
        and (getattr(node, "id", None) == "errstate" or getattr(node, "attr", None) == "errstate")
    ]
    return [f"line {line}: errstate" for line in sorted(found)]


def test_the_check_sees_an_errstate_outside_the_guard():
    source = (
        "import numpy as np\n"
        "from numpy import errstate\n"
        "def _guarded(safe, fn, *args):\n"
        "    with np.errstate(over='ignore', invalid='ignore'):\n"
        "        return fn(*args)\n"
        "with np.errstate(over='ignore'):  # np.errstate(invalid='ignore') in a comment is not code\n"
        "    pass\n"
        "def f():\n"
        "    def _guarded():\n"
        "        with errstate(all='ignore'), numpy.errstate(invalid='raise'):\n"
        "            pass\n"
        "quiet = np.errstate\n"
    )
    assert errstate_uses(source, "_guarded") == [
        "line 6: errstate", "line 10: errstate", "line 10: errstate", "line 12: errstate"
    ]
    assert errstate_uses(source) == ["line 4: errstate"] + errstate_uses(source, "_guarded")


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_errstate_outside_the_guard(path):
    assert errstate_uses(path.read_text(encoding="utf-8"), "_guarded" if path.name == "activations.py" else None) == []


def test_the_guard_holds_the_one_errstate():
    (path,) = (p for p in SOURCES if p.name == "activations.py")
    assert len(errstate_uses(path.read_text(encoding="utf-8"))) == 1


# the output-end fold has one owner, engine._Prefixes, which multiplies full on its first read
def fold_calls(source: str) -> list[str]:
    """Each call of ``_right``, by name or as an attribute, outside the body of a class ``_Prefixes``."""
    tree = ast.parse(source)
    owned = {
        id(node)
        for owner in ast.walk(tree)
        if isinstance(owner, ast.ClassDef) and owner.name == "_Prefixes"
        for node in ast.walk(owner)
    }
    found = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and id(node) not in owned
        and (getattr(node.func, "id", None) == "_right" or getattr(node.func, "attr", None) == "_right")
    ]
    return [f"line {line}: _right" for line in sorted(found)]


def test_the_check_sees_a_fold_outside_its_owner():
    source = (
        "def _right(c, slope, linear):\n"
        "    return c\n"
        "class _Prefixes:\n"
        "    def fill(self):\n"
        "        return _right(c, s, w)\n"
        "def _pass():\n"
        "    product = _right(c, s, w)  # _right(c) in a comment is not code\n"
        "    fold = _right\n"
        "class Other:\n"
        "    def fill(self):\n"
        "        return engine._right(c, s, w)\n"
    )
    assert fold_calls(source) == ["line 7: _right", "line 11: _right"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_the_fold_is_called_only_by_the_prefixes(path):
    assert fold_calls(path.read_text(encoding="utf-8")) == []


# a copy or pickle rebuilds a frozen container's read-only arrays writeable, and a view of them as a
# detached copy, unless the class sends its fields back through its constructor: by its own __reduce__,
# or by activations._Rebuilt's, which _ByValue inherits
REBUILT_BASES = frozenset({"_Rebuilt", "_ByValue"})


def frozen_without_reduce(source: str) -> list[str]:
    """Each class whose ``__post_init__`` calls ``_freeze``, with no ``__reduce__`` of its own and no base in REBUILT_BASES."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ClassDef):
            continue
        if REBUILT_BASES.intersection(getattr(base, "id", None) or getattr(base, "attr", None) for base in node.bases):
            continue
        methods = {item.name: item for item in node.body if isinstance(item, ast.FunctionDef)}
        freezes = "__post_init__" in methods and any(
            isinstance(call, ast.Call) and "_freeze" in (getattr(call.func, name, None) for name in ("id", "attr"))
            for call in ast.walk(methods["__post_init__"])
        )
        if freezes and "__reduce__" not in methods:
            found.append(f"line {node.lineno}: {node.name}")
    return found


def test_the_check_sees_a_frozen_container_without_reduce():
    source = (
        "class Kept:\n"
        "    def __post_init__(self):\n"
        "        object.__setattr__(self, 'w', _freeze(w))\n"
        "    def __reduce__(self):\n"
        "        return Kept, (self.w,)\n"
        "class Lost:\n"
        "    def __post_init__(self):\n"
        "        object.__setattr__(self, 'w', model._freeze(w))  # _freeze in a comment is not code\n"
        "class Plain:\n"
        "    def __post_init__(self):\n"
        "        object.__setattr__(self, 'w', np.asarray(w))\n"
        "    def build(self):\n"
        "        return _freeze(w)\n"
        "class Based(activations._Rebuilt):\n"
        "    def __post_init__(self):\n"
        "        _freeze(self.w)\n"
        "class Valued(_ByValue):\n"
        "    def __post_init__(self):\n"
        "        _freeze(self.w)\n"
        "class Other(_Rebuilder, Sequence):  # _Rebuilt in a comment is not a base\n"
        "    def __post_init__(self):\n"
        "        _freeze(self.w)\n"
        "class Outer:\n"
        "    class Inner:\n"
        "        def __post_init__(self):\n"
        "            _freeze(self.w)\n"
        "    def __reduce__(self):\n"
        "        return Outer, ()\n"
    )
    assert frozen_without_reduce(source) == ["line 6: Lost", "line 20: Other", "line 24: Inner"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_frozen_containers_copy_through_their_constructor(path):
    assert frozen_without_reduce(path.read_text(encoding="utf-8")) == []


# the generated __eq__ compares array fields as a tuple, which raises "truth value ... is ambiguous", and
# frozen=True then adds a __hash__ that raises TypeError; eq=False keeps object's identity for both
def array_dataclasses_with_eq(source: str) -> list[str]:
    """Each ``dataclass`` with a field whose annotation names ``ndarray`` and whose decorator does not pass ``eq=False``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ClassDef):
            continue
        annotated = {
            getattr(name, "id", None) or getattr(name, "attr", None)
            for item in node.body
            if isinstance(item, ast.AnnAssign)
            for name in ast.walk(item.annotation)
        }
        holds_arrays = "ndarray" in annotated
        for decorator in node.decorator_list:
            func = decorator.func if isinstance(decorator, ast.Call) else decorator
            if "dataclass" not in (getattr(func, "id", None), getattr(func, "attr", None)):
                continue
            keywords = decorator.keywords if isinstance(decorator, ast.Call) else []
            by_identity = any(
                keyword.arg == "eq" and isinstance(keyword.value, ast.Constant) and keyword.value.value is False
                for keyword in keywords
            )
            if holds_arrays and not by_identity:
                found.append(f"line {node.lineno}: {node.name}")
    return found


def test_the_check_sees_an_array_dataclass_with_eq():
    source = (
        "@dataclass(frozen=True, eq=False)\n"
        "class Kept:\n"
        "    matrix: np.ndarray\n"
        "@dataclass(frozen=True)\n"
        "class Lost:\n"
        "    matrix: np.ndarray  # eq=False in a comment is not code\n"
        "@dataclasses.dataclass\n"
        "class Nested:\n"
        "    parts: tuple[ndarray, ...]\n"
        "@dataclass(eq=True)\n"
        "class Plain:\n"
        "    count: int\n"
        "    def scores(self) -> np.ndarray:\n"
        "        return np.zeros(self.count)\n"
        "class Undecorated:\n"
        "    matrix: np.ndarray\n"
    )
    assert array_dataclasses_with_eq(source) == ["line 5: Lost", "line 8: Nested"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_array_dataclasses_compare_by_identity(path):
    assert array_dataclasses_with_eq(path.read_text(encoding="utf-8")) == []
