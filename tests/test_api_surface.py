"""Dead-code guard: every public name in the package has a caller.

A caller of a module-level name is a word-boundary reference to it in a
Python file under src/, scripts/ or perfbench/, outside the name's own
definition.  A caller of a public method or property of a class is an
attribute read `.name` in those files, outside its definition.  Tests do
not count: a helper that only tests call belongs in tests/reference.py.

A defaulted parameter of a function under src/ is set by some call in
those files, by keyword, by position or through * or **; a call of a class
counts for its __init__.  A default that only tests set guards a path that
only tests reach.

Attributes resolve at run time, so the method check goes by name alone.
A name that two classes share (`n_outcomes`, `to_json`, `dim`, `element`)
or that numpy arrays also have (`T`) counts as called when any of them is
read; the check catches a method whose name no program file reads, not one
hidden behind a shared name.

Every exception class the package defines is named in an except clause of
cli.main, which maps it to one exit code, and pepslhv.__all__ is exactly
those classes: a subclass that no handler names makes a distinction no
command makes.
"""

import ast
import importlib
import re
from functools import lru_cache
from pathlib import Path

import pepslhv

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "pepslhv"
CALLER_DIRS = ("src", "scripts", "perfbench")

def public_definitions():
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                yield path, node


@lru_cache(maxsize=None)
def program_files():
    return tuple(
        (path, tuple(path.read_text().splitlines()))
        for d in CALLER_DIRS
        for path in sorted((ROOT / d).rglob("*.py"))
    )


def public_methods():
    for path in sorted(PACKAGE.glob("*.py")):
        for cls in ast.parse(path.read_text()).body:
            if isinstance(cls, ast.ClassDef):
                for node in cls.body:
                    if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                        yield path, cls, node


def has_caller(path, node, attribute=False) -> bool:
    prefix = r"\." if attribute else r"\b"
    word = re.compile(prefix + re.escape(node.name) + r"\b")
    for caller, lines in program_files():
        if caller == path:
            # drop the definition itself, decorators included
            start = min([node.lineno] + [d.lineno for d in node.decorator_list])
            lines = lines[: start - 1] + lines[node.end_lineno :]
        if any(word.search(line) for line in lines):
            return True
    return False


def test_every_public_name_has_a_caller():
    orphans = [
        f"{path.name}: {node.name}"
        for path, node in public_definitions()
        if not has_caller(path, node)
    ]
    assert orphans == []


def test_every_public_method_has_a_caller():
    methods = [(path, cls.name, node) for path, cls, node in public_methods()]
    assert ("MeasurementSet", "element_blocks") in {(c, n.name) for _, c, n in methods}
    orphans = [
        f"{path.name}: {cls}.{node.name}"
        for path, cls, node in methods
        if not has_caller(path, node, attribute=True)
    ]
    assert orphans == []


# Defaulted parameters kept without a setting call in the program, one reason each.
DEFAULT_ALLOWED = {
    ("main", "argv"): "tests drive the CLI in process; the console entry reads sys.argv",
}


def defaulted_parameters():
    """(function name, parameter, position or None) for each defaulted parameter under src/.

    The position counts the arguments a call passes, so a method's self or
    cls is not counted (the package has no static methods); keyword-only
    parameters have none.
    """
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        methods = {
            id(node): cls.name
            for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef)
            for node in cls.body
            if isinstance(node, ast.FunctionDef)
        }
        for node in ast.walk(tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            args = node.args
            skip = 1 if id(node) in methods else 0
            positional = args.posonlyargs + args.args
            first = len(positional) - len(args.defaults)
            # a class call counts for its __init__
            name = methods[id(node)] if node.name == "__init__" else node.name
            for i in range(first, len(positional)):
                yield name, positional[i].arg, i - skip
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    yield name, arg.arg, None


@lru_cache(maxsize=None)
def program_calls():
    """(called name, call) for each call in a program file: f(...) and x.f(...) both call f."""
    return tuple(
        (getattr(node.func, "id", None) or getattr(node.func, "attr", None), node)
        for _, lines in program_files()
        for node in ast.walk(ast.parse("\n".join(lines)))
        if isinstance(node, ast.Call)
    )


def sets(call, parameter, position) -> bool:
    """Whether call passes parameter, by keyword, by position or through * or **."""
    if any(k.arg in (parameter, None) for k in call.keywords):
        return True
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    return position is not None and len(call.args) > position


def test_every_default_is_set_by_a_caller():
    assert set(DEFAULT_ALLOWED) <= {(name, p) for name, p, _ in defaulted_parameters()}
    unset = [
        f"{name}({parameter})"
        for name, parameter, position in defaulted_parameters()
        if (name, parameter) not in DEFAULT_ALLOWED
        and not any(n == name and sets(c, parameter, position) for n, c in program_calls())
    ]
    assert unset == []


def package_exceptions():
    """Names of the exception classes defined under src/pepslhv/."""
    names = set()
    for path in sorted(PACKAGE.glob("*.py")):
        module = pepslhv if path.stem == "__init__" else importlib.import_module(f"pepslhv.{path.stem}")
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef) and issubclass(getattr(module, node.name), BaseException):
                names.add(node.name)
    return names


def main_handled_names():
    """Names in the except clauses of cli.main."""
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    main = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "main")
    names = set()
    for handler in ast.walk(main):
        if isinstance(handler, ast.ExceptHandler) and handler.type is not None:
            types = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
            names |= {t.id if isinstance(t, ast.Name) else t.attr for t in types}
    return names


def test_one_exception_type_per_exit_code():
    exceptions = package_exceptions()
    assert exceptions <= main_handled_names()
    assert set(pepslhv.__all__) == exceptions
