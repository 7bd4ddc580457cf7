"""Dead-code guard: every public name in the package has a caller.

A caller of a module-level name is a word-boundary reference to it in a
Python file under src/, scripts/ or perfbench/, outside the name's own
definition.  A caller of a public method or property of a class is an
attribute read `.name` in those files, outside its definition.  Tests do
not count: a helper that only tests call belongs in tests/reference.py.

Attributes resolve at run time, so the method check goes by name alone.
A name that two classes share (`n_outcomes`, `to_json`, `dim`, `element`)
or that numpy arrays also have (`T`) counts as called when any of them is
read; the check catches a method whose name no program file reads, not one
hidden behind a shared name.
"""

import ast
import re
from functools import lru_cache
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "pepslhv"
CALLER_DIRS = ("src", "scripts", "perfbench")

# Public names kept without a caller in the program, one reason each.
ALLOWED = {
    "entanglement_certificate": "the entanglement of the PEPS, per single-site cut, for library users",
    "reconstruct_mixture": "the exact separable mixture, the ground truth for the LHV decomposition",
    "mixture_normalization": "T as the exact sum over edge assignments, to cross-check log T",
    "sample_outcomes": "one shot for a fixed hidden assignment: the model's outcome given lambda",
    "trace_distance": "compares a reconstructed mixture with the exact state",
    "measurement_set_to_json": "the writer paired with measurement_set_from_json for set files",
}


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
        if node.name not in ALLOWED and not has_caller(path, node)
    ]
    assert orphans == []


def test_allow_list_holds_only_uncalled_names():
    defined = {node.name: (path, node) for path, node in public_definitions()}
    assert set(ALLOWED) <= set(defined)
    called = [name for name in ALLOWED if has_caller(*defined[name])]
    assert called == []


def test_every_public_method_has_a_caller():
    methods = [(path, cls.name, node) for path, cls, node in public_methods()]
    assert ("MeasurementSet", "element_stack") in {(c, n.name) for _, c, n in methods}
    orphans = [
        f"{path.name}: {cls}.{node.name}"
        for path, cls, node in methods
        if not has_caller(path, node, attribute=True)
    ]
    assert orphans == []
