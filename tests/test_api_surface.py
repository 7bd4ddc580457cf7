"""Dead-code guard: every public module-level name in the package has a caller.

A caller is a word-boundary reference to the name in a Python file under
src/, scripts/ or perfbench/, outside the name's own definition.  Tests do
not count: a helper that only tests call belongs in tests/reference.py.
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


def has_caller(path, node) -> bool:
    word = re.compile(rf"\b{re.escape(node.name)}\b")
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
