"""Every public top-level function and class under ``src/repro`` is
reached by a flow: other ``src`` code uses it, or ``benchmarks/``,
``examples/``, ``perfbench/``, the code in the user docs or the
top-level ``repro.__all__`` name it.  A user doc counts only the
identifiers inside its inline code spans and fenced blocks, so a name
that is also a prose word ("Cache") is not reached by the prose.  A
package ``__init__``'s re-exports and ``__all__`` are not uses (a plain
module's own ``__all__`` is its declared API and counts), and neither
are tests.  A name reached only by its own unit test is dead code;
delete it (and the tests that check only it) rather than add it to the
allowlist below."""

import ast
import re
from pathlib import Path

import pytest

import repro

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
FLOW_DIRS = ("benchmarks", "examples", "perfbench")
DOCS = ("README.md", "DESIGN.md", "EXPERIMENTS.md", "CONTRIBUTING.md")

#: (module path under src/repro, name) -> why it stays with no flow use.
ALLOWLIST = {
    ("digital/expr.py", "minterms_of"):
        "oracle for the K-map minimiser in test_kmap.py",
    ("digital/expr.py", "from_minterms"):
        "oracle for the K-map minimiser in test_kmap.py",
    ("digital/verilog.py", "roundtrip_equivalent"):
        "checks the parse_verilog/emit_verilog pair",
    ("visual/export.py", "load_pgm"):
        "reads back export-figures output",
    ("core/results_io.py", "read_summary"):
        "reads a scaled sweep's sweep_summary.json",
}

_IDENT = re.compile(r"[A-Za-z_]\w*")
#: A fenced block, or an inline code span (which may wrap a line).
_CODE = re.compile(r"```.*?```|`(?:[^`\n]|\n(?!\n))+`", re.S)


def _is_export_list(node):
    return isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)


def _uses(tree, package_init, skip=frozenset()):
    """Identifiers a module's code mentions, leaving out, in a package
    ``__init__``, the imports and ``__all__`` that re-export names."""
    ignored = set(skip)
    if package_init:
        for node in tree.body:
            if _is_export_list(node) or isinstance(node, (ast.Import,
                                                          ast.ImportFrom)):
                ignored.update(ast.walk(node))
    names = set()
    for node in ast.walk(tree):
        if node in ignored:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and _IDENT.fullmatch(node.value)):
            names.add(node.value)  # getattr / registry lookups by name
    return names


def _flow_words():
    """Identifiers in the flow files, and in the user docs' code."""
    code = [p.read_text(encoding="utf-8")
            for d in FLOW_DIRS for p in sorted((ROOT / d).rglob("*.py"))]
    docs = [ROOT / name for name in DOCS]
    docs += sorted((ROOT / "docs").rglob("*.md"))
    for path in docs:
        code += _CODE.findall(path.read_text(encoding="utf-8"))
    return set(_IDENT.findall("\n".join(code)))


@pytest.fixture(scope="module")
def unreached():
    """(module, name) of each public top-level def no flow reaches."""
    trees = {p: ast.parse(p.read_text(encoding="utf-8"))
             for p in sorted(SRC.rglob("*.py"))}
    uses = {p: _uses(t, p.name == "__init__.py") for p, t in trees.items()}
    roots = set(repro.__all__)
    flow_words = _flow_words()
    found = set()
    for path, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                continue
            name = node.name
            if name.startswith("_") or name in roots or name in flow_words:
                continue
            if any(name in used for other, used in uses.items()
                   if other != path):
                continue
            own = set(ast.walk(node))
            if name in _uses(tree, path.name == "__init__.py", own):
                continue
            found.add((path.relative_to(SRC).as_posix(), name))
    return found


def test_every_public_name_is_reached_by_a_flow(unreached):
    dead = sorted(unreached - set(ALLOWLIST))
    assert not dead, (
        "public names reached only by tests (delete them, or their use "
        "is missing): " + ", ".join(f"{m}:{n}" for m, n in dead))


def test_allowlist_holds_only_unreached_names(unreached):
    stale = sorted(set(ALLOWLIST) - unreached)
    assert not stale, (
        "allowlisted names that are gone or now reached (drop them from "
        "ALLOWLIST): " + ", ".join(f"{m}:{n}" for m, n in stale))
