"""Import hygiene.  Each load check runs in a fresh interpreter: the
collections build without networkx, the serial paper path, from the
library or the CLI, loads neither asyncio nor a process pool (those load
where the async and process backends first use them), and an inline
fleet, which never forks, loads no process pool either.  A static check
fails on any import under ``src/repro`` that its module never uses."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"

#: Modules the serial paper path must never load.
NOT_ON_SERIAL_PATH = ("networkx", "asyncio", "concurrent.futures.process",
                      "multiprocessing")


def run_fresh(code: str) -> dict:
    """Run ``code`` in a new interpreter with ``src`` on its path and
    return the JSON object it prints last."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_collections_build_with_networkx_blocked():
    # a None entry makes any ``import networkx`` raise ImportError, even
    # where networkx is installed
    out = run_fresh("""
import json, sys
sys.modules["networkx"] = None
from repro.core import databuild
from repro.core.benchmark import build_chipvqa, build_chipvqa_challenge
print(json.dumps([len(build_chipvqa().questions),
                  len(build_chipvqa_challenge().questions),
                  len(databuild.canonical_cycle())]))
""")
    assert out == [142, 142, 142]


def test_serial_paper_path_loads_no_async_or_process_pool():
    out = run_fresh("""
import json, sys
import repro
from repro.core.benchmark import build_chipvqa, build_chipvqa_challenge
from repro.core.harness import EvaluationHarness, run_table2
from repro.core.runner import ParallelRunner
from repro.models import build_zoo
build_chipvqa()
build_chipvqa_challenge()
zoo = build_zoo()
harness = EvaluationHarness()
table = run_table2(zoo[:2], harness,
                   runner=ParallelRunner(harness=harness, workers=1))
print(json.dumps({"rows": len(table),
                  "loaded": [m for m in %r if m in sys.modules]}))
""" % (NOT_ON_SERIAL_PATH,))
    assert out == {"rows": 2, "loaded": []}


def test_serial_cli_table2_loads_no_async_or_process_pool():
    out = run_fresh("""
import contextlib, io, json, sys
from repro.cli import main
with contextlib.redirect_stdout(io.StringIO()) as table:
    code = main(["table2", "--models", "gpt-4o", "llava-7b"])
print(json.dumps({"code": code, "row": "GPT4o" in table.getvalue(),
                  "loaded": [m for m in %r if m in sys.modules]}))
""" % (NOT_ON_SERIAL_PATH,))
    assert out == {"code": 0, "row": True, "loaded": []}


def test_inline_fleet_loads_no_process_pool():
    out = run_fresh("""
import json, sys
from repro.core.benchmark import build_chipvqa
from repro.core.coordinator import SweepCoordinator
from repro.core.question import Category
from repro.core.runner import WorkUnit
from repro.models import WITH_CHOICE, build_model
digital = build_chipvqa().by_category(Category.DIGITAL)
units = [WorkUnit(model=build_model(name), dataset=digital,
                  setting=WITH_CHOICE) for name in ("gpt-4o", "llava-7b")]
outcome = SweepCoordinator(nodes=2).run(units)
print(json.dumps({"completed": len(outcome.results),
                  "loaded": [m for m in ("multiprocessing",
                                         "concurrent.futures.process")
                             if m in sys.modules]}))
""")
    assert out == {"completed": 2, "loaded": []}


def _names_in(node: ast.AST) -> set:
    """Names ``node`` mentions, reading each string inside it as code
    when it parses as an expression (a string annotation or a typing
    forward reference such as ``Union[ParallelRunner, "Coordinator"]``)."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                names |= _names_in(ast.parse(sub.value.strip(), mode="eval"))
            except SyntaxError:
                pass
    return names


def _unused_imports(path: Path) -> list:
    """``path:line name`` of each import the module never uses: not in
    its code, its string annotations and forward references, or its
    ``__all__``.  A package ``__init__``'s imports are re-exports, and a
    ``# noqa: F401`` line is exempt."""
    if path.name == "__init__.py":
        return []
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source)
    bound = []
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if (getattr(node, "module", None) == "__future__"
                    or any("noqa: F401" in line for line in
                           lines[node.lineno - 1:node.end_lineno])):
                continue
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                bound.append((node.lineno, name))
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation:
            used |= _names_in(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.returns is not None:
                used |= _names_in(node.returns)
        elif isinstance(node, ast.Subscript):
            used |= _names_in(node.slice)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used |= {elt.value for elt in ast.walk(node.value)
                     if isinstance(elt, ast.Constant)}
    rel = path.relative_to(SRC).as_posix()
    return [f"{rel}:{line} {name}" for line, name in bound
            if name != "*" and name not in used]


def test_no_unused_imports_in_src():
    unused = [entry for path in sorted(SRC.rglob("*.py"))
              for entry in _unused_imports(path)]
    assert not unused, "unused imports: " + ", ".join(unused)
