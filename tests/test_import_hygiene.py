"""Import hygiene, each check in a fresh interpreter: the collections
build without networkx, and the serial paper path, from the library or
the CLI, loads neither asyncio nor a process pool (those load where the
async and process backends first use them)."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

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
