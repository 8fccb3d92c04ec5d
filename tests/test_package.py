import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import copulashift

ROOT = Path(__file__).resolve().parents[1]


def run_python(*args):
    """A fresh interpreter that imports this checkout's copulashift."""
    src = str(Path(copulashift.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True)


def test_every_public_name_resolves():
    missing = [name for name in copulashift.__all__ if not hasattr(copulashift, name)]
    assert missing == []
    assert len(set(copulashift.__all__)) == len(copulashift.__all__)


def test_import_leaves_urllib_request_unloaded():
    # urllib.request pulls in http, email, ssl and socket; only fetch-wine needs it
    done = run_python("-c", "import sys, copulashift; print('urllib.request' in sys.modules)")
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_python_m_runs_the_cli():
    done = run_python("-m", "copulashift", "--help")
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: copulashift") and "shift-report" in done.stdout


def test_every_traced_span_resolves():
    # benchmarks/run.py --trace 1 wraps each name of tracer.SPANS on the package
    tree = ast.parse((ROOT / "benchmarks" / "tracer.py").read_text(encoding="utf-8"))
    spans = next(ast.literal_eval(node.value) for node in tree.body
                 if isinstance(node, ast.Assign)
                 and getattr(node.targets[0], "id", None) == "SPANS")
    missing = []
    for module_name, names in spans.items():
        module = importlib.import_module(f"copulashift.{module_name}")
        for name in names:
            owner = module
            for part in name.split("."):
                owner = getattr(owner, part, None)
            if not callable(owner):
                missing.append(f"{module_name}.{name}")
    assert spans and missing == []
