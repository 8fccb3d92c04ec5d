import os
import subprocess
import sys
from pathlib import Path

import copulashift


def test_every_public_name_resolves():
    missing = [name for name in copulashift.__all__ if not hasattr(copulashift, name)]
    assert missing == []
    assert len(set(copulashift.__all__)) == len(copulashift.__all__)


def test_import_leaves_urllib_request_unloaded():
    # urllib.request pulls in http, email, ssl and socket; only fetch-wine needs it
    src = str(Path(copulashift.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    code = "import sys, copulashift; print('urllib.request' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "False"
