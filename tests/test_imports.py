"""Runtime dependencies: the command line must import with numpy alone."""

import json
import os
import subprocess
import sys
from pathlib import Path

import spsqkd


def test_cli_import_loads_no_scipy():
    # a fresh interpreter, so modules the test session imported do not count
    code = ("import json, sys, spsqkd.cli; print(json.dumps(sorted("
            "m for m in sys.modules if m.split('.')[0] == 'scipy')))")
    src = str(Path(spsqkd.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60)
    assert json.loads(out.stdout) == []
