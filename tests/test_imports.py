"""Start-up cost: scipy loads only where a spectrum or grid family is solved.

Each check runs in a fresh interpreter, because the test modules import
scipy themselves.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

_REPORT = """
import json, sys
{body}
heavy = sorted(m for m in sys.modules
               if m.split(".")[0] == "scipy" or m == "concurrent.futures.process")
print(json.dumps(heavy))
"""


def _loaded_after(body):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", _REPORT.format(body=body)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.strip().splitlines()[-1]))


def _run_cli(args):
    return ("from curvedqgt.cli import main\n"
            f"main.main({args!r}, standalone_mode=False)")


def test_package_import_loads_no_scipy_or_pool():
    assert _loaded_after("import curvedqgt, curvedqgt.cli, curvedqgt.spectrum") == set()


def test_compute_loads_no_scipy():
    loaded = _loaded_after(_run_cli([
        "compute", "--model", "generalized-anharmonic", "--lambda", "1",
        "--b", "0.3", "--c", "1.2", "--quantities", "qmt,berry_curvature"]))
    assert loaded == set()


def test_spectrum_loads_linalg_but_not_interpolate():
    loaded = _loaded_after(_run_cli([
        "spectrum", "--model", "anharmonic-1d", "--lambda", "1",
        "--omega", "1", "--k", "3"]))
    assert "scipy.linalg" in loaded
    assert "scipy.sparse" not in loaded
    assert not any(m.startswith("scipy.interpolate") for m in loaded)
