"""The import graph: each process loads only the layers its command runs.

Every check runs in a fresh interpreter, so what other tests import cannot
matter.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import fockdec

SRC = Path(fockdec.__file__).resolve().parents[1]
ENV = dict(os.environ, PYTHONPATH=str(SRC))

# What `decomp` and `bar` never run: the oracle, the sum formula, the suites
# and the stdlib modules that only those (or a log call) need.
NOT_FOR_MATRICES = {"fockdec.hecke", "fockdec.schaper", "fockdec.verify", "dataclasses", "logging"}


def python(*argv):
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, env=ENV, timeout=60
    )


def loaded_after(code: str) -> set[str]:
    """The modules in sys.modules after `code` runs in a fresh interpreter."""
    proc = python("-c", f"{code}\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))")
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_package_import_loads_no_submodule():
    assert {name for name in loaded_after("import fockdec") if name.startswith("fockdec.")} == set()


def test_cli_import_leaves_the_other_layers_unloaded():
    assert loaded_after("import fockdec.cli") & NOT_FOR_MATRICES == set()


def test_decomp_run_leaves_the_other_layers_unloaded(tmp_path):
    argv = ["decomp", "--n", "2", "--m", "3", "--cache-dir", str(tmp_path)]
    loaded = loaded_after(f"from fockdec.cli import main\nassert main({argv!r}) == 0")
    assert "fockdec.canonical" in loaded
    assert loaded & NOT_FOR_MATRICES == set()


def test_verify_run_loads_its_layers(tmp_path):
    argv = ["verify", "--max-m", "2", "--n-set", "2", "--suite", "oracle"]
    loaded = loaded_after(f"from fockdec.cli import main\nassert main({argv!r}) == 0")
    assert NOT_FOR_MATRICES - {"logging"} <= loaded


def test_module_run_has_no_double_import_warning():
    # runpy warns when the package's __init__ has already imported fockdec.cli.
    proc = python("-W", "error", "-m", "fockdec.cli", "--version")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == fockdec.__version__
