"""Package exports resolve on first access, so light modules stay light.

``repro``, ``repro.serve`` and ``repro.serve.http`` name their exports in a
map (:func:`repro.exports.lazy_exports`) and import each one when it is
first read (PEP 562).  Importing the HTTP client therefore loads the
client, the wire codec and the error types, not the engine with NumPy and
SciPy under it.
"""

from __future__ import annotations

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


def test_importing_the_client_loads_no_engine():
    script = (
        "import sys\n"
        "import repro.serve.client\n"
        "heavy = ('numpy', 'scipy', 'repro.core', 'repro.serve.service')\n"
        "print(sorted(name for name in heavy if name in sys.modules))\n"
    )
    completed = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    assert completed.stdout.strip() == "[]"


@pytest.mark.parametrize("package", ["repro", "repro.serve", "repro.serve.http"])
def test_every_exported_name_resolves(package):
    module = importlib.import_module(package)
    for name in module.__all__:
        assert getattr(module, name) is not None, name
        assert name in dir(module)
    with pytest.raises(AttributeError):
        getattr(module, "no_such_export")
