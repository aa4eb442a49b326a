"""Child processes started by the tests import spdag from this checkout.

pyproject's `pythonpath` setting covers the test process itself; the
CLI and demo tests run `python` in a subprocess, which sees only the
environment.
"""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (SRC, os.environ.get("PYTHONPATH")) if p
)
