"""Self-tests of the benchmark package.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e/tests`` from the
repository root (the parent ``benchmarks/conftest.py`` imports ``repro``).
"""

import sys
from pathlib import Path

E2E = Path(__file__).resolve().parent.parent
ROOT = E2E.parent.parent
for entry in (str(ROOT / "src"), str(E2E)):
    if entry not in sys.path:
        sys.path.insert(0, entry)
