"""Puts the benchmark modules and the program source on ``sys.path``.

Run from the repository root: ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import pathlib
import sys

BENCH = pathlib.Path(__file__).resolve().parent.parent
ROOT = BENCH.parent

for path in (BENCH, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
