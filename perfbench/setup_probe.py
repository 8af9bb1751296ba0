"""Become ready for the first benchmark job in a fresh interpreter, then exit.

``run.py`` times this script from spawn to its ``ready`` line: that is
``setup_s``, the cost of importing ``repro``, numpy and scipy.spatial
(which ``fig2bench`` imports up front) before any job can start.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import fig2bench  # noqa: E402,F401  (the import is what is being timed)

print("ready", flush=True)
