"""Benchmark suite configuration.

Having a conftest here puts ``benchmarks/`` on ``sys.path`` so the bench
modules can ``import _harness``, and the repository root so they can time
a fast path against its test oracle (``from tests.test_worldstore import
...``).
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(1, str(Path(__file__).resolve().parent.parent))
