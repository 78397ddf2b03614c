"""Put the benchmark helpers and the sessionforge sources on the import path.

Run from the repository root with ``python3 -m pytest bench/tests``.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "src")]
