"""Import paths for the benchmark's own tests: ``fqbench`` and ``src``."""

import sys
from pathlib import Path

_HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(_HERE.parents[1] / "src"), str(_HERE.parent)]
