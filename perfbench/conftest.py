"""Make ``repro`` importable when the benchmark's tests run from a checkout:
``python3 -m pytest perfbench``."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for path in (ROOT / "src", ROOT):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
