import os
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
SRC = BENCH.parent / "src"
for path in (BENCH, SRC):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
# CLI subprocesses find the package the way the benchmark's workers do
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
