"""One set-up measurement in a fresh interpreter.

Usage: python3 setup_probe.py SRC_DIR SCENARIO.json [SCENARIO.json ...]

Times importing iriscc from SRC_DIR plus loading and validating each
scenario file, then runs the reference loop of calibrate.py, and prints
the seconds taken and the speed factor.  Exits with 3 when iriscc
resolves outside SRC_DIR.
"""

import os
import sys
import time

t0 = time.perf_counter()
src = sys.argv[1]
sys.path.insert(0, src)
import iriscc  # noqa: E402
from iriscc.scenario import load_scenario  # noqa: E402

for path in sys.argv[2:]:
    load_scenario(path)
elapsed = time.perf_counter() - t0

if not iriscc.__file__.startswith(src):
    print(f"iriscc imported from {iriscc.__file__}, not from {src}", file=sys.stderr)
    sys.exit(3)
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import calibrate  # noqa: E402

print(repr(elapsed), repr(calibrate.speed_factor()))
