"""Time ``import fraccore`` plus parsing one generated inputs file.

Usage: python3 setup_probe.py SRC_DIR INPUTS_JSON

Runs in a fresh interpreter so the import is cold, and prints the CPU
time it took in reference seconds (see ``calibrate``).  ``run.py`` starts it several times and reports the median as
``setup_s``.
"""

import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import calibrate  # noqa: E402  (benchmark code; imports no fraccore)
import workloads  # noqa: E402


def main():
    src, path = sys.argv[1], sys.argv[2]
    sys.path.insert(0, src)
    refs = [calibrate.reference() for _ in range(5)]
    start = time.process_time()
    workloads.load(path)
    elapsed = time.process_time() - start
    refs += [calibrate.reference() for _ in range(5)]
    print(repr(elapsed * calibrate.NOMINAL_S / statistics.median(refs)))


if __name__ == "__main__":
    main()
