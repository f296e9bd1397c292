"""The PR driver's entry point (``BENCHMARK.json`` → ``command``)::

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Runs one workload against the checkout this file sits in, prints every
metric by name, and ends with the one-line JSON result the driver
reads.  ``python -m perfbench`` is the same benchmark for humans.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench import ensure_repro_importable  # noqa: E402

ensure_repro_importable()

from perfbench.cli import driver_main  # noqa: E402

if __name__ == "__main__":
    sys.exit(driver_main())
