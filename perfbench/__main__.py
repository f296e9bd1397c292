"""``python -m perfbench run|compare|pairs|pins``."""

import sys

from perfbench import ensure_repro_importable

ensure_repro_importable()

from perfbench.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
