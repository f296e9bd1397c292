"""perfbench's own self-tests (``python -m pytest perfbench/tests``).

Not collected by the repository's tier-1 run (``testpaths = ["tests"]``).
"""

from perfbench import ensure_repro_importable

ensure_repro_importable()
