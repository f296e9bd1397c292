"""perfbench — the one benchmark for xmlrel.

Five named workloads (``point_read``, ``scatter_read``, ``mixed_rw``,
``bulk_ingest``, ``embedded_schemes``) driven against the program's
public surface only, every answer checked against the in-memory
evaluator, every metric printed by name with its unit.  See
``perfbench/README.md`` for the metric tables and the layer → end-to-end
predictions, and ``BENCHMARK.json`` at the repository root for the
contract the PR driver runs.

Nothing here is imported by ``src/repro``; the dependency points one
way.  ``python -m perfbench run|compare|pairs|pins`` is the human entry
point, ``python3 perfbench/run.py`` the driver's.
"""

from __future__ import annotations

import os
import sys

#: Repository (or checkout) root: the directory holding ``perfbench/``.
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def ensure_repro_importable() -> None:
    """Put ``<root>/src`` on ``sys.path`` unless ``repro`` already
    imports; exit 2 (no result line) when the program is not there —
    the benchmark measures the checkout it sits in, nothing else."""
    src = os.path.join(ROOT, "src")
    if os.path.isdir(os.path.join(src, "repro")) and src not in sys.path:
        sys.path.insert(0, src)
    try:
        import repro  # noqa: F401
    except ImportError as error:
        sys.stderr.write(
            f"perfbench: cannot import the program under test "
            f"(expected {src}/repro): {error}\n"
        )
        raise SystemExit(2)
