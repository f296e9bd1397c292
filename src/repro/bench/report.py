"""Rendering of experiment results as paper-style markdown tables."""

from __future__ import annotations

import functools
import os
import subprocess

from repro.bench.harness import ExperimentResult, format_value
from repro.relational.database import SQLITE_VERSION

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "..", "..", "..",
                           "benchmarks", "results")

#: Opens the line of a written table that says where it was measured.
STAMP = "*Measured at:*"


@functools.cache
def measurement_stamp() -> str:
    """Where this process measures: the source tree's commit (``git
    describe --always --dirty``, ``unknown`` outside a checkout), the
    sqlite library version and the host's CPU count.  Read once, before
    the first table is written, so one run stamps every table alike."""
    try:
        commit = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True, text=True, check=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return (
        f"{STAMP} commit {commit}, sqlite {SQLITE_VERSION}, "
        f"{os.cpu_count()} CPUs"
    )


def format_table(result: ExperimentResult) -> str:
    """Render one experiment as a markdown document."""
    lines = [
        f"# {result.experiment}: {result.title}",
        "",
        f"*Workload:* {result.workload}",
        "",
        f"*Expected shape (from the literature):* {result.expectation}",
        "",
        measurement_stamp(),
        "",
    ]
    columns = result.all_columns()
    header = [""] + columns
    widths = [
        max(
            len(header[0]),
            *(len(row.label) for row in result.rows),
        )
    ] + [
        max(
            len(column),
            *(
                len(format_value(row.values.get(column)))
                for row in result.rows
            ),
        )
        for column in columns
    ]
    lines.append(_format_row(header, widths))
    lines.append(
        "|" + "|".join("-" * (width + 2) for width in widths) + "|"
    )
    for row in result.rows:
        cells = [row.label] + [
            format_value(row.values.get(column))
            for column in columns
        ]
        lines.append(_format_row(cells, widths))
    lines.append("")
    return "\n".join(lines)


def _format_row(cells: list[str], widths: list[int]) -> str:
    padded = [cell.ljust(width) for cell, width in zip(cells, widths)]
    return "| " + " | ".join(padded) + " |"


def write_report(result: ExperimentResult, directory: str | None = None) -> str:
    """Write the experiment's table, stamped with
    :func:`measurement_stamp`, to ``benchmarks/results/`` and print it."""
    rendered = format_table(result)
    target_dir = directory or os.path.abspath(RESULTS_DIR)
    os.makedirs(target_dir, exist_ok=True)
    path = os.path.join(
        target_dir, f"{result.experiment.lower().replace(' ', '_')}.md"
    )
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(rendered)
    print()
    print(rendered)
    return path
