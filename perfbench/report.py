"""Records, tables and comparisons.

One record shape everywhere::

    {"workload", "metric", "value", "unit", "n", "seed", "kind"}

(a tail metric also carries ``level``, the percentile actually
computed: a sample too small for the p95 in the name says so, and
``compare`` will not set a p75 against a p95) inside one document that also carries ``git_sha`` and the ``machine``
fingerprint.  ``compare`` follows choosing-metrics §6–8: each workload
× metric in its own row, every ratio with its base, ``unresolved`` when
the run-to-run spread is wider than the bound (unless every run of one
side beats every run of the other).
"""

from __future__ import annotations

import json
import os
import platform
import sqlite3
import subprocess
import sys

from perfbench import ROOT, spec, stats


def machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "sqlite": sqlite3.sqlite_version,
    }


def git_sha() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def kind_of(name: str) -> str:
    if name in spec.END_TO_END:
        return "end_to_end"
    if name in spec.PRIMARY:
        return "primary"
    return "layer"


def records(
    workload: str, seed: int, metrics: dict, levels: dict | None = None
) -> list[dict]:
    """*metrics*: name → ``(value, n)``; *levels*: tail metric name →
    the percentile level its value was taken at."""
    rows = []
    for name, (value, count) in metrics.items():
        row = {
            "workload": workload,
            "metric": name,
            "value": value,
            "unit": spec.metric(name).unit,
            "n": count,
            "seed": seed,
            "kind": kind_of(name),
        }
        if levels and name in levels:
            row["level"] = levels[name]
        rows.append(row)
    return rows


def document(record_list: list[dict], runs: list[dict]) -> dict:
    return {
        "benchmark": "perfbench",
        "git_sha": git_sha(),
        "machine": machine(),
        "runs": runs,
        "records": record_list,
    }


def print_metrics(
    workload: str, metrics: dict, levels: dict | None = None, out=sys.stdout
) -> None:
    width = max((len(name) for name in metrics), default=10)
    for name, (value, count) in metrics.items():
        level = (levels or {}).get(name)
        out.write(
            f"{workload:<17} {name:<{width}} {value:>14.6g} "
            f"{spec.metric(name).unit:<6} n={count}"
            + (f" (p{level:g})" if level is not None else "") + "\n"
        )


def driver_line(result, names, metrics: dict) -> str:
    """The PR driver's last line: exactly the metrics in *names*."""
    return json.dumps(
        {
            "correct": result.correct,
            "attempted": result.attempted,
            "failed": result.failed,
            "metrics": {
                name: {
                    "value": metrics[name][0],
                    "unit": spec.metric(name).unit,
                }
                for name in names
            },
        }
    )


# -- compare ------------------------------------------------------------------------


def _series(doc: dict, field: str = "value") -> dict[tuple[str, str], list]:
    """(workload, metric) → every *field* recorded, in run order."""
    series: dict[tuple[str, str], list] = {}
    for record in doc["records"]:
        if record.get("kind") == "layer":
            continue
        key = (record["workload"], record["metric"])
        series.setdefault(key, []).append(record.get(field))
    return series


def _worse_by(metric, base: float, other: float) -> float:
    """How much worse *other* is than *base*, as a share of *base*
    (negative = better)."""
    if metric.better == "lower":
        return (other - base) / base if base else float(other > base)
    return (base - other) / base if base else 0.0


def compare(base_doc: dict, other_doc: dict) -> tuple[list[dict], bool]:
    """Rows of the comparison table and whether any row fails."""
    base_series, other_series = _series(base_doc), _series(other_doc)
    levels = {
        key: set(values) | set(_series(other_doc, "level").get(key, ()))
        for key, values in _series(base_doc, "level").items()
    }
    rows, failed = [], False
    for key in sorted(base_series):
        if key not in other_series:
            continue
        workload, name = key
        metric = spec.metric(name)
        if workload not in metric.workloads:
            continue
        a, b = base_series[key], other_series[key]
        base, other = stats.median(a), stats.median(b)
        worse = _worse_by(metric, base, other)
        if name == "failed_share":
            verdict = "worse" if other > base else "ok"
        elif worse <= metric.bound:
            verdict = "ok"
        else:
            verdict = "worse"
        # A spread wider than the bound cannot resolve a change of the
        # bound's size — unless the two sides do not even overlap.
        widest = max(stats.spread(a), stats.spread(b)) \
            if min(len(a), len(b)) >= 2 else 0.0
        if name != "failed_share" and widest > metric.bound:
            if metric.better == "lower":
                separated = max(b) < min(a) or min(b) > max(a)
            else:
                separated = min(b) > max(a) or max(b) < min(a)
            if not separated:
                verdict = "unresolved"
        if len(levels[key]) > 1:
            # a p75 against a p95 is no comparison at all
            verdict = "levels-differ"
        failed = failed or verdict in ("worse", "levels-differ")
        rows.append(
            {
                "workload": workload, "metric": name, "unit": metric.unit,
                "base": base, "other": other,
                "ratio": other / base if base else float("nan"),
                "bound": metric.bound, "spread": widest,
                "runs": (len(a), len(b)), "verdict": verdict,
            }
        )
    return rows, failed


def print_compare(rows, out=sys.stdout) -> None:
    out.write(
        f"{'workload':<17} {'metric':<26} {'base':>12} {'other':>12} "
        f"{'other/base':>10} {'bound':>6} {'spread':>7}  verdict\n"
    )
    for row in rows:
        out.write(
            f"{row['workload']:<17} {row['metric']:<26} "
            f"{row['base']:>12.5g} {row['other']:>12.5g} "
            f"{row['ratio']:>10.4f} {row['bound']:>6.2f} "
            f"{row['spread']:>7.3f}  {row['verdict']} "
            f"({row['unit']}, n={row['runs'][0]}/{row['runs'][1]})\n"
        )


def print_spreads(doc: dict, out=sys.stdout) -> bool:
    """Median, quartiles and spread per workload × metric of one
    multi-run document; True when every spread is within its bound."""
    within = True
    out.write(
        f"{'workload':<17} {'metric':<26} {'q1':>12} {'median':>12} "
        f"{'q3':>12} {'spread':>7} {'bound':>6}\n"
    )
    for (workload, name), values in sorted(_series(doc).items()):
        metric = spec.metric(name)
        q1, q2, q3 = stats.quartiles(values)
        share = stats.spread(values)
        flag = ""
        if metric.bound and name != "setup_s" and share > metric.bound:
            within = False
            flag = "  > bound"
        out.write(
            f"{workload:<17} {name:<26} {q1:>12.5g} {q2:>12.5g} "
            f"{q3:>12.5g} {share:>7.3f} {metric.bound or 0:>6.2f}{flag}\n"
        )
    return within
