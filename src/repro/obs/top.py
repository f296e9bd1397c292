"""``repro.obs.top`` — a live per-shard view of a serving store.

Polls a gateway's ``/snapshot`` route
(:func:`repro.obs.ops.snapshot_document`) and renders a ``top``-style
table: per-shard qps / windowed p50 / p99 / pool occupancy, plus
request outcomes and health, updated in place.

Run it against a store serving with ``ShardedStore.serve_gateway()``::

    python -m repro.obs.top --url http://127.0.0.1:9641

``--plain`` (or a non-tty stdout) prints one frame per poll instead of
using curses; ``--iterations N`` stops after N polls (CI/smoke use).
The rendering is a pure function (:func:`render_snapshot`) so tests can
exercise it without a terminal or a server.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
import urllib.request

_SHARD_RE = re.compile(r"^serve\.shard(\d+)\.query_seconds$")
_POOL_RE = re.compile(r"^pool\.(shard\d+)\.in_use$")
_INGEST_RE = re.compile(r"^ingest\.shard(\d+)\.load_seconds$")
_GATEWAY_ROUTE_RE = re.compile(r"^gateway\.route\.([a-z_]+)\.seconds$")
_GATEWAY_STATUS_RE = re.compile(r"^gateway\.status\.(\d{3})$")


def fetch_snapshot(url: str, timeout: float = 5.0) -> dict:
    """GET ``<url>/snapshot`` and parse the JSON document."""
    target = url.rstrip("/") + "/snapshot"
    with urllib.request.urlopen(target, timeout=timeout) as response:
        return json.loads(response.read().decode("utf-8"))


def _ms(value) -> str:
    if value is None:
        return "-"
    return f"{value * 1000:.2f}"


def render_snapshot(snapshot: dict) -> str:
    """Render one ``/snapshot`` document as a fixed-width text frame."""
    health = snapshot.get("health", {})
    windows = snapshot.get("windows", {})
    window_key = next(iter(windows), None)
    windowed = windows.get(window_key, {}) if window_key else {}
    win_hist = windowed.get("histograms", {})
    win_counters = windowed.get("counters", {})
    metrics = snapshot.get("metrics", {})
    gauges = metrics.get("gauges", {})

    lines = [
        f"xmlrel ops — status={health.get('status', '?')}"
        f"  window={window_key or '-'}"
        f"  in_flight="
        f"{gauges.get('serve.in_flight', {}).get('value', 0):g}",
        "",
        f"{'shard':>6} {'qps':>8} {'p50 ms':>9} {'p99 ms':>9} "
        f"{'pool in_use':>12} {'state':>8}",
    ]

    shard_health = {
        str(entry.get("shard")): entry
        for entry in health.get("shards", [])
    }
    shards: dict[str, dict] = {}
    for name, summary in win_hist.items():
        match = _SHARD_RE.match(name)
        if match:
            shards[match.group(1)] = summary
    for entry in health.get("shards", []):
        shards.setdefault(str(entry.get("shard")), {})

    for shard in sorted(shards, key=lambda s: int(s) if s.isdigit() else 0):
        summary = shards[shard]
        entry = shard_health.get(shard, {})
        in_use = gauges.get(f"pool.shard{shard}.in_use", {}).get("value", 0)
        pool_size = entry.get("pool", {}).get("size")
        pool_text = (
            f"{in_use:g}/{pool_size}" if pool_size is not None
            else f"{in_use:g}"
        )
        lines.append(
            f"{shard:>6} "
            f"{summary.get('qps', 0) or 0:>8.1f} "
            f"{_ms(summary.get('p50')):>9} "
            f"{_ms(summary.get('p99')):>9} "
            f"{pool_text:>12} "
            f"{entry.get('status', '?'):>8}"
        )

    ingest_shards = {
        match.group(1): summary
        for name, summary in win_hist.items()
        if (match := _INGEST_RE.match(name))
    }
    docs_rate = win_counters.get("ingest.documents", {}).get("rate", 0) or 0
    rows_rate = win_counters.get("ingest.rows", {}).get("rate", 0) or 0
    if ingest_shards or docs_rate or rows_rate:
        lines.append("")
        lines.append(
            f"ingest ({window_key}): {docs_rate:.1f} docs/s"
            f"  {rows_rate:.1f} rows/s"
        )
        for shard in sorted(
            ingest_shards, key=lambda s: int(s) if s.isdigit() else 0
        ):
            summary = ingest_shards[shard]
            lines.append(
                f"  shard {shard}: {summary.get('count', 0)} doc(s)"
                f"  load p50={_ms(summary.get('p50'))} ms"
                f"  p99={_ms(summary.get('p99'))} ms"
            )

    gateway_routes = {
        match.group(1): summary
        for name, summary in win_hist.items()
        if (match := _GATEWAY_ROUTE_RE.match(name))
    }
    if gateway_routes:
        connections = gauges.get("gateway.connections", {}).get("value", 0)
        rejections = win_counters.get(
            "gateway.quota_rejections", {}
        ).get("count", 0)
        lines.append("")
        lines.append(
            f"gateway ({window_key}): connections={connections:g}"
            f"  quota_rejections={rejections}"
        )
        for route in sorted(gateway_routes):
            summary = gateway_routes[route]
            lines.append(
                f"  {route:<14} {summary.get('qps', 0) or 0:>7.1f} qps"
                f"  p50={_ms(summary.get('p50'))} ms"
                f"  p99={_ms(summary.get('p99'))} ms"
            )
        status_counts = {
            match.group(1): data.get("count", 0)
            for name, data in win_counters.items()
            if (match := _GATEWAY_STATUS_RE.match(name))
        }
        if status_counts:
            rendered = "  ".join(
                f"{status}={count}"
                for status, count in sorted(status_counts.items())
            )
            lines.append(f"  statuses: {rendered}")

    outcome_counts = {
        name.rsplit(".", 1)[-1]: data.get("count", 0)
        for name, data in win_counters.items()
        if name.startswith("serve.query.outcome.")
    }
    if outcome_counts:
        rendered = "  ".join(
            f"{outcome}={count}"
            for outcome, count in sorted(outcome_counts.items())
        )
        lines.append("")
        lines.append(f"outcomes ({window_key}): {rendered}")

    requests = snapshot.get("requests", {}).get("stats")
    if requests:
        lines.append(
            f"request log: emitted={requests.get('emitted', 0)}"
            f" dropped={requests.get('dropped', 0)}"
        )
    return "\n".join(lines)


def _plain_loop(url: str, interval: float, iterations: int | None) -> int:
    count = 0
    while iterations is None or count < iterations:
        try:
            frame = render_snapshot(fetch_snapshot(url))
        except OSError as exc:
            frame = f"xmlrel ops — unreachable: {exc}"
        print(frame)
        print("-" * 72)
        sys.stdout.flush()
        count += 1
        if iterations is not None and count >= iterations:
            break
        time.sleep(interval)
    return 0


def _curses_loop(url: str, interval: float, iterations: int | None) -> int:
    import curses

    def run(screen) -> None:
        curses.use_default_colors()
        screen.nodelay(True)
        count = 0
        while iterations is None or count < iterations:
            try:
                frame = render_snapshot(fetch_snapshot(url))
            except OSError as exc:
                frame = f"xmlrel ops — unreachable: {exc}"
            screen.erase()
            max_y, max_x = screen.getmaxyx()
            for y, line in enumerate(frame.splitlines()):
                if y >= max_y - 1:
                    break
                screen.addnstr(y, 0, line, max_x - 1)
            screen.refresh()
            count += 1
            if screen.getch() in (ord("q"), 27):
                return
            time.sleep(interval)

    curses.wrapper(run)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.top",
        description="Live per-shard view of a serving xmlrel store.",
    )
    parser.add_argument("--url", required=True,
                        help="gateway base URL (Gateway.url)")
    parser.add_argument("--interval", type=float, default=1.0,
                        help="seconds between polls (default 1.0)")
    parser.add_argument("--iterations", type=int, default=None,
                        help="stop after N frames (default: run until ^C)")
    parser.add_argument("--plain", action="store_true",
                        help="print frames instead of a curses screen")
    options = parser.parse_args(argv)

    use_plain = options.plain or not sys.stdout.isatty()
    try:
        if use_plain:
            return _plain_loop(
                options.url, options.interval, options.iterations
            )
        return _curses_loop(
            options.url, options.interval, options.iterations
        )
    except KeyboardInterrupt:
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
