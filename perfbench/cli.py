"""Command lines: the human one (``python -m perfbench ...``) and the
PR driver's (``python3 perfbench/run.py --workload W --seed N
--seconds S --trace 0|1``)."""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

#: Exit code of a ``perfbench run`` whose numbers may not be reported
#: (see ``workloads.punctual_open_loop``); nothing is recorded for it.
EXIT_INVALID = 3

from perfbench import ROOT, spec


def _run_one(name, seed, seconds, sizes, trace, corrupt, spans_path=None):
    """One workload, one mode → ``(result, metrics)``; metrics maps
    name → ``(value, n)``.  An invalid run (``result.invalid``) is said
    on stderr; what to do with its metrics is the caller's business."""
    if trace:
        from perfbench import layers

        result, metrics = layers.run_lab(
            name, seed, seconds, sizes, spans_path
        )
    else:
        from perfbench import workloads

        result = workloads.run_workload(name, seed, seconds, sizes, corrupt)
        metrics = result.metrics
    if result.invalid:
        print(f"{name}: INVALID RUN - {result.invalid}", file=sys.stderr)
    return result, metrics


def _positive(text: str) -> float:
    value = float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError("must be > 0")
    return value


# -- driver entry -------------------------------------------------------------------


def driver_main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=spec.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=_positive, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    from perfbench import report, workloads

    # The PR driver wants an answer from every run, inside a time budget
    # for all of them: the open loop is offered once, and a late one is
    # reported all the same, with a warning.  The two gated metrics of
    # that run stand on it: a p50 from the due time (a late 1 % of the
    # arrivals cannot move it) and the closed loop's throughput.  `perfbench
    # run` keeps the strict rule.
    result, metrics = _run_one(
        args.workload, args.seed, args.seconds,
        workloads.Sizes(open_attempts=1), bool(args.trace), corrupt=False,
    )
    if result.invalid:
        print(f"{args.workload}: reported all the same (driver entry)",
              file=sys.stderr)
    report.print_metrics(args.workload, metrics, result.levels)
    names = spec.PER_LAYER if args.trace else spec.END_TO_END
    print(report.driver_line(result, names, metrics), flush=True)
    return 0 if result.correct else 1


# -- human entry --------------------------------------------------------------------


def _cmd_run(args) -> int:
    from perfbench import report, workloads

    sizes = workloads.Sizes.quick() if args.quick else workloads.Sizes()
    seconds = args.seconds or (2.0 if args.quick else spec.RUN_SECONDS)
    names = args.workload or list(spec.WORKLOADS)
    all_records, runs, exit_code = [], [], 0
    for name in names:
        started = time.perf_counter()
        result, metrics = _run_one(
            name, args.seed, seconds, sizes, args.trace,
            args.corrupt_expected, args.spans,
        )
        if not result.correct:
            exit_code = 1
            print(
                f"{name}: {result.failed}/{result.attempted} operations "
                f"failed or answered wrong", file=sys.stderr,
            )
        if result.invalid:
            exit_code = exit_code or EXIT_INVALID
        else:
            report.print_metrics(name, metrics, result.levels)
            all_records.extend(
                report.records(name, args.seed, metrics, result.levels)
            )
        runs.append(
            {
                "workload": name, "seed": args.seed, "seconds": seconds,
                "trace": bool(args.trace), "quick": bool(args.quick),
                "attempted": result.attempted, "failed": result.failed,
                "invalid": result.invalid,
                "wall_seconds": time.perf_counter() - started,
                "notes": result.notes,
            }
        )
    doc = report.document(all_records, runs)
    text = json.dumps(doc, indent=1)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    else:
        print(text)
    return exit_code


def _load(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _cmd_compare(args) -> int:
    from perfbench import report

    rows, failed = report.compare(_load(args.base), _load(args.other))
    report.print_compare(rows)
    return 1 if failed else 0


def _merge(docs: list[dict]) -> dict:
    merged = dict(docs[0])
    merged["records"] = [r for doc in docs for r in doc["records"]]
    merged["runs"] = [r for doc in docs for r in doc["runs"]]
    return merged


def _cmd_pairs(args) -> int:
    """Alternating-order repeats of two sides (this checkout against
    ``--other``, by default against itself): pair *i* runs A then B
    when *i* is even, B then A when odd.  Every run has the same seed,
    so what spreads is the machine, not the corpus; an invalid run is
    made again, never merged."""
    from perfbench import report

    roots = {"A": ROOT, "B": os.path.abspath(args.other or ROOT)}
    names = args.workload or list(spec.WORKLOADS)
    docs: dict[str, list[dict]] = {"A": [], "B": []}
    out_dir = os.path.join(ROOT, ".perfbench_work", f"pairs-{os.getpid()}")
    os.makedirs(out_dir, exist_ok=True)
    try:
        for pair in range(args.n):
            order = ("A", "B") if pair % 2 == 0 else ("B", "A")
            for side in order:
                out = os.path.join(out_dir, f"{side}-{pair}.json")
                command = [
                    sys.executable, "-m", "perfbench", "run",
                    "--seed", str(args.seed), "--out", out,
                ]
                if args.seconds:
                    command += ["--seconds", str(args.seconds)]
                if args.quick:
                    command.append("--quick")
                for name in names:
                    command += ["--workload", name]
                for _attempt in range(3):
                    done = subprocess.run(
                        command, cwd=roots[side], stdout=subprocess.DEVNULL
                    )
                    if done.returncode != EXIT_INVALID:
                        break
                if done.returncode != 0:
                    print(f"pair {pair} side {side} failed "
                          f"(exit {done.returncode})", file=sys.stderr)
                    return done.returncode
                docs[side].append(_load(out))
                print(f"pair {pair} side {side} done", file=sys.stderr)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(out_dir))
        except OSError:
            pass  # a run is using it
    merged = {side: _merge(side_docs) for side, side_docs in docs.items()}
    within = True
    for side in ("A", "B"):
        print(f"== side {side}: {roots[side]} ({args.n} runs)")
        within = report.print_spreads(merged[side]) and within
    print("== B against A")
    rows, failed = report.compare(merged["A"], merged["B"])
    report.print_compare(rows)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(merged, handle, indent=1)
            handle.write("\n")
    return 1 if failed or not within else 0


def _cmd_pins(args) -> int:
    from perfbench import corpus

    seed = spec.DEFAULT_SEED
    pins = {
        "serve": corpus.pin_record(corpus.build_serve_corpus(seed)),
        "bulk": corpus.pin_record(corpus.build_bulk_corpus(seed)),
        "embedded": corpus.pin_record(corpus.build_embedded_corpus(seed)),
    }
    if args.write:
        with open(corpus.PINS_PATH, "w", encoding="utf-8") as handle:
            json.dump(pins, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"wrote {corpus.PINS_PATH}")
        return 0
    if pins != corpus.load_pins():
        print("workload drifted: generated pins differ from pins.json",
              file=sys.stderr)
        return 1
    print("pins match")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m perfbench",
        description="xmlrel's benchmark: 5 workloads, checked answers, "
                    "end-to-end metrics and a per-layer table.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="run workloads, print metrics")
    run.add_argument("--workload", action="append", choices=spec.WORKLOADS)
    run.add_argument("--seed", type=int, default=spec.DEFAULT_SEED)
    run.add_argument("--seconds", type=_positive)
    run.add_argument("--trace", action="store_true",
                     help="per-layer table instead of end-to-end metrics")
    run.add_argument("--quick", action="store_true",
                     help="smoke run: reduced corpus, 2 s windows")
    run.add_argument("--out", help="write the JSON record here")
    run.add_argument("--spans", help="with --trace: write spans (JSONL)")
    run.add_argument("--corrupt-expected", action="store_true",
                     help="self-check: falsify one expected answer; the "
                          "run must report failures and exit non-zero")
    run.set_defaults(handler=_cmd_run)

    compare = commands.add_parser("compare", help="B against A, per bound")
    compare.add_argument("base")
    compare.add_argument("other")
    compare.set_defaults(handler=_cmd_compare)

    pairs = commands.add_parser("pairs", help="alternating-order repeats")
    pairs.add_argument("--n", type=int, default=10)
    pairs.add_argument("--other", help="second checkout (default: this one)")
    pairs.add_argument("--workload", action="append", choices=spec.WORKLOADS)
    pairs.add_argument("--seed", type=int, default=spec.DEFAULT_SEED)
    pairs.add_argument("--seconds", type=_positive)
    pairs.add_argument("--quick", action="store_true")
    pairs.add_argument("--out")
    pairs.set_defaults(handler=_cmd_pairs)

    pins = commands.add_parser("pins", help="check or rewrite pins.json")
    pins.add_argument("--write", action="store_true")
    pins.set_defaults(handler=_cmd_pins)

    args = parser.parse_args(argv)
    return args.handler(args)
