"""``python -m bench run|compare`` (run from the repository root).

``run`` without ``--trace`` is the suite: every workload (or ``--workload
NAME``), untraced then traced, each pass in its own subprocess, results
under ``--out``.  ``run --workload NAME --trace 0|1`` is one pass in this
process and ends with the one-line JSON result the benchmark contract in
``BENCHMARK.json`` describes.
"""

from __future__ import annotations

import argparse
import sys

from bench import ROOT


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="measure the workloads")
    run.add_argument("--workload", default=None, help="one workload (default: all)")
    run.add_argument("--seed", type=int, default=42, help="seed of the generated inputs")
    run.add_argument("--seconds", type=float, default=None,
                     help="timed work per pass (default: run_seconds of BENCHMARK.json)")
    run.add_argument("--rounds", type=int, default=None,
                     help="run exactly N rounds per pass instead of --seconds")
    run.add_argument("--trace", type=int, choices=(0, 1), default=None,
                     help="run ONE pass of --workload in this process, untraced (0) "
                     "or traced (1), and print the one-line result")
    run.add_argument("--no-trace", action="store_true", help="suite: skip the traced passes")
    run.add_argument("--scale", choices=("full", "smoke"), default="full")
    run.add_argument("--out", default=None,
                     help="directory for results and traces (suite default: a fresh temp dir)")
    compare = sub.add_parser("compare", help="diff two result sets")
    compare.add_argument("base", help="result.json, or a directory of them (a set of runs)")
    compare.add_argument("new", help="result.json, or a directory of them (a set of runs)")
    args = parser.parse_args(argv)

    if args.command == "compare":
        from bench.compare import compare_results

        return compare_results(args.base, args.new)

    # The program under test lives in src/; the contract's command line
    # cannot set PYTHONPATH, so the benchmark finds it itself.
    if not (ROOT / "src" / "repro").is_dir():
        parser.exit(2, f"no program to measure: {ROOT / 'src' / 'repro'} is missing\n")
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    from bench import runner

    spec = runner.declared()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; declared: {names}")
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    if args.trace is None:
        selected = [args.workload] if args.workload else names
        return runner.run_suite(selected, args.seed, seconds, args.rounds,
                                not args.no_trace, args.scale, args.out)
    if args.workload is None:
        parser.error("--trace runs one pass and needs --workload")
    detail = runner.run_pass(args.workload, args.seed, seconds, args.rounds,
                             bool(args.trace), args.scale, args.out)
    runner.print_metrics(f"{args.workload} (seed {args.seed}, {detail['rounds']} rounds, "
                         f"{'traced' if args.trace else 'untraced'})", detail["metrics"])
    for key, reasons in detail["failures"].items():
        print(f"FAILED {key}: {reasons[0]}", file=sys.stderr)
    print(runner.driver_line(detail))
    return 0


if __name__ == "__main__":
    sys.exit(main())
