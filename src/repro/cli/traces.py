"""Trace-file command family: record, convert, and inspect traces.

``trace`` runs a workload and stores its allocation trace in format v3;
``convert`` upgrades a v2 (monolithic JSON) trace to v3, one way;
``quantiles``/``sites``/``diff`` are the read-only inspection views over
stored traces.
"""

from __future__ import annotations

import argparse

from repro.analysis.compare import diff_traces, render_diff
from repro.analysis.inspect import lifetime_report, sites_report
from repro.core.predictor import DEFAULT_THRESHOLD
from repro.runtime.tracefile import (
    FORMAT_VERSION,
    convert_trace,
    load_trace,
    save_trace,
)
from repro.workloads.registry import PROGRAM_ORDER, run_workload

__all__ = ["register_trace", "register_inspect"]


def register_trace(sub) -> None:
    trace = sub.add_parser("trace", help="run a workload, store its trace")
    trace.add_argument("program", choices=PROGRAM_ORDER)
    trace.add_argument("dataset", help="dataset name (train/test/...)")
    trace.add_argument("-o", "--output", required=True,
                       help="trace file to write (format v3, whatever "
                            "its name; .rtr3 by convention)")
    trace.add_argument("--scale", type=float, default=1.0,
                       help="input scale factor (default 1.0)")
    trace.set_defaults(handler=_cmd_trace)


def register_inspect(sub) -> None:
    convert = sub.add_parser(
        "convert", help="upgrade a v2 trace file to format v3"
    )
    convert.add_argument("source", help="trace file to read (v2 or v3)")
    convert.add_argument("dest", help="v3 trace file to write")
    convert.set_defaults(handler=_cmd_convert)

    quantiles = sub.add_parser(
        "quantiles", help="lifetime quartiles of a stored trace"
    )
    quantiles.add_argument("trace", help="trace file to analyze")
    quantiles.add_argument("--threshold", type=int, default=DEFAULT_THRESHOLD,
                           help="short-lived cutoff in bytes (default 32768)")
    quantiles.set_defaults(handler=_cmd_quantiles)

    sites = sub.add_parser(
        "sites", help="highest-volume allocation sites of a stored trace"
    )
    sites.add_argument("trace", help="trace file to analyze")
    sites.add_argument("--top", type=int, default=15,
                       help="how many sites to list (default 15)")
    sites.add_argument("--threshold", type=int, default=DEFAULT_THRESHOLD,
                       help="short-lived cutoff in bytes (default 32768)")
    sites.set_defaults(handler=_cmd_sites)

    diff = sub.add_parser(
        "diff", help="attribute the self-vs-true prediction gap"
    )
    diff.add_argument("train", help="training trace file")
    diff.add_argument("test", help="test trace file")
    diff.add_argument("--threshold", type=int, default=DEFAULT_THRESHOLD,
                      help="short-lived cutoff in bytes (default 32768)")
    diff.add_argument("--top", type=int, default=10,
                      help="unpredictable sites to list (default 10)")
    diff.set_defaults(handler=_cmd_diff)


def _cmd_trace(args: argparse.Namespace) -> int:
    trace = run_workload(args.program, args.dataset, scale=args.scale)
    save_trace(trace, args.output)
    live = trace.live_stats()
    print(
        f"{args.program}/{args.dataset}: {trace.total_objects} objects, "
        f"{trace.total_bytes} bytes, max live {live.max_live_bytes} bytes "
        f"-> {args.output}"
    )
    return 0


def _cmd_convert(args: argparse.Namespace) -> int:
    convert_trace(args.source, args.dest)
    print(f"{args.source} -> {args.dest} (format v{FORMAT_VERSION})")
    return 0


def _cmd_quantiles(args: argparse.Namespace) -> int:
    print(lifetime_report(load_trace(args.trace), threshold=args.threshold))
    return 0


def _cmd_sites(args: argparse.Namespace) -> int:
    print(sites_report(load_trace(args.trace), top=args.top,
                       threshold=args.threshold))
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    diff = diff_traces(
        load_trace(args.train), load_trace(args.test),
        threshold=args.threshold,
    )
    print(render_diff(diff, top=args.top))
    return 0
