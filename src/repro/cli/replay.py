"""Replay command family: ``simulate`` and ``escape-eval``.

``simulate`` replays a stored trace against an allocator (with
``--stream``, through the constant-memory event pipeline);
``escape-eval`` scores the static escape predictor against trained
predictors and the oracle over every workload.

The simulation entry points are resolved through the package attribute
(``repro.cli.simulate_arena`` …) at call time, so tests substituting
them on the package observe the swap.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro import cli as _cli
from repro.analysis.escape_eval import escape_eval, render_escape_eval
from repro.cli._options import (
    _add_store_options,
    _add_stream_option,
    _make_store,
    _report_peak_rss,
)
from repro.core.database import load_predictor
from repro.core.predictor import DEFAULT_THRESHOLD
from repro.obs import DEFAULT_SAMPLE_INTERVAL, Telemetry, export_timeline
from repro.runtime.tracefile import load_trace, open_trace_stream
from repro.static.escape import build_escape_db
from repro.workloads.registry import PROGRAM_ORDER

__all__ = ["register_simulate", "register_escape_eval"]


def register_simulate(sub) -> None:
    simulate = sub.add_parser(
        "simulate", help="replay a trace against an allocator"
    )
    simulate.add_argument("trace", help="trace file to replay")
    simulate.add_argument("--allocator", default="arena",
                          choices=["arena", "firstfit", "bsd"])
    simulate.add_argument("--sites", help="site database (arena allocator)")
    simulate.add_argument("--predictor", choices=["trained", "static"],
                          default="trained",
                          help="arena predictor source: 'trained' loads "
                               "--sites; 'static' derives the escape-"
                               "analysis predictor from the traced "
                               "program's sources (no --sites needed)")
    simulate.add_argument("--arenas", type=int, default=16,
                          help="number of arenas (default 16)")
    simulate.add_argument("--arena-size", type=int, default=4096,
                          help="bytes per arena (default 4096)")
    simulate.add_argument("--telemetry-out", metavar="DIR", default=None,
                          help="also record heap telemetry during the "
                               "replay and export the time series here")
    simulate.add_argument("--interval", type=int,
                          default=DEFAULT_SAMPLE_INTERVAL,
                          help="telemetry sample interval in allocations "
                               f"(default {DEFAULT_SAMPLE_INTERVAL})")
    _add_stream_option(simulate)
    simulate.set_defaults(handler=_cmd_simulate)


def register_escape_eval(sub) -> None:
    escape_cmd = sub.add_parser(
        "escape-eval",
        help="compare the static escape predictor against trained "
             "predictors and the oracle over every workload",
    )
    escape_cmd.add_argument("--programs", nargs="+", choices=PROGRAM_ORDER,
                            default=None, metavar="PROG",
                            help="restrict to these programs (default: all)")
    escape_cmd.add_argument("--threshold", type=int,
                            default=DEFAULT_THRESHOLD,
                            help="short-lived cutoff in bytes "
                                 "(default 32768)")
    escape_cmd.add_argument("--arenas", type=int, default=16,
                            help="number of arenas (default 16)")
    escape_cmd.add_argument("--arena-size", type=int, default=4096,
                            help="bytes per arena (default 4096)")
    escape_cmd.add_argument("--json", action="store_true",
                            help="print the machine-readable comparison "
                                 "instead of the table")
    _add_store_options(escape_cmd)
    _add_stream_option(escape_cmd)
    escape_cmd.set_defaults(handler=_cmd_escape_eval)


def _cmd_simulate(args: argparse.Namespace) -> int:
    trace = open_trace_stream(args.trace) if args.stream \
        else load_trace(args.trace)
    telemetry = (
        Telemetry(interval=args.interval)
        if args.telemetry_out is not None else None
    )
    if args.allocator == "firstfit":
        result = _cli.simulate_firstfit(trace, telemetry=telemetry)
    elif args.allocator == "bsd":
        result = _cli.simulate_bsd(trace, telemetry=telemetry)
    else:
        if args.predictor == "static":
            program = (
                trace.header.program if hasattr(trace, "header")
                else trace.program
            )
            predictor = build_escape_db(program).to_predictor()
        elif not args.sites:
            raise ValueError(
                "the arena allocator needs --sites (or --predictor static)"
            )
        else:
            predictor = load_predictor(args.sites)
        result = _cli.simulate_arena(
            trace, predictor,
            num_arenas=args.arenas, arena_size=args.arena_size,
            telemetry=telemetry,
        )
    print(f"allocator:      {result.allocator}")
    print(f"max heap size:  {result.max_heap_size} bytes")
    print(f"instr/alloc:    {result.cost.per_alloc:.1f}")
    print(f"instr/free:     {result.cost.per_free:.1f}")
    if result.allocator.startswith("arena"):
        print(f"arena allocs:   {result.arena_alloc_pct:.1f}%")
        print(f"arena bytes:    {result.arena_byte_pct:.1f}%")
    if telemetry is not None:
        # The export notice goes to stderr so the measurement summary on
        # stdout is byte-identical with and without telemetry.
        paths = export_timeline(telemetry, Path(args.telemetry_out))
        for path in paths.values():
            print(f"telemetry: {path}", file=sys.stderr)
    if args.stream:
        _report_peak_rss()
    return 0


def _cmd_escape_eval(args: argparse.Namespace) -> int:
    store = _make_store(args)
    result = escape_eval(
        store,
        programs=args.programs,
        threshold=args.threshold,
        num_arenas=args.arenas,
        arena_size=args.arena_size,
    )
    if args.json:
        print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
    else:
        print(render_escape_eval(result))
    if args.stream:
        _report_peak_rss()
    return 0
