"""Cache and table command family: ``warm`` and ``table``.

``warm`` populates the persistent trace cache (optionally in parallel,
``--jobs N``); ``table`` regenerates the paper's tables in one process.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from repro.analysis import report as report_mod
from repro.analysis import tables as tables_mod
from repro.cli._options import (
    _add_store_options,
    _add_predictor_option,
    _add_stream_option,
    _make_store,
    _report_peak_rss,
    jobs_count,
)
from repro.obs.metrics import METRICS
from repro.obs.spans import TRACER

__all__ = ["register"]


_TABLES = {
    "1": (tables_mod.table1, report_mod.render_table1),
    "2": (tables_mod.table2, report_mod.render_table2),
    "3": (tables_mod.table3, report_mod.render_table3),
    "4": (tables_mod.table4, report_mod.render_table4),
    "5": (tables_mod.table5, report_mod.render_table5),
    "6": (tables_mod.table6, report_mod.render_table6),
    "7": (tables_mod.table7, report_mod.render_table7),
    "8": (tables_mod.table8, report_mod.render_table8),
    "9": (tables_mod.table9, report_mod.render_table9),
}


def register(sub) -> None:
    warm = sub.add_parser(
        "warm", help="populate the persistent trace cache"
    )
    _add_store_options(warm)
    warm.add_argument("--jobs", type=jobs_count, default=1, metavar="N",
                      help="worker processes (default 1: serial)")
    warm.add_argument("-v", "--verbose", action="store_true",
                      help="print the cache and warm counters (stage "
                           "times: --spans-folded)")
    warm.add_argument("--metrics-json", metavar="PATH", default=None,
                      help="write the session's pipeline counters and "
                           "gauges to PATH as JSON")
    warm.set_defaults(handler=_cmd_warm)

    table = sub.add_parser("table", help="regenerate the paper's tables")
    table.add_argument("which", help="table number 1-9, or 'all'")
    _add_store_options(table)
    _add_stream_option(table)
    _add_predictor_option(table)
    table.set_defaults(handler=_cmd_table)


def _cmd_warm(args: argparse.Namespace) -> int:
    store = _make_store(args)
    start = time.perf_counter()
    results = store.warm(jobs=args.jobs)
    total = time.perf_counter() - start
    for result in results:
        label = f"{result.program}/{result.dataset}"
        print(f"{label:<18} {result.source:<6} {result.seconds:6.2f}s")
    by_source = {
        source: sum(1 for r in results if r.source == source)
        for source in ("memory", "disk", "run")
    }
    where = store.cache.directory if store.cache is not None else "(no cache)"
    print(
        f"warmed {len(results)} executions in {total:.2f}s "
        f"({by_source['memory']} memory, {by_source['disk']} disk, "
        f"{by_source['run']} run) -> {where}"
    )
    if args.verbose:
        print()
        print(METRICS.report("pipeline metrics:"))
        print()
        print(METRICS.to_json())
    if args.metrics_json:
        path = Path(args.metrics_json)
        if path.parent != Path(""):
            path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(METRICS.to_json() + "\n", encoding="utf-8")
        print(f"metrics -> {path}", file=sys.stderr)
    return 0


def _cmd_table(args: argparse.Namespace) -> int:
    which = list(_TABLES) if args.which == "all" else [args.which]
    for key in which:
        if key not in _TABLES:
            raise ValueError(f"no table {key!r} (have 1-9 or 'all')")
    store = _make_store(args)
    for key in which:
        compute, render = _TABLES[key]
        with TRACER.span("table.render", cat="table", table=key):
            text = render(compute(store))
        print(text)
        print()
    if args.stream:
        _report_peak_rss()
    return 0
