"""Shared argparse plumbing for the repro-alloc command families.

Every store-backed subcommand composes the same option groups; keeping
them here (and only here) is what makes ``--scale``/``--cache-dir``/
``--no-cache`` spell and behave identically across the CLI.  Option
values are validated at parse time — ``warm --jobs`` by
:func:`jobs_count`, ``--rel-threshold``/``--wall-tol`` by
:func:`tolerance` — so a bad value is the same usage error before any
work starts.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from repro import cli as _cli
from repro.analysis import TraceStore
from repro.obs import DEFAULT_SAMPLE_INTERVAL
from repro.obs.metrics import record_peak_rss
from repro.workloads.registry import PROGRAM_ORDER

__all__ = [
    "jobs_count",
    "tolerance",
    "_add_store_options",
    "_add_predictor_option",
    "_add_stream_option",
    "_add_telemetry_options",
    "_make_store",
    "_report_peak_rss",
    "_write_report",
]


def jobs_count(value: str) -> int:
    """argparse ``type=`` for ``warm --jobs``: an integer >= 1.

    Raising :class:`argparse.ArgumentTypeError` here turns a bad worker
    count into the standard usage error (exit 2) instead of a check
    downstream.
    """
    try:
        jobs = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be an integer >= 1, got {value!r}"
        )
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {jobs}")
    return jobs


def tolerance(value: str) -> float:
    """argparse ``type=`` for comparator tolerances: a finite float >= 0."""
    try:
        number = float(value)
    except ValueError:
        number = math.nan
    if not (math.isfinite(number) and number >= 0):
        raise argparse.ArgumentTypeError(
            f"must be a finite number >= 0, got {value!r}"
        )
    return number


def _add_store_options(sub: argparse.ArgumentParser) -> None:
    """The trace-store flags every store-backed subcommand shares."""
    sub.add_argument("--scale", type=float, default=1.0,
                     help="workload scale factor (default 1.0)")
    sub.add_argument("--cache-dir", default=None, metavar="DIR",
                     help="trace cache directory (default $REPRO_CACHE_DIR "
                          "or ~/.cache/repro-alloc)")
    sub.add_argument("--no-cache", action="store_true",
                     help="bypass the persistent trace cache")


def _add_predictor_option(sub: argparse.ArgumentParser) -> None:
    """The ``--predictor`` mode flag of store-backed arena consumers.

    ``trained`` (the default) profiles the ``train`` execution;
    ``static`` swaps in the profile-free escape-analysis predictor —
    same key space, no profiling run.
    """
    sub.add_argument("--predictor", choices=["trained", "static"],
                     default="trained",
                     help="arena predictor source (default trained: "
                          "profile the train execution; static: the "
                          "escape-analysis predictor, no profiling run)")


def _add_stream_option(sub: argparse.ArgumentParser) -> None:
    """The ``--stream`` flag shared by ``simulate``/``table``/``stats``.

    Streaming keeps stdout byte-identical to the materialized path; the
    peak-RSS note demonstrating the memory model goes to stderr.
    """
    sub.add_argument("--stream", action="store_true",
                     help="replay through the constant-memory event "
                          "stream instead of materializing traces; "
                          "reports peak RSS on stderr")


def _add_telemetry_options(sub: argparse.ArgumentParser) -> None:
    """The replay-selection flags shared by ``stats`` and ``timeline``."""
    sub.add_argument("--program", required=True, choices=PROGRAM_ORDER,
                     help="workload to replay")
    sub.add_argument("--dataset", default="test",
                     help="dataset to replay (default test)")
    sub.add_argument("--allocator", default="arena",
                     choices=["arena", "firstfit", "bsd"])
    sub.add_argument("--sites", default=None,
                     help="site database for the arena allocator (default: "
                          "train on the program's train dataset)")
    sub.add_argument("--interval", type=int,
                     default=DEFAULT_SAMPLE_INTERVAL,
                     help="sample interval in allocations "
                          f"(default {DEFAULT_SAMPLE_INTERVAL})")
    _add_store_options(sub)


def _make_store(args: argparse.Namespace) -> TraceStore:
    return TraceStore(
        scale=args.scale,
        cache_dir=args.cache_dir,
        use_cache=not args.no_cache,
        streaming=getattr(args, "stream", False),
        predictor_mode=getattr(args, "predictor", "trained"),
    )


def _report_peak_rss() -> None:
    """Record and print peak RSS (stderr, so stdout stays byte-identical).

    Prints the registry's gauge rather than the fresh sample.  The
    registry is resolved through the package attribute so tests
    substituting ``repro.cli.METRICS`` observe the same instance the
    handlers record into.
    """
    record_peak_rss()
    print(f"peak rss: {_cli.METRICS.counter('peak_rss_kb')} KB",
          file=sys.stderr)


def _write_report(path: str, text: str, label: str) -> None:
    out = Path(path)
    if out.parent != Path(""):
        out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(text, encoding="utf-8")
    print(f"{label}: {out}", file=sys.stderr)
