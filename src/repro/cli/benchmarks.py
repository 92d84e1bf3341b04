"""Benchmark command family: the ``bench run/compare/history`` trajectory.

``bench`` runs the benchmark suite into the ``BENCH_<seq>.json``
trajectory (see :mod:`repro.bench`) and gates regressions with the
session comparator's bench preset (:func:`repro.obs.diff.bench_gate`).
"""

from __future__ import annotations

import argparse
import json
import os

from repro.analysis import TraceStore
from repro.bench import BENCH_ALLOCATORS, BenchStore, run_session
from repro.cli._options import _add_predictor_option
from repro.obs.attrib import attribute_sites
from repro.obs.diff import bench_gate, load_session_doc, render_diff_report
from repro.workloads.registry import PROGRAM_ORDER

__all__ = ["register"]


def register(sub) -> None:
    bench = sub.add_parser(
        "bench",
        help="benchmark trajectory: run the suite, compare, show history",
    )
    bench_sub = bench.add_subparsers(required=True, metavar="action")

    bench_run = bench_sub.add_parser(
        "run", help="run the benchmark suite into BENCH_<seq>.json"
    )
    bench_run.add_argument("--scale", type=float, default=None,
                           help="workload scale factor (default: "
                                "$REPRO_BENCH_SCALE or 1.0)")
    bench_run.add_argument("--cache-dir", default=None, metavar="DIR",
                           help="trace cache directory (default "
                                "$REPRO_CACHE_DIR or ~/.cache/repro-alloc)")
    bench_run.add_argument("--no-cache", action="store_true",
                           help="bypass the persistent trace cache")
    bench_run.add_argument("--bench-dir", default=None, metavar="DIR",
                           help="trajectory directory (default "
                                "$REPRO_BENCH_DIR or results/bench)")
    bench_run.add_argument("--programs", nargs="+", choices=PROGRAM_ORDER,
                           default=None, metavar="PROG",
                           help="restrict to these programs (default: all)")
    bench_run.add_argument("--allocators", nargs="+",
                           choices=list(BENCH_ALLOCATORS),
                           default=list(BENCH_ALLOCATORS), metavar="ALLOC",
                           help="restrict to these allocators (default: all)")
    _add_predictor_option(bench_run)
    bench_run.set_defaults(handler=_cmd_bench_run)

    bench_compare = bench_sub.add_parser(
        "compare", help="gate one session against another"
    )
    bench_compare.add_argument(
        "old", nargs="?", default=None,
        help="baseline session: seq number, path, 'prev' (default), or "
             "'latest'")
    bench_compare.add_argument(
        "new", nargs="?", default=None,
        help="candidate session: seq number, path, or 'latest' (default)")
    bench_compare.add_argument("--bench-dir", default=None, metavar="DIR",
                               help="trajectory directory (default "
                                    "$REPRO_BENCH_DIR or results/bench)")
    bench_compare.set_defaults(handler=_cmd_bench_compare)

    bench_history = bench_sub.add_parser(
        "history", help="list the recorded benchmark trajectory"
    )
    bench_history.add_argument("--bench-dir", default=None, metavar="DIR",
                               help="trajectory directory (default "
                                    "$REPRO_BENCH_DIR or results/bench)")
    bench_history.add_argument("--json", action="store_true",
                               help="print the trajectory as JSON instead "
                                    "of the table (scriptable, like "
                                    "stats --json)")
    bench_history.set_defaults(handler=_cmd_bench_history)


def _bench_scale(args: argparse.Namespace) -> float:
    """The bench scale: ``--scale``, else ``$REPRO_BENCH_SCALE``, else 1.0."""
    if args.scale is not None:
        return args.scale
    raw = os.environ.get("REPRO_BENCH_SCALE", "1.0")
    try:
        return float(raw)
    except ValueError:
        raise ValueError(
            f"REPRO_BENCH_SCALE must be a number (workload scale factor), "
            f"got {raw!r}"
        )


def _cmd_bench_run(args: argparse.Namespace) -> int:
    scale = _bench_scale(args)
    store = TraceStore(
        scale=scale, cache_dir=args.cache_dir, use_cache=not args.no_cache,
        predictor_mode=args.predictor,
    )
    bench_store = BenchStore(args.bench_dir)
    session = run_session(
        store,
        seq=bench_store.next_seq(),
        programs=args.programs,
        allocators=args.allocators,
        extra_provenance={"predictor": args.predictor},
    )
    # Attach the top-K site attribution per program so a regressed
    # session explains *which sites* paid.  Deterministic but ungated:
    # the comparator reads only the records.
    if "arena" in args.allocators:
        for program in args.programs or PROGRAM_ORDER:
            profile = attribute_sites(
                store.source(program, "test"),
                profile="arena",
                predictor=store.predictor(program),
            )
            session.attribution[program] = profile.summary_dict(top=10)
    path = bench_store.write(session)
    for rec in session.records:
        line = (
            f"{rec.name:<24}  instr/alloc {rec.instr_per_alloc:7.1f}"
            f"  heap {rec.max_heap_size:>11,}"
        )
        if rec.allocator == "arena":
            line += (
                f"  capture {rec.arena_byte_pct:5.1f}%"
                f"  mispred {rec.mispredictions_total:,}"
            )
        print(line)
    sha = session.provenance.get("git_sha", "unknown")[:10]
    print(
        f"bench session {session.seq:04d} (sha {sha}, scale {scale}, "
        f"{len(session.records)} benchmarks) -> {path}"
    )
    return 0


def _cmd_bench_compare(args: argparse.Namespace) -> int:
    bench_store = BenchStore(args.bench_dir)
    old = bench_store.resolve(args.old if args.old is not None else "prev")
    new = bench_store.resolve(args.new if args.new is not None else "latest")
    result = bench_gate(load_session_doc(old), load_session_doc(new))
    print(render_diff_report(result))
    return 1 if result.regressed else 0


def _cmd_bench_history(args: argparse.Namespace) -> int:
    bench_store = BenchStore(args.bench_dir)
    sessions = bench_store.history()
    if args.json:
        payload = [
            {
                "seq": session.seq,
                "git_sha": session.provenance.get("git_sha", "unknown"),
                "scale": session.scale,
                "benchmarks": len(session.records),
                "total_instr": round(session.total_instr),
                "created_at": session.provenance.get("created_at"),
            }
            for session in sessions
        ]
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    if not sessions:
        print(f"no bench sessions under {bench_store.directory}")
        return 0
    print("seq   git sha     scale  benchmarks     total instr  recorded at")
    for session in sessions:
        prov = session.provenance
        print(
            f"{session.seq:04d}  {prov.get('git_sha', 'unknown')[:10]:<10}"
            f"  {session.scale:<5g}  {len(session.records):>10}"
            f"  {round(session.total_instr):>14,}"
            f"  {prov.get('created_at', '?')}"
        )
    return 0
