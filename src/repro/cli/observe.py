"""Observability command family: instrumented replays and session diffs.

``stats`` and ``timeline`` replay one workload with the telemetry
recorder attached; ``profile-sites`` attributes simulated cost per
allocation site; ``windows`` partitions a run into windows and reports
heap series plus lifetime drift; ``report`` renders the self-contained
HTML run report; ``diff-sessions`` compares two recorded sessions and
exits nonzero on a regression.
"""

from __future__ import annotations

import argparse
import json
import sys
from datetime import datetime, timezone
from pathlib import Path

from repro.alloc.spec import BSD_SPEC, FIRSTFIT_SPEC, PAPER_DEFAULT_SPEC
from repro.analysis.simulate import simulate_spec
from repro.bench import BenchStore
from repro.cli._options import (
    _add_predictor_option,
    _add_store_options,
    _add_stream_option,
    _add_telemetry_options,
    _make_store,
    _report_peak_rss,
    tolerance,
)
from repro.core.database import load_predictor
from repro.obs import (
    Telemetry,
    export_timeline,
    render_stats,
    render_timeline,
    telemetry_summary,
)
from repro.obs.attrib import (
    ATTRIB_PROFILES,
    attribute_sites,
    export_attribution,
    render_attrib,
)
from repro.obs.diff import (
    DEFAULT_REL_THRESHOLD,
    diff_documents,
    diff_paths,
    load_session_doc,
    render_diff_report,
)
from repro.obs.drift import (
    DEFAULT_FLIP_FRACTION,
    DEFAULT_MIN_OBJECTS,
    DEFAULT_MIN_WINDOWS,
    drift_report,
    render_drift,
    write_drift_json,
)
from repro.obs.export import DEFAULT_TELEMETRY_DIR
from repro.obs.html import write_report
from repro.obs.windows import (
    DEFAULT_WINDOWS,
    WINDOW_AXES,
    export_windows,
    render_windows,
    window_profile,
)
from repro.workloads.registry import PROGRAM_ORDER

__all__ = ["register"]


def register(sub) -> None:
    stats = sub.add_parser(
        "stats", help="per-site misprediction accounting for one workload"
    )
    _add_telemetry_options(stats)
    stats.add_argument("--top", type=int, default=15,
                       help="how many sites to list (default 15)")
    stats.add_argument("--json", action="store_true",
                       help="print the machine-readable summary instead "
                            "of the table")
    _add_stream_option(stats)
    stats.add_argument("--diff", metavar="SUMMARY", default=None,
                       help="diff this recorded telemetry summary JSON "
                            "(old) against the current replay (new); "
                            "exits 1 on a regression verdict")
    stats.add_argument("--rel-threshold", type=tolerance,
                       default=DEFAULT_REL_THRESHOLD,
                       help="relative change below which a --diff metric "
                            "counts as unchanged "
                            f"(default {DEFAULT_REL_THRESHOLD})")
    stats.set_defaults(handler=_cmd_stats)

    profile_sites = sub.add_parser(
        "profile-sites",
        help="attribute cost/occupancy/fragmentation per allocation site",
    )
    profile_sites.add_argument("--program", required=True,
                               choices=PROGRAM_ORDER,
                               help="workload to attribute")
    profile_sites.add_argument("--dataset", default="test",
                               help="dataset to attribute (default test)")
    profile_sites.add_argument("--profile", default="arena",
                               choices=list(ATTRIB_PROFILES),
                               help="allocator cost profile (default arena: "
                                    "a predictor decides placement)")
    profile_sites.add_argument("--sites", default=None,
                               help="site database for the arena profile "
                                    "(default: train on the program's "
                                    "train dataset)")
    profile_sites.add_argument("--threshold", type=int, default=None,
                               help="short-lived cutoff in bytes (default: "
                                    "the predictor's, else 32768)")
    profile_sites.add_argument("--top", type=int, default=10,
                               help="sites to list in the table "
                                    "(default 10)")
    profile_sites.add_argument("--json", action="store_true",
                               help="print the attribution document "
                                    "instead of the table")
    profile_sites.add_argument("--out-dir", metavar="DIR",
                               default=str(DEFAULT_TELEMETRY_DIR),
                               help="where to write the JSON/CSV/"
                                    "collapsed-stack artifacts "
                                    f"(default {DEFAULT_TELEMETRY_DIR})")
    _add_store_options(profile_sites)
    _add_stream_option(profile_sites)
    _add_predictor_option(profile_sites)
    profile_sites.set_defaults(handler=_cmd_profile_sites)

    windows = sub.add_parser(
        "windows",
        help="windowed heap time series and per-site lifetime drift",
    )
    windows.add_argument("--program", required=True, choices=PROGRAM_ORDER,
                         help="workload to window")
    windows.add_argument("--dataset", default="test",
                         help="dataset to window (default test)")
    windows.add_argument("--windows", type=int, default=DEFAULT_WINDOWS,
                         metavar="N",
                         help="number of windows to partition the run "
                              f"into (default {DEFAULT_WINDOWS})")
    windows.add_argument("--by", default="bytes",
                         choices=list(WINDOW_AXES),
                         help="window axis: equal byte-time spans or "
                              "equal allocation-event counts "
                              "(default bytes)")
    windows.add_argument("--sites-db", default=None,
                         help="site database scoring the per-window "
                              "short fractions (default: train on the "
                              "program's train dataset)")
    windows.add_argument("--threshold", type=int, default=None,
                         help="short-lived cutoff in bytes (default: "
                              "the predictor's, else 32768)")
    windows.add_argument("--top", type=int, default=10,
                         help="drifting sites to list in the table "
                              "(default 10)")
    windows.add_argument("--json", action="store_true",
                         help="print the windows + drift documents "
                              "instead of the tables")
    windows.add_argument("--out-dir", metavar="DIR",
                         default=str(DEFAULT_TELEMETRY_DIR),
                         help="where to write the windows JSON/CSV and "
                              "drift JSON artifacts "
                              f"(default {DEFAULT_TELEMETRY_DIR})")
    windows.add_argument("--min-windows", type=int,
                         default=DEFAULT_MIN_WINDOWS, metavar="K",
                         help="windows that must contradict before a "
                              "site counts as drifting "
                              f"(default {DEFAULT_MIN_WINDOWS})")
    windows.add_argument("--min-objects", type=int,
                         default=DEFAULT_MIN_OBJECTS, metavar="N",
                         help="objects a window needs for its short "
                              "fraction to count "
                              f"(default {DEFAULT_MIN_OBJECTS})")
    windows.add_argument("--flip-fraction", type=float,
                         default=DEFAULT_FLIP_FRACTION,
                         help="short-fraction boundary a window must "
                              "cross to contradict "
                              f"(default {DEFAULT_FLIP_FRACTION})")
    _add_store_options(windows)
    _add_stream_option(windows)
    windows.set_defaults(handler=_cmd_windows)

    report = sub.add_parser(
        "report",
        help="self-contained HTML run report (windows, drift, "
             "attribution, telemetry, bench)",
    )
    _add_telemetry_options(report)
    report.add_argument("--windows", type=int, default=DEFAULT_WINDOWS,
                        metavar="N",
                        help="windows in the report's time series "
                             f"(default {DEFAULT_WINDOWS})")
    report.add_argument("--by", default="bytes", choices=list(WINDOW_AXES),
                        help="window axis (default bytes)")
    report.add_argument("--threshold", type=int, default=None,
                        help="short-lived cutoff in bytes (default: "
                             "the predictor's, else 32768)")
    report.add_argument("--html", required=True, metavar="PATH",
                        help="where to write the single-file HTML report")
    report.add_argument("--timestamp", default=None, metavar="STAMP",
                        help="explicit generated-at stamp embedded in "
                             "the report (default: current UTC time; "
                             "pass a fixed stamp for byte-identical "
                             "renders)")
    report.add_argument("--bench-dir", default=None, metavar="DIR",
                        help="bench trajectory to chart (default: the "
                             "standard BENCH_<seq>.json directory)")
    report.set_defaults(handler=_cmd_report)

    diff_sessions = sub.add_parser(
        "diff-sessions",
        help="regression verdicts between two recorded sessions",
    )
    diff_sessions.add_argument("old", help="baseline session file "
                                           "(attribution export, telemetry "
                                           "summary, or bench session)")
    diff_sessions.add_argument("new", help="candidate session file "
                                           "(same kind as OLD)")
    diff_sessions.add_argument("--rel-threshold", type=tolerance,
                               default=DEFAULT_REL_THRESHOLD,
                               help="relative change below which a metric "
                                    "counts as unchanged "
                                    f"(default {DEFAULT_REL_THRESHOLD})")
    diff_sessions.add_argument("--json", action="store_true",
                               help="print the diff as JSON instead of "
                                    "the report")
    diff_sessions.set_defaults(handler=_cmd_diff_sessions)

    timeline = sub.add_parser(
        "timeline", help="heap telemetry time series for one workload"
    )
    _add_telemetry_options(timeline)
    timeline.add_argument("--out-dir", metavar="DIR",
                          default=str(DEFAULT_TELEMETRY_DIR),
                          help="where to write the JSONL/CSV/JSON series "
                               f"(default {DEFAULT_TELEMETRY_DIR})")
    timeline.add_argument("--json", action="store_true",
                          help="print the sample rows as one JSON "
                               "document (deterministic key order); "
                               "artifact notices move to stderr")
    timeline.add_argument("--windows", type=int, default=None, metavar="N",
                          help="append the windowed time series over N "
                               "windows (see the windows subcommand)")
    timeline.add_argument("--by", default="bytes",
                          choices=list(WINDOW_AXES),
                          help="window axis for --windows "
                               "(default bytes)")
    timeline.set_defaults(handler=_cmd_timeline)


def _replay_with_telemetry(args: argparse.Namespace) -> Telemetry:
    """Shared body of ``stats`` and ``timeline``: one instrumented replay.

    The trace comes through the same :class:`TraceStore` the tables use
    (so warmed caches are reused); the arena predictor defaults to true
    prediction — trained on the program's ``train`` execution — unless a
    saved site database is supplied.  The replay must run to be observed,
    so it is a fresh :func:`simulate_spec`, never the store's memo.
    """
    store = _make_store(args)
    source = store.source(args.program, args.dataset)
    telemetry = Telemetry(interval=args.interval)
    spec, predictor = PAPER_DEFAULT_SPEC, None
    if args.allocator == "firstfit":
        spec = FIRSTFIT_SPEC
    elif args.allocator == "bsd":
        spec = BSD_SPEC
    elif args.sites:
        predictor = load_predictor(args.sites)
    else:
        predictor = store.predictor(args.program)
    simulate_spec(source, spec, predictor, telemetry=telemetry)
    if not telemetry.samples:
        raise ValueError(
            f"telemetry recorded zero samples for "
            f"{args.program}/{args.dataset} — empty trace?"
        )
    return telemetry


def _cmd_stats(args: argparse.Namespace) -> int:
    telemetry = _replay_with_telemetry(args)
    summary = telemetry_summary(telemetry, top=args.top)
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        print(render_stats(telemetry, top=args.top))
    exit_code = 0
    if args.diff:
        result = diff_documents(
            load_session_doc(args.diff), summary,
            rel_threshold=args.rel_threshold,
        )
        print(render_diff_report(result))
        exit_code = 1 if result.regressed else 0
    if args.stream:
        _report_peak_rss()
    return exit_code


def _cmd_profile_sites(args: argparse.Namespace) -> int:
    store = _make_store(args)
    source = store.source(args.program, args.dataset)
    predictor = None
    if args.profile == "arena":
        predictor = (
            load_predictor(args.sites) if args.sites
            else store.predictor(args.program)
        )
    profile = attribute_sites(
        source,
        profile=args.profile,
        predictor=predictor,
        threshold=args.threshold,
    )
    if args.json:
        print(json.dumps(profile.to_dict(), indent=2, sort_keys=True))
    else:
        print(render_attrib(profile, top=args.top))
    # Artifact notices go to stderr so stdout stays byte-identical
    # across the materialized and --stream replay modes (gated in CI
    # and tests/test_stream_parity.py).
    paths = export_attribution(profile, Path(args.out_dir))
    for kind in sorted(paths):
        print(f"attribution {kind}: {paths[kind]}", file=sys.stderr)
    if args.stream:
        _report_peak_rss()
    return 0


def _window_basename(profile) -> str:
    """The artifact basename the windows/drift exports share."""
    raw = (
        f"{profile.program}-{profile.dataset}"
        f"-w{profile.spec.count}{profile.spec.axis[0]}"
    )
    return "".join(
        ch if ch.isalnum() or ch in "-._" else "_" for ch in raw
    )


def _cmd_windows(args: argparse.Namespace) -> int:
    store = _make_store(args)
    source = store.source(args.program, args.dataset)
    predictor = (
        load_predictor(args.sites_db) if args.sites_db
        else store.predictor(args.program)
    )
    profile = window_profile(
        source,
        windows=args.windows,
        by=args.by,
        predictor=predictor,
        threshold=args.threshold,
    )
    drift = drift_report(
        profile,
        min_windows=args.min_windows,
        min_objects=args.min_objects,
        flip_fraction=args.flip_fraction,
    )
    if args.json:
        print(json.dumps({"windows": profile.to_dict(), "drift": drift},
                         indent=2, sort_keys=True))
    else:
        print(render_windows(profile))
        print()
        print(render_drift(drift, top=args.top))
    # Artifact notices go to stderr so stdout stays byte-identical
    # across the materialized and --stream replay modes (gated in CI
    # and tests/test_stream_parity.py).
    out_dir = Path(args.out_dir)
    basename = _window_basename(profile)
    paths = export_windows(profile, out_dir, basename=basename)
    paths["drift"] = write_drift_json(
        drift, out_dir / f"{basename}.drift.json"
    )
    for kind in sorted(paths):
        print(f"windows {kind}: {paths[kind]}", file=sys.stderr)
    if args.stream:
        _report_peak_rss()
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    store = _make_store(args)
    predictor = (
        load_predictor(args.sites) if args.sites
        else store.predictor(args.program)
    )
    profile = window_profile(
        store.source(args.program, args.dataset),
        windows=args.windows,
        by=args.by,
        predictor=predictor,
        threshold=args.threshold,
    )
    drift = drift_report(profile)
    attrib = attribute_sites(
        store.source(args.program, args.dataset),
        profile="arena",
        predictor=predictor,
        threshold=args.threshold,
    )
    telemetry = _replay_with_telemetry(args)
    history = BenchStore(args.bench_dir).history()
    # The one wall-clock read in the report path lives here in the CLI,
    # outside the lint's deterministic scope — pass --timestamp for
    # byte-identical renders.
    stamp = (
        args.timestamp if args.timestamp is not None
        else datetime.now(timezone.utc).isoformat(timespec="seconds")
    )
    path = write_report(
        Path(args.html),
        profile.to_dict(),
        drift_doc=drift,
        attribution_doc=attrib.summary_dict(top=10),
        telemetry_doc=telemetry_summary(telemetry),
        bench_history=history or None,
        generated_at=stamp,
    )
    print(f"report -> {path}")
    return 0


def _cmd_diff_sessions(args: argparse.Namespace) -> int:
    result = diff_paths(args.old, args.new,
                        rel_threshold=args.rel_threshold)
    if args.json:
        print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
    else:
        print(render_diff_report(result))
    return 1 if result.regressed else 0


def _cmd_timeline(args: argparse.Namespace) -> int:
    telemetry = _replay_with_telemetry(args)
    win_profile = None
    if args.windows:
        store = _make_store(args)
        predictor = (
            load_predictor(args.sites) if args.sites
            else store.predictor(args.program)
        )
        win_profile = window_profile(
            store.source(args.program, args.dataset),
            windows=args.windows,
            by=args.by,
            predictor=predictor,
        )
    if args.json:
        doc = {
            "kind": "timeline",
            "program": telemetry.program,
            "dataset": telemetry.dataset,
            "allocator": telemetry.allocator_name,
            "interval": telemetry.interval,
            "sample_count": len(telemetry.samples),
            "totals": telemetry.totals(),
            "samples": telemetry.samples,
        }
        if win_profile is not None:
            doc["windows"] = win_profile.to_dict()
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(render_timeline(telemetry))
        if win_profile is not None:
            print()
            print(render_windows(win_profile))
    paths = export_timeline(telemetry, Path(args.out_dir))
    # With --json stdout is the document; the artifact notices move to
    # stderr so the output stays machine-readable.
    notice_stream = sys.stderr if args.json else sys.stdout
    for kind in sorted(paths):
        print(f"{kind:<8} -> {paths[kind]}", file=notice_stream)
    return 0
