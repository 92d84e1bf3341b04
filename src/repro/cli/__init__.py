"""Command-line interface.

Mirrors the paper's workflow as subcommands::

    repro-alloc trace gawk train -o gawk-train.rtr3
    repro-alloc convert gawk-train.json.gz gawk-train.rtr3
    repro-alloc profile gawk-train.rtr3 -o gawk.sites
    repro-alloc predict gawk.sites gawk-test.rtr3
    repro-alloc simulate gawk-test.rtr3 --sites gawk.sites --stream
    repro-alloc quantiles gawk-test.rtr3
    repro-alloc sites gawk-test.json.gz --top 10
    repro-alloc warm --jobs 4
    repro-alloc table all
    repro-alloc stats --program gawk
    repro-alloc stats --program gawk --json --diff old-summary.json
    repro-alloc timeline --program gawk --allocator arena
    repro-alloc profile-sites --program gawk --stream
    repro-alloc windows --program gawk --windows 16 --by bytes --json
    repro-alloc report --program gawk --html gawk-report.html
    repro-alloc diff-sessions old.attrib.json new.attrib.json
    repro-alloc bench run --scale 0.05
    repro-alloc bench compare
    repro-alloc bench history --json
    repro-alloc lint --format sarif -o alloclint.sarif
    repro-alloc audit-sites --scale 0.05
    repro-alloc predict-static gawk -o gawk-static.json
    repro-alloc simulate gawk-test.rtr3 --allocator arena --predictor static
    repro-alloc escape-eval --scale 0.05 --json
    repro-alloc search run --program cfrac --scale 0.05
    repro-alloc search show --top 5
    repro-alloc search best --require-improvement

``trace`` runs a workload and stores its allocation trace; ``convert``
rewrites a trace between the v2 (monolithic JSON) and v3 (chunked,
streamable) formats; ``profile`` trains a short-lived site database from
a trace; ``predict`` scores a database against a trace (Table 4's
columns); ``simulate`` replays a trace against an allocator (with
``--stream``, through the constant-memory event pipeline — ``table`` and
``stats`` take the same flag); ``warm`` populates the persistent trace
cache (optionally in parallel); ``table`` regenerates the paper's
tables; ``stats`` and ``timeline`` replay one workload with the
telemetry recorder attached and report per-site mispredictions or the
heap time series (see :mod:`repro.obs`); ``profile-sites`` attributes
simulated instruction cost, heap occupancy, fragmentation, and
misprediction penalties per allocation site and exports JSON/CSV plus a
flamegraph-ready collapsed-stack view (see :mod:`repro.obs.attrib`);
``windows`` partitions a run into N windows along the byte-time or
event axis and reports per-window heap series plus per-site lifetime
drift (see :mod:`repro.obs.windows` and :mod:`repro.obs.drift`);
``report`` renders the self-contained HTML run report (see
:mod:`repro.obs.html`); ``diff-sessions`` compares two recorded
sessions (attribution exports, telemetry summaries, drift reports, or
bench sessions) and exits nonzero on a per-site regression — ``stats --diff OTHER`` does the same inline (see
:mod:`repro.obs.diff`); ``bench`` runs the benchmark
suite into the ``BENCH_<seq>.json`` trajectory and gates regressions
(see :mod:`repro.bench`); ``lint`` runs the alloclint contract rules
and ``audit-sites`` diffs static allocation sites against the trace
store or a saved site database (see :mod:`repro.static` and DESIGN.md
§9) — both use exit codes 0/1/2 for clean/findings/error so CI can
gate on them; ``predict-static`` runs the profile-free escape analysis
and emits a static predictor database, ``--predictor static`` swaps it
for the trained database on ``simulate``/``table``/``profile-sites``/
``bench run``, and ``escape-eval`` scores static vs trained vs oracle
over every workload (see :mod:`repro.static.escape` and DESIGN.md
§14); ``search`` explores the allocator design space — grid or seeded
evolution over declarative :class:`~repro.alloc.spec.AllocatorSpec`
candidates — scoring each against the paper-default arena baseline and
recording ranked, provenance-stamped sessions under
``results/search/`` (see :mod:`repro.search` and DESIGN.md §15).

The global ``--spans-out`` / ``--spans-folded`` flags record a span
trace of any subcommand (Chrome trace-event JSON for Perfetto, or a
folded-stack text view); with them absent, tracing is off and stdout is
byte-identical to an uninstrumented run.

The implementation is a package with one module per command family
(:mod:`repro.cli.traces`, :mod:`repro.cli.predictors`,
:mod:`repro.cli.replay`, :mod:`repro.cli.tables`,
:mod:`repro.cli.observe`, :mod:`repro.cli.benchmarks`,
:mod:`repro.cli.staticcheck`, :mod:`repro.cli.searchcmd`), sharing the
argparse option groups in :mod:`repro.cli._options`.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro.alloc.base import AllocatorError
from repro.cli import benchmarks as _benchmarks
from repro.cli import observe as _observe
from repro.cli import predictors as _predictors
from repro.cli import replay as _replay
from repro.cli import searchcmd as _searchcmd
from repro.cli import staticcheck as _staticcheck
from repro.cli import tables as _tables
from repro.cli import traces as _traces
from repro.obs import render_folded
from repro.obs.spans import TRACER, write_chrome_trace
from repro.runtime.heap import HeapError
from repro.runtime.tracefile import TraceFormatError

__all__ = ["main"]


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    tracing = bool(args.spans_out or args.spans_folded)
    if tracing:
        TRACER.enable()
    try:
        # The root span turns every export into a correctly nested tree:
        # cli.<command> encloses cache loads, workload runs, training,
        # replays, and table rendering.  Disabled, it is a no-op object.
        with TRACER.span(f"cli.{args.command}", cat="cli"):
            return args.handler(args)
    except (OSError, ValueError, TraceFormatError, AllocatorError,
            HeapError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if tracing:
            _export_spans(args.spans_out, args.spans_folded)
            # Leave the process-wide tracer the way we found it, so a
            # library caller invoking main() twice gets fresh traces.
            TRACER.disable()
            TRACER.reset()


def _export_spans(spans_out: Optional[str],
                  spans_folded: Optional[str]) -> None:
    """Write the recorded span trace; notices go to stderr only."""
    if spans_out:
        path = write_chrome_trace(TRACER, spans_out)
        print(f"spans: {path}", file=sys.stderr)
    if spans_folded:
        path = Path(spans_folded)
        if path.parent != Path(""):
            path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(render_folded(TRACER) + "\n", encoding="utf-8")
        print(f"spans (folded): {path}", file=sys.stderr)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-alloc",
        description="Lifetime-predicting allocation (Barrett & Zorn, PLDI'93)",
    )
    parser.add_argument(
        "--spans-out", metavar="PATH", default=None,
        help="record a span trace of this invocation and write it as "
             "Chrome trace-event JSON (open in Perfetto)")
    parser.add_argument(
        "--spans-folded", metavar="PATH", default=None,
        help="also/instead write the span trace as folded stacks "
             "(flamegraph.pl / speedscope input)")
    sub = parser.add_subparsers(required=True, metavar="command",
                                dest="command")

    # Registration order is the order `repro-alloc --help` lists the
    # commands in; it interleaves the families on purpose to keep the
    # listing stable across the package split.
    _traces.register_trace(sub)
    _predictors.register(sub)
    _replay.register_simulate(sub)
    _traces.register_inspect(sub)
    _tables.register(sub)
    _replay.register_escape_eval(sub)
    _observe.register(sub)
    _benchmarks.register(sub)
    _staticcheck.register(sub)
    _searchcmd.register(sub)

    return parser


if __name__ == "__main__":  # pragma: no cover - exercised via repro-alloc
    sys.exit(main())
