#!/usr/bin/env python
"""Prove the streaming replay's O(live objects) memory claim under ulimit.

The CI streaming job runs this script.  It manufactures one large cfrac
trace, measures the address-space peak of two child processes — one
replaying the v3 file through :func:`repro.runtime.tracefile.
open_trace_stream`, one materializing with :func:`load_trace` first —
and then derives a hard ``RLIMIT_AS`` cap halfway between the two peaks.
Under that cap the streamed replay must succeed and the materialized
replay must die: the cap is sized below the materialized footprint, so
only a replay that never holds the whole trace can fit.

The cap is self-calibrated rather than hard-coded because the
interpreter's baseline address space varies across Python builds; the
``--margin-kb`` floor on the streaming/materialized separation is what
keeps the proof honest (if the two peaks ever converge, the run fails
loudly instead of testing nothing).

``RLIMIT_AS`` bounds *virtual* address space, so the children report
``VmPeak`` from ``/proc/self/status`` (the quantity the limit acts on)
alongside ``ru_maxrss`` for the metrics artifact.  Linux-only; elsewhere
the script exits 0 with a notice so local runs on other platforms do not
fail spuriously.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

#: Minimum required separation between the streaming and materialized
#: address-space peaks.  Well under the ~40 MB a scale-20 cfrac trace's
#: arrays cost, well over measurement noise.
DEFAULT_MARGIN_KB = 8 * 1024

DEFAULT_SCALE = 20.0

#: Chunk size for the smoke trace.  Smaller than the writer's default so
#: one decoded chunk stays far below the midpoint cap — the proof should
#: bound the *model*, not be won or lost on one chunk-size constant.
SMOKE_CHUNK_EVENTS = 8192


def vm_peak_kb() -> int:
    """This process's peak virtual size in KB, from /proc/self/status."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmPeak:"):
                return int(line.split()[1])
    raise RuntimeError("no VmPeak in /proc/self/status")


def child(mode: str, trace_path: str, limit_bytes: int) -> int:
    """Replay ``trace_path`` (streamed or materialized) and report peaks."""
    import resource

    if limit_bytes:
        resource.setrlimit(resource.RLIMIT_AS, (limit_bytes, limit_bytes))

    from repro.alloc.spec import FIRSTFIT_SPEC
    from repro.analysis.simulate import simulate_spec
    from repro.obs.metrics import peak_rss_kb
    from repro.runtime.tracefile import load_trace, open_trace_stream

    if mode == "stream":
        source = open_trace_stream(trace_path)
        simulate_spec(source, FIRSTFIT_SPEC)
    else:
        simulate_spec(load_trace(trace_path), FIRSTFIT_SPEC)
    print(json.dumps(
        {"vm_peak_kb": vm_peak_kb(), "peak_rss_kb": peak_rss_kb()}
    ))
    return 0


def run_child(mode: str, trace_path: Path, limit_bytes: int = 0):
    """Run one measured replay child; returns (exit code, peaks or None)."""
    proc = subprocess.run(
        [sys.executable, __file__, "--child", mode,
         "--trace", str(trace_path), "--limit-bytes", str(limit_bytes)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    peaks = None
    if proc.returncode == 0:
        peaks = json.loads(proc.stdout.strip().splitlines()[-1])
    return proc.returncode, peaks, proc.stderr


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--program", default="cfrac")
    parser.add_argument("--dataset", default="test")
    parser.add_argument("--scale", type=float, default=DEFAULT_SCALE)
    parser.add_argument("--margin-kb", type=int, default=DEFAULT_MARGIN_KB,
                        help="required streaming/materialized VmPeak "
                             f"separation (default {DEFAULT_MARGIN_KB})")
    parser.add_argument("--artifact", default=None, metavar="PATH",
                        help="write the measured peaks here as JSON")
    # Internal: re-exec modes for the measured children.
    parser.add_argument("--child", choices=["stream", "load"],
                        default=None)
    parser.add_argument("--trace", default=None)
    parser.add_argument("--limit-bytes", type=int, default=0)
    args = parser.parse_args()

    if args.child:
        return child(args.child, args.trace, args.limit_bytes)

    if not sys.platform.startswith("linux"):
        print("streaming smoke: requires /proc and RLIMIT_AS; skipping "
              f"on {sys.platform}")
        return 0

    from repro.runtime.stream.protocol import TraceEventSource
    from repro.runtime.stream.v3 import write_trace_v3
    from repro.workloads.registry import run_workload

    with tempfile.TemporaryDirectory(prefix="streaming-smoke-") as tmp:
        trace_path = Path(tmp) / "smoke.rtr3"
        print(f"tracing {args.program}/{args.dataset} at scale "
              f"{args.scale:g} ...")
        trace = run_workload(args.program, args.dataset, scale=args.scale)
        write_trace_v3(TraceEventSource(trace), trace_path,
                       chunk_events=SMOKE_CHUNK_EVENTS)
        size_kb = trace_path.stat().st_size // 1024
        print(f"  {trace.total_objects} objects, {trace.event_count} "
              f"events -> {trace_path.name} ({size_kb} KB)")

        # Calibration: both replays' uncapped address-space peaks.
        code, stream_peaks, err = run_child("stream", trace_path)
        if code != 0:
            print(f"streaming replay failed uncapped:\n{err}")
            return 1
        code, load_peaks, err = run_child("load", trace_path)
        if code != 0:
            print(f"materialized replay failed uncapped:\n{err}")
            return 1
        stream_vm = stream_peaks["vm_peak_kb"]
        load_vm = load_peaks["vm_peak_kb"]
        delta = load_vm - stream_vm
        print(f"  VmPeak streaming {stream_vm} KB, materialized {load_vm} "
              f"KB (delta {delta} KB)")
        if delta < args.margin_kb:
            print(f"FAIL: separation {delta} KB < required "
                  f"{args.margin_kb} KB — the streamed path is not "
                  f"meaningfully smaller than materializing")
            return 1

        # The proof: a cap halfway between the peaks admits exactly the
        # streamed replay, not the materialized one.
        cap_kb = stream_vm + delta // 2
        print(f"  capping RLIMIT_AS at {cap_kb} KB (midpoint)")
        stream_code, capped_peaks, err = run_child(
            "stream", trace_path, cap_kb * 1024
        )
        if stream_code != 0:
            print(f"FAIL: streaming replay died under the cap:\n{err}")
            return 1
        load_code, _, _ = run_child("load", trace_path, cap_kb * 1024)
        if load_code == 0:
            print("FAIL: materialized replay fit under a cap sized below "
                  "its own measured footprint")
            return 1
        print(f"  under cap: streaming OK "
              f"(VmPeak {capped_peaks['vm_peak_kb']} KB), "
              f"materialized load died as expected (exit {load_code})")

        if args.artifact:
            artifact = {
                "program": args.program,
                "dataset": args.dataset,
                "scale": args.scale,
                "trace_file_kb": size_kb,
                "total_objects": trace.total_objects,
                "event_count": trace.event_count,
                "stream_vm_peak_kb": stream_vm,
                "stream_peak_rss_kb": stream_peaks["peak_rss_kb"],
                "load_vm_peak_kb": load_vm,
                "load_peak_rss_kb": load_peaks["peak_rss_kb"],
                "separation_kb": delta,
                "rlimit_as_cap_kb": cap_kb,
                "capped_stream_vm_peak_kb": capped_peaks["vm_peak_kb"],
                "capped_load_exit_code": load_code,
            }
            out = Path(args.artifact)
            if out.parent != Path(""):
                out.parent.mkdir(parents=True, exist_ok=True)
            out.write_text(json.dumps(artifact, indent=2, sort_keys=True)
                           + "\n", encoding="utf-8")
            print(f"  metrics -> {out}")

    print("streaming smoke: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
