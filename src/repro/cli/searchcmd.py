"""Search command family: ``search run/show/best``.

``search`` explores the allocator design space declared by a
:class:`~repro.search.space.SearchSpace` — grid enumeration or the
seeded evolutionary driver — scoring every candidate spec against the
paper-default arena baseline and recording the ranked session under
``results/search/SEARCH_<seq>.json`` (see :mod:`repro.search`).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.cli._options import (
    _add_store_options,
    _add_stream_option,
    _make_store,
)
from repro.search import (
    DEFAULT_GENERATIONS,
    DEFAULT_OBJECTIVE,
    DEFAULT_POPULATION,
    DEFAULT_SPACE,
    SEARCH_MODES,
    Objective,
    SearchSpace,
    SearchStore,
    render_best,
    render_session,
    run_search,
)
from repro.workloads.registry import PROGRAM_ORDER

__all__ = ["register"]


def _add_search_dir_option(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--search-dir", default=None, metavar="DIR",
                     help="search-session directory (default "
                          "$REPRO_SEARCH_DIR or results/search)")


def register(sub) -> None:
    search = sub.add_parser(
        "search",
        help="design-space search over allocator specs (grid or evolve)",
    )
    search_sub = search.add_subparsers(required=True, metavar="action")

    run = search_sub.add_parser(
        "run", help="evaluate a design space into SEARCH_<seq>.json"
    )
    run.add_argument("--program", required=True, choices=PROGRAM_ORDER,
                     help="workload to search on")
    run.add_argument("--dataset", default="test",
                     help="dataset to evaluate on (default test)")
    run.add_argument("--mode", choices=list(SEARCH_MODES), default="grid",
                     help="candidate generation: enumerate the full grid "
                          "or evolve within it (default grid)")
    run.add_argument("--seed", type=int, default=0,
                     help="evolution RNG seed; grid mode records but "
                          "ignores it (default 0)")
    run.add_argument("--generations", type=int, default=DEFAULT_GENERATIONS,
                     help="evolution generations "
                          f"(default {DEFAULT_GENERATIONS})")
    run.add_argument("--population", type=int, default=DEFAULT_POPULATION,
                     help="evolution population size "
                          f"(default {DEFAULT_POPULATION})")
    run.add_argument("--space", metavar="PATH", default=None,
                     help="JSON search-space file (default: the stock "
                          "arena geometry/threshold grid)")
    run.add_argument("--w-instr", type=float,
                     default=DEFAULT_OBJECTIVE.instructions, metavar="W",
                     help="objective weight on the instruction ratio "
                          f"(default {DEFAULT_OBJECTIVE.instructions})")
    run.add_argument("--w-heap", type=float,
                     default=DEFAULT_OBJECTIVE.max_heap, metavar="W",
                     help="objective weight on the max-heap ratio "
                          f"(default {DEFAULT_OBJECTIVE.max_heap})")
    run.add_argument("--w-frag", type=float,
                     default=DEFAULT_OBJECTIVE.fragmentation, metavar="W",
                     help="objective weight on the fragmentation ratio "
                          f"(default {DEFAULT_OBJECTIVE.fragmentation})")
    run.add_argument("--top", type=int, default=10, metavar="N",
                     help="ranked candidates to print; 0 for all "
                          "(default 10)")
    run.add_argument("--json", action="store_true",
                     help="print the full session document instead of "
                          "the ranked table")
    _add_search_dir_option(run)
    _add_store_options(run)
    _add_stream_option(run)
    run.set_defaults(handler=_cmd_search_run)

    show = search_sub.add_parser(
        "show", help="print a recorded search session"
    )
    show.add_argument("ref", nargs="?", default="latest",
                      help="session: seq number, path, 'prev', or "
                           "'latest' (default)")
    show.add_argument("--top", type=int, default=10, metavar="N",
                      help="ranked candidates to print; 0 for all "
                           "(default 10)")
    show.add_argument("--json", action="store_true",
                      help="print the session document as JSON")
    _add_search_dir_option(show)
    show.set_defaults(handler=_cmd_search_show)

    best = search_sub.add_parser(
        "best", help="print a session's winning spec; optionally gate on "
                     "it beating the paper default"
    )
    best.add_argument("ref", nargs="?", default="latest",
                      help="session: seq number, path, 'prev', or "
                           "'latest' (default)")
    best.add_argument("--json", action="store_true",
                      help="print the winning candidate as JSON")
    best.add_argument("--require-improvement", action="store_true",
                      help="exit 1 unless the winner scores below 1.0 "
                           "(strictly beats the paper-default arena "
                           "spec on the combined objective)")
    _add_search_dir_option(best)
    best.set_defaults(handler=_cmd_search_best)


def _cmd_search_run(args: argparse.Namespace) -> int:
    if args.space is not None:
        space = SearchSpace.from_json(
            Path(args.space).read_text(encoding="utf-8")
        )
    else:
        space = DEFAULT_SPACE
    objective = Objective(
        instructions=args.w_instr,
        max_heap=args.w_heap,
        fragmentation=args.w_frag,
    )
    store = _make_store(args)
    search_store = SearchStore(args.search_dir)
    session = run_search(
        store,
        args.program,
        space=space,
        objective=objective,
        mode=args.mode,
        seed=args.seed,
        generations=args.generations,
        population=args.population,
        dataset=args.dataset,
        seq=search_store.next_seq(),
    )
    path = search_store.write(session)
    if args.json:
        print(json.dumps(session.to_dict(), indent=2, sort_keys=True))
    else:
        print(render_session(
            session, top=None if args.top == 0 else args.top
        ))
    print(
        f"search session {session.seq:04d} "
        f"({len(session.results)} candidates) -> {path}",
        file=sys.stderr,
    )
    return 0


def _cmd_search_show(args: argparse.Namespace) -> int:
    session = SearchStore(args.search_dir).load(args.ref)
    if args.json:
        print(json.dumps(session.to_dict(), indent=2, sort_keys=True))
        return 0
    print(render_session(session, top=None if args.top == 0 else args.top))
    return 0


def _cmd_search_best(args: argparse.Namespace) -> int:
    session = SearchStore(args.search_dir).load(args.ref)
    best = session.best
    if args.json:
        print(json.dumps(best, indent=2, sort_keys=True))
    else:
        print(render_best(session))
    if args.require_improvement:
        return 0 if (best is not None and best["score"] < 1.0) else 1
    return 0
