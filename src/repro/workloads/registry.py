"""Workload registry: the five programs by name.

The analysis drivers, CLI, benchmarks, and examples all reach workloads
through this table so that "run cfrac's train input" is one call.  A
program's package is imported when the table is first asked for it, so
a process that replays cached traces never loads the five interpreters.
"""

from __future__ import annotations

from collections.abc import Mapping
from importlib import import_module
from typing import Dict, Iterator, List, Type

from repro.runtime.events import Trace
from repro.workloads.base import Workload, WorkloadError

__all__ = ["WORKLOADS", "PROGRAM_ORDER", "get_workload", "run_workload"]

#: The paper's program order, used by every table.
PROGRAM_ORDER: List[str] = ["cfrac", "espresso", "gawk", "ghost", "perl"]


class _Registry(Mapping):
    """Workload classes by name, each imported on its first lookup."""

    def __init__(self, paths: Dict[str, str]):
        #: ``name -> "module:class"``.
        self._paths = paths
        self._loaded: Dict[str, Type[Workload]] = {}

    def __getitem__(self, name: str) -> Type[Workload]:
        if name not in self._loaded:
            module, attr = self._paths[name].split(":")
            self._loaded[name] = getattr(import_module(module), attr)
        return self._loaded[name]

    def __iter__(self) -> Iterator[str]:
        return iter(self._paths)

    def __len__(self) -> int:
        return len(self._paths)


WORKLOADS: Mapping[str, Type[Workload]] = _Registry({
    "cfrac": "repro.workloads.cfrac:CfracWorkload",
    "espresso": "repro.workloads.espresso:EspressoWorkload",
    "gawk": "repro.workloads.gawk:GawkWorkload",
    "ghost": "repro.workloads.ghost:GhostWorkload",
    "perl": "repro.workloads.perl:PerlWorkload",
})


def get_workload(name: str) -> Type[Workload]:
    """The workload class registered under ``name``."""
    try:
        return WORKLOADS[name]
    except KeyError:
        raise WorkloadError(
            f"unknown workload {name!r} (have {sorted(WORKLOADS)})"
        ) from None


def run_workload(name: str, dataset: str = "train", scale: float = 1.0) -> Trace:
    """Run one workload on one dataset and return its trace."""
    return get_workload(name).trace(dataset, scale=scale)
