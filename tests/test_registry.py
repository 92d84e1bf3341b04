"""The workload registry, and the modules a replay process imports."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.workloads.base import WorkloadError
from repro.workloads.registry import PROGRAM_ORDER, WORKLOADS, get_workload

#: Imports what the pipeline benchmark's child imports, then asks the
#: registry for one program; prints the workload and process-pool
#: modules loaded before and after.
_PROBE = """
import json, sys
import repro.analysis, repro.analysis.report, repro.analysis.tables
import repro.search.service, repro.runtime.tracefile

def loaded():
    return sorted(m for m in sys.modules
                  if m.startswith(("repro.workloads", "concurrent.futures")))

before = loaded()
from repro.workloads.registry import get_workload
get_workload("cfrac")
print(json.dumps([before, loaded()]))
"""


def test_each_class_is_registered_under_its_name():
    assert sorted(WORKLOADS) == sorted(PROGRAM_ORDER)
    for name in PROGRAM_ORDER:
        assert WORKLOADS[name].name == name
        assert get_workload(name) is WORKLOADS[name]


def test_unknown_name_lists_the_programs():
    with pytest.raises(WorkloadError) as info:
        get_workload("bogus")
    assert str(info.value) == (
        "unknown workload 'bogus' (have ['cfrac', 'espresso', 'gawk', "
        "'ghost', 'perl'])"
    )


def test_a_process_imports_only_the_programs_it_runs():
    src = str(Path(repro.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-c", _PROBE], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src}, check=True,
    )
    before, after = json.loads(result.stdout)
    assert before == [
        "repro.workloads", "repro.workloads.base", "repro.workloads.registry",
    ]
    assert "repro.workloads.cfrac" in after
    assert not [m for m in after
                if m.startswith(("repro.workloads.espresso",
                                 "concurrent.futures"))]
