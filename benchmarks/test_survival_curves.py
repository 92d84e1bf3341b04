"""Extension: byte survival curves (the generational hypothesis, plotted).

The paper states the generational hypothesis in a sentence ("most objects
die young", §4) and samples it at quartiles (Table 3) and one threshold
(Table 4).  This experiment renders the whole survival function per
program and checks its canonical shape: monotone decreasing, a cliff
before 32 KB, and a thin tail that persists to program exit.
"""

from __future__ import annotations

from repro.analysis.survival import survival_curve
from repro.core.predictor import DEFAULT_THRESHOLD, actual_short_lived_bytes

from conftest import write_result


def test_survival_curves(store, results_dir):
    curves = {
        program: survival_curve(store.trace(program))
        for program in store.programs
    }

    text = "\n\n".join(curve.render() for curve in curves.values())
    write_result(results_dir, "survival_curves.txt", text)

    for program, curve in curves.items():
        # Survival is monotone decreasing from 1.0.
        assert curve.surviving[0] <= 1.0, (
            f"§4: {program}'s survival starts at most at 1"
        )
        for earlier, later in zip(curve.surviving, curve.surviving[1:]):
            assert later <= earlier + 1e-12, (
                f"§4: {program}'s survival never rises with age"
            )

        # The generational cliff: at most a quarter of bytes outlive 64 KB
        # (ghost's framebuffer keeps its tail the fattest).
        assert curve.fraction_surviving(64 * 1024) < 0.30, (
            f"§4: under 30% of {program}'s bytes outlive 64 KB"
        )

        # A thin but real tail: something survives to (nearly) the end.
        assert curve.surviving[-1] < 0.25, (
            f"§4: under 25% of {program}'s bytes survive to the oldest age"
        )

        # Consistency with Table 4's Actual column, sampled exactly at the
        # threshold (the default age grid brackets but does not hit 32 KB).
        trace = store.trace(program)
        actual = actual_short_lived_bytes(trace, DEFAULT_THRESHOLD)
        at_threshold = survival_curve(trace, ages=[DEFAULT_THRESHOLD])
        survived = at_threshold.surviving[0]
        assert abs((1 - survived) - actual / trace.total_bytes) < 1e-9, (
            f"§4, Table 4: {program}'s survival at the threshold matches "
            "its Actual column"
        )

    # Half-lives: gawk/perl die within a few hundred bytes; ghost's
    # 6 KB buffers push its half-life up - the ordering of Table 3.
    assert curves["gawk"].half_life() < curves["ghost"].half_life(), (
        "§4, Table 3: gawk's half-life is shorter than ghost's"
    )
    assert curves["perl"].half_life() < curves["ghost"].half_life(), (
        "§4, Table 3: perl's half-life is shorter than ghost's"
    )
