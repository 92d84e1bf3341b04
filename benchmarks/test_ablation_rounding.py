"""Ablation: size rounding for cross-run site mapping (§4).

The paper: "By rounding the object size to a multiple of four bytes, we
found the corresponding sites were more likely to map correctly.  Rounding
to a larger multiple of two reduced the mapping effectiveness because too
much size information was eliminated."  This sweep regenerates true
prediction at roundings 1..32 for every program.
"""

from __future__ import annotations

from conftest import write_result

ROUNDINGS = [1, 2, 4, 8, 16, 32]


def test_rounding_sweep(store, results_dir):
    sweep = {}
    for program in store.programs:
        row = []
        for rounding in ROUNDINGS:
            result = store.evaluate(
                program, store.predictor(program, size_rounding=rounding)
            )
            row.append((result.predicted_pct, result.error_pct))
        sweep[program] = row

    lines = ["True-predicted short-lived bytes (%) vs size rounding"]
    lines.append("  program   " + "".join(f"{r:>8d}" for r in ROUNDINGS))
    for program, row in sweep.items():
        lines.append(
            f"  {program:10s}" + "".join(f"{p:8.1f}" for p, _ in row)
        )
    lines.append("True-prediction error bytes (%) vs size rounding")
    for program, row in sweep.items():
        lines.append(
            f"  {program:10s}" + "".join(f"{e:8.2f}" for _, e in row)
        )
    write_result(results_dir, "ablation_rounding.txt", "\n".join(lines))

    index4 = ROUNDINGS.index(4)
    for program, row in sweep.items():
        predicted = [p for p, _ in row]
        # Rounding to 4 never hurts relative to exact sizes (it merges
        # sites that are behaviourally identical).
        assert predicted[index4] >= predicted[0] - 1.0, (
            f"§4: rounding {program}'s sizes to 4 loses at most 1 point of "
            "prediction"
        )
        # Errors stay small at the paper's chosen rounding.
        assert row[index4][1] < 5.0, (
            f"§4: rounding {program}'s sizes to 4 errs on under 5% of bytes"
        )

    # The paper's motivation for rounding: exact sizes fail to map some
    # sites between runs, so rounding to 4 gains accuracy for at least
    # one program.  (The paper also saw *coarser* rounding lose accuracy;
    # at this reproduction's site diversity that loss does not manifest —
    # see EXPERIMENTS.md.)
    gainers = sum(
        1 for row in sweep.values() if row[index4][0] > row[0][0] + 0.5
    )
    assert gainers >= 1, (
        "§4: rounding sizes to 4 gains prediction for at least one program"
    )
