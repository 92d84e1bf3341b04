"""Ablation: the short-lived threshold (§4.1).

The paper fixes "short-lived" at 32 KB after noting the trade-off: a
larger threshold predicts more objects as short-lived (degenerating, at
the maximum lifetime, to predicting everything) but needs a larger arena
area; a smaller one shrinks the arena but captures less.  This sweep
regenerates that trade-off curve for every program.
"""

from __future__ import annotations

from conftest import write_result

THRESHOLDS = [4 * 1024, 8 * 1024, 16 * 1024, 32 * 1024, 64 * 1024, 128 * 1024]


def test_threshold_sweep(store, results_dir):
    sweep = {
        program: [
            store.evaluate(
                program, store.self_predictor(program, threshold=threshold)
            ).predicted_pct
            for threshold in THRESHOLDS
        ]
        for program in store.programs
    }

    lines = ["Self-predicted short-lived bytes (%) vs threshold"]
    header = "  program   " + "".join(f"{t // 1024:>7d}K" for t in THRESHOLDS)
    lines.append(header)
    for program, row in sweep.items():
        lines.append(
            f"  {program:10s}" + "".join(f"{v:8.1f}" for v in row)
        )
    write_result(results_dir, "ablation_threshold.txt", "\n".join(lines))

    for program, row in sweep.items():
        # Monotone: a looser threshold never predicts fewer bytes (the
        # paper's degenerate-case argument).
        for smaller, larger in zip(row, row[1:]):
            assert larger >= smaller - 1e-9, (
                f"§4.1: a looser threshold never predicts fewer of "
                f"{program}'s bytes"
            )
        # The curve genuinely moves across the sweep for at least the
        # programs with mid-range lifetimes.
    moved = sum(1 for row in sweep.values() if row[-1] - row[0] > 1.0)
    assert moved >= 2, (
        "§4.1: the threshold moves prediction by over 1 point for at least "
        "two programs"
    )
