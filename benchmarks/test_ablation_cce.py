"""Ablation: call-chain encryption fidelity (§5.1).

The paper proposes 16-bit XOR keys and notes ids "should be selected so
that the resulting keys ... are likely to be unique".  This experiment
measures (a) how often distinct chains collide at various key widths, and
(b) how much prediction accuracy the CCE predictor gives up relative to
the full site predictor — quantifying the space side of the paper's
space-speed trade-off.
"""

from __future__ import annotations

from repro.analysis import EVAL_DATASET
from repro.core.cce import collision_report

from conftest import write_result

KEY_WIDTHS = [4, 8, 12, 16]


def test_cce_fidelity(store, results_dir):
    per_program = {}
    for program in store.programs:
        chains = store.trace(program).chains.to_list()
        collisions = {
            bits: collision_report(chains, bits=bits).collision_rate
            for bits in KEY_WIDTHS
        }
        site_pct = store.evaluate(
            program, store.self_predictor(program)
        ).predicted_pct
        cce_pct = store.evaluate(
            program, store.cce_predictor(program, train_dataset=EVAL_DATASET)
        ).predicted_pct
        per_program[program] = (collisions, site_pct, cce_pct)

    lines = ["CCE key collisions and prediction fidelity (self prediction)"]
    lines.append(
        "  program    " + "".join(f"{b:>6d}b" for b in KEY_WIDTHS)
        + "   site%   cce%"
    )
    for program, (collisions, site_pct, cce_pct) in per_program.items():
        lines.append(
            f"  {program:10s}"
            + "".join(f"{100 * collisions[b]:6.1f}%" for b in KEY_WIDTHS)
            + f"  {site_pct:6.1f} {cce_pct:6.1f}"
        )
    write_result(results_dir, "ablation_cce.txt", "\n".join(lines))

    for program, (collisions, site_pct, cce_pct) in per_program.items():
        # Wider keys collide less (weakly monotone).
        rates = [collisions[b] for b in KEY_WIDTHS]
        assert rates[-1] <= rates[0] + 1e-9, (
            f"§5.1: {program}'s widest CCE key collides no more than the "
            "narrowest"
        )
        # The residual 16-bit collisions are *structural*: XOR ignores
        # frame order and cancels repeated frames, so chains over equal
        # function multisets share a key at any width.  They stay a
        # minority of chains...
        assert collisions[16] < 0.5, (
            f"§5.1: under half of {program}'s chains collide at 16 bits"
        )
        # ...and, because colliding chains usually behave alike, the CCE
        # predictor still tracks the full site predictor closely — the
        # fidelity half of the paper's space-speed trade-off.
        assert abs(cce_pct - site_pct) < 10.0, (
            f"§5.1: {program}'s CCE prediction is within 10 points of site "
            "prediction"
        )
