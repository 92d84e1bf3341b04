"""Static-vs-trained-vs-oracle evaluation of the escape analysis.

The question the tentpole answers: how much of the trained predictors'
benefit does a *profile-free* predictor recover?  For every workload
this module scores three predictors over the evaluation execution:

* **static** — :class:`repro.core.predictor.StaticEscapePredictor`
  derived by :func:`repro.static.escape.build_escape_db` from source
  alone (no profiling run);
* **trained** — the paper's true-prediction site predictor, trained on
  the ``train`` execution;
* **oracle** — per-object perfect lifetime knowledge
  (:func:`repro.analysis.oracle.simulate_arena_oracle`), the ceiling.

Each row reports prediction *coverage* (correctly-predicted short bytes
as a fraction of all bytes), *accuracy* (correct short predictions as a
fraction of all short predictions — the soundness-facing number), and
the arena simulation's maximum heap size under each predictor.  The
rendering is deterministic: byte-identical across the materialized
and ``--stream`` replay modes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.alloc.arena import DEFAULT_ARENA_SIZE, DEFAULT_NUM_ARENAS
from repro.alloc.spec import AllocatorSpec
from repro.analysis.oracle import simulate_arena_oracle
from repro.analysis.simulate import simulate_spec
from repro.core.predictor import DEFAULT_THRESHOLD, PredictionEvaluation
from repro.obs.spans import TRACER

__all__ = ["EscapeEvalRow", "EscapeEvalResult", "escape_eval",
           "render_escape_eval"]


def _accuracy(ev: PredictionEvaluation) -> float:
    """Correct short predictions over all short predictions (fraction).

    A predictor that never predicts short has made no mistakes — that
    reads as accuracy 1.0, with its (zero) coverage telling the rest.
    """
    predicted = ev.predicted_short_bytes + ev.error_bytes
    if predicted == 0:
        return 1.0
    return ev.predicted_short_bytes / predicted


@dataclass(frozen=True)
class EscapeEvalRow:
    """One workload's three-way comparison."""

    program: str
    #: static site classes over the enumerated static site space
    class_counts: Dict[str, int]
    static_eval: PredictionEvaluation
    trained_eval: PredictionEvaluation
    static_heap: int
    trained_heap: int
    oracle_heap: int

    @property
    def static_accuracy(self) -> float:
        return _accuracy(self.static_eval)

    @property
    def trained_accuracy(self) -> float:
        return _accuracy(self.trained_eval)

    def to_dict(self) -> dict:
        def _eval_dict(ev: PredictionEvaluation) -> dict:
            return {
                "total_bytes": ev.total_bytes,
                "actual_short_bytes": ev.actual_short_bytes,
                "predicted_short_bytes": ev.predicted_short_bytes,
                "error_bytes": ev.error_bytes,
                "coverage_pct": round(ev.predicted_pct, 4),
                "accuracy": round(_accuracy(ev), 6),
                "sites_used": ev.sites_used,
                "total_sites": ev.total_sites,
            }

        return {
            "program": self.program,
            "class_counts": dict(sorted(self.class_counts.items())),
            "static": _eval_dict(self.static_eval),
            "trained": _eval_dict(self.trained_eval),
            "arena_max_heap": {
                "static": self.static_heap,
                "trained": self.trained_heap,
                "oracle": self.oracle_heap,
            },
        }


@dataclass(frozen=True)
class EscapeEvalResult:
    """The full five-workload comparison plus its parameters."""

    scale: float
    threshold: int
    num_arenas: int
    arena_size: int
    rows: Tuple[EscapeEvalRow, ...]

    def to_dict(self) -> dict:
        return {
            "scale": self.scale,
            "threshold": self.threshold,
            "num_arenas": self.num_arenas,
            "arena_size": self.arena_size,
            "rows": [row.to_dict() for row in self.rows],
        }


def escape_eval(
    store,
    programs: Optional[Sequence[str]] = None,
    threshold: int = DEFAULT_THRESHOLD,
    num_arenas: int = DEFAULT_NUM_ARENAS,
    arena_size: int = DEFAULT_ARENA_SIZE,
) -> EscapeEvalResult:
    """Score static vs trained vs oracle over every workload.

    ``store`` is a :class:`~repro.analysis.experiments.TraceStore`; the
    trained predictor comes from its ``train`` execution and everything
    is evaluated on ``test``.  The oracle needs random access to object
    lifetimes, so its replay always materializes the evaluation trace —
    the streamed modes differ only in how the other replays are fed,
    never in what this function returns.
    """
    rows: List[EscapeEvalRow] = []
    for program in (programs if programs is not None else store.programs):
        with TRACER.span("escape.eval", cat="analysis", program=program):
            static_pred = store.static_predictor(program,
                                                 threshold=threshold)
            trained_pred = store.predictor(program, threshold=threshold)
            counts = {"short": 0, "escaping": 0, "unknown": 0}
            for cls in static_pred.classes.values():
                counts[cls] += 1
            static_eval = store.evaluate(program, static_pred, "test")
            trained_eval = store.evaluate(program, trained_pred, "test")
            static_spec = AllocatorSpec(
                num_arenas=num_arenas, arena_size=arena_size,
                threshold=threshold, predictor="static")
            trained_spec = AllocatorSpec(
                num_arenas=num_arenas, arena_size=arena_size,
                threshold=threshold)
            static_sim = simulate_spec(
                store.source(program, "test"), static_spec, static_pred)
            trained_sim = simulate_spec(
                store.source(program, "test"), trained_spec, trained_pred)
            oracle_sim = simulate_arena_oracle(
                store.trace(program, "test"), threshold=threshold,
                num_arenas=num_arenas, arena_size=arena_size)
        rows.append(
            EscapeEvalRow(
                program=program,
                class_counts=counts,
                static_eval=static_eval,
                trained_eval=trained_eval,
                static_heap=static_sim.max_heap_size,
                trained_heap=trained_sim.max_heap_size,
                oracle_heap=oracle_sim.max_heap_size,
            )
        )
    return EscapeEvalResult(
        scale=store.scale,
        threshold=threshold,
        num_arenas=num_arenas,
        arena_size=arena_size,
        rows=tuple(rows),
    )


def render_escape_eval(result: EscapeEvalResult) -> str:
    """The deterministic comparison table."""
    lines = [
        "Static escape analysis vs trained predictor vs oracle "
        f"(scale {result.scale:g}, threshold {result.threshold}, "
        f"{result.num_arenas}x{result.arena_size} arenas)",
        "",
        "            static sites          coverage %        accuracy %"
        "        arena max heap (bytes)",
        "program     short/escape/unk   static  trained   static  trained"
        "      static     trained      oracle",
    ]
    for row in result.rows:
        counts = row.class_counts
        sites = (
            f"{counts['short']}/{counts['escaping']}/{counts['unknown']}"
        )
        lines.append(
            f"{row.program:<10}  {sites:<15}"
            f"  {row.static_eval.predicted_pct:7.1f}"
            f"  {row.trained_eval.predicted_pct:7.1f}"
            f"  {100 * row.static_accuracy:7.1f}"
            f"  {100 * row.trained_accuracy:7.1f}"
            f"  {row.static_heap:>10,}  {row.trained_heap:>10,}"
            f"  {row.oracle_heap:>10,}"
        )
    return "\n".join(lines)
