"""Cross-run site comparison: why true prediction loses what it loses.

Table 4's gap between self and true prediction has exactly three causes,
and this module attributes every byte of it by diffing the training and
test executions' site profiles at the predictor's abstraction level:

* **test-only sites** — allocation sites the training run never executed
  (new code paths), unpredictable by construction;
* **flipped long → short** — sites the training run saw as long-lived but
  that behave short-lived in the test run: capture lost to conservatism;
* **flipped short → long** — sites trained short-lived that allocate
  long-lived objects in the test run: these are Table 4's *error bytes*,
  the arena pollution of §5.2.

``repro-alloc diff train.rtr3 test.rtr3`` renders the attribution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.predictor import DEFAULT_THRESHOLD, TRUE_PREDICTION_ROUNDING
from repro.core.profile import SiteKey, build_profile
from repro.core.sites import FULL_CHAIN
from repro.runtime.events import Trace

__all__ = ["SiteDelta", "ProfileDiff", "diff_traces", "render_diff"]


@dataclass(frozen=True)
class SiteDelta:
    """One site's behaviour across the two runs.

    ``status`` is one of ``"stable-short"``, ``"stable-long"``,
    ``"flipped-to-short"``, ``"flipped-to-long"``, ``"train-only"``,
    ``"test-only"``.  Byte counts are ``None`` for runs where the site
    does not occur.
    """

    key: SiteKey
    status: str
    train_bytes: Optional[int]
    test_bytes: Optional[int]


@dataclass(frozen=True)
class ProfileDiff:
    """The full site attribution between a training and a test run."""

    train_program: str
    test_program: str
    threshold: int
    deltas: Tuple[SiteDelta, ...]
    test_total_bytes: int

    def bytes_with_status(self, status: str) -> int:
        """Test-run bytes at sites with the given status."""
        return sum(
            delta.test_bytes or 0
            for delta in self.deltas
            if delta.status == status
        )

    def pct_of_test(self, status: str) -> float:
        """Those bytes as a percentage of the test run's total."""
        if self.test_total_bytes == 0:
            return 0.0
        return 100.0 * self.bytes_with_status(status) / self.test_total_bytes

    @property
    def predictable_pct(self) -> float:
        """Test bytes at stable-short sites: what true prediction captures."""
        return self.pct_of_test("stable-short")

    @property
    def error_pct(self) -> float:
        """Test bytes at flipped-to-long sites: Table 4's error bytes."""
        return self.pct_of_test("flipped-to-long")


def diff_traces(
    train: Trace,
    test: Trace,
    threshold: int = DEFAULT_THRESHOLD,
    chain_length=FULL_CHAIN,
    size_rounding: int = TRUE_PREDICTION_ROUNDING,
) -> ProfileDiff:
    """Attribute every test-run byte to a cross-run site status."""
    train_profile = build_profile(
        train, chain_length=chain_length, size_rounding=size_rounding
    )
    test_profile = build_profile(
        test, chain_length=chain_length, size_rounding=size_rounding
    )
    train_stats: Dict[SiteKey, Tuple[int, bool]] = {
        key: (stats.bytes, stats.all_short_lived(threshold))
        for key, stats in train_profile.sites()
    }
    deltas: List[SiteDelta] = []
    seen = set()
    for key, stats in test_profile.sites():
        seen.add(key)
        test_short = stats.all_short_lived(threshold)
        trained = train_stats.get(key)
        if trained is None:
            status = "test-only"
            train_bytes = None
        else:
            train_bytes, train_short = trained
            if train_short and test_short:
                status = "stable-short"
            elif not train_short and not test_short:
                status = "stable-long"
            elif train_short:
                status = "flipped-to-long"
            else:
                status = "flipped-to-short"
        deltas.append(
            SiteDelta(
                key=key,
                status=status,
                train_bytes=train_bytes,
                test_bytes=stats.bytes,
            )
        )
    for key, (train_bytes, _) in train_stats.items():
        if key not in seen:
            deltas.append(
                SiteDelta(
                    key=key, status="train-only",
                    train_bytes=train_bytes, test_bytes=None,
                )
            )
    deltas.sort(key=lambda delta: -(delta.test_bytes or 0))
    return ProfileDiff(
        train_program=f"{train.program}/{train.dataset}",
        test_program=f"{test.program}/{test.dataset}",
        threshold=threshold,
        deltas=tuple(deltas),
        test_total_bytes=test_profile.total_bytes,
    )


def render_diff(diff: ProfileDiff, top: int = 10) -> str:
    """Human-readable attribution of the self-vs-true prediction gap."""
    lines = [
        f"site diff: trained on {diff.train_program}, "
        f"tested on {diff.test_program} "
        f"(threshold {diff.threshold} bytes)",
        "",
        "test-run bytes by cross-run site status:",
    ]
    statuses = [
        ("stable-short", "predictable (captured by true prediction)"),
        ("stable-long", "long-lived in both runs"),
        ("flipped-to-long", "ERROR bytes: trained short, behaves long"),
        ("flipped-to-short", "capture lost to conservatism"),
        ("test-only", "new sites the training run never executed"),
    ]
    for status, description in statuses:
        lines.append(
            f"  {diff.pct_of_test(status):5.1f}%  {description}"
        )
    interesting = [
        delta for delta in diff.deltas
        if delta.status in ("flipped-to-long", "test-only")
        and delta.test_bytes
    ]
    if interesting:
        lines.append("")
        lines.append(f"largest unpredictable sites (top {top}):")
        for delta in interesting[:top]:
            chain, size = delta.key
            name = ">".join(chain[-3:]) + f" ({size}B)"
            lines.append(
                f"  {delta.test_bytes:>10,}B  {delta.status:16s}  {name}"
            )
    return "\n".join(lines)
