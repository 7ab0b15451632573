"""Per-run tally of attempted ops and failed answer checks.

An op is one deck game (or one CLI invocation). It is executed once per
pass, and every execution is checked; the op has failed when any execution
failed. So `attempted` and `failed` depend on the seed alone, not on how
many passes fit in the run.
"""

from __future__ import annotations

from collections import Counter


class Outcome:
    """Failures are explained when tagged with a known defect class."""

    def __init__(self):
        self.ops: dict = {}  # op key -> set of (reason, known defect class or None)
        self.run_faults: Counter = Counter()  # faults of the run, not of one op

    def record(self, key, what: str, fails: list[tuple[str, str | None]]) -> None:
        reasons = self.ops.setdefault(key, set())
        reasons.update((f"{what}: {reason}", known) for reason, known in fails)

    def fault(self, reason: str) -> None:
        """A failed check of the whole run (e.g. counts that differ between passes)."""
        self.run_faults[reason] += 1

    @property
    def attempted(self) -> int:
        return len(self.ops)

    @property
    def failed(self) -> int:
        return sum(1 for reasons in self.ops.values() if reasons)

    def _tally(self, explained: bool) -> Counter:
        tally: Counter = Counter()
        for reasons in self.ops.values():
            for reason, known in reasons:
                if bool(known) == explained:
                    tally[f"{known}: {reason}" if known else reason] += 1
        return tally

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and not self.run_faults and not self._tally(False)

    def summary(self) -> dict:
        unexplained = self._tally(False) + self.run_faults
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "fail_ratio": self.failed / self.attempted if self.attempted else None,
            "explained": dict(sorted(self._tally(True).items())),
            "unexplained": dict(sorted(unexplained.items())),
        }
