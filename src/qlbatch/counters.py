"""Thread-safe operation counters used to verify cost claims in tests."""

from __future__ import annotations

import threading


class OpCounter:
    """Named integer counters behind one lock.

    Counts are abstract "operations" (marks, kernel evaluations, multiply-adds,
    butterfly units, the closed form's (term, m) pairs as closed_pairs)
    rather than wall time, so scaling assertions stay machine-independent.
    """

    def __init__(self) -> None:
        self._counts: dict[str, int] = {}
        self._lock = threading.Lock()

    def add(self, key: str, n: int = 1) -> None:
        with self._lock:
            self._counts[key] = self._counts.get(key, 0) + int(n)

    def get(self, key: str) -> int:
        with self._lock:
            return self._counts.get(key, 0)

    def as_dict(self) -> dict[str, int]:
        with self._lock:
            return dict(self._counts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"OpCounter({self.as_dict()!r})"
