"""Workload definitions: seeded windows, the CLI requests sent, and warm-ups.

Every workload is generated from one seed.  The seed shifts the window start
by a small amount that keeps it odd, and picks the conductors whose values
are checked against the oracle afterwards.  qlbatch itself receives only the
generated command-line arguments.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

EPSILON = 1e-6
SAMPLE_PER_HEIGHT = 64  # conductors checked against the oracle, per height
MAX_SHIFT = 64


@dataclass(frozen=True)
class Workload:
    """One seeded workload.

    A request is the list of `qlbatch` invocations whose wall time counts as
    one unit; `warmup` is the same window at `warmup_heights`, run first so
    lazy imports and allocator growth are not charged to the timed requests.
    """

    name: str
    command: str  # eval, scan or compare
    q_min: int
    q_width: int
    heights: tuple
    warmup_heights: tuple
    seed: int

    def invocations(self, out_path: str, *, warmup: bool = False) -> list:
        """CLI argument lists for one request (one entry per main() call)."""
        heights = self.warmup_heights if warmup else self.heights
        base = ["--q-min", str(self.q_min), "--q-width", str(self.q_width),
                "--epsilon", repr(EPSILON), "--threads", "1"]
        if self.command == "scan":
            step = heights[1] - heights[0] if len(heights) > 1 else 1.0
            return [["scan", *base, "--t-min", repr(heights[0]),
                     "--t-max", repr(heights[-1]), "--t-step", repr(step),
                     "--out", out_path]]
        if self.command == "compare":
            return [["compare", *base, "--t", repr(t), "--format", "json",
                     "--out", f"{out_path}.{i}"] for i, t in enumerate(heights)]
        return [["eval", *base, "--t", repr(t), "--out", f"{out_path}.{i}"]
                for i, t in enumerate(heights)]

    def sample(self, conductors: list) -> list:
        """Seeded sample of conductors to check (sorted)."""
        rng = random.Random(f"{self.name}/{self.seed}/sample")
        k = min(SAMPLE_PER_HEIGHT, len(conductors))
        return sorted(rng.sample(sorted(conductors), k))


def _odd_start(base: int, seed: int, name: str) -> int:
    shift = random.Random(f"{name}/{seed}/shift").randrange(MAX_SHIFT)
    q = base + shift
    return q if q % 2 == 1 else q + 1


def make(name: str, seed: int) -> Workload:
    if name == "wide_window":
        # the headline case: one wide transform, 725 of 766 divisors direct,
        # and the only window where recovery and memory are large
        return Workload(name, "eval", _odd_start(200_000, seed, name), 100_000,
                        (0.0,), (0.0,), seed)
    if name == "height_scan":
        # 8 heights over one window: the whole precompute repeats per height,
        # recovery is about 2% of the request
        heights = tuple(0.25 * i for i in range(8))
        return Workload(name, "scan", _odd_start(100_002, seed, name), 4_096,
                        heights, heights[:1], seed)
    if name == "oracle_compare":
        # the criterion-01 window at three heights; the oracle is about 45%
        # of each request and the fast path runs at small N
        return Workload(name, "compare", _odd_start(10_000, seed, name), 5_000,
                        (0.0, 0.3, 1.0), (0.0,), seed)
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("wide_window", "height_scan", "oracle_compare")
