"""Output checks: parse what qlbatch wrote and compare it with the oracle.

Checks run outside the timed region.  A checked value is one sampled
conductor at one height in one request.  It fails when the request exited
non-zero or raised, when the output is malformed (wrong conductor set, a NaN
anywhere), when its Z differs from `qlbatch.oracle.direct_Z` by more than the
requested epsilon, or, for scans, when the certified sign-change brackets of
its conductor disagree with the brackets recomputed from oracle values.
The tolerance is the requested epsilon, independent of the `error_bound`
the program reports.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field

import numpy as np


def fundamental_conductors(q_min: int, width: int) -> list:
    """Odd squarefree q = 1 mod 4 in [q_min, q_min+width), by a plain sieve."""
    hi = q_min + width
    qs = np.arange(q_min, hi, dtype=np.int64)
    ok = (qs % 4) == 1
    p = 3
    while p * p < hi:
        ok &= (qs % (p * p)) != 0
        p += 2
    return [int(q) for q in qs[ok]]


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    max_dev: float = 0.0
    notes: list = field(default_factory=list)

    def add(self, other: "Outcome") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.max_dev = max(self.max_dev, other.max_dev)
        self.notes += other.notes


class OracleCache:
    """direct_Z values, computed once per (q, t) and shared by every request."""

    def __init__(self, epsilon: float) -> None:
        from qlbatch.oracle import direct_Z

        self._direct_Z = direct_Z
        self.epsilon = epsilon
        self._values: dict = {}

    def __call__(self, q: int, t: float) -> float:
        key = (q, t)
        if key not in self._values:
            self._values[key] = self._direct_Z(q, t, self.epsilon).Z
        return self._values[key]


def _read_csv(path: str) -> list:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _check_values(found: dict, expected_qs: list, sample: list, t: float,
                  oracle: OracleCache, label: str) -> Outcome:
    """found maps q -> Z for one height; every sampled q is one checked value."""
    out = Outcome(attempted=len(sample))
    bad_q = sorted(set(found) ^ set(expected_qs))
    nan_q = [q for q, z in found.items() if not math.isfinite(z)]
    if bad_q or nan_q:
        out.failed = len(sample)
        out.notes.append(f"{label}: t={t} conductor set off by {len(bad_q)}, "
                         f"{len(nan_q)} non-finite values")
        return out
    for q in sample:
        dev = abs(found[q] - oracle(q, t))
        out.max_dev = max(out.max_dev, dev)
        if not dev <= oracle.epsilon:
            out.failed += 1
            out.notes.append(f"{label}: q={q} t={t} |Z - oracle| = {dev:.3e}")
    return out


def check_eval(paths: list, heights: tuple, expected_qs: list, sample: list,
               oracle: OracleCache) -> Outcome:
    """One eval output file per height."""
    out = Outcome()
    for path, t in zip(paths, heights):
        rows = _read_csv(path)
        found = {int(r["q"]): float(r["Z"]) for r in rows}
        out.add(_check_values(found, expected_qs, sample, t, oracle, "eval"))
    return out


def check_compare(paths: list, heights: tuple, expected_qs: list, sample: list,
                  oracle: OracleCache) -> Outcome:
    """One compare JSON document per height: max_dev within epsilon, values sampled."""
    out = Outcome()
    for path, t in zip(paths, heights):
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        found = {int(r["q"]): float(r["Z_fast"]) for r in doc["rows"]}
        part = _check_values(found, expected_qs, sample, t, oracle, "compare")
        max_dev = doc.get("max_dev")
        if not (isinstance(max_dev, (int, float)) and max_dev <= oracle.epsilon):
            part.failed = part.attempted
            part.notes.append(f"compare: t={t} reported max_dev={max_dev!r}")
        out.add(part)
    return out


def oracle_brackets(q: int, heights: tuple, oracle: OracleCache) -> set:
    """Certified sign changes of the oracle's Z between adjacent heights."""
    eps = oracle.epsilon
    out = set()
    for i, (t_lo, t_hi) in enumerate(zip(heights, heights[1:])):
        z_lo, z_hi = oracle(q, t_lo), oracle(q, t_hi)
        if (z_lo > 0) != (z_hi > 0) and abs(z_lo) > 2 * eps and abs(z_hi) > 2 * eps:
            out.add(i)
    return out


def check_scan(path: str, heights: tuple, sample: list, oracle: OracleCache) -> Outcome:
    """Sampled conductors: certified brackets and reported Z against the oracle.

    Each sampled conductor contributes one checked value per height.  A
    value fails when it ends a bracket present on one side only or when the
    scan reports it more than epsilon away from the oracle.
    """
    eps = oracle.epsilon
    out = Outcome(attempted=len(sample) * len(heights))
    rows = _read_csv(path)
    index = {t: i for i, t in enumerate(heights)}
    reported: dict = {}
    for r in rows:
        q = int(r["q"])
        z_lo, z_hi = float(r["Z_lo"]), float(r["Z_hi"])
        if not (math.isfinite(z_lo) and math.isfinite(z_hi)):
            out.failed = out.attempted
            out.notes.append(f"scan: non-finite Z in bracket row for q={q}")
            return out
        i = index.get(float(r["t_lo"]))
        if i is None or index.get(float(r["t_hi"])) != i + 1:
            out.failed = out.attempted
            out.notes.append(f"scan: bracket [{r['t_lo']}, {r['t_hi']}] is off the t-grid")
            return out
        entry = reported.setdefault(q, {"certified": set(), "Z": {}})
        if r["certified"] == "1":
            entry["certified"].add(i)
        entry["Z"][i] = z_lo
        entry["Z"][i + 1] = z_hi
    for q in sample:
        entry = reported.get(q, {"certified": set(), "Z": {}})
        bad = set()
        for i in entry["certified"] ^ oracle_brackets(q, heights, oracle):
            bad |= {i, i + 1}
        for i, z in entry["Z"].items():
            dev = abs(z - oracle(q, heights[i]))
            out.max_dev = max(out.max_dev, dev)
            if not dev <= eps:
                bad.add(i)
        if bad:
            out.failed += len(bad)
            out.notes.append(f"scan: q={q} disagrees with the oracle at heights "
                             f"{sorted(heights[i] for i in bad)}")
    return out
