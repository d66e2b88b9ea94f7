"""Command line front end.

Subcommands; eval, compare and scan each write one table, as CSV (a header,
then one row per line) or JSON records (--format), with these columns:
  eval      sweep a window: q,t,Z,theta,error_bound
  compare   sweep with the fast path, recompute with the reference oracle:
            q,t,Z_fast,Z_reference,abs_dev,tolerance; exit 1 on
            disagreement beyond the bounds
  scan      sweep a t-grid, one row per sign change of Z:
            q,t_lo,t_hi,Z_lo,Z_hi,certified
  selftest  run the built-in consistency suites with timings

Exit codes: 0 success, 1 comparison or selftest failure, 2 invalid
arguments, 3 budget or precision refusal, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import math
import sys
import time

import numpy as np

from .arith import Window, _check_t
from .errors import AccuracyError, BudgetError, ConsistencyError, DomainError
from .pipeline import BatchRequest, compare_with_oracle, run_batch

# each scan height is a full window sweep (0.08-0.10 s warm for a window of
# width 4096 near 10^5 on a 2-vCPU x86 VM), so a longer grid is refused, not run
_SCAN_MAX_HEIGHTS = 10_000

# exit code of each refusal main reports on stderr
_EXIT_CODES = {DomainError: 2, BudgetError: 3, AccuracyError: 3, ConsistencyError: 1, OSError: 4}


def _add_window_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--q-min", type=int, required=True, help="window start Q (odd windows only need Q >= 1)")
    p.add_argument("--q-width", type=int, required=True, help="window width Delta; must satisfy Delta <= Q/2")
    p.add_argument("--epsilon", type=float, default=1e-6, help="absolute accuracy target")
    p.add_argument("--threads", type=int, default=1, help="worker threads for the precompute and the oracle (0 = all cores)")
    p.add_argument("--format", choices=("csv", "json"), default="csv", dest="fmt")
    p.add_argument("--out", default=None, help="output path (default: stdout)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qlbatch",
        description="Batch evaluation of Z(t, chi_q) over windows of odd fundamental conductors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate Z over one window")
    p_cmp = sub.add_parser("compare", help="fast path versus reference oracle")
    for p, func in ((p_eval, cmd_eval), (p_cmp, cmd_compare)):
        _add_window_args(p)
        p.add_argument("--t", type=float, default=0.0, help="height t on the critical line (|t| <= 10)")
        p.set_defaults(func=func)

    p_scan = sub.add_parser("scan", help="certified sign changes of Z over a t-grid")
    _add_window_args(p_scan)
    p_scan.add_argument("--t-min", type=float, required=True)
    p_scan.add_argument("--t-max", type=float, required=True)
    p_scan.add_argument("--t-step", type=float, required=True)
    p_scan.set_defaults(func=cmd_scan)

    p_self = sub.add_parser("selftest", help="run built-in consistency suites")
    p_self.set_defaults(func=cmd_selftest)

    return parser


def _make_request(args) -> BatchRequest:
    window = Window(args.q_min, args.q_width)
    return BatchRequest(window=window, t=args.t, epsilon=args.epsilon)


# json.dump's text for the values whose repr is not JSON
_JSON_WORDS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity", "True": "true", "False": "false"}


def _json_cell(value) -> str:
    """One value as json.dump writes it: ints and floats by repr, non-finite
    floats as NaN and +-Infinity, bools as true and false."""
    text = repr(value)
    return _JSON_WORDS.get(text, text)


def _write_table(out, fmt, fields, columns, doc=None, key="rows") -> None:
    """Write one row per entry of the array columns, as CSV or JSON records.

    A column is an array or a scalar repeated on every row.  Each format
    writes its rows from one template, into which a scalar is formatted
    once.  CSV picks each column's format once from its dtype: floats as
    %.16e, which round-trips a double, ints and bools as integers.  JSON
    writes, byte for byte, what json.dump(..., indent=2) writes: the records
    under doc[key], after doc's own keys, when a doc is given, else a bare
    list.
    """
    cols = [np.asarray(c) for c in columns]
    with contextlib.nullcontext(sys.stdout) if out is None else open(out, "w", encoding="utf-8") as fh:
        if fmt == "csv":
            parts, arrays = [], []
            for c in cols:
                spec = "{:.16e}" if c.dtype.kind == "f" else "{:d}"
                if c.ndim == 0:
                    parts.append(spec.format(c.item()))
                else:
                    parts.append(spec)
                    arrays.append(c.tolist())
            fh.write(",".join(fields) + "\n")
            fh.writelines(itertools.starmap((",".join(parts) + "\n").format, zip(*arrays)))
            return
        pad = "  " if doc is None else "    "  # a record's indent
        lines, arrays = [], []
        for field, c in zip(fields, cols):
            if c.ndim == 0:
                cell = _json_cell(c.item())
            else:
                cell = "{}"
                arrays.append(list(map(_json_cell, c.tolist())))
            lines.append(f"{pad}  {json.dumps(field)}: {cell}")
        record = pad + "{{\n" + ",\n".join(lines) + "\n" + pad + "}}"
        records = ",\n".join(itertools.starmap(record.format, zip(*arrays)))
        table = f"[\n{records}\n{pad[2:]}]" if records else "[]"
        if doc is not None:
            # the doc's text with the table as a last key, its null cut off
            table = json.dumps({**doc, key: None}, indent=2)[: -len("null\n}")] + table + "\n}"
        fh.write(table + "\n")


def cmd_eval(args) -> int:
    result = run_batch(_make_request(args), threads=args.threads)
    request, budget = result.request, result.budget
    doc = {
        "window": {"Q": request.window.Q, "Delta": request.window.Delta},
        "t": request.t,
        "epsilon": request.epsilon,
        "budget": {
            "epsilon1": budget.epsilon1,
            "epsilon2": budget.epsilon2,
            "epsilon3": budget.epsilon3,
            "N": budget.N,
            "R": budget.R,
        },
        "counts": result.counts,
        "timings": result.timings,
    }
    _write_table(args.out, args.fmt, ("q", "t", "Z", "theta", "error_bound"),
                 (result.q, request.t, result.Z, result.theta, result.error_bound),
                 doc, "records")
    return 0


def cmd_compare(args) -> int:
    result = run_batch(_make_request(args), threads=args.threads)
    cmp = compare_with_oracle(result, threads=args.threads)
    bad = np.flatnonzero(cmp.devs > cmp.tolerances)
    doc = {
        "n_characters": result.n_characters,
        "max_dev": cmp.max_dev,
        "mean_dev": cmp.mean_dev,
        "n_fail": bad.size,
        "timings": {**result.timings, **cmp.timings},
        "counts": {**result.counts, **cmp.counts},
    }
    _write_table(args.out, args.fmt, ("q", "t", "Z_fast", "Z_reference", "abs_dev", "tolerance"),
                 (result.q, result.request.t, result.Z, cmp.refs, cmp.devs, cmp.tolerances), doc)
    print(
        f"compared {result.n_characters} conductors: max_dev={cmp.max_dev:.3e} "
        f"mean_dev={cmp.mean_dev:.3e}",
        file=sys.stderr,
    )
    if bad.size:
        k = bad[np.argmax(cmp.devs[bad])]
        print(
            f"FAIL: {bad.size} conductors beyond tolerance, worst q={result.q[k]} "
            f"dev={cmp.devs[k]:.3e} tol={cmp.tolerances[k]:.3e}",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_scan(args) -> int:
    # validate the whole grid before the first sweep runs
    t_min, t_max = _check_t(args.t_min), _check_t(args.t_max)
    if not (math.isfinite(args.t_step) and args.t_step > 0):
        raise DomainError(f"--t-step={args.t_step!r} must be finite and positive")
    if t_max < t_min:
        raise DomainError("--t-max must be at least --t-min")
    # a subnormal step makes this quotient inf, which must not reach int()
    steps = (t_max - t_min) / args.t_step + 1e-9
    if steps >= _SCAN_MAX_HEIGHTS:
        raise DomainError(f"the t-grid has more than {_SCAN_MAX_HEIGHTS} heights")
    n_steps = int(math.floor(steps)) + 1
    # rounding in t_min + i * step can land the last height past t_max
    ts = [min(t_min + i * args.t_step, t_max) for i in range(n_steps)]
    window = Window(args.q_min, args.q_width)
    sweeps = []
    for tv in ts:
        request = BatchRequest(window=window, t=tv, epsilon=args.epsilon)
        result = run_batch(request, threads=args.threads)
        sweeps.append(result.Z)
    # Z[i, k] is conductor i at height ts[k]; bracket j is [ts[j], ts[j+1]]
    Z = np.array(sweeps).T
    lo, hi = Z[:, :-1], Z[:, 1:]
    flip = (lo != 0.0) & (hi != 0.0) & ((lo > 0) != (hi > 0))
    certified = (np.abs(lo) > 2.0 * args.epsilon) & (np.abs(hi) > 2.0 * args.epsilon)
    i, j = np.nonzero(flip)  # conductor-major, heights ascending
    t_grid = np.array(ts)
    _write_table(args.out, args.fmt, ("q", "t_lo", "t_hi", "Z_lo", "Z_hi", "certified"),
                 (result.q[i], t_grid[j], t_grid[j + 1], lo[i, j], hi[i, j], certified[i, j]))
    return 0


def _st_gauss_identities() -> None:
    from .arith import quad_character
    from .gauss import character_from_gauss, gauss_sum_direct, gauss_sum_fast

    rng = np.random.default_rng(20240811)
    for _ in range(120):
        b = int(rng.integers(0, 500)) * 2 + 1
        m = int(rng.integers(1, 300))
        fast = gauss_sum_fast(b, m)
        ref = gauss_sum_direct(b, 2 * m)
        if abs(fast - ref) > 1e-9 * max(1.0, abs(ref)):
            raise ConsistencyError(f"gauss_sum_fast({b}, {m}) != direct")
    for q in (5, 13, 17, 21, 33, 105, 145, 445):
        for n in range(1, 60):
            if math.gcd(n, q) != 1:
                continue
            rec = character_from_gauss(q, n)
            chi = quad_character(q, n)
            if abs(rec - chi) > 1e-9:
                raise ConsistencyError(f"character reconstruction failed at q={q}, n={n}")


def _st_character_table() -> None:
    from .arith import CharacterSieve, _is_fundamental_odd_positive_int, jacobi

    qs = [q for q in range(1, 200) if _is_fundamental_odd_positive_int(q)]
    for q, row in zip(qs, CharacterSieve(150).table(qs).tolist()):
        if row[1:] != [jacobi(n % q, q) for n in range(1, 151)]:
            raise ConsistencyError(f"character table disagrees with jacobi at q={q}")


def _st_budget_arithmetic() -> None:
    from .taylor import plan_budget, tail_bound, taylor_remainder_bound

    b = plan_budget(10_000, 5_000, 1e-6, 0.0)
    if (b.N, b.R) != (257, 14):
        raise ConsistencyError(f"reference budget mismatch: N={b.N}, R={b.R}")
    if not tail_bound(b.N, 10_000) < b.epsilon1:
        raise ConsistencyError("tail bound misses its budget")
    if not taylor_remainder_bound(b.N, 10_000, 5_000, b.R) < b.epsilon2:
        raise ConsistencyError("Taylor remainder misses its budget")
    try:
        plan_budget(1 << 40, 1 << 39, 1e-6, 0.0)
    except BudgetError:
        pass
    else:
        raise ConsistencyError("oversized window was not refused")


def _st_kernel_bounds() -> None:
    from scipy.integrate import quad

    from .special import g_kernel

    for z, w in ((0.25, 0.5), (0.25, 3.0), (1.5, 40.0), (0.75, 12.0)):
        ref, err = quad(lambda y, z=z, w=w: math.exp(-w * y) * y ** (z - 1.0), 1.0, np.inf)
        val = g_kernel(z, w)
        if abs(val.real - ref) > 1e-10 * max(abs(ref), 1e-300) + 1e-13:
            raise ConsistencyError(f"kernel quadrature mismatch at z={z}, w={w}")
    # upward recursion identity w G_(z+1) - z G_z = e^-w
    for z in (0.25 + 0.15j, 0.25 + 3j):
        for w in (0.3, 2.0, 11.0, 300.0):
            lhs = w * g_kernel(z + 1, w) - z * g_kernel(z, w)
            if abs(lhs - math.exp(-w)) > 1e-12:
                raise ConsistencyError(f"recursion identity fails at z={z}, w={w}")


def _st_multieval_agreement() -> None:
    from .multieval import EvalGrid, NodeSum, direct_eval, fast_eval

    rng = np.random.default_rng(991)
    K = 40_000  # about 2.4 spreading blocks after merging
    dens = rng.integers(1, 1 << 16, size=K)
    nums = rng.integers(0, 1 << 30, size=K) % dens
    coeffs = rng.standard_normal((3, K)) + 1j * rng.standard_normal((3, K))
    p = NodeSum.from_fractions(nums, dens, coeffs)
    g = EvalGrid(b0=7_001, H=300)
    eps3 = 1e-9
    ref = direct_eval(p, g)
    fast = fast_eval(p, g, eps3, force="transform")
    worst = float(np.max(np.abs(fast - ref)))
    if worst > eps3 * p.scale:
        raise ConsistencyError(f"transform error {worst:.3e} above eps3 * scale")


def _st_closed_form() -> None:
    from .arith import divisor_terms, fundamental_conductors
    from .multieval import build_node_problem, closed_form_terms, direct_eval
    from .taylor import build_coefficient_table, plan_budget

    window, t = Window(10_001, 512), 0.3
    budget = plan_budget(window.Q, window.Delta, 1e-6, t)
    table = build_coefficient_table(t, budget.centre, budget.N, budget.R)
    qs = fundamental_conductors(window)
    owner, a, _ = divisor_terms(window, qs, budget.N)
    b = qs[owner] // a
    closed = closed_form_terms(a, b, table)
    for d in np.unique(a).tolist():
        p, g = build_node_problem(d, table, window)
        cols = np.flatnonzero(a == d)
        ref = direct_eval(p, g)[:, (b[cols] - g.b0) // g.step]
        if np.max(np.abs(closed[:, cols] - ref)) > 1e-13 * np.max(np.abs(ref)):
            raise ConsistencyError(f"closed form of a={d} != node problem")


def _st_window_consistency() -> None:
    result = run_batch(BatchRequest(window=Window(10_000, 32), t=0.3, epsilon=1e-6))
    cmp = compare_with_oracle(result)
    bad = np.flatnonzero(cmp.devs > cmp.tolerances)
    if bad.size:
        k = bad[0]
        raise ConsistencyError(
            f"fast path deviates from the oracle at q={result.q[k]}: {cmp.devs[k]:.3e}"
        )


def cmd_selftest(args) -> int:
    suites = [
        ("gauss-identities", _st_gauss_identities),
        ("character-table", _st_character_table),
        ("budget-arithmetic", _st_budget_arithmetic),
        ("kernel-bounds", _st_kernel_bounds),
        ("multieval-agreement", _st_multieval_agreement),
        ("closed-form", _st_closed_form),
        ("window-consistency", _st_window_consistency),
    ]
    failures = 0
    for name, fn in suites:
        start = time.perf_counter()
        try:
            fn()
        except Exception as exc:  # report and keep going
            elapsed = time.perf_counter() - start
            print(f"FAIL {name:24s} {elapsed:7.2f} s  ({exc})")
            failures += 1
        else:
            elapsed = time.perf_counter() - start
            print(f"ok   {name:24s} {elapsed:7.2f} s")
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in _EXIT_CODES.items() if isinstance(exc, cls))

if __name__ == "__main__":
    sys.exit(main())
