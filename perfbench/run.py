"""qlbatch benchmark: end-to-end metrics, or a per-layer trace, for one workload.

Run from the root of a qlbatch checkout:

    python3 perfbench/run.py --workload wide_window --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --smoke

The package is imported from ./src of the checkout (nothing is installed).
One process serves one workload at --threads 1 and one OpenBLAS thread, with
the table cache off: QLF_CACHE_DIR is removed from the environment and no
--cache is passed.
Requests go through the user entry point qlbatch.cli.main([...]) and write
their output to files under .bench_out/, which are checked against the
oracle after timing.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics (see METRICS_E2E); --trace 1 runs
untraced requests for half the time and traced ones for the other half, and
reports the per-layer metrics (see METRICS_LAYER).  Spans, per-divisor rows
and the environment record are written to .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, replace

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
# One OpenBLAS thread, set before numpy loads, for this process and the setup
# interpreters.  Requests run at --threads 1; on a 2-vCPU VM OpenBLAS's default
# second thread made oracle_compare about 20% slower and its runs spread wider.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

OUT_DIR = ".bench_out"
SETUP_PROBES = 5
SETUP_ARGS = ["eval", "--q-min", "10000", "--q-width", "64"]
MIN_TIMED_REQUESTS = 3
CHILD_TIMEOUT_S = 120

METRICS_E2E = {
    "wall_s": "s",
    "values_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# per-layer self time: metric -> span names whose self time it sums
SELF_TIME = {
    "multieval.transform_s": ("multieval.fast_eval.transform",),
    "multieval.build_s": ("multieval.build_node_problem",),
    "multieval.direct_s": ("multieval.fast_eval.direct", "multieval.direct_eval"),
    "pipeline.assemble_s": ("pipeline.assemble_F",),
    "arith.divisor_terms_s": ("arith.divisor_terms",),
    "pipeline.self_s": ("pipeline.run_batch", "pipeline.realized_divisors",
                        "pipeline.compute_Z"),
    "arith.sieve_s": ("arith.sieve_factor_window",),
    "taylor.table_s": ("taylor.build_coefficient_table",),
    "oracle.sweep_s": ("oracle.oracle_sweep",),
    "cli.self_s": (tracing.ROOT,),
}
# per-layer call counts: metric -> span names counted
CALLS = {
    "multieval.transform_calls": ("multieval.fast_eval.transform",),
    "multieval.build_calls": ("multieval.build_node_problem",),
    "multieval.direct_calls": ("multieval.fast_eval.direct", "multieval.direct_eval"),
    "pipeline.assemble_calls": ("pipeline.assemble_F",),
    "arith.divisor_terms_calls": ("arith.divisor_terms",),
    "taylor.table_calls": ("taylor.build_coefficient_table",),
}
# per-layer program counters: metric -> BatchResult.counts key
COUNTERS = {
    "multieval.fast_eval_ops": "fast_eval_ops",
    "multieval.node_raw": "node_raw",
    "multieval.node_merged": "node_merged",
    "pipeline.recovery_ops": "recovery_ops",
    "arith.sieve_marks": "sieve_marks",
    "taylor.kernel_evals": "kernel_evals",
    "oracle.special_calls": "oracle_special_calls",
}
METRICS_LAYER = {
    **{name: "s" for name in SELF_TIME},
    **{name: "count" for name in CALLS},
    **{name: "count" for name in COUNTERS},
    "multieval.merge_ratio": "ratio",
    "multieval.direct_share": "ratio",
    "pipeline.divisors": "count",
    "process.sys_s": "s",
    "process.minor_faults": "count",
    "check.max_dev": "abs",
    "check.samples": "count",
    "trace.overhead_s": "s",
}


@dataclass
class Request:
    wall: float
    cpu: float
    sys: float
    minflt: int
    outputs: list
    codes: list


def run_request(main, wl, out_path: str, *, warmup: bool = False, tracer=None) -> Request:
    """Time one request: every qlbatch.cli.main call it consists of."""
    calls = wl.invocations(out_path, warmup=warmup)
    codes = []
    r0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    for argv in calls:
        try:
            codes.append(main(argv) if tracer is None else tracer.call(tracing.ROOT, main, argv))
        except Exception:  # a crash is a failed request, not a failed benchmark
            traceback.print_exc()
            codes.append("exception")
    wall = time.perf_counter() - t0
    r1 = resource.getrusage(resource.RUSAGE_SELF)
    return Request(
        wall=wall,
        cpu=(r1.ru_utime - r0.ru_utime) + (r1.ru_stime - r0.ru_stime),
        sys=r1.ru_stime - r0.ru_stime,
        minflt=r1.ru_minflt - r0.ru_minflt,
        outputs=[argv[argv.index("--out") + 1] for argv in calls],
        codes=codes,
    )


def timed_requests(main, wl, tmp: str, seconds: float, min_requests: int,
                   tracer=None) -> list:
    """Closed loop: the next request starts when the previous one ends.

    Stops once at least min_requests ran and another request of the last
    one's length would end past `seconds`.
    """
    done = []
    start = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.begin_request(len(done))
        path = os.path.join(tmp, f"{'traced' if tracer else 'plain'}-{len(done)}")
        done.append(run_request(main, wl, path, tracer=tracer))
        elapsed = time.perf_counter() - start
        if len(done) >= min_requests and elapsed + done[-1].wall > seconds:
            return done


def check_requests(wl, requests: list, oracle) -> checks.Outcome:
    """Validate every request's outputs; a non-zero exit fails all its values."""
    expected = checks.fundamental_conductors(wl.q_min, wl.q_width)
    sample = wl.sample(expected)
    n = len(sample) * len(wl.heights)
    total = checks.Outcome()
    for req in requests:
        if any(code != 0 for code in req.codes):
            total.add(checks.Outcome(n, n, 0.0, [f"{wl.name}: exit codes {req.codes}"]))
            continue
        try:
            if wl.command == "eval":
                part = checks.check_eval(req.outputs, wl.heights, expected, sample, oracle)
            elif wl.command == "compare":
                part = checks.check_compare(req.outputs, wl.heights, expected, sample, oracle)
            else:
                part = checks.check_scan(req.outputs[0], wl.heights, sample, oracle)
        except (OSError, ValueError, KeyError) as exc:
            part = checks.Outcome(n, n, 0.0, [f"{wl.name}: unreadable output ({exc})"])
        total.add(part)
    return total


def setup_times(root: str, env: dict, tmp: str) -> tuple:
    """Fresh-interpreter runs of `python -m qlbatch.cli eval` on [10^4, 10^4+64).

    Returns (wall seconds per probe, Outcome); each probe is one checked run.
    """
    expected = len(checks.fundamental_conductors(10_000, 64))
    walls, outcome = [], checks.Outcome()
    for i in range(SETUP_PROBES):
        out = os.path.join(tmp, f"setup-{i}.csv")
        cmd = [sys.executable, "-m", "qlbatch.cli", *SETUP_ARGS, "--out", out]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
        walls.append(time.perf_counter() - t0)
        outcome.attempted += 1
        rows = 0
        if proc.returncode == 0 and os.path.exists(out):
            with open(out, encoding="utf-8") as fh:
                rows = sum(1 for _ in fh) - 1
        if proc.returncode != 0 or rows != expected:
            outcome.failed += 1
            outcome.notes.append(f"setup probe exit {proc.returncode}, {rows} rows: "
                                 f"{proc.stderr.strip()[-300:]}")
    return walls, outcome


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset (library default)"),
        "omp_num_threads": os.environ.get("OMP_NUM_THREADS", "unset (library default)"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "loadavg_start": os.getloadavg(),
        "table_cache_dir_set": "QLF_CACHE_DIR" in os.environ,
        "qlbatch_threads": 1,
        "platform": platform.platform(),
    }


def import_cli(src: str):
    """Import qlbatch.cli from the checkout's src/ and refuse any other copy."""
    if src not in sys.path:
        sys.path.insert(0, src)
    import qlbatch
    import qlbatch.cli

    where = os.path.realpath(qlbatch.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise RuntimeError(f"qlbatch imported from {where}, not from {src}")
    return qlbatch.cli.main


def end_to_end(main, wl, tmp: str, seconds: float, setup_walls: list) -> tuple:
    reqs = timed_requests(main, wl, tmp, seconds, MIN_TIMED_REQUESTS)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    wall = statistics.median(r.wall for r in reqs)
    values = len(checks.fundamental_conductors(wl.q_min, wl.q_width)) * len(wl.heights)
    metrics = {
        "wall_s": wall,
        "values_per_s": values / wall,
        "cpu_s": statistics.median(r.cpu for r in reqs),
        "peak_rss_mb": peak_rss_mb,
        "setup_s": statistics.median(setup_walls),
    }
    return metrics, reqs


def per_layer(main, wl, tmp: str, seconds: float, spans_path: str,
              divisors_path: str) -> tuple:
    plain = timed_requests(main, wl, tmp, seconds / 2.0, 1)
    tracer = tracing.Tracer()
    skipped = tracer.install()
    if skipped:
        print(f"# trace: not wrapped (absent): {', '.join(skipped)}", file=sys.stderr)
    try:
        traced = timed_requests(main, wl, tmp, seconds / 2.0, 1, tracer=tracer)
    finally:
        tracer.uninstall()
    tracer.write(spans_path, divisors_path)

    n = len(traced)
    self_t = tracer.self_times()
    calls = tracer.call_counts()
    ids = range(n)

    def span_sum(table, names):
        return sum(table.get((r, name), 0) for r in ids for name in names) / n

    metrics = {m: span_sum(self_t, names) for m, names in SELF_TIME.items()}
    metrics.update({m: span_sum(calls, names) for m, names in CALLS.items()})
    metrics.update({m: sum(tracer.counts[r].get(key, 0) for r in ids) / n
                    for m, key in COUNTERS.items()})
    raw = metrics["multieval.node_raw"]
    metrics["multieval.merge_ratio"] = metrics["multieval.node_merged"] / raw if raw else 0.0
    evals = metrics["multieval.direct_calls"] + metrics["multieval.transform_calls"]
    metrics["multieval.direct_share"] = metrics["multieval.direct_calls"] / evals if evals else 0.0
    metrics["pipeline.divisors"] = sum(tracer.n_divisors[r] for r in ids) / n
    metrics["process.sys_s"] = statistics.fmean(r.sys for r in traced)
    metrics["process.minor_faults"] = statistics.fmean(r.minflt for r in traced)
    metrics["trace.overhead_s"] = (statistics.median(r.wall for r in traced)
                                   - statistics.median(r.wall for r in plain))
    return metrics, plain + traced


def run(wl, seconds: float, trace: bool, root: str, *, label: str) -> tuple:
    """Measure one workload in this process.

    Returns (result object for the last stdout line, environment record).
    """
    out_dir = os.path.join(root, OUT_DIR)
    os.makedirs(out_dir, exist_ok=True)
    caller_cache_dir = os.environ.pop("QLF_CACHE_DIR", None)
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")

    record = environment()
    record["table_cache_dir_removed"] = caller_cache_dir
    record.update({"workload": wl.name, "seed": wl.seed, "q_min": wl.q_min,
                   "q_width": wl.q_width, "heights": wl.heights, "trace": trace,
                   "seconds": seconds})
    outcome = checks.Outcome()
    tmp = tempfile.mkdtemp(prefix=f"{label}-", dir=out_dir)
    try:
        setup_walls = []
        if not trace:
            setup_walls, probe_outcome = setup_times(root, env, tmp)
            outcome.add(probe_outcome)
        main = import_cli(src)
        warm = run_request(main, wl, os.path.join(tmp, "warmup"), warmup=True)
        warm_failed = any(code != 0 for code in warm.codes)
        outcome.add(checks.Outcome(1, int(warm_failed), 0.0,
                                   [f"warm-up exit codes {warm.codes}"] if warm_failed else []))
        if trace:
            metrics, reqs = per_layer(
                main, wl, tmp, seconds,
                os.path.join(out_dir, f"spans-{label}.jsonl"),
                os.path.join(out_dir, f"divisors-{label}.csv"))
        else:
            metrics, reqs = end_to_end(main, wl, tmp, seconds, setup_walls)
        checked = check_requests(wl, reqs, checks.OracleCache(workloads.EPSILON))
        outcome.add(checked)
        if trace:
            metrics["check.max_dev"] = checked.max_dev
            metrics["check.samples"] = checked.attempted
        record["requests"] = [{"wall": r.wall, "cpu": r.cpu, "sys": r.sys,
                               "minflt": r.minflt, "codes": r.codes} for r in reqs]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    record["loadavg_end"] = os.getloadavg()
    record["check_notes"] = outcome.notes[:50]
    with open(os.path.join(out_dir, f"env-{label}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    units = METRICS_LAYER if trace else METRICS_E2E
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    return result, record


def smoke(root: str) -> int:
    """Tiny windows through all three workloads' code paths, traced and not."""
    tiny = {
        "wide_window": dict(q_min=20_001, q_width=2_000),
        "height_scan": dict(q_min=10_001, q_width=512, heights=(0.0, 0.25, 0.5)),
        "oracle_compare": dict(q_min=10_001, q_width=256, heights=(0.0, 0.3)),
    }
    problems = []
    for name, fields in tiny.items():
        wl = replace(workloads.make(name, 0), **fields)
        for trace in (False, True):
            res, record = run(wl, 0.0, trace, root, label=f"smoke-{name}-{int(trace)}")
            ok = res["correct"] and res["attempted"] > 0
            print(f"{name:15s} trace={int(trace)} attempted={res['attempted']:5d} "
                  f"failed={res['failed']} ok={ok}")
            if not ok:
                problems.append(f"{name} trace={int(trace)}: {record['check_notes']}")
            if trace and not res["metrics"]["multieval.build_calls"]["value"] > 0:
                problems.append(f"{name}: trace recorded no node builds")
    problems += _smoke_wrong_value(root)
    tracer = tracing.Tracer()
    absent = tracer.install({"qlbatch.pipeline": ("no_such_layer",)})
    tracer.uninstall()
    print(f"absent wrapped name skipped: {absent}")
    if absent != ["qlbatch.pipeline.no_such_layer"]:
        problems.append(f"absent wrapped name gave {absent}")
    for p in problems:
        print(f"SMOKE FAIL {p}")
    print("smoke ok" if not problems else "smoke FAILED")
    return 0 if not problems else 1


def _smoke_wrong_value(root: str) -> list:
    """Feed the eval check one wrong Z and require a nonzero failure share."""
    wl = replace(workloads.make("wide_window", 0), q_min=20_001, q_width=512)
    main = import_cli(os.path.join(root, "src"))
    tmp = tempfile.mkdtemp(prefix="smoke-wrong-", dir=os.path.join(root, OUT_DIR))
    try:
        req = run_request(main, wl, os.path.join(tmp, "req"))
        path = req.outputs[0]
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        expected = checks.fundamental_conductors(wl.q_min, wl.q_width)
        victim = str(wl.sample(expected)[0])
        for i, line in enumerate(lines):
            cells = line.split(",")
            if cells[0] == victim:
                cells[2] = repr(float(cells[2]) + 1e-3)
                lines[i] = ",".join(cells)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        out = check_requests(wl, [req], checks.OracleCache(workloads.EPSILON))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    frac = out.failed / out.attempted if out.attempted else 0.0
    print(f"wrong-value check: attempted={out.attempted} failed={out.failed} fail_frac={frac:.4f}")
    return [] if out.failed == 1 else [f"one wrong Z gave {out.failed} failures, want 1"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=45.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="run every workload's code path and the trace on tiny windows")
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "qlbatch", "__init__.py")):
        print("error: no src/qlbatch here; run from the root of a qlbatch checkout",
              file=sys.stderr)
        return 2
    if args.smoke:
        return smoke(root)
    if args.workload is None:
        ap.error("--workload is required unless --smoke is given")

    wl = workloads.make(args.workload, args.seed)
    label = f"{wl.name}-seed{wl.seed}-trace{args.trace}"
    result, env = run(wl, args.seconds, bool(args.trace), root, label=label)
    frac = result["failed"] / result["attempted"]
    print(f"# {wl.name} seed={wl.seed} window=[{wl.q_min}, {wl.q_min + wl.q_width}) "
          f"requests={len(env['requests'])} fail_frac={frac:.6g}")
    print("# env " + json.dumps({k: env[k] for k in (
        "nproc", "openblas_num_threads", "python", "numpy", "scipy",
        "loadavg_start", "loadavg_end", "table_cache_dir_set")}))
    for note in env["check_notes"][:10]:
        print(f"# check: {note}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
