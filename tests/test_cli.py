"""Command line front end: formats, exit codes, no table cache."""

import functools
import itertools
import json
import os
import re
import subprocess
import sys
import types

import numpy as np
import pytest

from qlbatch import (AccuracyError, BudgetError, ConsistencyError, DomainError, Window,
                     run_batch)
from qlbatch.arith import fundamental_conductors
import qlbatch.cli
from qlbatch.cli import _write_table, main

_SCI = re.compile(r"^-?\d\.\d{16}e[+-]\d{2,}$")


def _fundamentals(Q, Delta):
    return fundamental_conductors(Window(Q, Delta)).tolist()


class TestParsing:
    def test_no_subcommand(self, capsys):
        assert main([]) == 2
        capsys.readouterr()

    def test_help_exits_clean(self, capsys):
        assert main(["--help"]) == 0
        assert "eval" in capsys.readouterr().out

    def test_bad_format_choice(self, capsys):
        rc = main(["eval", "--q-min", "101", "--q-width", "50", "--format", "xml"])
        capsys.readouterr()
        assert rc == 2

    def test_missing_required_flag(self, capsys):
        rc = main(["eval", "--q-width", "50"])
        capsys.readouterr()
        assert rc == 2


class TestEvalOutput:
    def test_csv_layout(self, tmp_path, capsys):
        out = tmp_path / "z.csv"
        rc = main([
            "eval", "--q-min", "101", "--q-width", "50",
            "--epsilon", "1e-5", "--out", str(out),
        ])
        capsys.readouterr()
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "q,t,Z,theta,error_bound"
        body = [ln.split(",") for ln in lines[1:]]
        assert [int(row[0]) for row in body] == _fundamentals(101, 50)
        for row in body:
            assert len(row) == 5
            for cell in row[1:]:
                assert _SCI.match(cell), cell

    def test_default_stream_is_stdout(self, capsys):
        rc = main(["eval", "--q-min", "101", "--q-width", "50", "--epsilon", "1e-4"])
        captured = capsys.readouterr()
        assert rc == 0
        assert captured.out.startswith("q,t,Z,theta,error_bound\n")

    def test_json_oracle_window(self, tmp_path, capsys):
        out = tmp_path / "z.json"
        rc = main([
            "eval", "--q-min", "101", "--q-width", "50", "--t", "0.3",
            "--epsilon", "1e-5", "--format", "json", "--out", str(out),
        ])
        capsys.readouterr()
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["window"] == {"Q": 101, "Delta": 50}
        assert doc["t"] == 0.3
        assert doc["budget"]["N"] >= 1 and doc["budget"]["R"] >= 1
        assert doc["counts"]["kernel_evals"] > 0
        records = doc["records"]
        assert [r["q"] for r in records] == _fundamentals(101, 50)
        assert all(set(r) == {"q", "t", "Z", "theta", "error_bound"} for r in records)
        # each record carries its budget's bound, not a flat eps/4
        assert all(0.0 < r["error_bound"] != 1e-5 / 4.0 for r in records)

    def test_json_fast_window_reports_budget(self, tmp_path, capsys):
        out = tmp_path / "z.json"
        rc = main([
            "eval", "--q-min", "10000", "--q-width", "32", "--t", "0.3",
            "--format", "json", "--out", str(out),
        ])
        capsys.readouterr()
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["budget"]["N"] == 257
        assert doc["budget"]["R"] >= 1
        assert doc["counts"]["kernel_evals"] > 0
        assert set(doc) == {"window", "t", "epsilon", "budget", "counts", "timings", "records"}

    def test_json_budget_reports_columns_and_dropped_sum(self, tmp_path, capsys):
        out = tmp_path / "z.json"
        rc = main(["eval", "--q-min", "10000", "--q-width", "5000", "--format", "json",
                   "--out", str(out)])
        capsys.readouterr()
        assert rc == 0
        budget = json.loads(out.read_text())["budget"]
        assert set(budget) == {"epsilon1", "epsilon2", "epsilon3", "N", "R", "columns", "dropped"}
        assert (budget["N"], budget["R"], budget["columns"]) == (257, 14, 9)
        assert 0.0 < budget["dropped"] < budget["epsilon2"] / 2

    def test_json_reports_timings(self, tmp_path, capsys):
        out = tmp_path / "z.json"
        rc = main([
            "eval", "--q-min", "10000", "--q-width", "32",
            "--format", "json", "--out", str(out),
        ])
        capsys.readouterr()
        assert rc == 0
        doc = json.loads(out.read_text())
        timings = doc["timings"]
        assert set(timings) == {
            "wall_s", "precompute_s", "recovery_s", "build_s", "eval_s", "closed_s",
        }
        assert 0.0 < timings["precompute_s"] <= timings["wall_s"]
        assert 0.0 <= timings["recovery_s"] <= timings["wall_s"]
        # one thread: the per-divisor sums and the closed-form pass lie
        # inside the precompute phase
        assert 0.0 < timings["build_s"] and 0.0 < timings["eval_s"]
        assert 0.0 < timings["closed_s"] and doc["counts"]["closed_divisors"] > 0
        assert (timings["build_s"] + timings["eval_s"] + timings["closed_s"]
                <= timings["precompute_s"])

    def test_window_without_odd_argument(self, tmp_path, capsys):
        # [4, 5) holds no odd q, so the a = 1 node problem has no odd grid
        out = tmp_path / "z.json"
        rc = main(["eval", "--q-min", "4", "--q-width", "1", "--format", "json",
                   "--out", str(out)])
        capsys.readouterr()
        assert rc == 0
        assert json.loads(out.read_text())["records"] == []


class TestExitCodes:
    def test_window_violation_is_domain_error(self, capsys):
        rc = main(["eval", "--q-min", "100", "--q-width", "99"])
        err = capsys.readouterr().err
        assert rc == 2
        assert "error:" in err

    def test_budget_floor_breach(self, capsys):
        rc = main([
            "eval", "--q-min", str(1 << 32), "--q-width", str(1 << 31),
            "--epsilon", str(2.0 ** -12),
        ])
        err = capsys.readouterr().err
        assert rc == 3
        assert "error:" in err

    def test_node_capacity_breach(self, tmp_path, capsys):
        out = tmp_path / "z.csv"
        # N = 5,479,979 at t = 0 passes the node builder's 2^20 capacity
        rc = main(["eval", "--q-min", str(10**13 + 1), "--q-width", "1", "--epsilon", "0.99",
                   "--out", str(out)])
        assert "2^20" in capsys.readouterr().err
        assert rc == 3
        assert not out.exists()

    @pytest.mark.parametrize("q_min,eps", [("101", "1e-17"), ("5001", "5e-324")])
    def test_precision_breach_refused_before_sweep(self, q_min, eps, tmp_path, capsys):
        # log2(Q/epsilon) <= 45 holds at every Q, checked before any sweep:
        # no sub-ulp certificates, no traceback
        out = tmp_path / "z.csv"
        rc = main(["eval", "--q-min", q_min, "--q-width", "50", "--epsilon", eps,
                   "--out", str(out)])
        assert "45-bit" in capsys.readouterr().err
        assert rc == 3
        assert not out.exists()

    def test_node_floor_refused_on_small_window(self, tmp_path, capsys):
        # log2(Q/epsilon) = 44.9 passes the 45-bit rule, but epsilon3 =
        # 8.6e-17 falls below the planner's 2^-48 node floor, the same rule
        # as on large windows
        out = tmp_path / "z.csv"
        rc = main(["eval", "--q-min", "5001", "--q-width", "2500", "--epsilon", "1.5e-10",
                   "--out", str(out)])
        assert "2^-48" in capsys.readouterr().err
        assert rc == 3
        assert not out.exists()

    def test_epsilon_out_of_range(self, capsys):
        rc = main(["eval", "--q-min", "101", "--q-width", "50", "--epsilon", "1.5"])
        capsys.readouterr()
        assert rc == 2

    def test_t_out_of_range(self, capsys):
        rc = main(["eval", "--q-min", "101", "--q-width", "50", "--t", "10.5"])
        capsys.readouterr()
        assert rc == 2

    @pytest.mark.parametrize("q_min", ["101", "10001"])
    def test_nan_t_refused(self, q_min, tmp_path, capsys):
        out = tmp_path / "z.csv"
        rc = main(["eval", "--q-min", q_min, "--q-width", "50", "--t", "nan",
                   "--out", str(out)])
        assert "error:" in capsys.readouterr().err
        assert rc == 2
        assert not out.exists()

    @pytest.mark.parametrize("q_min", ["101", "10001"])
    def test_negative_threads_refused(self, q_min, capsys):
        rc = main(["eval", "--q-min", q_min, "--q-width", "50", "--threads", "-1"])
        assert "threads" in capsys.readouterr().err
        assert rc == 2

    @pytest.mark.parametrize("exc,code", [
        (DomainError, 2), (BudgetError, 3), (AccuracyError, 3), (ConsistencyError, 1), (OSError, 4),
    ])
    def test_every_refusal_has_its_code(self, exc, code, monkeypatch, capsys):
        import qlbatch.cli as cli

        def refuse(*args, **kwargs):
            raise exc("injected refusal")

        monkeypatch.setattr(cli, "run_batch", refuse)
        rc = main(["eval", "--q-min", "101", "--q-width", "50"])
        assert capsys.readouterr().err.startswith("error: injected refusal")
        assert rc == code

    def test_unwritable_output_path(self, tmp_path, capsys):
        missing = tmp_path / "no" / "such" / "dir" / "z.csv"
        rc = main([
            "eval", "--q-min", "101", "--q-width", "50",
            "--epsilon", "1e-4", "--out", str(missing),
        ])
        capsys.readouterr()
        assert rc == 4


class TestCompare:
    def test_agreement_passes(self, tmp_path, capsys):
        out = tmp_path / "cmp.csv"
        rc = main([
            "compare", "--q-min", "10000", "--q-width", "32",
            "--out", str(out),
        ])
        captured = capsys.readouterr()
        assert rc == 0
        assert "compared" in captured.err
        lines = out.read_text().splitlines()
        assert lines[0] == "q,t,Z_fast,Z_reference,abs_dev,tolerance"
        for ln in lines[1:]:
            row = ln.split(",")
            assert float(row[4]) <= float(row[5])

    def test_json_summary(self, tmp_path, capsys):
        out = tmp_path / "cmp.json"
        rc = main([
            "compare", "--q-min", "10000", "--q-width", "32",
            "--format", "json", "--out", str(out),
        ])
        capsys.readouterr()
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["n_fail"] == 0
        assert doc["max_dev"] <= 1e-9
        assert len(doc["rows"]) == doc["n_characters"]

    def test_json_timings_and_counts(self, tmp_path, capsys):
        out = tmp_path / "cmp.json"
        rc = main(["compare", "--q-min", "101", "--q-width", "50",
                   "--format", "json", "--out", str(out)])
        capsys.readouterr()
        assert rc == 0
        doc = json.loads(out.read_text())
        assert set(doc["timings"]) == {
            "wall_s", "precompute_s", "recovery_s", "build_s", "eval_s", "closed_s",
            "oracle_s",
        }
        assert all(v >= 0.0 for v in doc["timings"].values())
        assert doc["timings"]["oracle_s"] > 0.0
        # one series term per n <= N_used for every conductor
        assert doc["counts"]["oracle_special_calls"] > len(doc["rows"])
        assert doc["counts"]["sieve_marks"] > 0

    def test_small_window_compares_clean(self, tmp_path, capsys):
        out = tmp_path / "cmp.json"
        rc = main(["compare", "--q-min", "101", "--q-width", "50",
                   "--format", "json", "--out", str(out)])
        capsys.readouterr()
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["n_fail"] == 0
        assert [r["q"] for r in doc["rows"]] == _fundamentals(101, 50)

    def test_fault_injection_fails(self, tmp_path, capsys, monkeypatch):
        import qlbatch.cli as cli

        monkeypatch.setattr(cli, "run_batch", functools.partial(run_batch, convention="plain_a"))
        out = tmp_path / "cmp.csv"
        rc = main([
            "compare", "--q-min", "10000", "--q-width", "32", "--out", str(out),
        ])
        captured = capsys.readouterr()
        assert rc == 1
        assert "FAIL" in captured.err
        assert "worst q=" in captured.err


class TestOneTable:
    @pytest.mark.parametrize("command,key", [("eval", "records"), ("compare", "rows")])
    def test_csv_and_json_carry_the_same_table(self, command, key, tmp_path, capsys):
        text = {}
        for fmt in ("csv", "json"):
            out = tmp_path / f"{command}.{fmt}"
            rc = main([command, "--q-min", "101", "--q-width", "50", "--t", "0.3",
                       "--format", fmt, "--out", str(out)])
            assert rc == 0
            text[fmt] = out.read_text()
        capsys.readouterr()
        header, *lines = text["csv"].splitlines()
        fields = header.split(",")
        records = json.loads(text["json"])[key]
        assert len(lines) == len(records) > 0
        for line, record in zip(lines, records):
            assert list(record) == fields
            cells = line.split(",")
            # %.16e round-trips a double, so every value is exactly equal
            assert [int(cells[0]), *map(float, cells[1:])] == [record[f] for f in fields]


def _json_dump_table(out, fields, columns, doc=None, key="rows"):
    """The JSON writer before row templates, kept as the reference: one dict
    per record, json.dump with indent=2 and a closing newline."""
    cols = [np.asarray(c) for c in columns]
    vals = [itertools.repeat(c.item()) if c.ndim == 0 else c.tolist() for c in cols]
    records = [dict(zip(fields, row)) for row in zip(*vals)]
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(records if doc is None else {**doc, key: records}, fh, indent=2)
        fh.write("\n")


class TestJsonWriter:
    """The row-template JSON writer against json.dump, byte for byte."""

    @pytest.mark.filterwarnings("ignore::UserWarning")
    @pytest.mark.parametrize("argv,key", [
        (["eval", "--q-min", "101", "--q-width", "50", "--t", "0.3"], "records"),
        (["compare", "--q-min", "101", "--q-width", "50", "--t", "0.3"], "rows"),
        (["eval", "--q-min", "4", "--q-width", "1"], "records"),
        (["compare", "--q-min", "2", "--q-width", "1"], "rows"),
        (["scan", "--q-min", "101", "--q-width", "50", "--epsilon", "1e-4",
          "--t-min", "0.0", "--t-max", "1.5", "--t-step", "0.5"], None),
        (["scan", "--q-min", "4", "--q-width", "1",
          "--t-min", "0.0", "--t-max", "0.5", "--t-step", "0.5"], None),
    ])
    def test_commands_match_json_dump(self, argv, key, tmp_path, monkeypatch, capsys):
        calls = []

        def spy(out, fmt, fields, columns, doc=None, key="rows"):
            calls.append((fields, columns, doc, key))
            _write_table(out, fmt, fields, columns, doc, key)

        monkeypatch.setattr(qlbatch.cli, "_write_table", spy)
        out, ref = tmp_path / "out.json", tmp_path / "ref.json"
        assert main([*argv, "--format", "json", "--out", str(out)]) == 0
        capsys.readouterr()
        (fields, columns, doc, written_key), = calls
        _json_dump_table(ref, fields, columns, doc, written_key)
        assert out.read_bytes() == ref.read_bytes()
        table = json.loads(out.read_text())
        rows = table if key is None else table[key]
        assert bool(rows) == ("101" in argv)  # [4, 5) and [2, 3) hold no conductor

    @pytest.mark.parametrize("doc,key", [(None, "rows"), ({"n": 5, "max_dev": 1e-300}, "rows"),
                                         ({"timings": {"a": 0.1}, "flag": True}, "records"),
                                         ({}, "rows")])
    @pytest.mark.parametrize("size", [0, 1, 5])
    def test_tables_match_json_dump(self, doc, key, size, tmp_path):
        special = np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324, 1.0, 0.1, 1e300])
        columns = (np.arange(10_001, 10_001 + 2 * size, 2, dtype=np.int64), 0.3,
                   special[:size], np.array([True, False, True, False, True][:size]),
                   np.full(size, np.nan), float("-inf"), np.int64(7), np.bool_(True))
        fields = ("q", "t", "Z", "certified", "dev", "low", "n", "ok")
        out, ref = tmp_path / "out.json", tmp_path / "ref.json"
        _write_table(out, "json", fields, columns, doc, key)
        _json_dump_table(ref, fields, columns, doc, key)
        assert out.read_bytes() == ref.read_bytes()


class TestScan:
    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_finds_certified_sign_change(self, tmp_path, capsys):
        out = tmp_path / "scan.csv"
        rc = main([
            "scan", "--q-min", "101", "--q-width", "50", "--epsilon", "1e-4",
            "--t-min", "0.0", "--t-max", "1.5", "--t-step", "0.5",
            "--out", str(out),
        ])
        capsys.readouterr()
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "q,t_lo,t_hi,Z_lo,Z_hi,certified"
        rows = [ln.split(",") for ln in lines[1:]]
        assert rows, "expected at least one sign change on this window"
        for row in rows:
            z_lo, z_hi = float(row[3]), float(row[4])
            assert (z_lo > 0) != (z_hi > 0)
            assert float(row[2]) == pytest.approx(float(row[1]) + 0.5)
            assert row[5] in ("0", "1")
        assert any(int(r[0]) == 101 for r in rows)

    def test_warns_once_per_run(self, tmp_path):
        # heights 1.25 .. 3 pass |t| = 1; the default filter shows the
        # warning once because its text does not carry t
        src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
        proc = subprocess.run(
            [sys.executable, "-m", "qlbatch.cli", "scan", "--q-min", "100003", "--q-width", "64",
             "--t-min", "0", "--t-max", "3", "--t-step", "0.25", "--out", str(tmp_path / "s.csv")],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.count("UserWarning") == 1, proc.stderr

    def test_height_flag_refused(self, monkeypatch, capsys):
        # scan takes its heights from the t-grid alone; --t would be ignored
        import qlbatch.cli as cli

        def no_sweep(*args, **kwargs):
            raise AssertionError("a sweep ran despite the stray --t")

        monkeypatch.setattr(cli, "run_batch", no_sweep)
        rc = main([
            "scan", "--q-min", "101", "--q-width", "50", "--t", "nan",
            "--t-min", "0", "--t-max", "0.5", "--t-step", "0.5",
        ])
        capsys.readouterr()
        assert rc == 2

    def test_heights_stay_inside_the_grid(self, monkeypatch, capsys):
        # -9.9 + 199 * 0.1 rounds to 10.000000000000002, past |t| <= 10
        import qlbatch.cli as cli

        heights = []

        def record(request, **kwargs):
            heights.append(request.t)
            return types.SimpleNamespace(q=np.empty(0, dtype=np.int64), Z=np.empty(0))

        monkeypatch.setattr(cli, "run_batch", record)
        rc = main([
            "scan", "--q-min", "10001", "--q-width", "16",
            "--t-min", "-9.9", "--t-max", "10", "--t-step", "0.1",
        ])
        capsys.readouterr()
        assert rc == 0
        assert len(heights) == 200
        assert all(-9.9 <= t <= 10.0 for t in heights)
        assert heights[-1] == 10.0

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_sign_change_rows(self, fmt, tmp_path, monkeypatch, capsys):
        # crafted Z per height for q = 10001 and 10005 at the default epsilon 1e-6:
        # an exact zero is no bracket, |Z| = 2 epsilon is written uncertified
        import qlbatch.cli as cli

        edge = 2.0 * 1e-6
        columns = {0.0: [0.0, 1.0], 0.5: [1.0, -0.5], 1.0: [-edge, 0.25]}

        def crafted(request, **kwargs):
            return types.SimpleNamespace(q=np.array([10_001, 10_005], dtype=np.int64),
                                         Z=np.array(columns[request.t]))

        monkeypatch.setattr(cli, "run_batch", crafted)
        out = tmp_path / f"scan.{fmt}"
        rc = main([
            "scan", "--q-min", "10001", "--q-width", "16", "--t-min", "0",
            "--t-max", "1", "--t-step", "0.5", "--format", fmt, "--out", str(out),
        ])
        capsys.readouterr()
        assert rc == 0
        expect = [
            (10_001, 0.5, 1.0, 1.0, -edge, False),
            (10_005, 0.0, 0.5, 1.0, -0.5, True),
            (10_005, 0.5, 1.0, -0.5, 0.25, True),
        ]
        if fmt == "csv":
            lines = out.read_text().splitlines()
            assert lines[0] == "q,t_lo,t_hi,Z_lo,Z_hi,certified"
            rows = [ln.split(",") for ln in lines[1:]]
            found = [(int(r[0]), *map(float, r[1:5]), r[5] == "1") for r in rows]
            assert all(r[5] in ("0", "1") for r in rows)
        else:
            found = [(r["q"], r["t_lo"], r["t_hi"], r["Z_lo"], r["Z_hi"], r["certified"])
                     for r in json.loads(out.read_text())]
        assert found == expect

    def test_bad_step_rejected(self, capsys):
        rc = main([
            "scan", "--q-min", "101", "--q-width", "50",
            "--t-min", "0.0", "--t-max", "1.0", "--t-step", "0.0",
        ])
        capsys.readouterr()
        assert rc == 2

    @pytest.mark.parametrize("t_min,t_max,t_step", [
        ("0", "1", "nan"),
        ("0", "1", "inf"),
        ("nan", "1", "0.5"),
        ("0", "inf", "4"),
        ("0", "12", "4"),
        ("0", "1", "1e-9"),
        ("-10", "10", "5e-324"),
    ])
    def test_bad_grid_refused_before_any_sweep(self, t_min, t_max, t_step, monkeypatch, capsys):
        import qlbatch.cli as cli

        def no_sweep(*args, **kwargs):
            raise AssertionError("a sweep ran before the t-grid was validated")

        monkeypatch.setattr(cli, "run_batch", no_sweep)
        rc = main([
            "scan", "--q-min", "10001", "--q-width", "64",
            "--t-min", t_min, "--t-max", t_max, "--t-step", t_step,
        ])
        assert "error:" in capsys.readouterr().err
        assert rc == 2


class TestNoTableCache:
    def test_cache_flag_refused(self, tmp_path, capsys):
        rc = main(["eval", "--q-min", "10000", "--q-width", "32", "--cache", str(tmp_path)])
        capsys.readouterr()
        assert rc == 2

    def test_cache_env_var_ignored(self, tmp_path, capsys, monkeypatch):
        env_dir = tmp_path / "env_cache"
        env_dir.mkdir()
        monkeypatch.setenv("QLF_CACHE_DIR", str(env_dir))
        out = tmp_path / "z.csv"
        rc = main(["eval", "--q-min", "10000", "--q-width", "32", "--out", str(out)])
        capsys.readouterr()
        assert rc == 0
        assert os.listdir(env_dir) == []


class TestSelftest:
    def test_all_suites_pass(self, capsys):
        rc = main(["selftest"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.count("ok   ") == 7
        for name in ("gauss-identities", "character-table", "budget-arithmetic",
                     "kernel-bounds", "multieval-agreement", "closed-form",
                     "window-consistency"):
            assert name in out

    def test_fault_injection_reported(self, capsys, monkeypatch):
        import qlbatch.cli as cli

        monkeypatch.setattr(cli, "run_batch", functools.partial(run_batch, convention="plain_a"))
        rc = main(["selftest"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "FAIL window-consistency" in out
        assert out.count("ok   ") == 6

    def test_closed_form_fault_reported(self, capsys, monkeypatch):
        import qlbatch.multieval as multieval

        real = multieval.closed_form_terms

        def skewed(*args, **kwargs):
            out = real(*args, **kwargs)
            out[:, -1] *= 1.0 + 1e-12
            return out

        monkeypatch.setattr(multieval, "closed_form_terms", skewed)
        rc = main(["selftest"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "FAIL closed-form" in out
        assert out.count("ok   ") == 6
