"""Tests for the CI perf-regression gate (benchmarks/check_regression.py)."""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
SCRIPT = REPO / "benchmarks" / "check_regression.py"

spec = importlib.util.spec_from_file_location("check_regression", SCRIPT)
check_regression = importlib.util.module_from_spec(spec)
sys.modules.setdefault("check_regression", check_regression)
spec.loader.exec_module(check_regression)


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


BASELINE = {
    "benchmark": "backends",
    "quick": True,
    "rhs_ring": {"dense_s": 1.0, "sparse_s": 0.01,
                 "speedup_sparse_vs_dense": 100.0},
    "kernel_ladder": [
        {"n": 4096,
         "batched": {"numpy": 1.0, "cc": 0.25,
                     "speedup_cc_vs_numpy": 4.0}},
    ],
}


class TestIterSpeedups:
    def test_finds_nested_and_listed_keys(self):
        found = dict(check_regression.iter_speedups(BASELINE))
        assert found == {
            "rhs_ring.speedup_sparse_vs_dense": 100.0,
            "kernel_ladder[0].batched.speedup_cc_vs_numpy": 4.0,
        }

    def test_ignores_non_numeric(self):
        found = dict(check_regression.iter_speedups(
            {"speedup_x": "fast", "a": {"speedup_y": 2.0}}))
        assert found == {"a.speedup_y": 2.0}


class TestGate:
    def test_identical_passes(self, tmp_path):
        base = _write(tmp_path, "base.json", BASELINE)
        cur = _write(tmp_path, "cur.json", BASELINE)
        assert check_regression.main(["--pair", base, cur]) == 0

    def test_improvement_passes(self, tmp_path):
        current = json.loads(json.dumps(BASELINE))
        current["rhs_ring"]["speedup_sparse_vs_dense"] = 500.0
        base = _write(tmp_path, "base.json", BASELINE)
        cur = _write(tmp_path, "cur.json", current)
        assert check_regression.main(["--pair", base, cur]) == 0

    def test_within_tolerance_passes(self, tmp_path):
        current = json.loads(json.dumps(BASELINE))
        current["rhs_ring"]["speedup_sparse_vs_dense"] = 51.0  # > 0.5 * 100
        base = _write(tmp_path, "base.json", BASELINE)
        cur = _write(tmp_path, "cur.json", current)
        assert check_regression.main(["--pair", base, cur]) == 0

    def test_degradation_fails(self, tmp_path, capsys):
        current = json.loads(json.dumps(BASELINE))
        current["rhs_ring"]["speedup_sparse_vs_dense"] = 49.0  # < 0.5 * 100
        base = _write(tmp_path, "base.json", BASELINE)
        cur = _write(tmp_path, "cur.json", current)
        assert check_regression.main(["--pair", base, cur]) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_custom_tolerance(self, tmp_path):
        current = json.loads(json.dumps(BASELINE))
        current["rhs_ring"]["speedup_sparse_vs_dense"] = 49.0
        base = _write(tmp_path, "base.json", BASELINE)
        cur = _write(tmp_path, "cur.json", current)
        assert check_regression.main(
            ["--pair", base, cur, "--tolerance", "0.4"]) == 0

    def test_missing_key_fails(self, tmp_path):
        current = json.loads(json.dumps(BASELINE))
        del current["kernel_ladder"][0]["batched"]["speedup_cc_vs_numpy"]
        base = _write(tmp_path, "base.json", BASELINE)
        cur = _write(tmp_path, "cur.json", current)
        assert check_regression.main(["--pair", base, cur]) == 1

    def test_new_key_is_informational(self, tmp_path, capsys):
        current = json.loads(json.dumps(BASELINE))
        current["extra"] = {"speedup_new_vs_old": 2.0}
        base = _write(tmp_path, "base.json", BASELINE)
        cur = _write(tmp_path, "cur.json", current)
        assert check_regression.main(["--pair", base, cur]) == 0
        assert "new (no baseline)" in capsys.readouterr().out

    def test_multiple_pairs(self, tmp_path):
        other = {"benchmark": "sweeps", "quick": True,
                 "sweep": {"speedup_batched_vs_looped": 5.0}}
        bad = json.loads(json.dumps(other))
        bad["sweep"]["speedup_batched_vs_looped"] = 1.0
        b1 = _write(tmp_path, "b1.json", BASELINE)
        c1 = _write(tmp_path, "c1.json", BASELINE)
        b2 = _write(tmp_path, "b2.json", other)
        c2 = _write(tmp_path, "c2.json", bad)
        assert check_regression.main(
            ["--pair", b1, c1, "--pair", b2, c2]) == 1
        assert check_regression.main(
            ["--pair", b1, c1, "--pair", b2, c2, "--tolerance", "0.2"]) == 0

    def test_bad_tolerance_rejected(self, tmp_path):
        base = _write(tmp_path, "b.json", BASELINE)
        with pytest.raises(SystemExit):
            check_regression.main(
                ["--pair", base, base, "--tolerance", "1.5"])


FLOORED = {
    "benchmark": "runs",
    "quick": True,
    "platform": {"cpu_count": 8},
    "sharded_sweep": {"speedup_jobs4_vs_jobs1": 1.6},
}


class TestHardFloors:
    def test_parse_floor(self):
        assert check_regression.parse_floor("a.b:1.5") == ("a.b", 1.5, None)
        assert check_regression.parse_floor("a.b:1.5:4") == ("a.b", 1.5, 4)
        for bad in ("a.b", "a.b:x", "a.b:1:y", "a:1:2:3"):
            with pytest.raises(ValueError):
                check_regression.parse_floor(bad)

    def test_floor_met_passes(self, tmp_path):
        base = _write(tmp_path, "b.json", FLOORED)
        cur = _write(tmp_path, "c.json", FLOORED)
        assert check_regression.main(
            ["--pair", base, cur,
             "--floor", "sharded_sweep.speedup_jobs4_vs_jobs1:1.0:4"]) == 0

    def test_floor_violation_fails(self, tmp_path, capsys):
        current = json.loads(json.dumps(FLOORED))
        current["sharded_sweep"]["speedup_jobs4_vs_jobs1"] = 0.9
        base = _write(tmp_path, "b.json", current)
        cur = _write(tmp_path, "c.json", current)
        # tolerance gate passes (current == baseline); only the hard
        # floor trips.
        assert check_regression.main(
            ["--pair", base, cur,
             "--floor", "sharded_sweep.speedup_jobs4_vs_jobs1:1.0:4"]) == 1
        assert "below the hard floor" in capsys.readouterr().err

    def test_floor_skipped_below_min_cpus(self, tmp_path, capsys):
        current = json.loads(json.dumps(FLOORED))
        current["platform"]["cpu_count"] = 1
        current["sharded_sweep"]["speedup_jobs4_vs_jobs1"] = 0.8
        base = _write(tmp_path, "b.json", current)
        cur = _write(tmp_path, "c.json", current)
        assert check_regression.main(
            ["--pair", base, cur,
             "--floor", "sharded_sweep.speedup_jobs4_vs_jobs1:1.0:4"]) == 0
        assert "SKIPPED" in capsys.readouterr().out

    def test_floor_without_min_cpus_always_applies(self, tmp_path):
        current = json.loads(json.dumps(FLOORED))
        current["platform"]["cpu_count"] = 1
        current["sharded_sweep"]["speedup_jobs4_vs_jobs1"] = 0.8
        base = _write(tmp_path, "b.json", current)
        cur = _write(tmp_path, "c.json", current)
        assert check_regression.main(
            ["--pair", base, cur,
             "--floor", "sharded_sweep.speedup_jobs4_vs_jobs1:1.0"]) == 1

    def test_missing_floor_key_fails(self, tmp_path, capsys):
        base = _write(tmp_path, "b.json", FLOORED)
        cur = _write(tmp_path, "c.json", FLOORED)
        assert check_regression.main(
            ["--pair", base, cur, "--floor", "nope.key:1.0"]) == 1
        assert "missing from every current artefact" in \
            capsys.readouterr().err

    def test_bad_floor_arg_rejected(self, tmp_path):
        base = _write(tmp_path, "b.json", FLOORED)
        with pytest.raises(SystemExit):
            check_regression.main(
                ["--pair", base, base, "--floor", "no-minimum"])


BUDGETED = {
    "benchmark": "backends",
    "quick": True,
    "platform": {"cpu_count": 2},
    "stepper": {"n32_r16": {"stepper_us_per_rhs": 4.5,
                            "speedup_stepper_vs_python": 6.0}},
}
BUDGET_KEY = "stepper.n32_r16.stepper_us_per_rhs"


class TestHardCeilings:
    def _run(self, tmp_path, current, *ceilings):
        base = _write(tmp_path, "b.json", current)
        cur = _write(tmp_path, "c.json", current)
        args = ["--pair", base, cur]
        for ceiling in ceilings:
            args += ["--ceiling", ceiling]
        return check_regression.main(args)

    def test_parse_ceiling(self):
        assert check_regression.parse_ceiling("a.b:12") == ("a.b", 12.0, None)
        assert check_regression.parse_ceiling("a.b:12:2") == ("a.b", 12.0, 2)
        for bad in ("a.b", "a.b:x", "a.b:1:y", "a:1:2:3"):
            with pytest.raises(ValueError, match="--ceiling"):
                check_regression.parse_ceiling(bad)

    def test_ceiling_met_passes(self, tmp_path, capsys):
        assert self._run(tmp_path, BUDGETED, f"{BUDGET_KEY}:10") == 0
        assert f"hard ceiling {BUDGET_KEY}: 4.50 vs maximum 10.00 -> ok" in \
            capsys.readouterr().out

    def test_ceiling_equal_to_value_passes(self, tmp_path):
        assert self._run(tmp_path, BUDGETED, f"{BUDGET_KEY}:4.5") == 0

    def test_ceiling_violation_fails(self, tmp_path, capsys):
        # the speedup gate passes (current == baseline); only the
        # absolute budget trips.
        assert self._run(tmp_path, BUDGETED, f"{BUDGET_KEY}:4.0") == 1
        out, err = capsys.readouterr()
        assert "ABOVE CEILING" in out
        assert "above the hard ceiling 4.00" in err

    def test_ceiling_skipped_below_min_cpus(self, tmp_path, capsys):
        assert self._run(tmp_path, BUDGETED, f"{BUDGET_KEY}:4.0:4") == 0
        assert "SKIPPED" in capsys.readouterr().out

    def test_ceiling_with_min_cpus_met_applies(self, tmp_path):
        assert self._run(tmp_path, BUDGETED, f"{BUDGET_KEY}:4.0:2") == 1

    def test_missing_ceiling_key_fails(self, tmp_path, capsys):
        assert self._run(tmp_path, BUDGETED, "stepper.n64_r16.x:1.0") == 1
        assert "hard ceiling stepper.n64_r16.x: key missing" in \
            capsys.readouterr().err

    def test_ceilings_and_floors_combine(self, tmp_path):
        base = _write(tmp_path, "b.json", BUDGETED)
        assert check_regression.main(
            ["--pair", base, base,
             "--floor", "stepper.n32_r16.speedup_stepper_vs_python:2.0",
             "--ceiling", f"{BUDGET_KEY}:10"]) == 0
        assert check_regression.main(
            ["--pair", base, base,
             "--floor", "stepper.n32_r16.speedup_stepper_vs_python:8.0",
             "--ceiling", f"{BUDGET_KEY}:10"]) == 1

    def test_bad_ceiling_arg_rejected(self, tmp_path):
        base = _write(tmp_path, "b.json", BUDGETED)
        with pytest.raises(SystemExit):
            check_regression.main(
                ["--pair", base, base, "--ceiling", "no-maximum"])


class TestFailureDiagnostics:
    def test_failure_names_baseline_and_refresh_command(self, tmp_path,
                                                        capsys):
        current = json.loads(json.dumps(BASELINE))
        current["rhs_ring"]["speedup_sparse_vs_dense"] = 10.0
        base = _write(tmp_path, "base.json", BASELINE)
        cur = _write(tmp_path, "cur.json", current)
        assert check_regression.main(["--pair", base, cur]) == 1
        err = capsys.readouterr().err
        # the refresh hint does not inflate the regression count
        assert "1 perf regression(s)" in err
        assert f"committed baseline: {base}" in err
        assert (f"PYTHONPATH=src python benchmarks/bench_backends.py "
                f"--quick --out {base}") in err

    def test_passing_gate_prints_no_hint(self, tmp_path, capsys):
        base = _write(tmp_path, "base.json", BASELINE)
        assert check_regression.main(["--pair", base, base]) == 0
        assert "committed baseline" not in capsys.readouterr().err
