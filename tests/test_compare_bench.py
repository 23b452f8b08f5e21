"""Tests for the perfbench ``BENCH_<date>.json`` record and its regression gate.

``run_bench.workload_entry`` is fed canned perfbench output, so no
perfbench run happens here.  ``compare_bench.compare`` is checked against
a two-metric spec in the shape of ``BENCHMARK.json``, and
``check_bench_regression.latest_baseline`` and ``run_bench.record_path``
against a directory of records.
"""

import datetime
import json
import os
import sys

import pytest

HERE = os.path.dirname(__file__)
sys.path.insert(0, os.path.join(HERE, "..", "benchmarks"))
sys.path.insert(0, os.path.join(HERE, "..", "scripts"))

from check_bench_regression import latest_baseline  # noqa: E402
from compare_bench import HARNESS, compare, load_record  # noqa: E402
from run_bench import record_path, workload_entry  # noqa: E402

SPEC = {
    "end_to_end": [
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "ops_per_cpu_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    ],
    "per_layer": [
        {"name": "perf.matrix_fills", "unit": "count", "better": "lower"},
        {"name": "perf.fill.self_s", "unit": "s", "better": "lower"},
    ],
}


def entry(setup_s=1.0, ops=100.0, correct=True, attempted=10, failed=0, layers=None):
    return {
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {"setup_s": setup_s, "ops_per_cpu_s": ops},
        "host_speed": {"probes": 4, "median": 1.0, "q1": 0.9, "q3": 1.1},
        "layers": layers or {"perf.matrix_fills": 7, "perf.fill.self_s": 0.5},
        "checks": [],
    }


def write_record(path, workloads):
    """Write a minimal perfbench record of ``workloads`` (name -> entry)."""
    path.write_text(json.dumps({"harness": HARNESS, "workloads": workloads}))
    return str(path)


def write_pytest_benchmark(path):
    """Write a record in the pytest-benchmark format of the older BENCH files."""
    path.write_text(json.dumps({"benchmarks": [{"fullname": "fig6", "stats": {"mean": 1.0}}]}))
    return str(path)


def run_compare(tmp_path, old, new):
    return compare(write_record(tmp_path / "old.json", old),
                   write_record(tmp_path / "new.json", new), SPEC)


class TestLoadRecord:
    def test_reads_workloads(self, tmp_path):
        path = write_record(tmp_path / "a.json", {"w": entry(setup_s=0.5)})
        workloads = load_record(path)
        assert list(workloads) == ["w"]
        assert workloads["w"]["metrics"] == {"setup_s": 0.5, "ops_per_cpu_s": 100.0}

    def test_tolerates_missing_metric(self, tmp_path, capsys):
        # a baseline that predates a BENCHMARK.json metric still compares
        old = entry()
        del old["metrics"]["ops_per_cpu_s"]
        assert run_compare(tmp_path, {"w": old}, {"w": entry(ops=1.0)}) == 0
        assert "ops_per_cpu_s     only in one record" in capsys.readouterr().out

    def test_rejects_pytest_benchmark_record(self, tmp_path):
        with pytest.raises(ValueError, match="not a perfbench record"):
            load_record(write_pytest_benchmark(tmp_path / "old.json"))


class TestCompareTolerance:
    def test_key_only_in_new_record_passes(self, tmp_path, capsys):
        """A new workload absent from the baseline must not fail the diff."""
        assert run_compare(tmp_path, {"a": entry()},
                           {"a": entry(), "b": entry(ops=1.0)}) == 0
        out = capsys.readouterr().out
        assert "only in" in out and out.rstrip().endswith(": b")
        assert "REGRESSION" not in out

    def test_key_only_in_old_record_passes(self, tmp_path):
        assert run_compare(tmp_path, {"a": entry(), "retired": entry()},
                           {"a": entry()}) == 0

    def test_disjoint_records_pass(self, tmp_path, capsys):
        assert run_compare(tmp_path, {"a": entry()}, {"b": entry()}) == 0
        assert "no workloads in common" in capsys.readouterr().out

    def test_common_regression_still_fails(self, tmp_path, capsys):
        assert run_compare(tmp_path, {"a": entry(), "only_old": entry()},
                           {"a": entry(ops=50.0), "only_new": entry()}) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_improvement_passes(self, tmp_path, capsys):
        assert run_compare(tmp_path, {"a": entry(setup_s=2.0, ops=50.0)},
                           {"a": entry(setup_s=1.0, ops=100.0)}) == 0
        assert "counter changed" not in capsys.readouterr().out  # counters equal


class TestBounds:
    @pytest.mark.parametrize("setup_s, status", [(1.24, 0), (1.26, 1)])
    def test_lower_is_better_bound(self, tmp_path, setup_s, status):
        assert run_compare(tmp_path, {"a": entry(setup_s=1.0)},
                           {"a": entry(setup_s=setup_s)}) == status

    @pytest.mark.parametrize("ops, status", [(76.0, 0), (74.0, 1)])
    def test_higher_is_better_bound(self, tmp_path, ops, status):
        assert run_compare(tmp_path, {"a": entry(ops=100.0)},
                           {"a": entry(ops=ops)}) == status

    def test_changed_counter_reported_not_failed(self, tmp_path, capsys):
        new = entry(layers={"perf.matrix_fills": 9, "perf.fill.self_s": 5.0})
        assert run_compare(tmp_path, {"a": entry()}, {"a": new}) == 0
        out = capsys.readouterr().out
        assert "counter changed: perf.matrix_fills 7 -> 9" in out
        assert "perf.fill.self_s" not in out  # timings are not counters

    def test_incorrect_record_fails(self, tmp_path, capsys):
        assert run_compare(tmp_path, {}, {"a": entry(correct=False)}) == 1
        assert "correct is false" in capsys.readouterr().out

    def test_larger_failed_share_fails(self, tmp_path, capsys):
        assert run_compare(tmp_path, {"a": entry(attempted=10, failed=1)},
                           {"a": entry(attempted=20, failed=2)}) == 0
        assert run_compare(tmp_path, {"a": entry(attempted=10, failed=1)},
                           {"a": entry(attempted=20, failed=3)}) == 1
        assert "failed share rose" in capsys.readouterr().out


class TestBaseline:
    def test_skips_pytest_benchmark_records(self, tmp_path):
        write_record(tmp_path / "BENCH_20261001.json", {"a": entry()})
        write_record(tmp_path / "BENCH_20260901.json", {"a": entry()})
        write_pytest_benchmark(tmp_path / "BENCH_20261101.json")
        write_record(tmp_path / "BENCH_20261201-draft.json", {"a": entry()})
        assert latest_baseline(tmp_path).name == "BENCH_20261001.json"

    def test_same_day_suffix_is_newest(self, tmp_path):
        write_record(tmp_path / "BENCH_20261018.json", {"a": entry()})
        assert latest_baseline(tmp_path).name == "BENCH_20261018.json"
        # suffixes order numerically, after the day's unsuffixed record
        for n in (2, 10, 9):
            write_record(tmp_path / f"BENCH_20261018_{n}.json", {"a": entry()})
        write_record(tmp_path / "BENCH_20261017_5.json", {"a": entry()})
        assert latest_baseline(tmp_path).name == "BENCH_20261018_10.json"
        write_pytest_benchmark(tmp_path / "BENCH_20261018_11.json")
        assert latest_baseline(tmp_path).name == "BENCH_20261018_10.json"

    def test_no_perfbench_record_exits(self, tmp_path):
        write_pytest_benchmark(tmp_path / "BENCH_20260807.json")
        with pytest.raises(SystemExit, match="no perfbench"):
            latest_baseline(tmp_path)


class TestRecordPath:
    DAY = datetime.date(2026, 10, 18)

    def test_free_day_takes_the_plain_name(self, tmp_path):
        write_record(tmp_path / "BENCH_20261017.json", {"a": entry()})
        assert record_path(tmp_path, self.DAY).name == "BENCH_20261018.json"

    def test_existing_records_are_never_overwritten(self, tmp_path):
        names = []
        for _ in range(3):
            path = record_path(tmp_path, self.DAY)
            names.append(path.name)
            write_record(path, {"a": entry()})
        assert names == ["BENCH_20261018.json", "BENCH_20261018_2.json",
                         "BENCH_20261018_3.json"]
        assert latest_baseline(tmp_path).name == "BENCH_20261018_3.json"


PLAIN_STDOUT = """\
workload serve-fleet (seed 1): open: Poisson 89519 req/s, 10000 requests
cycles: 3; ops per nominal CPU-second by cycle: 3.428e+04, 3.642e+04
host speed from 60 probes (1 = nominal): median 0.725, quartiles 0.658-0.999
CHECK FAILED: sim figures differ between cycles of one seed
{"correct": false, "attempted": 30000, "failed": 2, "metrics": \
{"setup_s": {"value": 0.55, "unit": "s"}, "sim_quality": {"value": 0.97, "unit": "ratio"}}}
"""
TRACED_STDOUT = """\
traced cycles: 2, untraced: 2; traced cycle wall 0.700 s
{"correct": true, "attempted": 40000, "failed": 1, "metrics": \
{"perf.matrix_fills": {"value": 0, "unit": "count"}}}
"""
LAYERS_TEXT = json.dumps({
    "workload": "serve-fleet", "cycle_wall_s": 0.7,
    "metrics": {"perf.matrix_fills": 0, "serve.plans.calls": 5},
    "checks": [{"label": "serve.simulator calls == one run per cycle",
                "wrapper": 1, "program": 1}],
})


class TestRecordAssembly:
    def test_workload_entry_from_canned_output(self):
        assert workload_entry(PLAIN_STDOUT, TRACED_STDOUT, LAYERS_TEXT) == {
            "correct": False,
            "attempted": 70000,
            "failed": 3,
            "metrics": {"setup_s": 0.55, "sim_quality": 0.97},
            "host_speed": {"probes": 60, "median": 0.725, "q1": 0.658, "q3": 0.999},
            "layers": {"perf.matrix_fills": 0, "serve.plans.calls": 5},
            "checks": [{"label": "serve.simulator calls == one run per cycle",
                        "wrapper": 1, "program": 1}],
        }
