"""Tests for the verdicts and line counts of tools/bench_record.py, loaded by
its path."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"
_spec = importlib.util.spec_from_file_location("bench_record", _PATH)
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)


class TestVerdict:
    PARENT = [100.0, 101.0, 99.0, 100.0, 100.5]

    @pytest.mark.parametrize("sign, change", [(1.0, [70.0] * 5), (-1.0, [130.0] * 5)])
    def test_worse_past_the_bound(self, sign, change):
        assert bench_record.verdict(self.PARENT, change, sign, 0.25) == "worse"

    def test_within_the_bound_is_ok(self):
        change = [80.0, 90.0, 95.0, 85.0, 99.0]
        assert bench_record.verdict(self.PARENT, change, 1.0, 0.25) == "ok"

    def test_spread_past_the_bound_is_unresolved(self):
        parent = [60.0, 100.0, 140.0, 80.0, 120.0]
        assert bench_record.verdict(parent, [95.0] * 5, 1.0, 0.25) == "unresolved"
        # unless every change run beats every parent run
        assert bench_record.verdict(parent, [150.0] * 5, 1.0, 0.25) == "ok"


class TestFailedShare:
    def test_totals_and_share_per_side(self):
        out = bench_record.failed_share({"parent": [0, 2], "change": [1, 0]},
                                        {"parent": [100, 100], "change": [150, 50]})
        assert out["parent"] == {"failed": 2, "attempted": 200, "share": 0.01}
        assert out["change"] == {"failed": 1, "attempted": 200, "share": 0.005}
        assert out["verdict"] == "ok"

    def test_a_higher_share_is_worse(self):
        # one failure in fewer requests is a larger share, though no more failures
        out = bench_record.failed_share({"parent": [1], "change": [1]},
                                        {"parent": [200], "change": [100]})
        assert out["verdict"] == "worse"

    def test_no_failures_and_no_requests_read_zero(self):
        out = bench_record.failed_share({"parent": [0], "change": [0]},
                                        {"parent": [0], "change": [300]})
        assert out["parent"]["share"] == out["change"]["share"] == 0.0
        assert out["verdict"] == "ok"


class TestSrcLines:
    def test_counts_each_python_file_under_src(self, tmp_path):
        pkg = tmp_path / "src" / "pkg"
        (pkg / "sub").mkdir(parents=True)
        (pkg / "a.py").write_text("x = 1\ny = 2\n")
        (pkg / "sub" / "b.py").write_text("z = 3\n# no newline at the end")
        (pkg / "notes.txt").write_text("not code\n")
        (tmp_path / "tools").mkdir()
        (tmp_path / "tools" / "c.py").write_text("outside src\n")
        assert bench_record.src_lines_by_file(tmp_path) == {
            "src/pkg/a.py": 2, "src/pkg/sub/b.py": 1}
        assert bench_record.src_lines(tmp_path) == 3
