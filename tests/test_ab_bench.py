"""scripts/ab_bench.py runs against the current API and writes its report schema."""
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_ab_bench_smallest_case_runs(tmp_path):
    out = tmp_path / "ab.json"
    child = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "ab_bench.py"), "--before", str(ROOT),
         "--after", str(ROOT), "--rounds", "1", "--repeats", "1", "--case", "span_wo_gim",
         "--out", str(out)],
        cwd=tmp_path, capture_output=True, text=True,
    )
    assert child.returncode == 0, child.stderr[-2000:]
    report = json.loads(out.read_text())
    assert set(report) == {"command", "commits", "machine", "cases"}
    assert list(report["cases"]) == ["span_wo_gim"]
    entry = report["cases"]["span_wo_gim"]
    assert set(entry) == {"workload", "before", "after", "after_over_before", "outputs_identical"}
    assert entry["outputs_identical"] is True
    assert entry["workload"] == {"use_gim": False, "steps_x_nodes": 2304 * 20}
    metrics = {"impute_ms", "sys_ms", "minor_faults", "rss_mib"}
    assert set(entry["before"]) == set(entry["after"]) == set(entry["after_over_before"]) == metrics
