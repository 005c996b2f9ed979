"""scripts/seed_gate.py summarizes the per-seed runs it is given."""
import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _seed_gate(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))  # seed_gate imports ab_bench
    spec = importlib.util.spec_from_file_location("seed_gate", ROOT / "scripts" / "seed_gate.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_seed_gate_reports_each_seed_and_the_spread_of_each_ratio(tmp_path, monkeypatch):
    # stubbed seed runs, no child process: past/linear is (seed + 1) / 10 on
    # fiber and half that on block, past/past_wo_cgm 0.8 everywhere
    seed_gate = _seed_gate(monkeypatch)
    seeds = []

    def run_child(seed):
        seeds.append(seed)
        past = (seed + 1) / 10
        return {"fiber": {"past": past, "past_wo_cgm": past / 0.8, "linear": 1.0},
                "block": {"past": past, "past_wo_cgm": past / 0.8, "linear": 2.0}}

    out = tmp_path / "gate.json"
    monkeypatch.setattr(seed_gate, "_run_child", run_child)
    monkeypatch.setattr(sys, "argv", ["seed_gate.py", "--out", str(out)])
    assert seed_gate.main() == 0
    assert seeds == list(range(10))
    report = json.loads(out.read_text())
    assert report["command"] == "python3 scripts/seed_gate.py"
    assert list(report["seeds"]) == [str(seed) for seed in range(10)]
    fiber = report["seeds"]["2"]["fiber"]
    assert fiber["online_rmse"] == {"past": 0.3, "past_wo_cgm": 0.3 / 0.8, "linear": 1.0}
    assert fiber["past/linear"] == pytest.approx(0.3)
    assert fiber["past/past_wo_cgm"] == pytest.approx(0.8)
    spread = report["distribution"]
    assert spread["fiber"]["past/linear"] == pytest.approx(
        {"median": 0.55, "q1": 0.325, "q3": 0.775, "n": 10})
    assert spread["block"]["past/linear"]["median"] == pytest.approx(0.275)
    assert spread["block"]["past/past_wo_cgm"] == pytest.approx(
        {"median": 0.8, "q1": 0.8, "q3": 0.8, "n": 10})

