"""Each benchmark check passes on a right output and fails on a wrong one.

    python3 -m pytest perfbench/test_checks.py

Needs numpy only; pastnet is not imported.
"""
from __future__ import annotations

import math

import numpy as np
import pytest

import checks
from tracing import Tracer


@pytest.fixture
def grid():
    rng = np.random.default_rng(0)
    values = 50.0 + 10.0 * rng.standard_normal((96, 5))
    mask = (rng.random((96, 5)) > 0.4).astype(np.float64)
    mask[0] = 1.0
    return values, mask


def _nudge(a: np.ndarray, index) -> np.ndarray:
    """Copy of ``a`` with one entry moved to the next float up."""
    out = a.copy()
    out[index] = np.nextafter(out[index], np.inf)
    return out


def test_rmse_and_interp_hand_case():
    values = np.array([[0.0], [0.0], [4.0], [0.0]])
    mask = np.array([[1.0], [0.0], [1.0], [0.0]])
    filled = checks.interp_fill(values, mask)
    assert filled[:, 0].tolist() == [0.0, 2.0, 4.0, 4.0]
    truth = np.array([[0.0], [1.0], [4.0], [6.0]])
    assert checks.rmse(filled, truth, mask == 0.0) == math.sqrt((1.0 + 4.0) / 2)


def test_interp_fills_unobserved_node_with_zero():
    values = np.ones((3, 2))
    mask = np.array([[1.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
    assert checks.interp_fill(values, mask)[:, 1].tolist() == [0.0, 0.0, 0.0]


def test_read_csv_grid_round_trip(tmp_path, grid):
    values, _ = grid
    path = tmp_path / "v.csv"
    with open(path, "w") as fh:
        fh.write(",".join(f"n{i}" for i in range(values.shape[1])) + "\n")
        np.savetxt(fh, values, delimiter=",", fmt="%.17g")
    assert np.array_equal(checks.read_csv_grid(str(path)), values)


def test_harness_results_check():
    rows = [{"method": m, "setting": s} for m in ("past", "linear") for s in ("offline", "online")]
    assert checks.check_harness_results({"results": rows, "errors": []}, ["past", "linear"]) == []
    with_error = {"results": rows, "errors": [{"scenario": "f", "method": "knn", "error": "x"}]}
    assert checks.check_harness_results(with_error, ["past", "linear"])
    assert checks.check_harness_results({"results": rows[1:], "errors": []}, ["past", "linear"])


def test_linear_cell_check_is_float_tight():
    assert checks.check_linear_cell(0.3, 0.3) == []
    assert checks.check_linear_cell(0.3 * (1 + 1e-15), 0.3) == []
    assert checks.check_linear_cell(0.3 * (1 + 1e-9), 0.3)
    assert checks.check_linear_cell(float("nan"), 0.3)


def test_below_reference_check():
    assert checks.check_below("m", 0.3, "np.interp", 1.0) == []
    assert checks.check_below("m", 1.0, "np.interp", 1.0)
    assert checks.check_below("m", float("nan"), "np.interp", 1.0)


def test_imputed_span_check(grid):
    values, mask = grid
    out = np.where(mask == 1.0, values, 0.0)
    assert checks.check_imputed_span(out, values, mask) == []
    observed = tuple(np.argwhere(mask == 1.0)[3])
    assert checks.check_imputed_span(_nudge(out, observed), values, mask)
    hidden = tuple(np.argwhere(mask == 0.0)[0])
    broken = out.copy()
    broken[hidden] = np.nan
    assert checks.check_imputed_span(broken, values, mask)
    assert checks.check_imputed_span(out[:-1], values, mask)


def test_exit_code_check():
    assert checks.check_exit_codes({"synth": 0, "train": 0}) == []
    assert checks.check_exit_codes({"synth": 0, "train": 2})


def test_observed_passthrough_check(grid):
    values, mask = grid
    mean, std = float(values.mean()), float(values.std())
    round_trip = (values - mean) / std * std + mean
    imputed = np.where(mask == 1.0, round_trip, mean)
    assert checks.check_observed_passthrough(imputed, values, mask) == []
    observed = tuple(np.argwhere(mask == 1.0)[5])
    perturbed = imputed.copy()
    perturbed[observed] += 1e-9 * abs(perturbed[observed])
    assert checks.check_observed_passthrough(perturbed, values, mask)
    assert checks.check_observed_passthrough(imputed[:, :-1], values, mask)


def test_printed_rmse_parse_and_check():
    printed, decimals = checks.parse_printed_rmse("rmse=2.205447 mae=1.856210\n")
    assert (printed, decimals) == (2.205447, 6)
    own = 2.2054468123
    assert checks.check_printed_rmse(printed, decimals, own) == []
    ulp = 10.0 ** -decimals
    assert checks.check_printed_rmse(printed + ulp, decimals, own)
    assert checks.check_printed_rmse(printed - ulp, decimals, own)
    with pytest.raises(ValueError):
        checks.parse_printed_rmse("nothing here")


def test_tracer_counts_and_probe_excludes_timing():
    tracer = Tracer(full=True, probe=True)
    objective = tracer.wrap("model.objective", lambda: 1)
    adam = tracer.wrap("numcore.adam", lambda: None)
    for _ in range(3):
        objective()
        adam()
    assert tracer.calls("model.objective") == 3
    assert tracer.stats["model.objective"][1] == 2  # the probed step is not timed
    assert len(tracer.peaks["step"]) == 1
    other = Tracer()
    other.merge(tracer.dump())
    assert other.calls("numcore.adam") == 3
