"""Output checks of the benchmark, independent of the program under test.

Every function takes plain numpy arrays or numbers and returns a list of
failure messages (empty when the check passes).  Nothing here imports
pastnet: reference values (interpolation, RMSE, CSV parsing) are
computed from scratch so that a fault in the program cannot hide in the
reference.
"""
from __future__ import annotations

import math

import numpy as np

# relative tolerance for two float64 computations of the same RMSE whose
# summation order may differ
RMSE_RTOL = 1e-12
# relative tolerance for an observed value that went through the CLI's
# normalize / denormalize round trip, (x - mean) / std * std + mean
ROUND_TRIP_RTOL = 1e-12


def rmse(pred: np.ndarray, truth: np.ndarray, hidden: np.ndarray) -> float:
    """Root mean square error over the entries where ``hidden`` is true."""
    err = np.asarray(pred, dtype=np.float64)[hidden] - np.asarray(truth, dtype=np.float64)[hidden]
    return math.sqrt(float(np.mean(err * err)))


def interp_fill(values: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Per-node straight lines between observations (np.interp), (T, N) grid.

    Gaps at either end take the nearest observation; a node with no
    observation at all is filled with 0, the mean of normalized data.
    """
    out = np.array(values, dtype=np.float64)
    t = np.arange(out.shape[0], dtype=np.float64)
    for u in range(out.shape[1]):
        obs = mask[:, u] == 1.0
        if not obs.any():
            out[:, u] = 0.0
            continue
        out[~obs, u] = np.interp(t[~obs], t[obs], out[obs, u])
    return out


def read_csv_grid(path: str) -> np.ndarray:
    """A header line of node ids, then one comma-separated row per step."""
    with open(path) as fh:
        fh.readline()
        rows = [[float(cell) for cell in line.split(",")] for line in fh if line.strip()]
    return np.array(rows, dtype=np.float64)


def same_float(a: float, b: float, rtol: float = RMSE_RTOL) -> bool:
    return math.isfinite(a) and math.isfinite(b) and abs(a - b) <= rtol * max(abs(a), abs(b))


# ---- desk_fiber ----


def check_harness_results(payload: dict, methods: list[str]) -> list[str]:
    """results.json of one fiber row: no cell errors, every cell scored."""
    fails = [f"cell error: {e}" for e in payload.get("errors", [])]
    cells = {(r["method"], r["setting"]) for r in payload.get("results", [])}
    for method in methods:
        for setting in ("offline", "online"):
            if (method, setting) not in cells:
                fails.append(f"missing cell {method}/{setting}")
    return fails


def check_linear_cell(reported: float, reference: float) -> list[str]:
    """The harness's linear cell must equal the benchmark's own np.interp."""
    if same_float(reported, reference):
        return []
    return [f"linear RMSE {reported!r} differs from np.interp reference {reference!r}"]


def check_below(name: str, model_rmse: float, reference: str, reference_rmse: float) -> list[str]:
    """A trained imputer's RMSE must be finite and below a simpler method's."""
    if math.isfinite(model_rmse) and model_rmse < reference_rmse:
        return []
    return [f"{name} RMSE {model_rmse!r} not below {reference} RMSE {reference_rmse!r}"]


# ---- span_impute ----


def check_imputed_span(out: np.ndarray, values: np.ndarray, mask: np.ndarray) -> list[str]:
    """Observed entries come back bit-identical and every output is finite."""
    fails = []
    if out.shape != values.shape:
        return [f"output shape {out.shape} != input shape {values.shape}"]
    observed = mask == 1.0
    changed = int(np.count_nonzero(out[observed] != values[observed]))
    if changed:
        fails.append(f"{changed} observed entries changed")
    bad = int(np.count_nonzero(~np.isfinite(out)))
    if bad:
        fails.append(f"{bad} non-finite outputs")
    return fails


# ---- cli_defaults ----


def check_exit_codes(codes: dict[str, int]) -> list[str]:
    return [f"pastnet {cmd} exited {code}" for cmd, code in codes.items() if code != 0]


def check_observed_passthrough(imputed: np.ndarray, values: np.ndarray, mask: np.ndarray) -> list[str]:
    """The imputed file equals the input file on observed entries.

    Allows the rounding of the CLI's normalize / denormalize round trip,
    a few units in the last place of the largest value; see CHANGES.md.
    """
    if imputed.shape != values.shape or mask.shape != values.shape:
        return [f"shapes differ: imputed {imputed.shape}, values {values.shape}, mask {mask.shape}"]
    fails = []
    observed = mask == 1.0
    tol = ROUND_TRIP_RTOL * float(np.max(np.abs(values)))
    worst = float(np.max(np.abs(imputed[observed] - values[observed]), initial=0.0))
    if not worst <= tol:
        fails.append(f"observed entry moved by {worst!r} (> {tol!r})")
    if not np.all(np.isfinite(imputed)):
        fails.append("non-finite imputed values")
    return fails


def parse_printed_rmse(stdout: str) -> tuple[float, int]:
    """``rmse=<x> ...`` from ``pastnet evaluate``: the value and its decimals."""
    for token in stdout.split():
        if token.startswith("rmse="):
            text = token[len("rmse="):]
            decimals = len(text.split(".")[1]) if "." in text else 0
            return float(text), decimals
    raise ValueError(f"no rmse= in evaluate output {stdout!r}")


def check_printed_rmse(printed: float, decimals: int, own: float) -> list[str]:
    """The printed RMSE is our own RMSE rounded to the printed precision.

    Rounding moves a value by at most half a unit of the last printed
    digit, so one unit off (or more) fails.
    """
    half_ulp = 0.5 * 10.0 ** (-decimals)
    if abs(printed - own) <= half_ulp * (1.0 + 1e-9):
        return []
    return [f"evaluate printed rmse {printed!r} but the files give {own!r}"]
