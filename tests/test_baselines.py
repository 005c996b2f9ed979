import numpy as np
import pytest

from pastnet.baselines import baseline_knn, baseline_linear
from pastnet.metrics import rmse_mae


# ---- metrics ----


def test_rmse_mae_exact_prediction():
    truth = np.arange(12.0).reshape(4, 3)
    mask = np.ones((4, 3))
    assert rmse_mae(truth, truth, mask) == (0.0, 0.0)


def test_rmse_mae_constant_error():
    truth = np.zeros((2, 3))
    pred = np.full((2, 3), -2.5)
    rmse, mae = rmse_mae(pred, truth, np.ones((2, 3)))
    assert rmse == pytest.approx(2.5) and mae == pytest.approx(2.5)


def test_rmse_mae_hand_case():
    # errors {1, -3}: rmse = sqrt((1+9)/2) = sqrt(5), mae = (1+3)/2 = 2
    truth = np.zeros(2)
    pred = np.array([1.0, -3.0])
    rmse, mae = rmse_mae(pred, truth, np.ones(2))
    assert rmse == pytest.approx(np.sqrt(5.0), rel=1e-12)
    assert mae == pytest.approx(2.0, rel=1e-12)


def test_rmse_mae_ignores_unselected_entries():
    rng = np.random.default_rng(0)
    truth = rng.normal(size=(8, 5))
    pred = truth + rng.normal(size=(8, 5))
    mask = (rng.random((8, 5)) < 0.4).astype(float)
    mask[0, 0] = 1.0
    base = rmse_mae(pred, truth, mask)
    poisoned = pred.copy()
    poisoned[mask == 0.0] = 1e9
    assert rmse_mae(poisoned, truth, mask) == base


def test_rmse_mae_bounds_and_validation():
    rng = np.random.default_rng(1)
    truth, pred = rng.normal(size=(6, 6)), rng.normal(size=(6, 6))
    rmse, mae = rmse_mae(pred, truth, np.ones((6, 6)))
    assert rmse >= mae >= 0.0
    with pytest.raises(ValueError, match="empty eval mask"):
        rmse_mae(pred, truth, np.zeros((6, 6)))
    with pytest.raises(ValueError, match="0 or 1"):
        rmse_mae(pred, truth, np.full((6, 6), 0.5))
    with pytest.raises(ValueError, match="share one shape"):
        rmse_mae(pred, truth, np.ones((6, 5)))


# ---- linear baseline ----


def test_linear_midpoint():
    x = np.array([[1.0], [0.0], [3.0]])
    m = np.array([[1.0], [0.0], [1.0]])
    assert baseline_linear(x, m)[1, 0] == pytest.approx(2.0)


def test_linear_interior_line():
    # points (0, 0) and (4, 8) give the line y = 2t
    x = np.array([0.0, 9.0, 9.0, 9.0, 8.0])[:, None]
    m = np.array([1.0, 0.0, 0.0, 0.0, 1.0])[:, None]
    out = baseline_linear(x, m)[:, 0]
    assert out.tolist() == [0.0, 2.0, 4.0, 6.0, 8.0]


def test_linear_edge_gaps_nearest_fill():
    x = np.array([9.0, 9.0, 5.0, 7.0, 9.0])[:, None]
    m = np.array([0.0, 0.0, 1.0, 1.0, 0.0])[:, None]
    out = baseline_linear(x, m)[:, 0]
    assert out.tolist() == [5.0, 5.0, 5.0, 7.0, 7.0]


def test_linear_all_missing_node_zero_filled():
    x = np.ones((4, 2))
    m = np.stack([np.ones(4), np.zeros(4)], axis=1)
    with pytest.warns(UserWarning, match="no observed steps"):
        out = baseline_linear(x, m)
    assert np.array_equal(out[:, 1], np.zeros(4))
    assert np.array_equal(out[:, 0], np.ones(4))


def test_linear_exact_on_affine_node():
    t = np.arange(30.0)
    x = (3.0 * t - 5.0)[:, None]
    m = np.ones((30, 1))
    m[7:19, 0] = 0.0  # interior gap only
    assert np.allclose(baseline_linear(x, m), x, atol=1e-9)


def test_linear_observed_passthrough():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(20, 4))
    m = (rng.random((20, 4)) < 0.6).astype(float)
    m[0] = m[-1] = 1.0
    out = baseline_linear(x, m)
    assert np.array_equal(out[m == 1.0], x[m == 1.0])


# ---- knn baseline ----


def knn_fixture():
    # node 0 loses step 11; nodes 1 and 2 stay fully observed.  Offsets make
    # node 1 the closest neighbor: msd(0,1)=0.01, msd(0,2)=1.0 over the 11
    # co-observed steps.
    t = np.arange(12.0)
    x = np.stack([t, t + 0.1, t + 1.0], axis=1)
    x[11, 0] = -99.0  # junk under the mask
    x[11, 1] = 20.0
    x[11, 2] = 30.0
    m = np.ones((12, 3))
    m[11, 0] = 0.0
    return x, m


def test_knn_nearest_neighbor_value():
    x, m = knn_fixture()
    assert baseline_knn(x, m, k=1)[11, 0] == pytest.approx(20.0)


def test_knn_two_neighbor_average():
    x, m = knn_fixture()
    assert baseline_knn(x, m, k=2)[11, 0] == pytest.approx(25.0)


def test_knn_k_clamps_to_available():
    x, m = knn_fixture()
    assert baseline_knn(x, m, k=50)[11, 0] == pytest.approx(25.0)


def test_knn_identical_twin_copies_value():
    t = np.arange(12.0)
    x = np.stack([t, t], axis=1)
    m = np.ones((12, 2))
    m[4, 0] = 0.0
    x[4, 0] = 123.0
    assert baseline_knn(x, m, k=1)[4, 0] == pytest.approx(4.0)


def test_knn_tie_breaks_by_node_index():
    # both neighbors match node 0 exactly, so the stable sort keeps node 1
    t = np.arange(12.0)
    x = np.stack([t, t, t], axis=1)
    m = np.ones((12, 3))
    m[6, 0] = 0.0
    x[6, 1] = 7.0
    x[6, 2] = 9.0
    assert baseline_knn(x, m, k=1)[6, 0] == pytest.approx(7.0)


def test_knn_step_with_no_observed_neighbor_falls_back():
    t = np.arange(14.0)
    x = np.stack([2.0 * t, 2.0 * t], axis=1)
    m = np.ones((14, 2))
    m[5, :] = 0.0  # nobody observed at step 5
    out = baseline_knn(x, m, k=1)
    # linear fallback on node 0: midpoint of 2*4 and 2*6
    assert out[5, 0] == pytest.approx(10.0)


def test_knn_sparse_pair_excluded_from_ranking():
    t = np.arange(12.0)
    x = np.stack([t, t], axis=1)
    m = np.ones((12, 2))
    m[:7, 1] = 0.0  # only 5 co-observed steps, below the cutoff
    m[3, 0] = 0.0
    out = baseline_knn(x, m, k=1)
    assert out[3, 0] == pytest.approx(3.0)  # linear fill, not the twin


def test_knn_observed_passthrough_and_validation():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(25, 5))
    m = (rng.random((25, 5)) < 0.7).astype(float)
    out = baseline_knn(x, m, k=3)
    assert np.array_equal(out[m == 1.0], x[m == 1.0])
    with pytest.raises(ValueError, match="k must be"):
        baseline_knn(x, m, k=0)
    with pytest.raises(ValueError, match="0 or 1"):
        baseline_knn(x, np.full_like(m, 0.5), k=1)
