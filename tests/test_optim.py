import numpy as np
import pytest

from pmlm.optim import Adam
from pmlm.tensor import Tensor


def test_zero_gradient_leaves_params_unchanged():
    p = {"w": Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)}
    p["w"].grad = np.zeros(3)
    before = p["w"].data.copy()
    opt = Adam(lr=0.1)
    opt.step(p)
    np.testing.assert_array_equal(p["w"].data, before)
    assert opt.step_count == 1


def test_first_step_moves_by_about_lr():
    # bias-corrected first step: lr * g / (|g| + eps) with g = 1
    p = {"w": Tensor(np.array(0.5), requires_grad=True)}
    p["w"].grad = np.array(1.0)
    Adam(lr=0.1).step(p)
    expected = 0.5 - 0.1 * 1.0 / (1.0 + 1e-8)
    np.testing.assert_allclose(p["w"].data, expected, rtol=0, atol=1e-15)


def test_descends_quadratic():
    # scripted run: f(w) = w^2 from w=1 with lr=0.05 ends near zero
    p = {"w": Tensor(np.array(1.0), requires_grad=True)}
    opt = Adam(lr=0.05)
    for _ in range(100):
        p["w"].grad = 2.0 * p["w"].data
        opt.step(p)
    assert abs(float(p["w"].data)) < 0.1
    assert opt.step_count == 100


def test_rejects_non_finite_gradient_naming_parameter():
    p = {
        "ok": Tensor(np.zeros(2), requires_grad=True),
        "bad_layer": Tensor(np.zeros(2), requires_grad=True),
    }
    p["ok"].grad = np.zeros(2)
    p["bad_layer"].grad = np.array([0.0, np.nan])
    opt = Adam()
    before = p["ok"].data.copy()
    with pytest.raises(ValueError, match="bad_layer"):
        opt.step(p)
    # whole update rejected: nothing moved, step counter untouched
    np.testing.assert_array_equal(p["ok"].data, before)
    assert opt.step_count == 0

