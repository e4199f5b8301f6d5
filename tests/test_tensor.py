"""Kernel tests: forward values, gradient checks against central differences,
and the accumulation/determinism contracts."""

import math
from concurrent.futures import ThreadPoolExecutor

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmlm import tensor as T
from pmlm.tensor import Tensor, backward

from helpers import finite_difference_grad, relative_error


def test_softmax_symmetry():
    out = T.softmax(Tensor([0.0, 0.0, 0.0]))
    np.testing.assert_allclose(out.data, [1 / 3, 1 / 3, 1 / 3], rtol=0, atol=1e-15)


def test_softmax_simplex_property():
    rng = np.random.default_rng(7)
    for _ in range(20):
        x = rng.normal(0, 5, size=(4, 9))
        out = T.softmax(Tensor(x)).data
        assert np.all(out >= 0)
        np.testing.assert_allclose(out.sum(axis=-1), 1.0, rtol=0, atol=1e-12)


def test_matmul_identity():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(3, 3))
    out = T.matmul(Tensor(np.eye(3)), Tensor(a))
    np.testing.assert_array_equal(out.data, np.eye(3) @ a)


def test_cross_entropy_two_way_tie():
    # -log softmax([0, 0])[0] = ln 2
    loss = T.cross_entropy_rows(Tensor([[0.0, 0.0]]), np.asarray([0]))
    np.testing.assert_allclose(loss.data, [math.log(2.0)], rtol=0, atol=1e-15)


def test_layer_norm_rows_standardized():
    rng = np.random.default_rng(3)
    x = rng.normal(2.0, 3.0, size=(5, 16))
    out = T.layer_norm(Tensor(x), np.ones(16), np.zeros(16)).data
    np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-8)
    np.testing.assert_allclose(out.var(axis=-1), 1.0, atol=1e-8)


def test_array_ops_match_tensor_ops_bit_for_bit():
    # layer norm sums and divides by the count, as np.mean and np.var do
    rng = np.random.default_rng(14)
    for shape in [(1, 1, 64), (16, 40, 64), (3, 7, 256), (5, 63)]:
        x = rng.normal(rng.normal() * 10, 3.0, size=shape)
        expected = (x - x.mean(axis=-1, keepdims=True)) * (1.0 / np.sqrt(x.var(axis=-1, keepdims=True) + 1e-12))
        ones, zeros = np.ones(shape[-1]), np.zeros(shape[-1])
        np.testing.assert_array_equal(T.layer_norm(Tensor(x), ones, zeros).data, expected)
        w, gain, bias = rng.normal(size=(shape[-1], 24)), rng.normal(size=shape[-1]), rng.normal(size=shape[-1])
        mask = np.where(rng.random(shape) < 0.2, T.NEG_INF, 0.0)
        for ops in (T.array_ops, T.scratch_ops):  # (16, 40, 64) is the one large enough for scratch
            # softmax and add overwrite an argument, so each call gets its own copy
            for op, args in (("layer_norm", (ones, zeros)), ("softmax", ()), ("gelu", ())):
                np.testing.assert_array_equal(getattr(ops, op)(x.copy(), *args), getattr(T, op)(Tensor(x), *args).data)
            np.testing.assert_array_equal(ops.matmul(x, w, w[0]), T.matmul(x, w, bias=w[0]).data)
            np.testing.assert_array_equal(ops.layer_norm(x, gain, bias), T.layer_norm(x, gain, bias).data)
            np.testing.assert_array_equal(ops.softmax(x.copy(), 0.125, mask), T.softmax(x, 0.125, mask).data)
            np.testing.assert_array_equal(ops.add(bias, x.copy()), T.add(bias, x).data)
            flipped = np.swapaxes(x, 0, -1)
            np.testing.assert_array_equal(ops.reshape(flipped, (x.size,)), flipped.reshape(-1))


def _on_a_new_thread(fn):
    """fn() on a thread of its own, which starts with no scratch buffers."""
    with ThreadPoolExecutor(1) as pool:
        return pool.submit(fn).result()


def _address(a: np.ndarray) -> int:
    return a.__array_interface__["data"][0]


def test_a_scratch_buffer_is_handed_out_again_only_once_nothing_refers_to_it():
    def run():
        first = T._scratch((64, 128))  # 64 KiB, the smallest size kept
        address, view = _address(first), first.T[1:]
        del first
        second = T._scratch((64, 128))
        assert not np.shares_memory(second, view)
        del view
        assert _address(T._scratch((128, 64))) == address  # free again, in another shape of its size
        T._scratch((8191,))  # under 64 KiB: allocated, not kept
        return {size: len(bufs) for size, bufs in T._SCRATCH.kept.items()}

    assert _on_a_new_thread(run) == {8192: 2}


def test_a_thread_keeps_at_most_its_share_of_scratch_buffers(monkeypatch):
    monkeypatch.setattr(T, "_SCRATCH_BUFFERS", 2)

    def run():
        held = [T._scratch((8192,)) for _ in range(3)]  # all in use: the third is not kept
        full = sum(map(len, T._SCRATCH.kept.values()))
        del held
        T._scratch((16384,))  # another size: the free buffers make room for it
        return full, {size: len(bufs) for size, bufs in T._SCRATCH.kept.items()}

    assert _on_a_new_thread(run) == (2, {8192: 0, 16384: 1})


_VALUES = st.floats(-1e4, 1e4, allow_nan=False, allow_infinity=False)


@st.composite
def _inputs(draw):
    """An array of 0-3 leading axes (all of length 1: one row) and a last
    axis of 1-24 entries, with values drawn at a drawn scale."""
    one_row = draw(st.booleans())
    lead = draw(st.lists(st.integers(1, 1 if one_row else 4), max_size=3))
    shape = (*lead, draw(st.integers(1, 24)))
    return draw(hnp.arrays(np.float64, shape, elements=_VALUES)) * draw(st.sampled_from([1e-3, 1.0, 1e2]))


@st.composite
def _masks(draw, shape):
    """0 / NEG_INF over ``shape`` with at least one 0 per row: some masks
    leave each row a single unmasked key."""
    masked = draw(hnp.arrays(bool, shape)) | draw(st.booleans())
    keep = draw(hnp.arrays(np.int64, shape[:-1] + (1,), elements=st.integers(0, shape[-1] - 1)))
    np.put_along_axis(masked, keep, False, axis=-1)
    return np.where(masked, T.NEG_INF, 0.0)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(data=st.data(), x=_inputs(), scale=st.floats(1e-3, 10.0))
def test_overwriting_array_kernels_match_the_tensor_ops_bit_for_bit(data, x, scale):
    """Each array kernel on a copy gives the Tensor op's bits; softmax and
    add write into the copy they get, the others leave their input alone."""
    width = x.shape[-1]
    vectors = hnp.arrays(np.float64, (width,), elements=_VALUES)
    gain, bias = data.draw(vectors), data.draw(vectors)
    mask = data.draw(st.none() | _masks(x.shape))
    kept = x.copy()
    np.testing.assert_array_equal(T.array_ops.softmax(x.copy(), scale, mask), T.softmax(x, scale, mask).data)
    for ops in (T.array_ops, T.scratch_ops):
        np.testing.assert_array_equal(ops.layer_norm(x, gain, bias), T.layer_norm(x, gain, bias).data)
        np.testing.assert_array_equal(ops.gelu(x), T.gelu(x).data)
    other = data.draw(hnp.arrays(np.float64, x.shape[data.draw(st.integers(0, x.ndim - 1)):], elements=_VALUES))
    np.testing.assert_array_equal(T.array_ops.add(other, x.copy()), T.add(other, x).data)
    np.testing.assert_array_equal(x, kept)


def test_one_row_layer_norm_has_the_bits_of_its_row_in_a_batch():
    # a single row (a cached decode step) sums on a vector and scalars instead
    rng = np.random.default_rng(16)
    for width in (1, 7, 64, 129, 256):
        x = rng.normal(rng.normal() * 10, rng.uniform(0.01, 100.0), size=(6, width))
        gain, bias, g = rng.normal(size=width), rng.normal(size=width), rng.normal(size=(6, width))
        xb = Tensor(x, requires_grad=True)
        batch = T.layer_norm(xb, gain, bias)
        backward(T.sum_(batch * g))
        for i in range(6):
            row = Tensor(x[i].reshape(1, 1, width), requires_grad=True)
            one = T.layer_norm(row, gain, bias)
            np.testing.assert_array_equal(one.data, batch.data[i].reshape(1, 1, width))
            np.testing.assert_array_equal(T.array_ops.layer_norm(x[i : i + 1], gain, bias), batch.data[i : i + 1])
            backward(T.sum_(one * g[i]))  # its vjp's products run at another shape, so not bit for bit
            np.testing.assert_allclose(row.grad.reshape(-1), xb.grad[i], rtol=1e-12, atol=1e-15)


def test_fused_forwards_equal_the_unfused_composition_bit_for_bit():
    rng = np.random.default_rng(15)
    x = rng.normal(size=(3, 4, 8, 16))
    w, b, gain = rng.normal(size=(16, 24)), rng.normal(size=24), rng.normal(size=16)
    np.testing.assert_array_equal(T.matmul(x, w, bias=b).data, (T.matmul(x, w) + b).data)
    unfused = T.layer_norm(x, np.ones(16), np.zeros(16)) * gain + b[:16]
    np.testing.assert_array_equal(T.layer_norm(x, gain, b[:16]).data, unfused.data)
    # attention: scale, then a [PAD]/causal mask (0 or -1e30), then a relative bias
    mask = np.where(rng.random((3, 1, 8, 16)) < 0.3, T.NEG_INF, 0.0)
    rel = rng.normal(size=(4, 8, 16))
    unfused = T.softmax(x * 0.25 + mask + rel).data
    np.testing.assert_array_equal(T.softmax(x, 0.25, mask).data, T.softmax(x * 0.25 + mask).data)
    np.testing.assert_array_equal(T.softmax(x, 0.25, T.add(rel, mask)).data, unfused)


def test_gelu_reference_points():
    # gelu(0) = 0, gelu(x) -> x for large x, gelu(-x) small
    out = T.gelu(Tensor([0.0, 10.0, -10.0])).data
    np.testing.assert_allclose(out[0], 0.0, atol=1e-15)
    np.testing.assert_allclose(out[1], 10.0, rtol=1e-12)
    np.testing.assert_allclose(out[2], 0.0, atol=1e-12)


def test_sum_gradient_is_ones():
    x = Tensor(np.random.default_rng(0).normal(size=(3, 4)), requires_grad=True)
    backward(T.sum_(x))
    np.testing.assert_array_equal(x.grad, np.ones((3, 4)))


def test_dot_gradient():
    x = Tensor([1.0, 2.0], requires_grad=True)
    backward(T.sum_(x * x))
    np.testing.assert_allclose(x.grad, [2.0, 4.0], rtol=0, atol=1e-15)


def test_backward_accumulates_across_calls():
    x = Tensor([1.0, 2.0], requires_grad=True)
    loss = T.sum_(x * x)
    backward(loss)
    backward(loss)
    np.testing.assert_allclose(x.grad, [4.0, 8.0], rtol=0, atol=1e-15)
    x.zero_grad()
    backward(loss)
    np.testing.assert_allclose(x.grad, [2.0, 4.0], rtol=0, atol=1e-15)


def test_backward_keeps_grad_on_leaves_only():
    rng = np.random.default_rng(1)
    x = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
    w = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
    hidden = x @ w
    act = T.gelu(hidden)
    loss = T.sum_(act)
    backward(loss)
    assert hidden.grad is None and act.grad is None and loss.grad is None
    assert x.grad.shape == x.shape and w.grad.shape == w.shape


def _check_grad(build, *tensors, seed_note=""):
    """Backprop through build() and compare every tensor's grad with central
    finite differences (h=1e-5, rel err < 1e-4)."""
    for t in tensors:
        t.zero_grad()
    backward(build())
    for i, t in enumerate(tensors):
        fd = finite_difference_grad(lambda: build().item(), t.data)
        err = relative_error(t.grad, fd)
        assert err.max() < 1e-4, f"tensor {i} {seed_note}: max rel err {err.max():.3e}"


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_grad_matmul_2d(seed):
    rng = np.random.default_rng(seed)
    a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
    w = Tensor(rng.normal(size=(3, 2)))
    _check_grad(lambda: T.sum_(T.softmax(a @ b) * w), a, b, seed_note=f"seed={seed}")


def test_grad_matmul_batched_broadcast():
    rng = np.random.default_rng(5)
    a = Tensor(rng.normal(size=(2, 3, 4, 5)), requires_grad=True)
    b = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
    _check_grad(lambda: T.sum_(T.gelu(a @ b)), a, b)


def test_grad_add_mul_broadcast():
    rng = np.random.default_rng(6)
    a = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
    b = Tensor(rng.normal(size=(5,)), requires_grad=True)
    _check_grad(lambda: T.sum_((a + b) * b), a, b)


def test_grad_layer_norm():
    rng = np.random.default_rng(8)
    x = Tensor(rng.normal(1.0, 2.0, size=(4, 6)), requires_grad=True)
    w = Tensor(rng.normal(size=(6,)), requires_grad=True)
    _check_grad(lambda: T.sum_(T.layer_norm(x, np.ones(6), np.zeros(6)) * w), x, w)


def test_grad_matmul_bias():
    rng = np.random.default_rng(16)
    a = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
    w = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
    b = Tensor(rng.normal(size=(5,)), requires_grad=True)
    _check_grad(lambda: T.sum_(T.gelu(T.matmul(a, w, bias=b))), a, w, b)


def test_grad_layer_norm_gain_bias():
    rng = np.random.default_rng(17)
    x = Tensor(rng.normal(1.0, 2.0, size=(2, 4, 6)), requires_grad=True)
    gain = Tensor(rng.normal(size=(6,)), requires_grad=True)
    bias = Tensor(rng.normal(size=(6,)), requires_grad=True)
    w = Tensor(rng.normal(size=(6,)))
    _check_grad(lambda: T.sum_(T.gelu(T.layer_norm(x, gain, bias)) * w), x, gain, bias)


def test_grad_softmax_scale_mask_and_bias():
    rng = np.random.default_rng(18)
    a = Tensor(rng.normal(size=(2, 3, 5)), requires_grad=True)
    rel = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
    mask = np.zeros((2, 1, 5))
    mask[0, 0, 3] = mask[1, 0, 0] = T.NEG_INF
    w = Tensor(rng.normal(size=(2, 3, 5)))
    _check_grad(lambda: T.sum_(T.softmax(a, 0.7, mask) * w), a)
    _check_grad(lambda: T.sum_(T.softmax(a, 0.7, rel + mask) * w), a, rel)
    assert not a.grad[0, :, 3].any() and not a.grad[1, :, 0].any()


@pytest.mark.parametrize(
    "idx", [[5, 2, 0, 2, 5, 5], [[4, 1], [0, 3]], np.zeros((0,), dtype=np.int64)],
    ids=["repeated", "unique", "empty"],
)
def test_grad_take_indices(idx):
    rng = np.random.default_rng(19)
    table = Tensor(rng.normal(size=(6, 4)), requires_grad=True)
    _check_grad(lambda: T.sum_(T.gelu(T.take(table, idx))), table)
    # the gradient of a plain sum counts the reads of each row
    table.zero_grad()
    backward(T.sum_(T.take(table, idx)))
    reads = np.bincount(np.asarray(idx).reshape(-1), minlength=6)
    np.testing.assert_array_equal(table.grad, np.broadcast_to(reads[:, None], (6, 4)))


def test_grad_take():
    rng = np.random.default_rng(10)
    table = Tensor(rng.normal(size=(6, 4)), requires_grad=True)
    idx = np.array([0, 2, 2, 5])
    _check_grad(lambda: T.sum_(T.gelu(T.take(table, idx))), table)


def test_grad_cross_entropy():
    rng = np.random.default_rng(11)
    logits = Tensor(rng.normal(size=(5, 9)), requires_grad=True)
    targets = rng.integers(0, 9, size=5)
    weights = Tensor(rng.random(5))
    _check_grad(lambda: T.sum_(T.cross_entropy_rows(logits, targets) * weights), logits)


def test_grad_sum_transpose_reshape():
    rng = np.random.default_rng(12)
    x = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
    _check_grad(lambda: T.sum_(T.reshape(T.transpose(x, (2, 0, 1)), (4, 6)) * 3.0), x)


def test_dropout_scales_surviving_entries():
    rng = np.random.default_rng(13)
    x = Tensor(np.ones((64, 8)), requires_grad=True)
    out = T.dropout(x, 0.25, rng)
    kept = out.data != 0.0
    np.testing.assert_allclose(out.data[kept], 1.0 / 0.75, rtol=0, atol=1e-15)
    backward(T.sum_(out))
    np.testing.assert_array_equal(x.grad != 0.0, kept)
    assert T.dropout(x, 0.0, rng) is x


def test_dropout_equals_the_float_mask_formula_bit_for_bit():
    """The bool keep mask draws the same stream and gives the same bits as
    x * ((r >= rate) / (1 - rate)), forward and gradient."""
    rate = 0.1
    x = Tensor(np.random.default_rng(1).normal(size=(16, 64)), requires_grad=True)
    g = np.random.default_rng(2).normal(size=(16, 64))
    out = T.dropout(x, rate, np.random.default_rng(3))
    backward(T.sum_(out * Tensor(g)))
    mask = (np.random.default_rng(3).random(x.shape) >= rate) / (1.0 - rate)
    np.testing.assert_array_equal(out.data, x.data * mask)
    np.testing.assert_array_equal(x.grad, g * mask)


def test_shape_mismatch_names_primitive_and_shapes():
    with pytest.raises(ValueError, match=r"matmul.*\(3, 4\).*\(3, 4\)"):
        T.matmul(Tensor(np.zeros((3, 4))), Tensor(np.zeros((3, 4))))
    with pytest.raises(ValueError, match=r"add.*\(2,\).*\(3,\)"):
        T.add(Tensor(np.zeros(2)), Tensor(np.zeros(3)))


def test_backward_rejects_non_scalar():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(ValueError, match="scalar"):
        backward(x * x)


def test_cross_entropy_rejects_bad_targets():
    with pytest.raises(ValueError, match="out of range"):
        T.cross_entropy_rows(Tensor(np.zeros((2, 3))), np.array([0, 3]))
    with pytest.raises(ValueError, match="out of range"):
        T.cross_entropy_rows(Tensor(np.zeros((2, 3))), np.array([-1, 0]))
    assert T.cross_entropy_rows(Tensor(np.zeros((0, 3))), np.zeros(0, dtype=np.int64)).shape == (0,)
    with pytest.raises(ValueError, match="non-finite"):
        T.cross_entropy_rows(Tensor(np.array([[np.inf, 0.0]])), np.array([0]))


def test_forward_determinism():
    rng = np.random.default_rng(14)
    x = rng.normal(size=(6, 6))
    a = T.softmax(Tensor(x)).data
    b = T.softmax(Tensor(x.copy())).data
    np.testing.assert_array_equal(a, b)
