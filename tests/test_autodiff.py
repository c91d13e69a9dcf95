"""Tensor primitives, reverse-mode gradients, the finite-difference
checker, and the checkpoint container."""

import numpy as np
import pytest

from prodrank.autodiff import (
    ComputeGraph,
    LOG_FLOOR,
    ShapeError,
    Tensor,
    add,
    as_tensor,
    asum,
    conv1d,
    dot,
    exp,
    finite_difference_check,
    gather_dot,
    gather_rows,
    kernel_bank,
    load_checkpoint,
    log,
    matmul,
    max_pool,
    mul,
    reshape,
    save_checkpoint,
    tanh,
)

from oracles import conv1d_loop


# ---------------------------------------------------------------------------
# Forward semantics
# ---------------------------------------------------------------------------


def test_row_sum():
    out = asum(Tensor([[1.0, 2.0], [3.0, 4.0]]), axis=1)
    assert np.array_equal(out.data, [3.0, 7.0])


def test_dot_orthogonal_rows():
    out = dot(Tensor([[1.0, 0.0]]), Tensor([[0.0, 1.0]]))
    assert out.data.shape == (1, 1)
    assert out.data[0, 0] == 0.0


def test_dot_matrix_shapes():
    # (m,k) x (n,k) -> (m,n)
    a = Tensor(np.arange(6.0).reshape(2, 3))
    b = Tensor(np.arange(12.0).reshape(4, 3))
    out = dot(a, b)
    assert out.data.shape == (2, 4)
    assert np.allclose(out.data, a.data @ b.data.T)


def test_conv1d_matches_nested_loop(rng):
    x = rng.normal(size=(8, 16))
    w = rng.normal(size=(4, 8 * 3))
    out = conv1d(Tensor(x.T), Tensor(w), width=3)
    assert out.data.shape == (4, 14)
    assert np.allclose(out.data, conv1d_loop(x, w, 3), atol=1e-12)


def test_log_floor_guard():
    out = log(Tensor([1.0, 0.0, -5.0]))
    assert out.data[0] == 0.0
    assert out.data[1] == pytest.approx(np.log(LOG_FLOOR))
    assert out.data[2] == pytest.approx(np.log(LOG_FLOOR))


def test_max_pool_forward():
    out = max_pool(Tensor([[1.0, 5.0, 3.0], [4.0, 2.0, 0.0]]), axis=1)
    assert np.array_equal(out.data, [5.0, 4.0])


def test_gather_rows_unknown_id_gives_zero_row():
    table = Tensor(np.arange(6.0).reshape(3, 2))
    out = gather_rows(table, np.array([2, -1, 0]))
    assert np.array_equal(out.data, [[4.0, 5.0], [0.0, 0.0], [0.0, 1.0]])


def test_col_broadcast_mul():
    v = Tensor([2.0, 3.0])
    m = Tensor([[1.0, 1.0, 1.0], [1.0, 1.0, 1.0]])
    out = mul(reshape(v, (2, 1)), m)
    assert np.array_equal(out.data, [[2.0, 2.0, 2.0], [3.0, 3.0, 3.0]])


def test_forward_determinism(rng):
    x = rng.normal(size=(5, 5))
    w = rng.normal(size=(5, 5))
    f = lambda: matmul(tanh(Tensor(x)), Tensor(w)).data
    assert np.array_equal(f(), f())


# ---------------------------------------------------------------------------
# Gradients
# ---------------------------------------------------------------------------


def test_tanh_gradient_at_zero():
    x = Tensor([0.0], requires_grad=True)
    tanh(x).backward()
    assert x.grad[0] == 1.0


def test_dot_gradient_is_other_argument():
    a = Tensor([[1.0, 2.0, 3.0]], requires_grad=True)
    b = Tensor([[4.0, 5.0, 6.0]])
    dot(a, b).backward()
    assert np.array_equal(a.grad, b.data)


def test_grad_accumulates_across_backward_calls():
    x = Tensor([2.0], requires_grad=True)
    mul(x, 3.0).backward()
    mul(x, 3.0).backward()
    assert x.grad[0] == 6.0


def test_backward_seed_scales():
    x = Tensor([2.0], requires_grad=True)
    mul(x, x).backward(seed=0.5)
    assert x.grad[0] == pytest.approx(2.0)


def test_diamond_graph_accumulates_once_per_path():
    # f = x*x + x -> df/dx = 2x + 1
    x = Tensor([3.0], requires_grad=True)
    add(mul(x, x), x).backward()
    assert x.grad[0] == 7.0


def test_reused_node_gradients():
    # y = tanh(x), f = sum(y * y)
    x = Tensor([0.3, -0.8], requires_grad=True)
    y = tanh(x)
    asum(mul(y, y)).backward()
    expect = 2.0 * np.tanh(x.data) * (1.0 - np.tanh(x.data) ** 2)
    assert np.allclose(x.grad, expect)


def test_non_scalar_backward_rejected():
    x = Tensor([[1.0, 2.0]], requires_grad=True)
    with pytest.raises(ValueError, match="scalar"):
        mul(x, 2.0).backward()


def test_broadcast_add_unbroadcasts_gradient():
    bias = Tensor([[1.0], [2.0]], requires_grad=True)  # (2,1) against (2,3)
    m = Tensor(np.ones((2, 3)))
    asum(add(m, bias)).backward()
    assert bias.grad.shape == (2, 1)
    assert np.array_equal(bias.grad, [[3.0], [3.0]])


def test_gather_rows_scatter_adds():
    table = Tensor(np.zeros((3, 2)), requires_grad=True)
    out = gather_rows(table, np.array([1, 1, -1]))
    asum(out).backward()
    assert np.array_equal(table.grad, [[0.0, 0.0], [2.0, 2.0], [0.0, 0.0]])


def test_max_pool_tie_routes_to_first():
    x = Tensor([[2.0, 2.0, 1.0]], requires_grad=True)
    asum(max_pool(x, axis=1)).backward()
    assert np.array_equal(x.grad, [[1.0, 0.0, 0.0]])


def test_log_gradient_zero_below_floor():
    x = Tensor([0.5, 1e-12], requires_grad=True)
    asum(log(x)).backward()
    assert x.grad[0] == pytest.approx(2.0)
    assert x.grad[1] == 0.0


# ---------------------------------------------------------------------------
# Shape errors
# ---------------------------------------------------------------------------


def test_shape_error_names_primitive():
    with pytest.raises(ShapeError, match="matmul"):
        matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))
    with pytest.raises(ShapeError, match="conv1d"):
        conv1d(Tensor(np.ones((2, 2))), Tensor(np.ones((1, 6))), width=3)
    with pytest.raises(ShapeError, match="add"):
        add(Tensor(np.ones(3)), Tensor(np.ones(4)))


def test_shape_fuzzing_only_declared_errors(rng):
    # random shapes into every primitive: either a result or ShapeError
    ops = [
        lambda a, b: add(a, b),
        lambda a, b: mul(a, b),
        lambda a, b: matmul(a, b),
        lambda a, b: dot(a, b),
        lambda a, b: conv1d(a, b, width=2),
        lambda a, b: mul(reshape(a, (a.data.shape[0], 1)), b),
        lambda a, b: asum(a, axis=1),
        lambda a, b: max_pool(a, axis=1),
        lambda a, b: reshape(a, b.data.shape),
    ]
    for _ in range(1000):
        shape_a = tuple(rng.integers(1, 5, size=rng.integers(1, 3)))
        shape_b = tuple(rng.integers(1, 5, size=rng.integers(1, 3)))
        op = ops[rng.integers(len(ops))]
        try:
            op(Tensor(rng.normal(size=shape_a)), Tensor(rng.normal(size=shape_b)))
        except ShapeError:
            pass


# ---------------------------------------------------------------------------
# Finite-difference checker
# ---------------------------------------------------------------------------


def test_fd_linear_graph_exact(rng):
    w = Tensor(rng.normal(size=(1, 6)), requires_grad=True)
    x = Tensor(rng.normal(size=(6, 1)))
    graph = ComputeGraph(lambda: matmul(w, x), [w])
    assert finite_difference_check(graph) <= 1e-10


def test_fd_two_layer_mlp(rng):
    w1 = Tensor(rng.normal(size=(4, 5)) * 0.5, requires_grad=True)
    b1 = Tensor(rng.normal(size=(4, 1)) * 0.5, requires_grad=True)
    w2 = Tensor(rng.normal(size=(1, 4)) * 0.5, requires_grad=True)
    x = Tensor(rng.normal(size=(5, 1)))

    def fn():
        h = tanh(add(matmul(w1, x), b1))
        return matmul(w2, h)

    graph = ComputeGraph(lambda: fn(), [w1, b1, w2])
    assert finite_difference_check(graph) <= 1e-6


def test_fd_catches_planted_bug(rng):
    from prodrank.autodiff import _node

    a = Tensor(rng.normal(size=(3,)), requires_grad=True)
    b = rng.normal(size=(3,))

    def bad_product():
        # forward is a*b summed, but the backward rule is off by 1.3x
        data = a.data * b
        prod = _node(data, (a,), lambda g: ((a, g * b * 1.3),))
        return asum(prod)

    graph = ComputeGraph(bad_product, [a])
    assert finite_difference_check(graph) > 1e-2


def test_fd_exercises_every_primitive(rng, monkeypatch):
    # one composite graph touching conv, pooling, kernels-style exp/log
    # rows, copied contiguous so the checker's in-place perturbation reaches them
    x = Tensor(rng.normal(size=(3, 7)).T.copy(), requires_grad=True)
    w = Tensor(rng.normal(size=(2, 9)) * 0.4, requires_grad=True)
    v = Tensor(rng.normal(size=(2,)) * 0.4, requires_grad=True)

    def fn():
        h = tanh(conv1d(x, w, width=3))
        p = max_pool(h, axis=1)
        e = exp(mul(p, -1.0))
        return asum(log(add(mul(reshape(v, (2, 1)), reshape(e, (2, 1))), 1.0)))

    graph = ComputeGraph(fn, [x, w, v])
    assert finite_difference_check(graph) <= 1e-6

    # backward walks creation order: `s` feeds three later ops, the two
    # branches are built alternately, and the output is not the last tensor
    a = Tensor(rng.normal(size=(3,)), requires_grad=True)
    b = Tensor(rng.normal(size=(3,)), requires_grad=True)

    def interleaved():
        s = tanh(mul(a, b))
        left = mul(s, a)
        right = exp(mul(s, -0.5))
        left = tanh(add(left, b))
        right = mul(right, s)
        out = asum(mul(left, right))
        asum(mul(out, 2.0))
        return out

    graph = ComputeGraph(interleaved, [a, b])
    assert finite_difference_check(graph) <= 1e-6

    # each node's gradient is complete when it is popped, so no entry runs twice
    from prodrank import autodiff

    runs = []
    make = autodiff._node

    def counted(data, parents, backward):
        out = make(data, parents, lambda g: (runs.append(id(out)), backward(g))[1])
        return out

    monkeypatch.setattr(autodiff, "_node", counted)
    interleaved().backward()
    assert len(runs) == len(set(runs)) == 10


def test_graph_reusable_after_parameter_update(rng):
    w = Tensor(rng.normal(size=(1, 3)), requires_grad=True)
    x = Tensor(rng.normal(size=(3, 1)))
    graph = ComputeGraph(lambda: matmul(w, x), [w])
    first = graph.forward()
    w.data = w.data * 2.0
    assert graph.forward() == pytest.approx(2.0 * first)


def test_gradient_descent_decreases_loss(rng):
    # 100 random quadratic-ish graphs: one tiny step downhill helps
    for _ in range(100):
        w = Tensor(rng.normal(size=(4,)), requires_grad=True)
        t = rng.normal(size=(4,))

        def loss():
            d = add(tanh(w), -t)
            return asum(mul(d, d))

        graph = ComputeGraph(loss, [w])
        before = graph.forward()
        graph.zero_grad()
        (g,) = graph.backward()
        w.data = w.data - 1e-6 * g
        after = graph.forward()
        assert after <= before


# ---------------------------------------------------------------------------
# Kernel bank and gathered row products
# ---------------------------------------------------------------------------

MEANS = np.array([1.0, 0.5, -0.3])
WIDTHS = np.array([1e-3, 0.2, 0.4])


def test_kernel_bank_matches_formula(rng):
    x = rng.uniform(-1.0, 1.0, size=(2, 5))
    out = kernel_bank(x, MEANS, WIDTHS).data
    assert out.shape == (3, 2, 5)
    for k in range(3):
        assert np.array_equal(out[k], np.exp((x - MEANS[k]) ** 2 * (-1.0 / (2.0 * WIDTHS[k] ** 2))))


def test_kernel_bank_finite_difference(rng):
    x = Tensor(rng.uniform(-1.0, 1.0, size=(3, 4)), requires_grad=True)
    r = rng.normal(size=(2, 3, 4))
    # the 1e-3 kernel is too narrow for central differences at eps 1e-5
    graph = ComputeGraph(lambda: asum(mul(kernel_bank(x, MEANS[1:], WIDTHS[1:]), r)), [x])
    assert finite_difference_check(graph) <= 1e-6


def test_gather_dot_matches_loop(rng):
    x = rng.normal(size=(3, 4, 5))
    index = np.array([0, 0, 2, 3, 3, 3])
    w = rng.normal(size=(6, 5))
    out = gather_dot(x, index, w).data
    assert out.shape == (6, 3)
    for r in range(6):
        for k in range(3):
            assert out[r, k] == pytest.approx(sum(x[k, index[r], m] * w[r, m] for m in range(5)),
                                              abs=1e-12)


def test_gather_dot_finite_difference(rng):
    x = Tensor(rng.normal(size=(2, 4, 3)), requires_grad=True)
    w = rng.normal(size=(5, 3))
    r = rng.normal(size=(5, 2))
    graph = ComputeGraph(lambda: asum(mul(gather_dot(x, [1, 1, 2, 2, 2], w), r)), [x])
    assert finite_difference_check(graph) <= 1e-6
    # rows never gathered get no gradient
    assert np.all(graph.gradients()[0][:, [0, 3]] == 0.0)


def test_gather_dot_rejects_unsorted_ids(rng):
    with pytest.raises(ShapeError, match="nondecreasing"):
        gather_dot(rng.normal(size=(2, 3, 4)), [1, 0], rng.normal(size=(2, 4)))
    with pytest.raises(ShapeError, match="do not pair"):
        gather_dot(rng.normal(size=(2, 3, 4)), [0, 1], rng.normal(size=(2, 5)))


def test_gather_rows_nd_ids(rng):
    table = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    out = gather_rows(table, np.array([[2, -1], [2, 0]]))
    assert out.data.shape == (2, 2, 3)
    assert np.array_equal(out.data[0, 0], table.data[2]) and np.all(out.data[0, 1] == 0.0)
    asum(out).backward()
    assert np.array_equal(table.grad.sum(axis=1), np.array([1.0, 0.0, 2.0, 0.0]) * 3)


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


def test_checkpoint_round_trip(tmp_path, rng):
    tensors = {
        "embedding": rng.normal(size=(7, 4)),
        "head_w": rng.normal(size=(1, 11)),
        "bias": np.array(3.5),
    }
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, "kernel_pooling nq=10 nd=64", tensors)
    desc, loaded = load_checkpoint(path)
    assert desc == "kernel_pooling nq=10 nd=64"
    assert set(loaded) == set(tensors)
    for name in tensors:
        assert np.array_equal(loaded[name], tensors[name])


def test_checkpoint_rejects_garbage(tmp_path):
    p = tmp_path / "bad.ckpt"
    p.write_bytes(b"not a checkpoint at all")
    with pytest.raises(ValueError, match="not a checkpoint"):
        load_checkpoint(p)


def test_checkpoint_rejects_wrong_version(tmp_path, rng):
    p = tmp_path / "v9.ckpt"
    save_checkpoint(p, "x", {"a": rng.normal(size=(2,))})
    blob = bytearray(p.read_bytes())
    blob[4] = 9  # bump the little-endian version field
    p.write_bytes(bytes(blob))
    with pytest.raises(ValueError, match="version"):
        load_checkpoint(p)
