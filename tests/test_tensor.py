import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualvit import tensor as T
from dualvit.errors import ContractError, DimensionError
from dualvit.tensor import Tensor


def finite_diff(loss_fn, arr, step=1e-6):
    """Central-difference gradient of a scalar loss w.r.t. a raw array."""
    grad = np.zeros_like(arr)
    flat = arr.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        plus = loss_fn()
        flat[i] = orig - step
        minus = loss_fn()
        flat[i] = orig
        gflat[i] = (plus - minus) / (2 * step)
    return grad


def assert_grad_close(analytic, numeric, tol=1e-4, atol=1e-7):
    """Relative comparison with a small absolute floor.

    The floor absorbs central-difference truncation noise on entries whose
    true gradient is near zero, where a pure relative test is meaningless.
    """
    denom = np.maximum(np.abs(analytic), np.abs(numeric))
    err = np.abs(analytic - numeric) - atol
    rel = np.maximum(err, 0.0) / np.maximum(denom, 1e-8)
    assert rel.max() < tol, f"max rel grad error {rel.max():.3e}"


class TestMatmul:
    def test_identity(self, rng):
        m = rng.standard_normal((2, 2))
        out = T.matmul(Tensor(np.eye(2)), Tensor(m))
        np.testing.assert_allclose(out.data, m, rtol=1e-6)

    def test_scalar_case(self):
        out = T.matmul(Tensor([[2.0]]), Tensor([[3.0]]))
        assert out.data[0, 0] == pytest.approx(6.0)

    def test_hand_oracle(self):
        out = T.matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[5.0, 6.0], [7.0, 8.0]]))
        np.testing.assert_allclose(out.data, [[19.0, 22.0], [43.0, 50.0]], rtol=1e-6)

    def test_batched(self, rng):
        a = rng.standard_normal((3, 2, 4))
        b = rng.standard_normal((3, 4, 5))
        out = T.matmul(Tensor(a), Tensor(b))
        np.testing.assert_allclose(out.data, a @ b, rtol=1e-5)

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 2\)"):
            T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 2))))

    def test_backward_rule(self, rng):
        a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        b = Tensor(rng.standard_normal((4, 2)), requires_grad=True)
        g = rng.standard_normal((3, 2))
        out = T.sum_all(T.mul(T.matmul(a, b), Tensor(g)))
        out.backward()
        np.testing.assert_allclose(a.grad, g @ b.data.T, rtol=1e-5)
        np.testing.assert_allclose(b.grad, a.data.T @ g, rtol=1e-5)


class TestSoftmax:
    def test_uniform(self):
        out = T.softmax_lastdim(Tensor([0.0, 0.0, 0.0]))
        np.testing.assert_allclose(out.data, [1 / 3] * 3, rtol=1e-6)

    def test_analytic_forced(self):
        out = T.softmax_lastdim(Tensor([0.0, math.log(2.0)]))
        np.testing.assert_allclose(out.data, [1 / 3, 2 / 3], rtol=1e-6)

    def test_stabilized(self):
        out = T.softmax_lastdim(Tensor([1000.0, 0.0]))
        assert np.all(np.isfinite(out.data))
        assert out.data[0] == pytest.approx(1.0)
        assert out.data[1] == pytest.approx(0.0, abs=1e-12)

    def test_empty_last_dim(self):
        with pytest.raises(DimensionError):
            T.softmax_lastdim(Tensor(np.zeros((2, 0))))

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.lists(st.floats(-50, 50), min_size=1, max_size=6),
                    min_size=1, max_size=4).filter(
                        lambda rows: len({len(r) for r in rows}) == 1))
    def test_rows_are_distributions(self, rows):
        out = T.softmax_lastdim(Tensor(np.asarray(rows, dtype=np.float64))).data
        assert np.all(out > 0) and np.all(out <= 1)
        np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-6)


class TestLayerNorm:
    def test_constant_token(self):
        out = T.layernorm(Tensor([5.0, 5.0, 5.0, 5.0]), Tensor(np.ones(4)),
                          Tensor(np.zeros(4)))
        np.testing.assert_allclose(out.data, np.zeros(4), atol=1e-3)

    def test_already_standardized(self, rng):
        x = rng.standard_normal(8)
        x = (x - x.mean()) / x.std()
        out = T.layernorm(Tensor(x), Tensor(np.ones(8)), Tensor(np.zeros(8)))
        np.testing.assert_allclose(out.data, x, atol=1e-5)

    def test_two_point_oracle(self):
        # mean 2, population std 1 -> standardized to [-1, 1]
        out = T.layernorm(Tensor(np.array([1.0, 3.0])), Tensor(np.ones(2)),
                          Tensor(np.zeros(2)))
        np.testing.assert_allclose(out.data, [-1.0, 1.0], atol=1e-5)

    def test_affine_shape_mismatch(self):
        with pytest.raises(DimensionError):
            T.layernorm(Tensor(np.zeros(4)), Tensor(np.ones(3)), Tensor(np.zeros(4)))


class TestBackward:
    def test_sum_gives_ones(self, rng):
        w = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
        T.sum_all(w).backward()
        np.testing.assert_array_equal(w.grad, np.ones((2, 3)))

    def test_half_square_norm(self):
        w = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        T.scale(T.sum_all(T.mul(w, w)), 0.5).backward()
        np.testing.assert_allclose(w.grad, [1.0, -2.0], rtol=1e-6)

    def test_non_scalar_loss_rejected(self):
        with pytest.raises(ContractError):
            Tensor(np.zeros(3), requires_grad=True).backward()

    def test_repeated_backward_accumulates(self):
        w = Tensor(np.ones(2), requires_grad=True)
        T.sum_all(w).backward()
        T.sum_all(w).backward()
        np.testing.assert_array_equal(w.grad, 2 * np.ones(2))

    def test_repeated_backward_on_one_graph_accumulates(self):
        w = Tensor(np.ones(2), requires_grad=True)
        loss = T.sum_all(T.scale(w, 2.0))
        loss.backward()
        loss.backward()
        np.testing.assert_array_equal(w.grad, 4 * np.ones(2))

    def test_only_leaves_hold_grad(self, rng):
        w = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        b = Tensor(rng.standard_normal(4), requires_grad=True)
        h = T.gelu(T.add(T.matmul(Tensor(rng.standard_normal((2, 3))), w), b))
        loss = T.sum_all(T.mul(h, h))
        loss.backward()
        nodes, stack = {}, [loss]
        while stack:
            node = stack.pop()
            nodes[id(node)] = node
            stack.extend(node._parents)
        interior = [n for n in nodes.values() if n._parents]
        assert len(interior) == 5
        assert all(n.grad is None for n in interior)
        assert w.grad is not None and b.grad is not None

    def test_fanout_accumulates(self):
        w = Tensor(np.array([3.0]), requires_grad=True)
        T.sum_all(T.add(w, w)).backward()
        np.testing.assert_allclose(w.grad, [2.0])

    def test_random_graph_vs_finite_differences(self, rng):
        w = Tensor(rng.standard_normal((3, 4)).astype(np.float64), requires_grad=True)
        b = Tensor(rng.standard_normal((4, 3)).astype(np.float64), requires_grad=True)
        probe = rng.standard_normal((3, 3))

        def forward():
            h = T.gelu(T.matmul(w, b))
            s = T.softmax_lastdim(h)
            return T.sum_all(T.mul(s, Tensor(probe))).item()

        loss = None
        h = T.gelu(T.matmul(w, b))
        s = T.softmax_lastdim(h)
        loss = T.sum_all(T.mul(s, Tensor(probe)))
        loss.backward()
        assert_grad_close(w.grad, finite_diff(forward, w.data), tol=1e-6)
        assert_grad_close(b.grad, finite_diff(forward, b.data), tol=1e-6)


# 0, ±1e-3, ±3, ±10, ±1e4, plus a dense sweep of the curved region
GELU_GRID = np.concatenate([[0.0, 1e-3, -1e-3, 3.0, -3.0, 10.0, -10.0, 1e4, -1e4],
                            np.linspace(-6.0, 6.0, 1201)])


def gelu_float64(x):
    """The tanh-form GELU and its derivative, evaluated in float64."""
    x = np.asarray(x, dtype=np.float64)
    c, k = math.sqrt(2.0 / math.pi), 0.044715
    t = np.tanh(c * (x + k * x**3))
    du = c * (1.0 + 3.0 * k * x * x)
    return 0.5 * x * (1.0 + t), 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du


class TestGelu:
    def test_float32_matches_float64_formula(self):
        """|f32 - f64| <= 2 eps max(1, |x|) forward and 4 eps max(1, |x|) backward.

        eps is float32's machine epsilon; the largest errors seen on dense
        sweeps of [-12, 12] and ±[1e-6, 1e5] are 0.97 and 1.9 of those units.
        """
        x = GELU_GRID.astype(np.float32)
        a = Tensor(x, requires_grad=True)
        out = T.gelu(a)
        T.sum_all(out).backward()
        want_out, want_grad = gelu_float64(x)
        unit = np.finfo(np.float32).eps * np.maximum(1.0, np.abs(x.astype(np.float64)))
        assert out.data.dtype == np.float32 and a.grad.dtype == np.float32
        assert np.all(np.abs(out.data - want_out) <= 2 * unit)
        assert np.all(np.abs(a.grad - want_grad) <= 4 * unit)

    @pytest.mark.parametrize("g_dtype", [np.float32, np.float64])
    def test_rule_writes_into_neither_input_nor_gradient(self, rng, g_dtype):
        x = rng.standard_normal((3, 5)).astype(np.float32)
        g = rng.standard_normal((3, 5)).astype(g_dtype)
        a = Tensor(x.copy(), requires_grad=True)
        out = T.gelu(a)
        saved_out, saved_g = out.data.copy(), g.copy()
        (first,) = out._backward(g)
        (second,) = out._backward(g)
        assert a.data.tobytes() == x.tobytes()
        assert g.tobytes() == saved_g.tobytes()
        assert out.data.tobytes() == saved_out.tobytes()
        assert first.dtype == np.result_type(g, x)
        assert first is not g and first.tobytes() == second.tobytes()

    @pytest.mark.parametrize("probe_dtype", [np.float32, np.float64])
    def test_backward_twice_on_one_graph_doubles_the_gradient(self, rng, probe_dtype):
        a = Tensor(rng.standard_normal((4, 6)).astype(np.float32), requires_grad=True)
        probe = Tensor(rng.standard_normal((4, 6)).astype(probe_dtype))
        loss = T.sum_all(T.mul(T.gelu(a), probe))
        loss.backward()
        once = a.grad.copy()
        loss.backward()
        np.testing.assert_array_equal(a.grad, 2 * once)


class TestNoGrad:
    def test_records_no_graph_and_nests(self):
        w = Tensor(np.ones(3), requires_grad=True)
        with T.no_grad():
            with T.no_grad():
                inner = T.scale(w, 2.0)
            outer = T.gelu(w)
        after = T.scale(w, 2.0)
        for t in (inner, outer):
            assert not t.requires_grad and t._parents == () and t._backward is None
        assert after.requires_grad and after._parents == (w,)

    def test_recording_resumes_after_an_exception(self):
        w = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(DimensionError), T.no_grad():
            T.add(w, Tensor(np.ones(2)))
        assert T.scale(w, 2.0).requires_grad


@pytest.mark.parametrize("axis", [0, 1, -1])
def test_mean_gradient_equals_the_ones_like_form(rng, axis):
    a = Tensor(rng.standard_normal((2, 5, 3)).astype(np.float32), requires_grad=True)
    out = T.mean(a, axis)
    g = rng.standard_normal(out.shape).astype(np.float32)
    g.flat[0] = -0.0
    (got,) = out._backward(g)
    want = np.expand_dims(g, axis) / a.shape[axis] * np.ones_like(a.data)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("g", [-1.5, -0.0])
def test_sum_all_gradient_equals_the_ones_like_form(rng, g):
    a = Tensor(rng.standard_normal((2, 5, 3)).astype(np.float32), requires_grad=True)
    out = T.sum_all(a)
    g = np.asarray(g, dtype=np.float32)
    (got,) = out._backward(g)
    want = np.ones_like(a.data) * g
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


class TestConcatSplit:
    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(1, 4), min_size=1, max_size=4), st.integers(1, 5))
    def test_concat_split_roundtrip(self, sizes, d):
        rng = np.random.default_rng(sum(sizes) * 13 + d)
        parts = [rng.standard_normal((1, s, d)) for s in sizes]
        joined = T.concat([Tensor(p) for p in parts])
        back = T.split(joined, sizes)
        for p, piece in zip(parts, back):
            np.testing.assert_array_equal(piece.data, p)

    def test_concat_mismatched_shapes_is_dimension_error(self):
        with pytest.raises(DimensionError, match=r"\(1, 2, 3\).*\(1, 2, 4\)"):
            T.concat([Tensor(np.zeros((1, 2, 3))), Tensor(np.zeros((1, 2, 4)))])

    def test_split_bad_sizes(self):
        with pytest.raises(DimensionError):
            T.split(Tensor(np.zeros((1, 5, 2))), [2, 2])

    def test_split_backward_routes_slices(self, rng):
        x = Tensor(rng.standard_normal((1, 4, 2)), requires_grad=True)
        a, b = T.split(x, [1, 3])
        T.sum_all(T.scale(b, 2.0)).backward()
        expected = np.zeros((1, 4, 2))
        expected[:, 1:, :] = 2.0
        np.testing.assert_array_equal(x.grad, expected)


@pytest.mark.parametrize("op_name", [
    "matmul", "add", "mul", "scale", "softmax", "layernorm", "gelu",
    "mean", "reshape", "transpose", "concat", "split", "cross_entropy",
])
def test_op_gradients_match_finite_differences(op_name, rng):
    """Per-op gradient check, 64-bit, random inputs of <=64 elements."""
    x = Tensor(rng.standard_normal((2, 4, 4)).astype(np.float64), requires_grad=True)
    y = Tensor(rng.standard_normal((2, 4, 4)).astype(np.float64), requires_grad=True)
    gamma = Tensor(rng.standard_normal(4).astype(np.float64), requires_grad=True)
    beta = Tensor(rng.standard_normal(4).astype(np.float64), requires_grad=True)
    probe = rng.standard_normal((2, 4, 4))
    labels = rng.integers(0, 4, size=8)

    def build():
        if op_name == "matmul":
            return T.sum_all(T.mul(T.matmul(x, y), Tensor(probe)))
        if op_name == "add":
            return T.sum_all(T.mul(T.add(x, y), Tensor(probe)))
        if op_name == "mul":
            return T.sum_all(T.mul(T.mul(x, y), Tensor(probe)))
        if op_name == "scale":
            return T.sum_all(T.mul(T.scale(x, -1.7), Tensor(probe)))
        if op_name == "softmax":
            return T.sum_all(T.mul(T.softmax_lastdim(x), Tensor(probe)))
        if op_name == "layernorm":
            return T.sum_all(T.mul(T.layernorm(x, gamma, beta), Tensor(probe)))
        if op_name == "gelu":
            return T.sum_all(T.mul(T.gelu(x), Tensor(probe)))
        if op_name == "mean":
            return T.sum_all(T.mul(T.mean(x, axis=1), Tensor(probe[:, 0, :])))
        if op_name == "reshape":
            return T.sum_all(T.mul(T.reshape(x, (4, 8)), Tensor(probe.reshape(4, 8))))
        if op_name == "transpose":
            return T.sum_all(T.mul(T.transpose(x, (1, 0, 2)),
                                   Tensor(probe.transpose(1, 0, 2))))
        if op_name == "concat":
            return T.sum_all(T.mul(T.concat([x, y]),
                                   Tensor(np.concatenate([probe, probe], axis=-2))))
        if op_name == "split":
            a, b = T.split(x, [1, 3])
            return T.add(T.sum_all(T.mul(a, Tensor(probe[:, :1]))),
                         T.sum_all(T.scale(b, 0.5)))
        if op_name == "cross_entropy":
            return T.cross_entropy_with_logits(T.reshape(x, (8, 4)), labels)
        raise AssertionError(op_name)

    loss = build()
    loss.backward()
    tensors = {"x": x, "y": y}
    if op_name == "layernorm":
        tensors.update(gamma=gamma, beta=beta)
    for name, t in tensors.items():
        if t.grad is None:
            continue
        numeric = finite_diff(lambda: build().item(), t.data)
        assert_grad_close(t.grad, numeric, tol=1e-4)


def test_forward_determinism(rng):
    a = rng.standard_normal((4, 4))
    b = rng.standard_normal((4, 4))
    r1 = T.softmax_lastdim(T.matmul(Tensor(a), Tensor(b))).data
    r2 = T.softmax_lastdim(T.matmul(Tensor(a), Tensor(b))).data
    np.testing.assert_array_equal(r1, r2)


def test_debug_mode_catches_nonfinite(monkeypatch):
    monkeypatch.setattr(T, "_debug_checks", True)
    with np.errstate(over="ignore"), pytest.raises(FloatingPointError):
        T.scale(Tensor(np.array([1e308])), 1e308)


def test_mean_over_axis(rng):
    x = rng.standard_normal((2, 5, 3))
    out = T.mean(Tensor(x), axis=1)
    np.testing.assert_allclose(out.data, x.mean(axis=1), rtol=1e-6)
