import hashlib
import math
import tracemalloc
import weakref
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualvit import tensor as T
from dualvit.blocks import SEMANTIC_STEPS, DualBlock, FeatureMap, SemanticTokens
from dualvit.errors import ContractError, DimensionError
from dualvit.model import build_model, preset_config
from dualvit.nn import FeedForward
from dualvit.tensor import Tensor
from dualvit.training import AdamW


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


def _times(a, s):
    """``a`` times the constant ``s``, as a ``mul`` node. The 0-d constant takes
    ``a``'s dtype: under NEP 50 a float64 one would promote a float32 product."""
    return T.mul(a, Tensor(np.asarray(s, a.data.dtype)))


def _assert_a_second_graph_doubles_the_gradient(build, leaves):
    """Walk two graphs ``build()`` makes over the same ``leaves``: each leaf's
    ``grad`` doubles, a graph being walked only once."""
    build().backward()
    once = [t.grad.copy() for t in leaves]
    build().backward()
    for t, g in zip(leaves, once):
        np.testing.assert_array_equal(t.grad, 2 * g)


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

    def test_weight_gradient_is_the_batched_formula_within_16_ulp(self, rng):
        """(B, N, d) @ (d, e) in float32: the weight gradient, one GEMM over
        B * N rows, against sum_b a_b^T g_b in float64. The bound is absolute,
        16 float32 ulp of the largest |grad|: an entry whose true gradient is
        0 has no meaningful relative error. Seen over 30 seeds: 5.5 ulp (the
        per-batch GEMMs summed over the batch: 1.8)."""
        a = Tensor(rng.standard_normal((16, 16, 32)).astype(np.float32), requires_grad=True)
        w = Tensor(rng.standard_normal((32, 48)).astype(np.float32), requires_grad=True)
        out = T.matmul(a, w)
        g = rng.standard_normal(out.shape).astype(np.float32)
        _, gw = out._node.rule(g)
        want = (np.swapaxes(a.data.astype(np.float64), -1, -2) @ g.astype(np.float64)).sum(axis=0)
        assert gw.shape == want.shape and gw.dtype == np.float32
        ulp = np.finfo(np.float32).eps * np.abs(want).max()
        assert np.abs(gw - want).max() <= 16 * ulp

    def test_weight_gradient_at_batch_1_is_the_batched_rule_byte_for_byte(self, rng):
        a = Tensor(rng.standard_normal((1, 16, 32)).astype(np.float32), requires_grad=True)
        w = Tensor(rng.standard_normal((32, 48)).astype(np.float32), requires_grad=True)
        out = T.matmul(a, w)
        g = rng.standard_normal(out.shape).astype(np.float32)
        _, gw = out._node.rule(g)
        assert gw.shape == w.shape
        assert gw.tobytes() == (np.swapaxes(a.data, -1, -2) @ g).sum(axis=0).tobytes()


def _softmax_of_copy(x):
    """The in-place ``_softmax`` kernel, run on a copy of ``x``."""
    x = np.array(x, dtype=np.float64)
    out = T._softmax(x)
    assert out is x
    return out


class TestSoftmax:
    def test_uniform(self):
        out = _softmax_of_copy([0.0, 0.0, 0.0])
        np.testing.assert_allclose(out, [1 / 3] * 3, rtol=1e-6)

    def test_analytic_forced(self):
        out = _softmax_of_copy([0.0, math.log(2.0)])
        np.testing.assert_allclose(out, [1 / 3, 2 / 3], rtol=1e-6)

    def test_stabilized(self):
        out = _softmax_of_copy([1000.0, 0.0])
        assert np.all(np.isfinite(out))
        assert out[0] == pytest.approx(1.0)
        assert out[1] == pytest.approx(0.0, abs=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.lists(st.floats(-50, 50), min_size=1, max_size=6),
                    min_size=1, max_size=4).filter(
                        lambda rows: len({len(r) for r in rows}) == 1))
    def test_rows_are_distributions(self, rows):
        out = _softmax_of_copy(rows)
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

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("width", [1, 3, 7, 16, 48, 385])
    def test_row_mean_is_numpy_mean_byte_for_byte(self, rng, dtype, width):
        x = rng.standard_normal((6, 5, width)).astype(dtype)
        x[0] = 0.0
        x[1] = -0.0
        x[2, :, ::2] = 1e30
        x[3, :, ::2] = -1e30
        x[4, :, 0] = -0.0
        got = T._row_mean(x)
        want = np.mean(x, axis=-1, keepdims=True)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype, g_dtype", [(np.float32, np.float32),
                                                (np.float32, np.float64),
                                                (np.float64, np.float64)])
    def test_output_and_gradients_equal_the_untiled_formulas_byte_for_byte(
            self, rng, dtype, g_dtype):
        x, gamma, beta = _layernorm_leaves(rng, dtype)
        g = rng.standard_normal(x.shape).astype(g_dtype)
        out = T.layernorm(x, gamma, beta)
        got = [out.data, *out._node.rule(g)]
        want = _layernorm_untiled(x.data, gamma.data, beta.data, g)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("g_dtype", [np.float32, np.float64])
    def test_rule_writes_into_nothing_it_reads(self, rng, g_dtype):
        x, gamma, beta = _layernorm_leaves(rng, np.float32)
        out = T.layernorm(x, gamma, beta)
        g = rng.standard_normal(out.shape).astype(g_dtype)
        kept = _closure_arrays(out._node.rule)
        saved = [a.tobytes() for a in kept] + [g.tobytes(), out.data.tobytes()]
        first = out._node.rule(g)
        second = out._node.rule(g)
        assert [a.tobytes() for a in kept] + [g.tobytes(), out.data.tobytes()] == saved
        assert first[0].dtype == np.result_type(g, x.data) and first[0] is not g
        for a, b in zip(first, second):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_special_values_keep_the_bytes_of_the_untiled_formulas(self, rng, dtype):
        """The kernel squares with ``np.square``, the formulas multiply. Finite
        values only: a row with an inf or NaN is all NaN, and which NaN a sum
        returns depends on its order, which these formulas do not pin."""
        x, gamma, beta = _layernorm_leaves(rng, dtype)
        v = _special_values(dtype, x.shape)
        x.data[...] = np.where(np.abs(v) < np.finfo(dtype).max, v, 1.0)
        g = rng.standard_normal(x.shape).astype(dtype)
        with np.errstate(all="ignore"):
            out = T.layernorm(x, gamma, beta)
            got = [out.data, *out._node.rule(g)]
            want = _layernorm_untiled(x.data, gamma.data, beta.data, g)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("probe_dtype", [np.float32, np.float64])
    def test_backward_twice_over_the_same_leaves_doubles_the_gradient(self, rng, probe_dtype):
        leaves = _layernorm_leaves(rng, np.float32)
        probe = Tensor(rng.standard_normal(leaves[0].shape).astype(probe_dtype))
        _assert_a_second_graph_doubles_the_gradient(
            lambda: T.sum_all(T.mul(T.layernorm(*leaves), probe)), leaves)

    def test_the_layernorm_forward_peaks_near_two_input_sized_arrays(self, rng):
        """At (1, 3136, 64), measured here with tracemalloc: 2.06 input-sized
        arrays (the standardized rows, then the output); 3.06 with ``beta``
        added into a fresh array."""
        x, gamma, beta = _layernorm_at_stage1_pixels(rng)
        tracemalloc.start()
        try:
            out = T.layernorm(x, gamma, beta)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.requires_grad
        assert peak <= 2.5 * x.data.nbytes, peak / x.data.nbytes

    def test_the_layernorm_backward_peaks_near_two_input_sized_arrays(self, rng):
        """At (1, 3136, 64), measured here with tracemalloc: 2.07 input-sized
        arrays (the input gradient and one product buffer reused for all three
        products); 3.07 with each product in a fresh array."""
        x, gamma, beta = _layernorm_at_stage1_pixels(rng)
        out = T.layernorm(x, gamma, beta)
        g = np.ones(out.shape, np.float32)
        tracemalloc.start()
        try:
            grads = out._node.rule(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(grads) == 3
        assert peak <= 2.5 * x.data.nbytes, peak / x.data.nbytes


def _layernorm_at_stage1_pixels(rng):
    """Dual-ViT S's stage-1 pixel tokens, (1, 3136, 64) in float32, with gamma
    and beta, as leaves that require grad."""
    x = Tensor(rng.standard_normal((1, 3136, 64)).astype(np.float32), requires_grad=True)
    gamma, beta = (Tensor(np.full(64, v, np.float32), requires_grad=True) for v in (1.0, 0.0))
    return x, gamma, beta


def _special_values(dtype, shape):
    """±0, ±inf, NaN, tiny, subnormal, huge and ordinary values of ``dtype``,
    repeated to fill ``shape``."""
    fi = np.finfo(dtype)
    values = [0.0, -0.0, np.inf, -np.inf, np.nan, fi.tiny, -fi.tiny, fi.smallest_subnormal,
              fi.max, -fi.max, 2 * math.sqrt(fi.max), 3.0, -1e-3]
    return np.resize(np.array(values, dtype), shape)


def _layernorm_leaves(rng, dtype):
    """x of 21 rows of width 7, gamma and beta, as leaves that require grad."""
    return [Tensor(rng.standard_normal(s).astype(dtype), requires_grad=True)
            for s in [(3, 7, 7), (7,), (7,)]]


def _layernorm_untiled(x, gamma, beta, g):
    """Layer norm's output and its three gradients as plain numpy formulas:
    the operations ``T.layernorm`` runs, in the same order."""
    centered = x - x.mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt((centered * centered).mean(axis=-1, keepdims=True) + 1e-6)
    normed = centered * inv_std
    gy = g * gamma
    m1 = gy.mean(axis=-1, keepdims=True)
    m2 = (gy * normed).mean(axis=-1, keepdims=True)
    d = x.shape[-1]
    return (gamma * normed + beta, inv_std * (gy - m1 - normed * m2),
            (g * normed).reshape(-1, d).sum(axis=0), g.reshape(-1, d).sum(axis=0))


class TestBackward:
    def test_sum_gives_ones(self, rng):
        w = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
        T.sum_all(w).backward()
        np.testing.assert_array_equal(w.grad, np.ones((2, 3)))

    def test_half_square_norm(self):
        w = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        _times(T.sum_all(T.mul(w, w)), 0.5).backward()
        np.testing.assert_allclose(w.grad, [1.0, -2.0], rtol=1e-6)

    def test_non_scalar_loss_rejected(self):
        with pytest.raises(ContractError):
            Tensor(np.zeros(3), requires_grad=True).backward()

    @pytest.mark.parametrize("kind", ["no_grad", "constant"])
    def test_a_loss_that_records_no_graph_is_refused(self, kind):
        w = Tensor(np.ones(3), requires_grad=True)
        if kind == "no_grad":
            with T.no_grad():
                loss = T.sum_all(_times(w, 2.0))
        else:
            loss = T.sum_all(Tensor(np.ones(3)))
        with pytest.raises(ContractError, match="records a graph"):
            loss.backward()
        assert w.grad is None and loss.grad is None

    def test_a_leaf_scalar_that_requires_grad_is_its_own_loss(self):
        w = Tensor(np.array(3.0), requires_grad=True)
        w.backward()
        assert w.grad.shape == () and w.grad == 1.0

    def test_repeated_backward_accumulates(self):
        w = Tensor(np.ones(2), requires_grad=True)
        T.sum_all(w).backward()
        T.sum_all(w).backward()
        np.testing.assert_array_equal(w.grad, 2 * np.ones(2))

    def test_repeated_backward_on_one_graph_is_refused(self):
        w = Tensor(np.ones(2), requires_grad=True)
        loss = T.sum_all(_times(w, 2.0))
        loss.backward()
        with pytest.raises(ContractError, match="already walked"):
            loss.backward()
        np.testing.assert_array_equal(w.grad, 2 * np.ones(2))

    @pytest.mark.parametrize("returned", [1, 3])
    def test_a_rule_returning_another_count_than_its_parents_raises(self, returned):
        """A two-parent node whose rule returns one gradient, or three, raises
        ``ValueError``: no parent is left without a gradient, nor a gradient
        paired with no parent, and ``take`` receives none."""
        x, y = (Tensor(np.ones(3), requires_grad=True) for _ in range(2))
        out = T._make(np.ones(3), (x, y), lambda g: (g,) * returned)
        handed = []
        with pytest.raises(ValueError):
            T.sum_all(out).backward(take=lambda p, g: handed.append(p))
        assert handed == [] and x.grad is None and y.grad is None

    @pytest.mark.parametrize("hand_off", ["plain", "take"])
    @pytest.mark.parametrize("second", ["same_loss", "shared_nodes"])
    def test_a_walked_graph_is_refused_before_any_rule_runs(self, rng, monkeypatch,
                                                             second, hand_off):
        """A backward that reaches a node of a walked graph, from the same loss
        or from another loss over its nodes, is refused while it orders the
        nodes: no rule runs, no gradient is handed off and no ``grad``, ``m``
        or ``v`` byte changes. AdamW folds each gradient into its moments as it
        takes it, at a tile of 61 elements in several chunks for the larger."""
        monkeypatch.setattr(T, "_TILE", 61)
        block = DualBlock(16, 2, 4, 2, rng).astype(np.float64)
        opt = AdamW(block)
        fm, st = block(FeatureMap(Tensor(rng.standard_normal((2, 16, 16))), 4, 4),
                       SemanticTokens(Tensor(rng.standard_normal((2, 4, 16)))))
        probes = [Tensor(rng.standard_normal(t.shape)) for t in (fm.tokens, st.tokens)]
        handed = []

        def take(p, g):
            handed.append(p)
            (opt.take if hand_off == "take" else Tensor.accumulate_grad)(p, g)

        loss = T.add(T.sum_all(T.mul(fm.tokens, probes[0])),
                     T.sum_all(T.mul(st.tokens, probes[1])))
        loss.backward(take=take)
        assert opt.m.any() == (hand_off == "take")

        def state():
            return ([None if p.grad is None else p.grad.tobytes() for p in block.parameters()],
                    opt.m.tobytes(), opt.v.tobytes(), len(handed))

        again = loss if second == "same_loss" else T.sum_all(T.mul(st.tokens, probes[1]))
        fresh = [n for n in _graph_nodes(again) if n.rule is not None]
        assert len(fresh) == (0 if second == "same_loss" else 2)
        ran = []
        for node in fresh:
            node.rule = lambda g, rule=node.rule: (ran.append(rule), rule(g))[1]
        before = state()
        with pytest.raises(ContractError, match="already walked"):
            again.backward(take=take)
        assert ran == [] and state() == before

    def test_a_rule_frees_what_it_kept_before_the_next_leaf_is_taken(self, rng):
        """Every array a dual block's rules kept, other than the inputs, the
        probes and the parameters, is dead at the first ``take`` after the
        last rule that kept it has run, while the walk goes on."""
        block = DualBlock(16, 2, 4, 2, rng)
        x = Tensor(rng.standard_normal((2, 16, 16)).astype(np.float32))
        z = Tensor(rng.standard_normal((2, 4, 16)).astype(np.float32))
        fm, st = block(FeatureMap(x, 4, 4), SemanticTokens(z))
        probes = [Tensor(rng.standard_normal(t.shape).astype(np.float32))
                  for t in (fm.tokens, st.tokens)]
        loss = T.add(T.sum_all(T.mul(fm.tokens, probes[0])),
                     T.sum_all(T.mul(st.tokens, probes[1])))
        del fm, st
        outside = [x.data, z.data] + [t.data for t in probes + block.parameters()]
        kept_by, refs, events = {}, {}, []
        for node in _graph_nodes(loss):
            for a in _closure_arrays(node.rule):
                if not any(np.shares_memory(a, o) for o in outside):
                    refs[id(a)] = weakref.ref(a)
                    nodes = kept_by.setdefault(id(a), [])
                    if node not in nodes:
                        nodes.append(node)
            node.rule = lambda g, node=node, rule=node.rule: (events.append(node), rule(g))[1]
        del a
        loss.backward(take=lambda p, g: events.append({k: r() is None for k, r in refs.items()}))
        checked = 0
        for key, nodes in kept_by.items():
            last = max(i for i, e in enumerate(events) if any(e is n for n in nodes))
            dead = next((e for e in events[last:] if type(e) is dict), None)
            if dead is not None:
                assert dead[key]
                checked += 1
        assert checked == len(kept_by), (checked, len(kept_by))
        # one normed per layer-norm site of the variant-D block, kept by the
        # layer norm and by the node its output feeds
        assert sum(len(nodes) == 2 for nodes in kept_by.values()) == 7

    def test_only_leaves_hold_grad(self, rng):
        w = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        b = Tensor(rng.standard_normal(4), requires_grad=True)
        results = [T.matmul(Tensor(rng.standard_normal((2, 3))), w)]
        results.append(T.add(results[-1], b))
        results.append(_times(results[-1], 3.0))
        results.append(T.mul(results[-1], results[-1]))
        results.append(T.sum_all(results[-1]))
        results[-1].backward()
        interior = _graph_nodes(results[-1])
        assert len(interior) == 5
        assert sorted(map(id, interior)) == sorted(id(t._node) for t in results)
        assert all(t.grad is None for t in results)
        assert w.grad is not None and b.grad is not None

    def test_fanout_accumulates(self):
        w = Tensor(np.array([3.0]), requires_grad=True)
        T.sum_all(T.add(w, w)).backward()
        np.testing.assert_allclose(w.grad, [2.0])

    def test_tiny_model_leaf_grads_are_owned_c_contiguous_buffers(self):
        cfg = preset_config("tiny", seed=0)
        model = build_model(cfg)
        rng = np.random.default_rng(0)
        images = rng.standard_normal((4, cfg.resolution, cfg.resolution, 3)).astype(np.float32)
        labels = rng.integers(0, cfg.num_classes, size=4)
        T.cross_entropy_with_logits(model(images), labels).backward()
        grads = [p.grad for p in model.parameters()]
        for p, g in zip(model.parameters(), grads):
            assert g.flags.c_contiguous and g.flags.writeable and g.dtype == p.data.dtype
        shared = [(i, j) for i in range(len(grads)) for j in range(i)
                  if np.shares_memory(grads[i], grads[j])]
        assert shared == []

    def test_a_dual_block_hands_each_leaf_off_right_after_its_consumer(self, rng):
        """``take`` gets each parameter's gradient once, straight after the
        rule of its last consumer, with only that node's other leaves between,
        and with the bytes that ``accumulate_grad`` keeps."""
        block = DualBlock(16, 2, 4, 2, rng).astype(np.float64)
        x, z = rng.standard_normal((2, 16, 16)), rng.standard_normal((2, 4, 16))
        probes = rng.standard_normal((2, 16, 16)), rng.standard_normal((2, 4, 16))

        def loss_of() -> Tensor:
            fm, st = block(FeatureMap(Tensor(x), 4, 4), SemanticTokens(Tensor(z)))
            return T.add(T.sum_all(T.mul(fm.tokens, Tensor(probes[0]))),
                         T.sum_all(T.mul(st.tokens, Tensor(probes[1]))))

        loss_of().backward()
        plain = {id(p): p.grad for p in block.parameters()}
        block.zero_grad()
        loss, events = loss_of(), []
        for node in _graph_nodes(loss):
            node.rule = lambda g, node=node, rule=node.rule: (events.append(node), rule(g))[1]
        loss.backward(take=lambda p, g: events.append((p, g)))
        taken, consumer = [], None
        for event in events:
            if type(event) is T._Node:
                consumer = event
                continue
            p, g = event
            assert any(q is p for q in consumer.parents)
            assert g.tobytes() == plain[id(p)].tobytes()
            taken.append(id(p))
        assert sorted(taken) == sorted(plain) and all(p.grad is None for p in block.parameters())

    def test_random_graph_vs_finite_differences(self, rng):
        w = Tensor(rng.standard_normal((3, 4)).astype(np.float64), requires_grad=True)
        b = Tensor(rng.standard_normal((4, 3)).astype(np.float64), requires_grad=True)
        gamma, beta = Tensor(rng.standard_normal(3)), Tensor(rng.standard_normal(3))
        probe = rng.standard_normal((3, 3))

        def build():
            h = T.layernorm(T.matmul(w, b), gamma, beta)
            return T.sum_all(T.mul(T.mul(h, h), Tensor(probe)))

        def forward():
            return build().item()

        build().backward()
        assert_grad_close(w.grad, finite_diff(forward, w.data), tol=1e-6)
        assert_grad_close(b.grad, finite_diff(forward, b.data), tol=1e-6)


# Fan-out patterns for the tape's buffer ownership. Each builds ``h`` from
# leaves x and y; the loss is sum(P * (h + bias)) with a leaf ``bias`` shaped
# like h, so the add's (g, g) is offered to two parents, and ``want`` gives
# the hand-derived gradients of x and y. Integer-valued probes keep every
# gradient exact in float64.
def _fanout_cases():
    def chain_grad(p):  # the gradient through reshape -> transpose -> reshape
        return p.reshape(4, 3).T.reshape(1, 2, 6)

    def split_concat(x, y):
        a, b = T.split(x, [1, 3])
        return T.concat([a, b, a])

    return {
        "add_x_x": ((1, 4, 4), lambda x, y: T.add(x, x),
                    lambda p: {"x": 2 * p}),
        "add_x_y": ((1, 4, 4), lambda x, y: T.add(x, y),
                    lambda p: {"x": p, "y": p}),
        "concat_x_x": ((1, 2, 4), lambda x, y: T.concat([x, x]),
                       lambda p: {"x": p[:, :2] + p[:, 2:]}),
        "split_then_concat": ((1, 4, 4), split_concat,
                              lambda p: {"x": np.concatenate([p[:, :1] + p[:, 4:], p[:, 1:4]],
                                                             axis=-2)}),
        "reshape_transpose_chain": (
            (1, 2, 6),
            lambda x, y: T.add(T.reshape(T.transpose(T.reshape(x, (3, 4)), (1, 0)),
                                         (1, 2, 6)), x),
            lambda p: {"x": p + chain_grad(p)}),
        "mean_and_sum_all": (
            (1, 4, 4), lambda x, y: T.add(x, T.add(T.mean(x), T.sum_all(x))),
            lambda p: {"x": p + p.sum(axis=-2, keepdims=True) / 4 + p.sum()}),
    }


class TestTapeBuffers:
    @pytest.mark.parametrize("case", sorted(_fanout_cases()))
    def test_fanout_gradients_are_exact_owned_and_accumulate(self, case):
        shape, build, want = _fanout_cases()[case]
        rng = np.random.default_rng(5)
        x = Tensor(rng.integers(-4, 5, shape).astype(np.float64), requires_grad=True)
        y = Tensor(rng.integers(-4, 5, shape).astype(np.float64), requires_grad=True)
        out_shape = build(x, y).shape
        bias = Tensor(np.zeros(out_shape), requires_grad=True)
        probe = rng.integers(-4, 5, out_shape).astype(np.float64)

        def backward():  # a new graph over the same leaves each time
            T.sum_all(T.mul(T.add(build(x, y), bias), Tensor(probe))).backward()

        backward()
        expected = {"bias": probe, **want(probe)}
        leaves = {"x": x, "y": y, "bias": bias}
        grads = {name: leaves[name].grad for name in expected}
        for name, g in grads.items():
            np.testing.assert_array_equal(g, expected[name], err_msg=name)
            assert g.flags.c_contiguous and g.flags.writeable and g.dtype == np.float64
        names = sorted(grads)
        for i, first in enumerate(names):
            for second in names[i + 1:]:
                assert not np.shares_memory(grads[first], grads[second]), (first, second)
        backward()
        for name in expected:
            np.testing.assert_array_equal(leaves[name].grad, 2 * expected[name], err_msg=name)

    def test_an_array_returned_for_two_parents_is_owned_by_one(self):
        """A rule may return one array for several parents, not only adjacent ones."""
        x, y, z = (Tensor(np.zeros((2, 3)), requires_grad=True) for _ in range(3))
        out = T._make(np.zeros((2, 3)), (x, y, z), lambda g: (g, 2 * g, g))
        probe = np.arange(6.0).reshape(2, 3)
        T.sum_all(T.mul(out, Tensor(probe))).backward()
        for leaf, factor in ((x, 1), (y, 2), (z, 1)):
            np.testing.assert_array_equal(leaf.grad, factor * probe)
        assert not np.shares_memory(x.grad, z.grad)

    @pytest.mark.parametrize("g_shape, shape", [
        ((1, 4, 3), (3,)), ((1, 4, 3), (4, 3)), ((1, 1, 3), (3,)), ((2, 1, 3), (3,)),
        ((1, 4, 3), (1, 3)), ((1, 4, 3), (1, 1, 3)), ((1, 1, 4, 3), (4, 3)), ((1,), ()),
        ((5,), ())])
    def test_unbroadcast_is_the_chain_of_sums_in_an_array_of_its_own(self, rng, g_shape, shape):
        """Byte for byte, -0.0 included, as summing every broadcast axis away."""
        g = rng.standard_normal(g_shape).astype(np.float32)
        g.reshape(-1)[::2] = -0.0
        want = g
        while want.ndim > len(shape):
            want = want.sum(axis=0)
        for axis, extent in enumerate(shape):
            if extent == 1 and want.shape[axis] != 1:
                want = want.sum(axis=axis, keepdims=True)
        got = T._unbroadcast(g, shape)
        assert got.shape == shape and got.tobytes() == want.tobytes()
        assert not np.shares_memory(got, g)

    @pytest.mark.parametrize("b_shape", [(2, 3), (3,)], ids=["not_summed", "summed"])
    def test_an_add_gives_its_broadcast_parent_a_buffer_of_its_own(self, b_shape):
        """``add`` returns (g, g) and the tape owns g for the full-size parent;
        the broadcast parent's gradient must share no memory with it."""
        a = Tensor(np.zeros((1, 2, 3)), requires_grad=True)
        b = Tensor(np.zeros(b_shape), requires_grad=True)
        probe = np.arange(6.0).reshape(1, 2, 3)
        T.sum_all(T.mul(T.add(a, b), Tensor(probe))).backward()
        np.testing.assert_array_equal(a.grad, probe)
        np.testing.assert_array_equal(b.grad, probe.reshape((-1,) + b_shape).sum(axis=0))
        assert not np.shares_memory(a.grad, b.grad)

    @pytest.mark.parametrize("build, factor", [
        (lambda s: T.mul(s, s), lambda s: 2 * s),
        (lambda s: T.add(_times(s, 2.0), _times(s, 3.0)), lambda s: 5.0),
    ], ids=["mul", "two_scales"])
    def test_a_scalar_with_two_consumers_sums_both(self, build, factor):
        """Rules on a 0-d gradient return numpy scalars; the tape must still add both."""
        w = Tensor(np.ones(3), requires_grad=True)
        s = T.sum_all(w)
        build(s).backward()
        np.testing.assert_array_equal(w.grad, np.full(3, factor(s.data)))


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


def _gelu_untiled(x, g):
    """GELU's output and ``g`` times its derivative in whole-array numpy: the
    operations ``T._gelu`` runs tile by tile, in the same order."""
    t = np.tanh((x * x * x * 0.044715 + x) * math.sqrt(2.0 / math.pi))
    local = (x * (3.0 * 0.044715) * x + 1.0) * math.sqrt(2.0 / math.pi)
    local *= (1.0 - t * t) * x * 0.5
    local += (t + 1.0) * 0.5
    return (t + 1.0) * x * 0.5, g * local


def _gelu_both_modes(x, g):
    """``T._gelu``'s two modes: GELU into a fresh array; then GELU into ``act``
    with a copy of ``g`` multiplied in place by the derivative."""
    out = T._gelu(x, np.empty(x.shape, x.dtype))
    gx, act = g.copy(), np.empty(x.shape, x.dtype)
    assert T._gelu(x, gx, act) is gx
    return out, act, gx


def _gelu_node(a):
    """A GELU node over the ``_gelu`` kernel: the node that ``T.feedforward``'s
    chain of primitive nodes would record between its two ``linear``s."""
    x = a.data

    def backward(g):
        return (T._gelu(x, np.array(g, np.result_type(g, x)), np.empty(x.shape, x.dtype)),)

    return T._make(T._gelu(x, np.empty(x.shape, x.dtype)), (a,), backward)


class TestGelu:
    @pytest.mark.parametrize("dtype, g_dtype", [(np.float32, np.float32),
                                                (np.float32, np.float64),
                                                (np.float64, np.float64)])
    def test_output_and_gradient_equal_the_untiled_chain_byte_for_byte(
            self, rng, dtype, g_dtype):
        x = (4 * rng.standard_normal((3, 5, 12))).astype(dtype)
        g = rng.standard_normal(x.shape).astype(g_dtype)
        out, act, gx = _gelu_both_modes(x, g)
        want_out, want_grad = _gelu_untiled(x, g)
        for a, b in ((out, want_out), (act, want_out), (gx, want_grad)):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()

    def test_float32_matches_float64_formula(self):
        """|f32 - f64| <= 2 eps max(1, |x|) forward and 4 eps max(1, |x|) backward.

        eps is float32's machine epsilon; the largest errors seen on dense
        sweeps of [-12, 12] and ±[1e-6, 1e5] are 0.97 and 1.9 of those units.
        """
        x = GELU_GRID.astype(np.float32)
        out, act, grad = _gelu_both_modes(x, np.ones_like(x))
        want_out, want_grad = gelu_float64(x)
        unit = np.finfo(np.float32).eps * np.maximum(1.0, np.abs(x.astype(np.float64)))
        assert out.dtype == np.float32 and grad.dtype == np.float32
        assert np.all(np.abs(out - want_out) <= 2 * unit)
        assert np.all(np.abs(grad - want_grad) <= 4 * unit)

    @pytest.mark.parametrize("g_dtype", [np.float32, np.float64])
    def test_rule_writes_into_neither_input_nor_gradient(self, rng, g_dtype):
        x = rng.standard_normal((3, 5)).astype(np.float32)
        g = rng.standard_normal((3, 5)).astype(g_dtype)
        a = Tensor(x.copy(), requires_grad=True)
        out = _gelu_node(a)
        saved_out, saved_g = out.data.copy(), g.copy()
        (first,) = out._node.rule(g)
        (second,) = out._node.rule(g)
        assert a.data.tobytes() == x.tobytes()
        assert g.tobytes() == saved_g.tobytes()
        assert out.data.tobytes() == saved_out.tobytes()
        assert first.dtype == np.result_type(g, x)
        assert first is not g and first.tobytes() == second.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_gelu_written_over_its_input_keeps_the_bytes_of_a_fresh_activation(self, rng, dtype):
        """``act`` may be ``x`` itself, as in ``feedforward``'s backward: each
        tile's GELU goes over ``x`` only after the derivative has read it."""
        x = (4 * rng.standard_normal((3, 5, 12))).astype(dtype)
        g = rng.standard_normal(x.shape).astype(dtype)
        _, want_act, want_grad = _gelu_both_modes(x, g)
        h, gh = x.copy(), g.copy()
        assert T._gelu(h, gh, h) is gh
        assert h.tobytes() == want_act.tobytes()
        assert gh.tobytes() == want_grad.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_special_values_keep_the_bytes_of_the_untiled_chain(self, rng, dtype):
        """The kernel squares with ``np.square``, the untiled chain multiplies."""
        x = _special_values(dtype, (3, 5, 12))
        g = rng.standard_normal(x.shape).astype(dtype)
        with np.errstate(all="ignore"):
            got = _gelu_both_modes(x, g)
            want_out, want_grad = _gelu_untiled(x, g)
        for a, b in zip(got, (want_out, want_out, want_grad)):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("probe_dtype", [np.float32, np.float64])
    def test_backward_twice_over_the_same_leaves_doubles_the_gradient(self, rng, probe_dtype):
        a = Tensor(rng.standard_normal((4, 6)).astype(np.float32), requires_grad=True)
        probe = Tensor(rng.standard_normal((4, 6)).astype(probe_dtype))
        _assert_a_second_graph_doubles_the_gradient(
            lambda: T.sum_all(T.mul(_gelu_node(a), probe)), [a])


def _ffn_leaves(rng, dtype, batch=3, tokens=5, dim=4, hidden=12):
    """x, w1, b1, w2, b2 as leaves that require grad; the biases are non-zero."""
    shapes = [(batch, tokens, dim), (dim, hidden), (hidden,), (hidden, dim), (dim,)]
    return [Tensor(rng.standard_normal(s).astype(dtype), requires_grad=True) for s in shapes]


def _ffn_composed(x, w1, b1, w2, b2):
    """The five primitive nodes that ``T.feedforward`` stands for."""
    return T.add(T.matmul(_gelu_node(T.add(T.matmul(x, w1), b1)), w2), b2)


def _closure_arrays(rule) -> list[np.ndarray]:
    """The arrays ``rule`` closes over, those in a layer norm's recipe included."""
    cells = [c.cell_contents for c in rule.__closure__ or ()]
    cells += [a for c in cells if type(c) is tuple for a in c]
    return [c for c in cells if isinstance(c, np.ndarray)]


class TestFeedForward:
    @pytest.mark.parametrize("frozen", [(), (0,), (0, 3, 4)])
    def test_float32_output_and_gradients_equal_the_composition_byte_for_byte(self, rng, frozen):
        """Batch 3, non-zero biases; the sixth gradient is the output's, via a probe.
        A frozen leaf gets no gradient from either."""
        leaves = _ffn_leaves(rng, np.float32)
        _assert_same_bytes(_fused_and_composed_results(
            rng, T.feedforward, _ffn_composed, leaves, frozen))

    @pytest.mark.parametrize("g_dtype", [np.float32, np.float64])
    def test_rule_writes_into_nothing_it_reads(self, rng, g_dtype):
        x, w1, b1, w2, b2 = _ffn_leaves(rng, np.float32)
        out = T.feedforward(x, w1, b1, w2, b2)
        g = rng.standard_normal(out.shape).astype(g_dtype)
        kept = _closure_arrays(out._node.rule)
        saved = [a.tobytes() for a in kept] + [g.tobytes(), out.data.tobytes()]
        first = out._node.rule(g)
        second = out._node.rule(g)
        assert [a.tobytes() for a in kept] + [g.tobytes(), out.data.tobytes()] == saved
        assert len(first) == 5
        for a, b in zip(first, second):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("probe_dtype", [np.float32, np.float64])
    def test_backward_twice_over_the_same_leaves_doubles_the_gradient(self, rng, probe_dtype):
        leaves = _ffn_leaves(rng, np.float32)
        probe = Tensor(rng.standard_normal((3, 5, 4)).astype(probe_dtype))
        _assert_a_second_graph_doubles_the_gradient(
            lambda: T.sum_all(T.mul(T.feedforward(*leaves), probe)), leaves)


@pytest.fixture(params=[61, 5], ids=["tile61", "tile5"])
def small_tile(request, monkeypatch):
    """``T._TILE`` cut so that tiles end mid-row (61 elements) or are narrower
    than a row (5)."""
    monkeypatch.setattr(T, "_TILE", request.param)


@pytest.mark.usefixtures("small_tile")
class TestGeluInSmallTiles(TestGelu):
    """Every ``TestGelu`` case again, in tiles smaller than its arrays."""


@pytest.mark.usefixtures("small_tile")
class TestFeedForwardInSmallTiles(TestFeedForward):
    """Every ``TestFeedForward`` case again, in tiles smaller than its arrays."""


@pytest.mark.usefixtures("small_tile")
class TestLayerNormInSmallTiles(TestLayerNorm):
    """Every ``TestLayerNorm`` case again with ``T._TILE`` cut small. Layer norm
    runs in whole-array passes, so its bytes and peaks must not follow the tile
    that GELU and AdamW use."""


# sha256 of preset tiny's logits and of its gradients' bytes concatenated in
# ``parameters()`` order: seed 0, images ``default_rng(1).random((2, 32, 32, 3))``
# in float32, labels [1, 2], cross-entropy; then the same after ``astype``
TINY_SHA256 = {
    np.float32: ("fa707fe7b3b1096f9dcb5195256a852d082cacd2143652c8a3c86426aa7c40ee",
                 "8b239616ee9f66a1e4ff2cfa0ef5d831bb582ddf8ce665fe0ae2b41f01334117"),
    np.float64: ("ab02d2adcee2532a4f764108422a4166b4774d52ceb034c06806352da8089f10",
                 "a9803a902ca1a6a21384f5be0f11a7655cb3a90c6d47e5820878642ffeb227fb"),
}


class TestTiles:
    @pytest.mark.parametrize("tile", [T._TILE, 61, 5], ids=["default", "tile61", "tile5"])
    def test_tiny_logits_and_gradients_keep_their_bytes_at_any_tile(self, monkeypatch, tile):
        """The pinned hashes are those of whole-array GELU and layer norm."""
        monkeypatch.setattr(T, "_TILE", tile)
        model = build_model(preset_config("tiny", seed=0))
        images = np.random.default_rng(1).random((2, 32, 32, 3), dtype=np.float32)
        for dtype, want in TINY_SHA256.items():
            model.astype(dtype)
            logits = model(Tensor(images.astype(dtype)))
            T.cross_entropy_with_logits(logits, np.array([1, 2])).backward()
            grads = b"".join(p.grad.tobytes() for p in model.parameters())
            got = (hashlib.sha256(logits.data.tobytes()).hexdigest(),
                   hashlib.sha256(grads).hexdigest())
            assert got == want, dtype

    def test_the_ffn_rule_peaks_near_two_hidden_size_arrays(self, rng):
        """Dual-ViT S's stage-1 pixel FFN: 3,136 tokens of width 64, ratio 8.
        Measured here with tracemalloc: 4.02 hidden-size arrays with ``t``, the
        activation and the derivative as whole arrays; 2.12 with ``g @ w2ᵀ``
        and the activation whole and the rest in tiles."""
        shapes = [(1, 3136, 64), (64, 512), (512,), (512, 64), (64,)]
        leaves = [Tensor(rng.standard_normal(s).astype(np.float32), requires_grad=True)
                  for s in shapes]
        out = T.feedforward(*leaves)
        g = np.ones(out.shape, np.float32)
        hidden = 3136 * 512 * 4
        tracemalloc.start()
        try:
            grads = out._node.rule(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(grads) == 5
        assert peak <= 2.5 * hidden, peak / hidden


def _fused_and_composed_results(rng, fused, composed, leaves, frozen):
    """Output, every leaf's gradient and the output's gradient (via a probe), once
    through ``fused`` and once through ``composed``; ``frozen`` leaves need no grad."""
    for i in frozen:
        leaves[i].requires_grad = False
    out_shape = fused(*leaves).shape
    probe_data = rng.standard_normal(out_shape).astype(leaves[0].data.dtype)
    results = []
    for op in (fused, composed):
        for t in leaves:
            t.zero_grad()
        probe = Tensor(probe_data, requires_grad=True)
        out = op(*leaves)
        T.sum_all(T.mul(out, probe)).backward()
        results.append([out.data] + [t.grad for t in leaves] + [probe.grad])
    return results


def _assert_same_bytes(results):
    for fused, composed in zip(*results):
        if composed is None:
            assert fused is None
            continue
        assert fused.dtype == composed.dtype and fused.shape == composed.shape
        assert fused.tobytes() == composed.tobytes()


def _linear_composed(x, w, b):
    """The two primitive nodes that ``T.linear`` stands for."""
    return T.add(T.matmul(x, w), b)


def _linear_leaves(rng, dtype):
    shapes = [(3, 5, 4), (4, 6), (6,)]
    return [Tensor(rng.standard_normal(s).astype(dtype), requires_grad=True) for s in shapes]


class TestLinear:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("frozen", [(), (0,), (1, 2)])
    def test_output_and_gradients_equal_the_composition_byte_for_byte(self, rng, dtype, frozen):
        leaves = _linear_leaves(rng, dtype)
        _assert_same_bytes(_fused_and_composed_results(
            rng, T.linear, _linear_composed, leaves, frozen))

    def test_a_linear_node_keeps_only_its_input_and_weight(self, rng):
        x, w, b = _linear_leaves(rng, np.float32)
        kept = _closure_arrays(T.linear(x, w, b)._node.rule)
        assert len(kept) == 2 and any(a is x.data for a in kept) and any(a is w.data for a in kept)

    def test_backward_twice_over_the_same_leaves_doubles_the_gradient(self, rng):
        leaves = _linear_leaves(rng, np.float32)
        probe = Tensor(rng.standard_normal((3, 5, 6)).astype(np.float32))
        _assert_a_second_graph_doubles_the_gradient(
            lambda: T.sum_all(T.mul(T.linear(*leaves), probe)), leaves)

    def test_a_bias_of_the_wrong_width_is_a_dimension_error(self, rng):
        x, w, _ = _linear_leaves(rng, np.float32)
        with pytest.raises(DimensionError):
            T.linear(x, w, Tensor(np.zeros(5, np.float32)))


def _softmax_node(a):
    """A softmax node over the ``_softmax`` kernel, run on a copy, and its
    ``_softmax_grad`` rule: the node ``T.attention`` stands for between its GEMMs."""
    p = T._softmax(a.data.copy())
    return T._make(p, (a,), lambda g: (T._softmax_grad(g, p),))


def _attention_composed(q, k, v, heads=2):
    """The primitive nodes that ``T.attention`` stands for between its
    projections, in the order it runs them."""
    b, n_q, d = q.shape
    head_dim = d // heads

    def split(x, axes=(0, 2, 1, 3)):
        return T.transpose(T.reshape(x, (b, x.shape[1], heads, head_dim)), axes)

    scores = _times(T.matmul(split(q), split(k, (0, 2, 3, 1))), 1.0 / math.sqrt(head_dim))
    mixed = T.matmul(_softmax_node(scores), split(v))
    return T.reshape(T.transpose(mixed, (0, 2, 1, 3)), (b, n_q, d))


def _mha_composed(xq, xkv, wq, bq, wk, bk, wv, bv, wo, bo, heads=2):
    """The chain ``T.attention`` stands for: three ``T.linear`` projections, the
    heads and the output ``T.linear``."""
    q, k, v = T.linear(xq, wq, bq), T.linear(xkv, wk, bk), T.linear(xkv, wv, bv)
    return T.linear(_attention_composed(q, k, v, heads), wo, bo)


def _attention_leaves(rng, dtype, n_q=5, n_kv=7, d=8):
    """Queries, a key/value source and the four projections' weights and biases."""
    shapes = [(3, n_q, d), (3, n_kv, d)] + [(d, d), (d,)] * 4
    return [Tensor(rng.standard_normal(s).astype(dtype), requires_grad=True) for s in shapes]


def _self_attention(op):
    """``op`` over leaves without the key/value source: the queries are reused."""
    return lambda x, *params: op(x, x, *params)


class TestAttention:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("frozen", [(), (0,), (1,), (0, 1), (2, 3), (4, 5, 6, 7), (8, 9)])
    def test_output_and_gradients_equal_the_composition_byte_for_byte(self, rng, dtype, frozen):
        leaves = _attention_leaves(rng, dtype)
        _assert_same_bytes(_fused_and_composed_results(
            rng, lambda *a: T.attention(*a, 2), _mha_composed, leaves, frozen))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("frozen", [(), (0,), (1, 2, 3, 4)])
    def test_self_attention_equals_the_composition_byte_for_byte(self, rng, dtype, frozen):
        """The input gradient sums the query, key and value projections' in that order."""
        leaves = _attention_leaves(rng, dtype, n_kv=5)
        del leaves[1]
        _assert_same_bytes(_fused_and_composed_results(
            rng, _self_attention(lambda *a: T.attention(*a, 2)), _self_attention(_mha_composed),
            leaves, frozen))

    def test_one_query_token_equals_the_composition_byte_for_byte(self, rng):
        """With n_q = 1 the merged heads are a view of the value mix's output."""
        leaves = _attention_leaves(rng, np.float32, n_q=1)
        _assert_same_bytes(_fused_and_composed_results(
            rng, lambda *a: T.attention(*a, 2), _mha_composed, leaves, ()))

    @pytest.mark.parametrize("self_attention", [False, True], ids=["cross", "self"])
    def test_an_attention_node_keeps_only_its_inputs(self, rng, self_attention):
        leaves = _attention_leaves(rng, np.float32)
        if self_attention:
            leaves[1] = leaves[0]
        out = T.attention(*leaves, 2)
        params = [t.data for t in leaves[2:]]
        kept = [a for a in _closure_arrays(out._node.rule) if not any(a is p for p in params)]
        assert {id(a) for a in kept} == {id(leaves[0].data), id(leaves[1].data)}
        assert not any(a.shape == (3, 2, 5, 7) for a in kept)  # no probabilities

    @pytest.mark.parametrize("g_dtype", [np.float32, np.float64])
    def test_rule_writes_into_nothing_it_reads(self, rng, g_dtype):
        leaves = _attention_leaves(rng, np.float32)
        out = T.attention(*leaves, 2)
        g = rng.standard_normal(out.shape).astype(g_dtype)
        saved = [t.data.tobytes() for t in leaves] + [g.tobytes(), out.data.tobytes()]
        first = out._node.rule(g)
        second = out._node.rule(g)
        assert [t.data.tobytes() for t in leaves] + [g.tobytes(), out.data.tobytes()] == saved
        for a, b in zip(first, second):
            assert a.tobytes() == b.tobytes()

    def test_backward_twice_over_the_same_leaves_doubles_the_gradient(self, rng):
        leaves = _attention_leaves(rng, np.float32)
        probe = Tensor(rng.standard_normal((3, 5, 8)).astype(np.float32))
        _assert_a_second_graph_doubles_the_gradient(
            lambda: T.sum_all(T.mul(T.attention(*leaves, 2), probe)), leaves)

    @pytest.mark.parametrize("shapes", [
        [(3, 5, 8), (3, 7, 8), (8, 8), (8, 6)],   # keys and values disagree
        [(3, 5, 6), (3, 7, 8), (8, 8), (8, 8)],   # query width
        [(3, 5, 6), (3, 7, 6), (6, 6), (6, 6)],   # width not divisible by the heads
        [(15, 8), (21, 8), (8, 8), (8, 8)],        # not (B, n, d)
        [(2, 5, 8), (3, 7, 8), (8, 8), (8, 8)],   # batches disagree
    ])
    def test_mismatched_shapes_are_a_dimension_error(self, shapes):
        xq, xkv, w, wv = (Tensor(np.zeros(s, np.float32)) for s in shapes)
        b = Tensor(np.zeros(w.shape[1], np.float32))
        bv = Tensor(np.zeros(wv.shape[1], np.float32))
        with pytest.raises(DimensionError):
            T.attention(xq, xkv, w, b, w, b, wv, bv, w, b, 4)


# each composite op a layer norm feeds: how many inputs it takes, the shapes of
# its parameters, and the op over its inputs and parameters
_NORM_CONSUMERS = {
    "linear": (1, [(4, 6), (6,)], T.linear),
    "feedforward": (1, [(4, 6), (6,), (6, 4), (4,)], T.feedforward),
    "self_attention": (1, [(4, 4), (4,)] * 4, lambda x, *p: T.attention(x, x, *p, 2)),
    "cross_attention": (2, [(4, 4), (4,)] * 4, lambda xq, xkv, *p: T.attention(xq, xkv, *p, 2)),
}


class TestLayerNormRecipe:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("name", list(_NORM_CONSUMERS))
    def test_a_consumer_keeps_the_recipe_and_gives_the_bytes_of_a_kept_output(
            self, rng, dtype, name):
        """The op fed layer-norm results keeps each one's ``normed`` and no
        other token array; fed views of them, which carry no recipe, it keeps
        their data. Output and every gradient are the same bytes."""
        count, param_shapes, consumer = _NORM_CONSUMERS[name]
        shapes = [s for n in (5, 7)[:count] for s in ((3, n, 4), (4,), (4,))] + param_shapes
        leaves = [Tensor(rng.standard_normal(s).astype(dtype), requires_grad=True)
                  for s in shapes]
        outside = {id(t.data) for t in leaves}

        def fed(recipe):
            def op(*leaves):
                ys = [T.layernorm(*leaves[3 * i:3 * i + 3]) for i in range(count)]
                if not recipe:
                    ys = [T.reshape(y, y.shape) for y in ys]
                out = consumer(*ys, *leaves[3 * count:])
                kept = {id(a) for a in _closure_arrays(out._node.rule)} - outside
                assert kept == {id(y._remat[0] if recipe else y.data) for y in ys}
                return out
            return op

        _assert_same_bytes(_fused_and_composed_results(rng, fed(True), fed(False), leaves, ()))

    def test_only_a_layer_norm_that_records_a_graph_sets_a_recipe(self, rng):
        x, gamma, beta = (Tensor(rng.standard_normal(s).astype(np.float32), requires_grad=True)
                          for s in ((2, 3, 4), (4,), (4,)))
        with T.no_grad():
            assert T.layernorm(x, gamma, beta)._remat is None
        frozen = [Tensor(t.data) for t in (x, gamma, beta)]
        assert T.layernorm(*frozen)._remat is None
        assert T.layernorm(x, gamma, beta)._remat is not None


def _graph_nodes(loss: Tensor) -> list:
    """Every ``_Node`` reachable from ``loss``."""
    seen, stack = {}, [loss._node]
    while stack:
        node = stack.pop()
        if isinstance(node, T._Node) and id(node) not in seen:
            seen[id(node)] = node
            stack.extend(node.parents)
    return list(seen.values())


def _kept_arrays(loss: Tensor, model) -> list[np.ndarray]:
    """The non-parameter arrays the rules of ``loss``'s graph keep, each once;
    no two of them share memory."""
    params = {id(p.data) for p in model.parameters()}
    kept = {id(a): a for node in _graph_nodes(loss) for a in _closure_arrays(node.rule)
            if id(a) not in params}
    arrays = sorted(kept.values(), key=lambda a: a.__array_interface__["data"][0])
    for a, b in zip(arrays, arrays[1:]):  # in address order, any overlap shows in a neighbour
        assert not np.may_share_memory(a, b)
    return arrays


def _analytic_graph_bytes(model, batch: int) -> int:
    """The non-parameter bytes a recorded graph of ``model`` on ``batch`` images
    keeps, from its config alone: each layer norm's ``normed`` and ``inv_std``;
    the input of every linear, FFN and attention node (a self-attention's
    once), save that a layer-norm output is kept as its recipe, whose arrays
    the layer norm keeps anyway; each concat's int64 cut offsets; the
    cross-entropy's shifted logits and int64 labels."""
    cfg, f = model.config, model.z0.data.dtype.itemsize
    m = cfg.m

    def tokens(n, d):  # one (batch, n, d) array
        return batch * n * d * f

    def norm(n, d):  # a layer norm's normed and inv_std
        return tokens(n, d) + tokens(n, 1)

    total, in_ch = 0, 3
    for i, (spec, n) in enumerate(zip(cfg.stages, cfg.token_counts())):
        d = spec.channels
        total += tokens(n, spec.patch_size ** 2 * in_ch) + norm(n, d)  # patch embed
        if i:
            total += tokens(m, in_ch) + norm(m, d)  # semantic transition
        for _ in range(spec.depth):
            if spec.kind == "dual":
                # semantic pathway: the normed pixel tokens and each step's normed
                # input; pixel pathway: queries, keys/values and the FFN's input
                total += norm(n, d)
                total += len(SEMANTIC_STEPS[model.variant]) * norm(m, d)
                total += 2 * norm(n, d) + norm(m, d)
            else:  # the joint concat and self-attention, then the two FFNs
                total += 8 + norm(n + m, d)
                total += norm(n, d) + norm(m, d)
        in_ch = d
    # the pooling concat, the head's layer norm and linear, the cross-entropy
    return total + 8 + norm(1, in_ch) + batch * (cfg.num_classes * f + 8)


class TestGraphKeepsOnlyWhatBackwardReads:
    def test_a_matmul_result_is_freed_while_its_graph_lives(self, rng):
        x = Tensor(rng.standard_normal((3, 4)))
        w = Tensor(rng.standard_normal((4, 2)), requires_grad=True)
        b = Tensor(rng.standard_normal(2), requires_grad=True)
        probe = rng.standard_normal((3, 2))
        product = T.matmul(x, w)
        freed = weakref.ref(product.data)
        loss = T.sum_all(T.mul(T.add(product, b), Tensor(probe)))
        del product
        assert freed() is None
        loss.backward()
        np.testing.assert_array_equal(w.grad, x.data.T @ probe)
        np.testing.assert_array_equal(b.grad, probe.sum(axis=0))

    def test_a_transposed_result_keeps_nothing_of_its_base(self, rng):
        """``transpose`` returns a view; the graph must not keep its base alive."""
        x = Tensor(rng.integers(-4, 5, (2, 3, 4)).astype(np.float64))
        w = Tensor(rng.integers(-4, 5, (4, 6)).astype(np.float64), requires_grad=True)
        probe = rng.integers(-4, 5, (2, 18)).astype(np.float64)
        y = T.matmul(x, w)
        freed = weakref.ref(y.data)
        z = T.reshape(T.transpose(y, (0, 2, 1)), (2, 18))
        loss = T.sum_all(T.mul(z, Tensor(probe)))
        del y, z
        assert freed() is None
        loss.backward()
        np.testing.assert_array_equal(
            w.grad, np.einsum("bti,bjt->ij", x.data, probe.reshape(2, 6, 3)))

    def test_no_rule_closes_over_a_tensor(self):
        cfg = preset_config("tiny", seed=0)
        model = build_model(cfg)
        rng = np.random.default_rng(0)
        images = rng.standard_normal((4, cfg.resolution, cfg.resolution, 3)).astype(np.float32)
        labels = rng.integers(0, cfg.num_classes, size=4)
        nodes = _graph_nodes(T.cross_entropy_with_logits(model(images), labels))
        kinds = Counter(node.rule.__qualname__.split(".")[0] for node in nodes)
        assert kinds == {"attention": 8, "feedforward": 8, "layernorm": 28, "linear": 8,
                         "add": 18, "reshape": 6, "transpose": 3, "concat": 3, "split": 4,
                         "mean": 1, "cross_entropy_with_logits": 1}
        for node in nodes:
            cells = node.rule.__closure__ or ()
            assert not any(isinstance(c.cell_contents, Tensor) for c in cells), \
                node.rule.__qualname__

    def test_an_ffn_node_keeps_only_its_input(self, rng):
        ffn = FeedForward(4, 3, rng)
        x = Tensor(rng.standard_normal((2, 5, 4)).astype(np.float32), requires_grad=True)
        out = ffn(x)
        params = [p.data for p in ffn.parameters()]
        kept = [a for a in _closure_arrays(out._node.rule)
                if not any(a is p for p in params)]
        assert len(kept) == 1 and kept[0] is x.data

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_a_tiny_batch_3_graph_keeps_the_analytic_bytes(self, dtype):
        model = build_model(preset_config("tiny", seed=0)).astype(dtype)
        images = np.random.default_rng(1).random((3, 32, 32, 3)).astype(dtype)
        loss = T.cross_entropy_with_logits(model(images), np.array([1, 2, 3]))
        kept = _kept_arrays(loss, model)
        assert sum(a.nbytes for a in kept) == _analytic_graph_bytes(model, 3)

    def test_an_s224_graph_keeps_the_analytic_bytes_at_most_20_mib_and_only_node_inputs(
            self, monkeypatch):
        """Non-parameter arrays the rules of one S@224 batch-1 graph keep, each
        counted once. Measured here: 98.4 MiB while each FFN node kept its
        pre-activation; 60.1 MiB with each keeping only its input; 35.8 MiB with
        each attention sublayer one node that keeps only its inputs; 19.8 MiB
        with each layer-norm output kept as its recipe."""
        inputs, attention = {}, T.attention

        def recording(xq, xkv, *rest):
            out = attention(xq, xkv, *rest)
            # a recorded layer-norm result is kept as its recipe: its normed
            inputs[id(out._node)] = {id(x._remat[0] if x._remat else x.data) for x in (xq, xkv)}
            return out

        monkeypatch.setattr(T, "attention", recording)
        model = build_model(preset_config("S", seed=0))
        images = np.random.default_rng(1).random((1, 224, 224, 3), dtype=np.float32)
        loss = T.cross_entropy_with_logits(model(images), np.array([3]))
        params = {id(p.data) for p in model.parameters()}
        hidden = {id(p.data): p.shape[1] for name, p in model.named_parameters()
                  if name.endswith(".expand.weight")}
        ffn_nodes = attention_nodes = 0
        for node in _graph_nodes(loss):
            arrays = _closure_arrays(node.rule)
            kind = node.rule.__qualname__.split(".")[0]
            if kind == "feedforward":
                ffn_nodes += 1
                (width,) = [hidden[id(a)] for a in arrays if id(a) in hidden]
                assert all(a.shape[-1] != width for a in arrays if id(a) not in params)
            elif kind == "attention":
                attention_nodes += 1
                assert {id(a) for a in arrays if id(a) not in params} == inputs[id(node)]
        assert ffn_nodes == len(hidden) > 0
        assert attention_nodes == len(inputs) > 0
        total = sum(a.nbytes for a in _kept_arrays(loss, model))
        assert total == _analytic_graph_bytes(model, 1)
        assert total <= 20 * 2**20, total / 2**20

    def test_a_tiny_batch_16_backward_peaks_under_1_2_mib_over_its_graph(self):
        """Measured here with tracemalloc: 2.00 MiB over the graph while every
        rule lived until the walk ended; 0.76 MiB with each rule, and what only
        it kept, freed as soon as it has run; 1.01 MiB once each FFN node kept
        only its input. With each attention sublayer one node that keeps only
        its inputs the graph holds less to free by the peak: 1.35 MiB while
        GELU's derivative pass took three scratch rows, 1.10 MiB with two. With
        each layer-norm output kept as its recipe: 1.31 MiB over a 0.97 MiB
        graph at 64K-element tiles, whose two scratch rows are each as large as
        the stage-1 FFN's hidden array; 1.06 MiB at 32K (2.03 MiB absolute,
        2.49 before the recipe)."""
        cfg = preset_config("tiny", seed=0)
        model = build_model(cfg)
        images = np.random.default_rng(1).random(
            (16, cfg.resolution, cfg.resolution, 3)).astype(np.float32)
        tracemalloc.start()
        try:
            loss = T.cross_entropy_with_logits(model(images), np.arange(16) % cfg.num_classes)
            graph = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            loss.backward()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - graph <= 1.2 * 2**20, (peak - graph) / 2**20

    def test_tiny_batch_16_graph_forward_stays_under_1_5_mib(self):
        """Measured here with tracemalloc: 2.72 MiB while each attention call
        kept its probabilities; 2.54 MiB with one attention node that keeps only
        q, k and v and recomputes them in the backward; 2.03 MiB with one FFN
        node that keeps only its input and recomputes its pre-activation;
        1.37 MiB with each attention sublayer one node that keeps only its
        inputs; 0.96 MiB with each layer-norm output kept as its recipe."""
        cfg = preset_config("tiny", seed=0)
        model = build_model(cfg)
        images = np.random.default_rng(1).random(
            (16, cfg.resolution, cfg.resolution, 3)).astype(np.float32)
        tracemalloc.start()
        try:
            logits = model(images)
            live = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert logits.requires_grad
        assert live <= 1.5 * 2**20, live / 2**20


class TestNoGrad:
    def test_records_no_graph_and_nests(self):
        w = Tensor(np.ones(3), requires_grad=True)
        with T.no_grad():
            with T.no_grad():
                inner = _times(w, 2.0)
            outer = T.layernorm(w, Tensor(np.ones(3)), Tensor(np.zeros(3)))
        after = _times(w, 2.0)
        for t in (inner, outer):
            assert not t.requires_grad and t._node is None
            assert t.grad is None
        assert after.requires_grad and after._node.parents == (w, None) and after.grad is None

    def test_recording_resumes_after_an_exception(self):
        w = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(DimensionError), T.no_grad():
            T.add(w, Tensor(np.ones(2)))
        assert _times(w, 2.0).requires_grad


@pytest.mark.parametrize("axis", [1])  # the token axis of a 3-D input
def test_mean_gradient_equals_the_ones_like_form(rng, axis):
    a = Tensor(rng.standard_normal((2, 5, 3)).astype(np.float32), requires_grad=True)
    out = T.mean(a)
    g = rng.standard_normal(out.shape).astype(np.float32)
    g.flat[0] = -0.0
    (got,) = out._node.rule(g)
    want = np.expand_dims(g, axis) / a.shape[axis] * np.ones_like(a.data)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("g", [-1.5, -0.0])
def test_sum_all_gradient_equals_the_ones_like_form(rng, g):
    a = Tensor(rng.standard_normal((2, 5, 3)).astype(np.float32), requires_grad=True)
    out = T.sum_all(a)
    g = np.asarray(g, dtype=np.float32)
    (got,) = out._node.rule(g)
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
        T.sum_all(_times(b, 2.0)).backward()
        expected = np.zeros((1, 4, 2))
        expected[:, 1:, :] = 2.0
        np.testing.assert_array_equal(x.grad, expected)


@pytest.mark.parametrize("op_name", [
    "matmul", "add", "mul", "scale", "softmax", "layernorm", "gelu", "mean", "reshape", "transpose", "concat", "split", "cross_entropy", "feedforward",
    "linear", "attention",
])
def test_op_gradients_match_finite_differences(op_name, rng):
    """Per-op gradient check, 64-bit, random inputs of <=64 elements."""
    x = Tensor(rng.standard_normal((2, 4, 4)).astype(np.float64), requires_grad=True)
    y = Tensor(rng.standard_normal((2, 4, 4)).astype(np.float64), requires_grad=True)
    gamma = Tensor(rng.standard_normal(4).astype(np.float64), requires_grad=True)
    beta = Tensor(rng.standard_normal(4).astype(np.float64), requires_grad=True)
    probe = rng.standard_normal((2, 4, 4))
    labels = rng.integers(0, 4, size=8)
    ffn = {name: Tensor(rng.standard_normal(shape), requires_grad=True)
           for name, shape in (("w1", (4, 6)), ("b1", (6,)), ("w2", (6, 4)), ("b2", (4,)))}
    mha = {f"{name}{proj}": Tensor(rng.standard_normal(shape), requires_grad=True)
           for proj in "qkvo" for name, shape in (("w", (4, 4)), ("b", (4,)))}

    def build():
        if op_name == "matmul":
            return T.sum_all(T.mul(T.matmul(x, y), Tensor(probe)))
        if op_name == "add":
            return T.sum_all(T.mul(T.add(x, y), Tensor(probe)))
        if op_name == "mul":
            return T.sum_all(T.mul(T.mul(x, y), Tensor(probe)))
        if op_name == "scale":  # a mul by a 0-d constant that needs no grad
            return T.sum_all(T.mul(_times(x, -1.7), Tensor(probe)))
        if op_name == "softmax":
            return T.sum_all(T.mul(_softmax_node(x), Tensor(probe)))
        if op_name == "layernorm":
            return T.sum_all(T.mul(T.layernorm(x, gamma, beta), Tensor(probe)))
        if op_name == "gelu":
            return T.sum_all(T.mul(_gelu_node(x), Tensor(probe)))
        if op_name == "mean":
            return T.sum_all(T.mul(T.mean(x), Tensor(probe[:, 0, :])))
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
                         T.sum_all(_times(b, 0.5)))
        if op_name == "cross_entropy":
            return T.cross_entropy_with_logits(T.reshape(x, (8, 4)), labels)
        if op_name == "feedforward":
            return T.sum_all(T.mul(T.feedforward(x, ffn["w1"], ffn["b1"], ffn["w2"], ffn["b2"]),
                                   Tensor(probe)))
        if op_name == "linear":
            return T.sum_all(T.mul(T.linear(x, ffn["w1"], ffn["b1"]),
                                   Tensor(np.concatenate([probe, probe[..., :2]], axis=-1))))
        if op_name == "attention":
            return T.sum_all(T.mul(T.attention(x, y, *mha.values(), 2), Tensor(probe)))
        raise AssertionError(op_name)

    loss = build()
    loss.backward()
    tensors = {"x": x, "y": y}
    if op_name == "layernorm":
        tensors.update(gamma=gamma, beta=beta)
    if op_name in ("feedforward", "linear"):
        tensors.update(ffn)
    if op_name == "attention":
        tensors.update(mha)
    for name, t in tensors.items():
        if t.grad is None:
            continue
        numeric = finite_diff(lambda: build().item(), t.data)
        assert_grad_close(t.grad, numeric, tol=1e-4)


def test_a_0d_op_result_is_an_array():
    w = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
    out = _times(T.sum_all(w), 0.5)
    assert type(out.data) is np.ndarray and out.data.shape == ()
    assert out.data.dtype == np.float32


def test_forward_determinism(rng):
    a = rng.standard_normal((4, 4))
    b = rng.standard_normal((4, 4))
    gamma, beta = Tensor(rng.standard_normal(4)), Tensor(rng.standard_normal(4))
    r1 = T.layernorm(T.matmul(Tensor(a), Tensor(b)), gamma, beta).data
    r2 = T.layernorm(T.matmul(Tensor(a), Tensor(b)), gamma, beta).data
    np.testing.assert_array_equal(r1, r2)


def test_debug_mode_catches_nonfinite(monkeypatch):
    monkeypatch.setattr(T, "_debug_checks", True)
    with np.errstate(over="ignore"), pytest.raises(FloatingPointError):
        x = Tensor(np.array([1e308]))
        T.mul(x, x)


def test_mean_over_axis(rng):
    x = rng.standard_normal((2, 5, 3))
    out = T.mean(Tensor(x))
    np.testing.assert_allclose(out.data, x.mean(axis=1), rtol=1e-6)
