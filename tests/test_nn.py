import numpy as np
import pytest

from dualvit import tensor as T
from dualvit.errors import ConfigError, DimensionError
from dualvit.nn import FeedForward, Linear, MultiHeadAttention, trunc_normal
from dualvit.tensor import Tensor
from tests.test_tensor import assert_grad_close, finite_diff


def dense_attention_oracle(q, k, v, mha):
    """Brute-force multi-head attention in plain numpy loops."""
    wq, bq = mha.q_proj.weight.data, mha.q_proj.bias.data
    wk, bk = mha.k_proj.weight.data, mha.k_proj.bias.data
    wv, bv = mha.v_proj.weight.data, mha.v_proj.bias.data
    wo, bo = mha.o_proj.weight.data, mha.o_proj.bias.data
    h, dh = mha.heads, mha.head_dim
    b, nq, d = q.shape
    nkv = k.shape[1]
    out = np.zeros((b, nq, d))
    for bi in range(b):
        qp = q[bi] @ wq + bq
        kp = k[bi] @ wk + bk
        vp = v[bi] @ wv + bv
        heads = []
        for hi in range(h):
            sl = slice(hi * dh, (hi + 1) * dh)
            scores = np.zeros((nq, nkv))
            for i in range(nq):
                for j in range(nkv):
                    scores[i, j] = qp[i, sl] @ kp[j, sl] / np.sqrt(dh)
            weights = np.exp(scores - scores.max(axis=-1, keepdims=True))
            weights /= weights.sum(axis=-1, keepdims=True)
            heads.append(weights @ vp[:, sl])
        out[bi] = np.concatenate(heads, axis=-1) @ wo + bo
    return out


def _randomize(module, rng, scale=0.3):
    for _, p in module.named_parameters():
        p.data += scale * rng.standard_normal(p.data.shape)


class TestMha:
    def test_single_token_weight_is_one(self, rng):
        mha = MultiHeadAttention(4, 2, rng).astype(np.float64)
        _randomize(mha, rng)
        x = rng.standard_normal((1, 1, 4))
        out = mha(Tensor(x), Tensor(x)).data
        vp = x[0] @ mha.v_proj.weight.data + mha.v_proj.bias.data
        expected = vp @ mha.o_proj.weight.data + mha.o_proj.bias.data
        np.testing.assert_allclose(out[0], expected, rtol=1e-9)

    def test_identical_keys_give_uniform_weights(self, rng):
        mha = MultiHeadAttention(6, 3, rng).astype(np.float64)
        _randomize(mha, rng)
        q = Tensor(rng.standard_normal((1, 2, 6)))
        key_row = rng.standard_normal(6)
        k = Tensor(np.tile(key_row, (1, 5, 1)))
        weights = mha.attention_weights(q, k).data
        np.testing.assert_allclose(weights, 1.0 / 5.0, atol=1e-7)
        out = mha(q, k).data
        vp = k.data[0] @ mha.v_proj.weight.data + mha.v_proj.bias.data
        expected = vp.mean(axis=0) @ mha.o_proj.weight.data + mha.o_proj.bias.data
        np.testing.assert_allclose(out[0, 0], expected, rtol=1e-6)

    def test_cross_attention_matches_dense_oracle(self, rng):
        mha = MultiHeadAttention(4, 2, rng).astype(np.float64)
        _randomize(mha, rng)
        q = rng.standard_normal((1, 2, 4))
        kv = rng.standard_normal((1, 3, 4))
        out = mha(Tensor(q), Tensor(kv)).data
        np.testing.assert_allclose(out, dense_attention_oracle(q, kv, kv, mha),
                                   atol=1e-6)

    def test_self_attention_matches_dense_oracle(self, rng):
        mha = MultiHeadAttention(8, 2, rng).astype(np.float64)
        _randomize(mha, rng)
        x = rng.standard_normal((2, 5, 8))
        out = mha(Tensor(x), Tensor(x)).data
        np.testing.assert_allclose(out, dense_attention_oracle(x, x, x, mha),
                                   atol=1e-6)

    def test_indivisible_heads_rejected(self, rng):
        with pytest.raises(ConfigError):
            MultiHeadAttention(6, 4, rng)

    def test_kv_token_mismatch_rejected(self, rng):
        mha = MultiHeadAttention(4, 2, rng)
        with pytest.raises(DimensionError):  # a query of the wrong width
            mha(Tensor(np.zeros((1, 2, 5))), Tensor(np.zeros((1, 3, 4))))

    def test_weights_are_convex_combinations(self, rng):
        mha = MultiHeadAttention(8, 4, rng).astype(np.float64)
        _randomize(mha, rng)
        q = Tensor(rng.standard_normal((2, 3, 8)))
        k = Tensor(rng.standard_normal((2, 6, 8)))
        w = mha.attention_weights(q, k).data
        assert np.all(w >= 0) and np.all(w <= 1)
        np.testing.assert_allclose(w.sum(axis=-1), 1.0, atol=1e-6)

    def test_query_permutation_equivariance(self, rng):
        mha = MultiHeadAttention(4, 2, rng).astype(np.float64)
        _randomize(mha, rng)
        q = rng.standard_normal((1, 5, 4))
        kv = Tensor(rng.standard_normal((1, 3, 4)))
        perm = rng.permutation(5)
        out = mha(Tensor(q), kv).data
        out_perm = mha(Tensor(q[:, perm]), kv).data
        np.testing.assert_allclose(out_perm, out[:, perm], atol=1e-10)

    def test_kv_permutation_invariance(self, rng):
        mha = MultiHeadAttention(4, 2, rng).astype(np.float64)
        _randomize(mha, rng)
        q = Tensor(rng.standard_normal((1, 2, 4)))
        kv = rng.standard_normal((1, 6, 4))
        perm = rng.permutation(6)
        out = mha(q, Tensor(kv)).data
        out_perm = mha(q, Tensor(kv[:, perm])).data
        np.testing.assert_allclose(out_perm, out, atol=1e-10)

    def test_gradients_match_finite_differences(self, rng):
        mha = MultiHeadAttention(4, 2, rng).astype(np.float64)
        _randomize(mha, rng)
        x = rng.standard_normal((1, 3, 4))
        probe = rng.standard_normal((1, 3, 4)) / 100.0

        def build():
            xt = Tensor(x, dtype=np.float64)
            return T.sum_all(T.mul(mha(xt, xt), Tensor(probe)))

        build().backward()
        for name, p in mha.named_parameters():
            numeric = finite_diff(lambda: build().item(), p.data, step=1e-5)
            assert_grad_close(p.grad, numeric, tol=1e-4)
            p.zero_grad()


class TestFfn:
    def test_zero_weights_map_to_contract_bias(self, rng):
        ffn = FeedForward(4, 2, rng).astype(np.float64)
        for _, p in ffn.named_parameters():
            p.data[...] = 0.0
        ffn.contract.bias.data[...] = np.arange(4.0)
        out = ffn(Tensor(rng.standard_normal((1, 5, 4)))).data
        np.testing.assert_allclose(out, np.tile(np.arange(4.0), (1, 5, 1)), atol=1e-12)

    def test_token_permutation_commutes(self, rng):
        ffn = FeedForward(6, 2, rng).astype(np.float64)
        _randomize(ffn, rng)
        x = rng.standard_normal((1, 7, 6))
        perm = rng.permutation(7)
        np.testing.assert_allclose(ffn(Tensor(x[:, perm])).data,
                                   ffn(Tensor(x)).data[:, perm], atol=1e-12)

    def test_scalar_loop_oracle(self, rng):
        ffn = FeedForward(4, 2, rng).astype(np.float64)
        _randomize(ffn, rng)
        x = rng.standard_normal((1, 2, 4))
        out = ffn(Tensor(x)).data
        # independent scalar-loop evaluation
        w1, b1 = ffn.expand.weight.data, ffn.expand.bias.data
        w2, b2 = ffn.contract.weight.data, ffn.contract.bias.data
        expected = np.zeros((1, 2, 4))
        for t in range(2):
            hidden = np.zeros(8)
            for j in range(8):
                acc = b1[j]
                for i in range(4):
                    acc += x[0, t, i] * w1[i, j]
                u = np.sqrt(2 / np.pi) * (acc + 0.044715 * acc**3)
                hidden[j] = 0.5 * acc * (1 + np.tanh(u))
            for o in range(4):
                acc = b2[o]
                for j in range(8):
                    acc += hidden[j] * w2[j, o]
                expected[0, t, o] = acc
        np.testing.assert_allclose(out, expected, atol=1e-6)

    def test_gradients_match_finite_differences(self, rng):
        ffn = FeedForward(4, 2, rng).astype(np.float64)
        _randomize(ffn, rng)
        x = rng.standard_normal((1, 3, 4))
        probe = rng.standard_normal((1, 3, 4)) / 100.0

        def build():
            return T.sum_all(T.mul(ffn(Tensor(x, dtype=np.float64)), Tensor(probe)))

        build().backward()
        for name, p in ffn.named_parameters():
            numeric = finite_diff(lambda: build().item(), p.data, step=1e-5)
            assert_grad_close(p.grad, numeric, tol=1e-4)
            p.zero_grad()


class TestInit:
    def test_seed_determinism(self):
        a = Linear(8, 8, np.random.default_rng(7))
        b = Linear(8, 8, np.random.default_rng(7))
        np.testing.assert_array_equal(a.weight.data, b.weight.data)

    def test_biases_zero(self):
        lin = Linear(8, 16, np.random.default_rng(0))
        assert not lin.bias.data.any()

    def test_truncated_normal_statistics(self):
        draws = trunc_normal(np.random.default_rng(3), (100_000,))
        assert np.abs(draws).max() <= 0.04 + 1e-12
        assert 0.017 <= draws.std() <= 0.021

    def test_linear_input_dim_checked(self, rng):
        lin = Linear(4, 2, rng)
        with pytest.raises(DimensionError):
            lin(Tensor(np.zeros((1, 3, 5))))
