import numpy as np
import pytest

from dualvit import tensor as T
from dualvit.blocks import (DualBlock, FeatureMap, MergeBlock, PatchEmbed,
                            SemanticTokens, SemanticTransition, TransformerBlock)
from dualvit.errors import ConfigError, DimensionError, InputError
from dualvit.tensor import Tensor
from tests.test_complexity import dual_block_attention_macs, joint_attention_macs
from tests.test_nn import _randomize


def _zero_weights(module):
    """Zero every attention/FFN weight and bias; LN affines stay at init."""
    for name, p in module.named_parameters():
        if "gamma" not in name and "beta" not in name:
            p.data[...] = 0.0


def _fm(rng, n, d, h=None, w=None, dtype=np.float64):
    h = h or int(np.sqrt(n))
    w = w or n // h
    return FeatureMap(Tensor(rng.standard_normal((1, n, d)), dtype=dtype), h, w)


def _st(rng, m, d, dtype=np.float64):
    return SemanticTokens(Tensor(rng.standard_normal((1, m, d)), dtype=dtype))


class TestTransformerBlock:
    def test_zero_weights_is_identity(self, rng):
        blk = TransformerBlock(8, 2, 4, rng).astype(np.float64)
        _zero_weights(blk)
        x = rng.standard_normal((1, 6, 8))
        np.testing.assert_array_equal(blk(Tensor(x)).data, x)

    def test_single_token_is_tokenwise(self, rng):
        # with one token the attention weight is 1, so the block is the same
        # affine map for any single-token input
        blk = TransformerBlock(4, 2, 2, rng).astype(np.float64)
        _randomize(blk, rng)
        x = rng.standard_normal((1, 1, 4))
        out = blk(Tensor(x)).data
        xn = blk.norm_attn(Tensor(x))
        vp = T.add(T.matmul(xn, blk.attn.v_proj.weight), blk.attn.v_proj.bias)
        attn_out = T.add(T.matmul(vp, blk.attn.o_proj.weight), blk.attn.o_proj.bias)
        mid = attn_out.data + x
        expected = blk.ffn(blk.norm_ffn(Tensor(mid))).data + mid
        np.testing.assert_allclose(out, expected, atol=1e-10)

    def test_matches_manual_composition(self, rng):
        blk = TransformerBlock(8, 2, 4, rng).astype(np.float64)
        _randomize(blk, rng)
        x = rng.standard_normal((1, 4, 8))
        xn = blk.norm_attn(Tensor(x))
        mid = blk.attn(xn, xn).data + x
        expected = blk.ffn(blk.norm_ffn(Tensor(mid))).data + mid
        np.testing.assert_allclose(blk(Tensor(x)).data, expected, atol=1e-6)


class TestDualBlock:
    def test_stage1_small_shapes_roundtrip(self, rng):
        # geometry of the published stage-1 config: 56x56 pixel tokens, dim 64
        blk = DualBlock(64, 2, 8, 4, rng)
        x = _fm(rng, 3136, 64, 56, 56, dtype=np.float32)
        z = _st(rng, 16, 64, dtype=np.float32)
        x_out, z_out = blk(x, z)
        assert x_out.tokens.shape == (1, 3136, 64)
        assert z_out.tokens.shape == (1, 16, 64)

    def test_single_semantic_token_gives_identical_update(self, rng):
        blk = DualBlock(8, 2, 2, 2, rng).astype(np.float64)
        _randomize(blk, rng)
        x = _fm(rng, 9, 8, 3, 3)
        z = _st(rng, 1, 8)
        z_next = blk._semantic_pathway(x.tokens, z.tokens)
        xn = blk.norm_x_pix(x.tokens)
        zn = blk.norm_z_out(z_next)
        update = blk.pix_cross(xn, zn).data
        # single key/value token: every query receives the same mixed value
        np.testing.assert_allclose(update, np.tile(update[:, :1], (1, 9, 1)),
                                   atol=1e-10)

    def test_pixel_permutation_behavior(self, rng):
        blk = DualBlock(8, 2, 2, 2, rng).astype(np.float64)
        _randomize(blk, rng)
        x_data = rng.standard_normal((1, 12, 8))
        z_data = rng.standard_normal((1, 3, 8))
        perm = rng.permutation(12)
        x_out, z_out = blk(FeatureMap(Tensor(x_data), 3, 4),
                           SemanticTokens(Tensor(z_data)))
        x_out_p, z_out_p = blk(FeatureMap(Tensor(x_data[:, perm]), 3, 4),
                               SemanticTokens(Tensor(z_data)))
        np.testing.assert_allclose(z_out_p.tokens.data, z_out.tokens.data, atol=1e-10)
        np.testing.assert_allclose(x_out_p.tokens.data, x_out.tokens.data[:, perm],
                                   atol=1e-10)

    def test_zero_weights_is_identity(self, rng):
        blk = DualBlock(8, 2, 2, 2, rng).astype(np.float64)
        _zero_weights(blk)
        x = rng.standard_normal((1, 4, 8))
        z = rng.standard_normal((1, 2, 8))
        x_out, z_out = blk(FeatureMap(Tensor(x), 2, 2), SemanticTokens(Tensor(z)))
        np.testing.assert_array_equal(x_out.tokens.data, x)
        np.testing.assert_array_equal(z_out.tokens.data, z)

    def test_channel_mismatch_rejected(self, rng):
        blk = DualBlock(8, 2, 2, 2, rng)
        with pytest.raises(ConfigError):
            blk(_fm(rng, 4, 8), _st(rng, 2, 6))

    def test_gradients_reach_both_pathways(self, rng):
        blk = DualBlock(8, 2, 2, 2, rng).astype(np.float64)
        _randomize(blk, rng)
        x_out, z_out = blk(_fm(rng, 4, 8), _st(rng, 2, 8))
        loss = T.add(T.sum_all(T.mul(x_out.tokens,
                                     Tensor(rng.standard_normal((1, 4, 8))))),
                     T.sum_all(T.mul(z_out.tokens,
                                     Tensor(rng.standard_normal((1, 2, 8))))))
        loss.backward()
        for name, p in blk.named_parameters():
            assert p.grad is not None and np.linalg.norm(p.grad) > 0, name

    @pytest.mark.parametrize("variant", ["A", "B", "C"])
    def test_variants_run_and_shed_params(self, rng, variant):
        full = DualBlock(8, 2, 2, 2, np.random.default_rng(0)).astype(np.float64)
        blk = DualBlock(8, 2, 2, 2, np.random.default_rng(0),
                        variant=variant).astype(np.float64)
        x_out, z_out = blk(_fm(rng, 4, 8), _st(rng, 2, 8))
        assert x_out.tokens.shape == (1, 4, 8)
        if variant in ("A", "B"):
            assert blk.num_params() < full.num_params()
        else:
            assert blk.num_params() == full.num_params()

    @pytest.mark.parametrize("variant", ["A", "B", "C", "D"])
    def test_semantic_pathway_matches_hand_composition(self, rng, variant):
        blk = DualBlock(8, 2, 2, 2, rng, variant=variant).astype(np.float64)
        _randomize(blk, rng)
        x = _fm(rng, 6, 8, 2, 3).tokens
        z = _st(rng, 3, 8).tokens
        xn = blk.norm_x_sem(x)

        def self_attn(norm, z):
            zn = norm(z)
            return T.add(blk.sem_self(zn, zn), z)

        def cross_attn(norm, z):
            return T.add(blk.sem_cross(norm(z), xn), z)

        def ffn(z):
            return T.add(blk.sem_ffn(blk.norm_z_ffn(z)), z)

        if variant == "A":
            expected = ffn(cross_attn(blk.norm_z_mid, z))
        elif variant == "B":
            expected = cross_attn(blk.norm_z_mid, self_attn(blk.norm_z, z))
        elif variant == "C":
            expected = ffn(self_attn(blk.norm_z_mid, cross_attn(blk.norm_z, z)))
        else:
            expected = ffn(cross_attn(blk.norm_z_mid, self_attn(blk.norm_z, z)))
        np.testing.assert_array_equal(blk._semantic_pathway(x, z).data, expected.data)

    def test_variants_c_and_d_draw_identical_parameters(self):
        c = DualBlock(8, 2, 2, 2, np.random.default_rng(5), variant="C")
        d = DualBlock(8, 2, 2, 2, np.random.default_rng(5), variant="D")
        c_params, d_params = list(c.named_parameters()), list(d.named_parameters())
        assert [n for n, _ in c_params] == [n for n, _ in d_params]
        for (name, p), (_, q) in zip(c_params, d_params):
            np.testing.assert_array_equal(p.data, q.data, err_msg=name)


class TestMergeBlock:
    def test_token_counts_preserved(self, rng):
        blk = MergeBlock(16, 4, 4, 2, rng)
        x_out, z_out = blk(_fm(rng, 196, 16, 14, 14, dtype=np.float32),
                           _st(rng, 16, 16, dtype=np.float32))
        assert x_out.tokens.shape[-2] == 196
        assert z_out.tokens.shape[-2] == 16

    def test_tied_ffns_equal_transformer_on_concat(self, rng):
        merge = MergeBlock(8, 2, 4, 4, rng).astype(np.float64)
        _randomize(merge, rng)
        # tie the two per-pathway FFNs and norms
        for src, dst in [(merge.ffn_x, merge.ffn_z), (merge.norm_x, merge.norm_z)]:
            for (_, ps), (_, pd) in zip(src.named_parameters(), dst.named_parameters()):
                pd.data[...] = ps.data
        tb = TransformerBlock(8, 2, 4, np.random.default_rng(0)).astype(np.float64)
        for (_, ps), (_, pd) in zip(merge.norm_joint.named_parameters(),
                                    tb.norm_attn.named_parameters()):
            pd.data[...] = ps.data
        for (_, ps), (_, pd) in zip(merge.attn.named_parameters(),
                                    tb.attn.named_parameters()):
            pd.data[...] = ps.data
        for (_, ps), (_, pd) in zip(merge.norm_x.named_parameters(),
                                    tb.norm_ffn.named_parameters()):
            pd.data[...] = ps.data
        for (_, ps), (_, pd) in zip(merge.ffn_x.named_parameters(),
                                    tb.ffn.named_parameters()):
            pd.data[...] = ps.data
        x = rng.standard_normal((1, 6, 8))
        z = rng.standard_normal((1, 2, 8))
        x_out, z_out = merge(FeatureMap(Tensor(x), 2, 3), SemanticTokens(Tensor(z)))
        joint_out = tb(Tensor(np.concatenate([x, z], axis=-2))).data
        np.testing.assert_allclose(
            np.concatenate([x_out.tokens.data, z_out.tokens.data], axis=-2),
            joint_out, atol=1e-6)

    def test_matches_manual_composition(self, rng):
        blk = MergeBlock(8, 2, 2, 2, rng).astype(np.float64)
        _randomize(blk, rng)
        x = rng.standard_normal((1, 4, 8))
        z = rng.standard_normal((1, 2, 8))
        joint = np.concatenate([x, z], axis=-2)
        yn = blk.norm_joint(Tensor(joint))
        mixed = blk.attn(yn, yn).data + joint
        xm, zm = mixed[:, :4], mixed[:, 4:]
        ex = blk.ffn_x(blk.norm_x(Tensor(xm))).data + xm
        ez = blk.ffn_z(blk.norm_z(Tensor(zm))).data + zm
        x_out, z_out = blk(FeatureMap(Tensor(x), 2, 2), SemanticTokens(Tensor(z)))
        np.testing.assert_allclose(x_out.tokens.data, ex, atol=1e-6)
        np.testing.assert_allclose(z_out.tokens.data, ez, atol=1e-6)

    def test_pathway_channel_mismatch_is_dimension_error(self, rng):
        blk = MergeBlock(8, 2, 2, 2, rng).astype(np.float64)
        with pytest.raises(DimensionError):
            blk(_fm(rng, 4, 8), _st(rng, 2, 6))

    def test_zero_weights_is_identity(self, rng):
        blk = MergeBlock(8, 2, 2, 2, rng).astype(np.float64)
        _zero_weights(blk)
        x = rng.standard_normal((1, 4, 8))
        z = rng.standard_normal((1, 2, 8))
        x_out, z_out = blk(FeatureMap(Tensor(x), 2, 2), SemanticTokens(Tensor(z)))
        np.testing.assert_array_equal(x_out.tokens.data, x)
        np.testing.assert_array_equal(z_out.tokens.data, z)


class TestPatchEmbed:
    def test_patch_one_is_tokenwise_projection(self, rng):
        pe = PatchEmbed(3, 1, 8, rng).astype(np.float64)
        x = rng.standard_normal((1, 16, 3))
        out = pe(FeatureMap(Tensor(x), 4, 4))
        expected = pe.norm(pe.proj(Tensor(x))).data
        np.testing.assert_allclose(out.tokens.data, expected, atol=1e-12)

    def test_stage1_geometry(self, rng):
        pe = PatchEmbed(3, 4, 64, rng)
        x = Tensor(rng.standard_normal((1, 224 * 224, 3)), dtype=np.float32)
        out = pe(FeatureMap(x, 224, 224))
        assert (out.height, out.width) == (56, 56)
        assert out.tokens.shape == (1, 3136, 64)

    def test_checkerboard_flattening_oracle(self, rng):
        # p=2 on an 8x8 checkerboard: each patch flattens to the same
        # 12-vector, so with an identity-like projection (first 12 rows of the
        # weight = I, LN made affine-neutral by wide gamma... instead check
        # the pre-LN projection against a hand-computed patch gather)
        pe = PatchEmbed(3, 2, 12, rng).astype(np.float64)
        pe.proj.weight.data[...] = np.eye(12)
        pe.proj.bias.data[...] = 0.0
        board = np.indices((8, 8)).sum(axis=0) % 2
        img = np.stack([board, 1 - board, board], axis=-1).astype(np.float64)
        tokens = img.reshape(1, 64, 3)
        out = pe(FeatureMap(Tensor(tokens), 8, 8))
        # hand-computed flattening of the top-left patch, row-major:
        # (0,0)=black(0), (0,1)=white(1), (1,0)=white(1), (1,1)=black(0)
        expected_patch = np.array([0, 1, 0, 1, 0, 1, 1, 0, 1, 0, 1, 0],
                                  dtype=np.float64)
        # undo the LN analytically
        mu, sd = expected_patch.mean(), expected_patch.std()
        np.testing.assert_allclose(out.tokens.data[0, 0],
                                   (expected_patch - mu) / np.sqrt(sd**2 + 1e-6),
                                   atol=1e-6)

    def test_indivisible_resolution_names_operands(self, rng):
        pe = PatchEmbed(3, 4, 8, rng)
        with pytest.raises(InputError, match="6x6.*4"):
            pe(FeatureMap(Tensor(np.zeros((1, 36, 3))), 6, 6))


class TestSemanticTransition:
    def test_identity_weights_standardize(self, rng):
        tr = SemanticTransition(8, 8, rng).astype(np.float64)
        tr.proj.weight.data[...] = np.eye(8)
        tr.proj.bias.data[...] = 0.0
        z = rng.standard_normal((1, 4, 8))
        out = tr(SemanticTokens(Tensor(z))).tokens.data
        mu = z.mean(axis=-1, keepdims=True)
        sd = z.std(axis=-1, keepdims=True)
        np.testing.assert_allclose(out, (z - mu) / np.sqrt(sd**2 + 1e-6), atol=1e-6)

    def test_count_preserved_and_width_changed(self, rng):
        tr = SemanticTransition(64, 128, rng)
        out = tr(SemanticTokens(Tensor(np.random.default_rng(0)
                                       .standard_normal((1, 16, 64)),
                                       dtype=np.float32)))
        assert out.tokens.shape == (1, 16, 128)


def test_attention_score_work_ratio():
    # per-block score-matrix entries: m^2 + 2nm for dual vs n^2 for transformer
    n, m, d = 1024, 16, 64
    dual = dual_block_attention_macs(n, m, d)
    conv = joint_attention_macs(n, d)
    assert dual == 2 * d * (m * m + 2 * n * m)
    assert conv == 2 * d * n * n
    assert dual < conv / 10
