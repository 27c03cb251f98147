"""Tests for the dynamic group convolution layer.

Gradient checks run at selection-stable parameter points: a seed search
guarantees every relu pre-activation and every pairwise saliency gap
clears a margin far wider than the finite-difference step, so the
discrete channel selection cannot flip during the check.
"""

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dgconv.core import ConvFilter, conv2d_backward, conv2d_forward, im2col
from dgconv.dgc import (
    DgcForward,
    DgcLayerConfig,
    GlobalGating,
    HeadwiseGating,
    _gate_masks,
    channel_shuffle,
    dgc_backward,
    dgc_forward,
    gather_filters,
    gathered_conv,
    init_dgc_layer,
    kept_channels,
    lasso_loss_and_grad,
    sgc_forward,
    shuffled_filters,
)
from conftest import naive_conv2d, numerical_grad, rel_error, tap_loop_col2im

SMALL = DgcLayerConfig(in_channels=4, out_channels=4, kernel_size=3, stride=1,
                       padding=1, heads=2, squeeze=2, prune_rate=0.5)


def small_layer(seed, config=SMALL):
    return init_dgc_layer(config, np.random.default_rng(seed))


def stable_setup(config=SMALL, n=2, hw=4, margin=5e-3, keep_sign=False,
                 threshold=None, empty_head=False):
    """First seed whose relu pre-activations and saliency gaps all clear
    the margin, making top-k / threshold selection locally constant; with
    empty_head, also one where some head keeps nothing for some sample."""
    for seed in range(500):
        gen = np.random.default_rng(seed)
        layer = init_dgc_layer(config, gen)
        x = gen.normal(size=(n, config.in_channels, hw, hw))
        ok = True
        empty = False
        for head in layer.heads:
            p = x.mean(axis=(2, 3))
            z1 = p @ head.w_squeeze.T + head.b_squeeze
            z2 = np.maximum(z1, 0.0) @ head.w_expand.T + head.b_expand
            g = z2 if keep_sign else np.maximum(z2, 0.0)
            gaps = np.abs(np.diff(np.sort(g, axis=1), axis=1))
            if np.abs(z1).min() < margin or np.abs(z2).min() < margin:
                ok = False
                break
            if gaps.min() < margin:
                ok = False
                break
            if threshold is not None and np.abs(np.abs(g) - threshold).min() < margin:
                ok = False
                break
            if threshold is not None:
                empty |= bool((np.abs(g) < threshold).all(axis=1).any())
        if ok and (empty or not empty_head):
            return layer, x
    raise AssertionError("no selection-stable seed found")


def topk(rows, rate):
    """Head-wise keep-masks of saliency rows."""
    return _gate_masks(np.asarray(rows, dtype=float), HeadwiseGating(rate))


class TestGating:
    def test_headwise_example_half(self):
        g = np.array([[0.9, 0.1, 0.5, 0.3]])
        mask = topk(g, 0.5)
        npt.assert_array_equal(mask, [[True, False, True, False]])
        npt.assert_allclose(g[mask], [0.9, 0.5])
        assert g[mask].min() == 0.5

    def test_headwise_example_three_quarters(self):
        g = np.array([[0.9, 0.1, 0.5, 0.3]])
        mask = topk(g, 0.75)
        npt.assert_array_equal(mask, [[True, False, False, False]])
        npt.assert_allclose(g[mask], [0.9])

    def test_zero_rate_keeps_all(self):
        g = np.array([[0.2, 0.0, 0.7]])
        npt.assert_array_equal(topk(g, 0.0), [[True, True, True]])

    def test_ties_break_to_lower_index(self):
        mask = topk([[0.5, 0.5, 0.5, 0.1], [0.1, 0.5, 0.5, 0.5]], 0.5)
        npt.assert_array_equal(mask, [[True, True, False, False],
                                      [False, True, True, False]])

    def test_selection_scale_invariant(self):
        g = np.random.default_rng(7).uniform(0.01, 1.0, size=(5, 12))
        base = topk(g, 0.75)
        for c in (0.5, 2.0, 10.0):
            npt.assert_array_equal(topk(c * g, 0.75), base)

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            topk(np.ones((1, 4)), 1.0)
        with pytest.raises(ValueError):
            topk(np.ones((1, 4)), -0.1)

    def test_kept_channels_exact_fractions(self):
        assert kept_channels(4, 0.5) == 2
        assert kept_channels(4, 0.75) == 1
        assert kept_channels(6, 0.75) == 2
        assert kept_channels(6, 1.0 - 2.0 / 3.0) == 4
        assert kept_channels(16, 0.0) == 16

    @given(st.integers(1, 32), st.floats(0.0, 0.99),
           st.integers(0, 2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_gate_properties(self, c, rate, seed):
        g = np.random.default_rng(seed).uniform(size=(3, c))
        mask = topk(g, rate)
        k = kept_channels(c, rate)
        assert 1 <= k <= c
        for row, keep in zip(g, mask):
            assert keep.sum() == k
            if not keep.all():
                assert row[keep].min() >= row[~keep].max()

    def test_every_channel_reachable(self):
        draws = 10000
        mask = topk(np.random.default_rng(11).uniform(size=(draws, 6)), 0.5)
        freq = mask.sum(axis=0) / draws
        assert freq.min() > 0.45 and freq.max() < 0.55


class TestSelectAmplify:
    """gathered_conv selects and amplifies channels; a 1x1 identity bank
    shows the gathered, scaled slices themselves."""

    def test_gather_and_scale(self):
        x = np.arange(3 * 4 * 2 * 2, dtype=float).reshape(3, 4, 2, 2)
        rows, idx = np.array([0, 2]), np.array([[0, 2], [1, 3]])
        amp = np.array([[2.0, 0.5], [3.0, -1.0]])
        y = gathered_conv(x, rows, idx, amp, np.tile(np.eye(2)[:, :, None, None],
                                                    (2, 1, 1, 1, 1)), 1, 0)
        assert y.shape == (2, 2, 2, 2)
        npt.assert_allclose(y[0, 0], 2.0 * x[0, 0])
        npt.assert_allclose(y[0, 1], 0.5 * x[0, 2])
        npt.assert_allclose(y[1, 0], 3.0 * x[2, 1])
        npt.assert_allclose(y[1, 1], -1.0 * x[2, 3])

    def test_single_sample(self):
        x = np.ones((1, 3, 2, 2))
        y = gathered_conv(x, 0, np.array([[1]]), np.array([[3.0]]),
                          np.ones((1, 1, 1, 1, 1)), 1, 0)
        npt.assert_allclose(y, 3.0 * np.ones((1, 1, 2, 2)))

    def test_gather_filters_slices(self):
        w = np.random.default_rng(0).normal(size=(8, 6, 3, 3))
        out = gather_filters(w, np.array([1, 4]))
        assert out.shape == (8, 2, 3, 3)
        npt.assert_array_equal(out[:, 0], w[:, 1])
        npt.assert_array_equal(out[:, 1], w[:, 4])


class TestShuffle:
    def test_two_head_example(self):
        x = np.arange(8, dtype=float).reshape(1, 8, 1, 1)
        y = channel_shuffle(x, 2)
        npt.assert_array_equal(y[0, :, 0, 0], [0, 4, 1, 5, 2, 6, 3, 7])

    def test_shuffle_by_slots_inverts(self):
        # Shuffling C channels by C // heads undoes shuffling them by heads.
        x = np.random.default_rng(3).normal(size=(2, 12, 3, 3))
        npt.assert_array_equal(channel_shuffle(channel_shuffle(x, 4), 12 // 4), x)

    def test_one_head_identity(self):
        x = np.random.default_rng(4).normal(size=(1, 5, 2, 2))
        npt.assert_array_equal(channel_shuffle(x, 1), x)

    def test_rejects_non_divisible(self):
        with pytest.raises(ValueError):
            channel_shuffle(np.ones((1, 6, 2, 2)), 4)

    def test_shuffled_filters_follow_output_channels(self):
        layer = small_layer(5, DgcLayerConfig(4, 12, 3, 1, 1, heads=3,
                                              squeeze=2))
        bank = shuffled_filters(layer)
        assert bank.shape == (12, 4, 3, 3)
        for h, head in enumerate(layer.heads):
            for o in range(4):
                npt.assert_array_equal(bank[o * 3 + h], head.filters[o])
        # At prune rate 0 with unit saliencies the gated layer is the dense
        # convolution with this bank.
        for head in layer.heads:
            head.w_expand[:] = 0.0
            head.b_expand[:] = 1.0
        x = np.random.default_rng(6).normal(size=(2, 4, 5, 5))
        y = dgc_forward(x, layer, HeadwiseGating(0.0), training=False).output
        npt.assert_allclose(y, conv2d_forward(x, ConvFilter(bank, 1, 1)),
                            rtol=1e-12, atol=1e-12)

    @given(st.integers(1, 4), st.integers(1, 6), st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_round_trip_property(self, heads, slots, seed):
        x = np.random.default_rng(seed).normal(size=(2, heads * slots, 2, 2))
        npt.assert_array_equal(channel_shuffle(channel_shuffle(x, heads), slots), x)
        npt.assert_array_equal(channel_shuffle(channel_shuffle(x, slots), heads), x)


class TestSaliency:
    """Saliencies as dgc_forward reports them, one (N, C) array per head."""

    def test_shape_and_nonnegative(self, rng):
        layer = small_layer(0)
        x = rng.normal(size=(3, 4, 5, 5))
        for training in (True, False):
            fwd = dgc_forward(x, layer, HeadwiseGating(0.5), training=training)
            for g in fwd.saliencies:
                assert g.shape == (3, 4)
                assert np.all(g >= 0)

    def test_keep_sign_can_be_negative(self):
        layer = small_layer(0)
        layer.heads[0].b_expand[:] = -5.0
        x = np.ones((1, 4, 2, 2))
        g = dgc_forward(x, layer, GlobalGating(0.0)).saliencies[0]
        assert np.all(g < 0)
        g2 = dgc_forward(x, layer, HeadwiseGating(0.5)).saliencies[0]
        npt.assert_array_equal(g2, 0.0)

    def test_depends_only_on_channel_means(self, rng):
        layer = small_layer(1)
        x = rng.normal(size=(2, 4, 6, 6))
        shuffled = x[:, :, ::-1, ::-1].copy()
        a = dgc_forward(x, layer, HeadwiseGating(0.5), training=False)
        b = dgc_forward(shuffled, layer, HeadwiseGating(0.5), training=False)
        for ga, gb, ma, mb in zip(a.saliencies, b.saliencies, a.masks, b.masks):
            npt.assert_allclose(ga, gb, atol=1e-12)
            npt.assert_array_equal(ma, mb)


class TestForward:
    def test_output_shape(self, rng):
        cfg = DgcLayerConfig(in_channels=8, out_channels=16, kernel_size=3,
                             stride=2, padding=1, heads=4, squeeze=4,
                             prune_rate=0.75)
        layer = init_dgc_layer(cfg, rng)
        out = dgc_forward(rng.normal(size=(3, 8, 8, 8)), layer,
                          HeadwiseGating(0.75))
        assert out.output.shape == (3, 16, 4, 4)

    def test_train_matches_eval(self, rng):
        layer, x = stable_setup()
        tr = dgc_forward(x, layer, HeadwiseGating(0.5), training=True)
        ev = dgc_forward(x, layer, HeadwiseGating(0.5), training=False)
        npt.assert_allclose(tr.output, ev.output, rtol=1e-12, atol=1e-12)
        for a, b in zip(tr.masks, ev.masks):
            npt.assert_array_equal(a, b)

    def test_masked_dense_equals_gathered_oracle(self, rng):
        """Zeroing unselected channels then convolving densely must equal
        gathering channels and convolving the reduced filter slice."""
        layer, x = stable_setup()
        cfg = layer.config
        fwd = dgc_forward(x, layer, HeadwiseGating(0.5), training=True)
        for hi, head in enumerate(layer.heads):
            for s in range(x.shape[0]):
                idx = np.flatnonzero(fwd.masks[hi][s])
                amp = fwd.saliencies[hi][s, idx]
                dense_in = np.zeros_like(x[s:s + 1])
                dense_in[0, idx] = x[s, idx] * amp[:, None, None]
                dense = naive_conv2d(dense_in, head.filters, cfg.stride, cfg.padding)
                gathered = gathered_conv(
                    x, s, idx[None], amp[None],
                    gather_filters(head.filters, idx)[None],
                    cfg.stride, cfg.padding)
                npt.assert_allclose(dense, gathered, rtol=1e-10, atol=1e-12)

    def test_against_naive_composition(self, rng):
        """Full layer against an index-free reconstruction: per head, mask,
        amplify, naive convolution, then concatenate and shuffle."""
        layer, x = stable_setup()
        cfg = layer.config
        fwd = dgc_forward(x, layer, HeadwiseGating(0.5), training=True)
        parts = []
        for hi, head in enumerate(layer.heads):
            g = fwd.saliencies[hi] * fwd.masks[hi]
            parts.append(naive_conv2d(x * g[:, :, None, None], head.filters,
                                      cfg.stride, cfg.padding))
        expect = channel_shuffle(np.concatenate(parts, axis=1), cfg.heads)
        npt.assert_allclose(fwd.output, expect, rtol=1e-10, atol=1e-12)

    def test_per_sample_independence(self, rng):
        """Batching must not change any sample's channel selection, and
        values may differ only by matmul summation noise."""
        layer, x = stable_setup(n=3)
        whole = dgc_forward(x, layer, HeadwiseGating(0.5), training=False)
        for s in range(3):
            single = dgc_forward(x[s:s + 1], layer, HeadwiseGating(0.5),
                                 training=False)
            for hi in range(len(layer.heads)):
                npt.assert_array_equal(whole.masks[hi][s], single.masks[hi][0])
            npt.assert_allclose(whole.output[s], single.output[0],
                                rtol=1e-12, atol=1e-14)

    def test_realized_rate_headwise(self, rng):
        cfg = DgcLayerConfig(in_channels=8, out_channels=8, kernel_size=3,
                             padding=1, heads=2, squeeze=4, prune_rate=0.5)
        layer = init_dgc_layer(cfg, rng)
        fwd = dgc_forward(rng.normal(size=(4, 8, 5, 5)), layer, HeadwiseGating(0.5))
        assert fwd.realized_prune_rate == pytest.approx(0.5)

    def test_global_gating_threshold_and_sign(self):
        layer, x = stable_setup(keep_sign=True, threshold=0.2)
        fwd = dgc_forward(x, layer, GlobalGating(0.2), training=True)
        for g, m in zip(fwd.saliencies, fwd.masks):
            npt.assert_array_equal(m, np.abs(g) >= 0.2)
        ev = dgc_forward(x, layer, GlobalGating(0.2), training=False)
        npt.assert_allclose(fwd.output, ev.output, rtol=1e-12, atol=1e-12)

    def test_global_gating_empty_selection_zero_output(self):
        layer = small_layer(2)
        x = np.random.default_rng(5).normal(size=(2, 4, 4, 4))
        fwd = dgc_forward(x, layer, GlobalGating(1e9), training=False)
        npt.assert_array_equal(fwd.output, np.zeros_like(fwd.output))
        assert fwd.realized_prune_rate == 1.0

    def test_rejects_wrong_input_channels(self, rng):
        layer = small_layer(0)
        with pytest.raises(ValueError):
            dgc_forward(rng.normal(size=(1, 5, 4, 4)), layer, HeadwiseGating(0.5))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DgcLayerConfig(in_channels=4, out_channels=6, heads=4, squeeze=2)
        with pytest.raises(ValueError):
            DgcLayerConfig(in_channels=5, out_channels=4, heads=2, squeeze=2)
        with pytest.raises(ValueError):
            DgcLayerConfig(in_channels=4, out_channels=4, heads=2, squeeze=2,
                           prune_rate=1.0)

    @pytest.mark.parametrize("field,value", [
        ("in_channels", 0), ("out_channels", 0), ("kernel_size", 0),
        ("stride", 0), ("padding", -1), ("heads", 0), ("squeeze", 0)])
    def test_config_rejects_bad_geometry(self, field, value):
        kw = {"in_channels": 4, "out_channels": 4, "heads": 2, "squeeze": 2}
        with pytest.raises(ValueError, match=f"{field} must be >= "):
            DgcLayerConfig(**{**kw, field: value})


# Finite-difference geometries: stable_setup arguments for the layer,
# batch, spatial size and (global gating) threshold.
GRADIENT_CASES = {
    "small": {},
    "stride2": {"config": DgcLayerConfig(4, 4, 3, 2, 1, heads=2, squeeze=2,
                                         prune_rate=0.5), "hw": 5},
    "k1": {"config": DgcLayerConfig(4, 4, 1, 1, 0, heads=2, squeeze=2,
                                    prune_rate=0.5)},
    "batch3": {"n": 3},
    "global_empty_head": {"keep_sign": True, "threshold": 0.3,
                          "empty_head": True},
}


def per_head_backward(x, layer, fwd, grad_out, saliency_grad):
    """dgc_backward by a second formulation: the gate indexed per
    (channel, tap), einsum contractions over (o, c, t), a tap-loop col2im
    and the saliency path, with the injected saliency_grad, added to the
    input gradient head by head."""
    cfg = layer.config
    n, k, co = x.shape[0], cfg.kernel_size, cfg.head_out_channels
    cols = im2col(x, k, cfg.stride, cfg.padding)[0]
    ghat = np.where(np.stack(fwd.masks, axis=1),
                    np.stack(fwd.saliencies, axis=1), 0.0)
    w = np.stack([head.filters for head in layer.heads], axis=1).reshape(
        co, cfg.heads, cfg.in_channels, k * k)
    gy = grad_out.reshape(n, cfg.out_channels, -1)
    m = np.matmul(gy, cols.transpose(0, 2, 1)).reshape(n, *w.shape)
    grad_w = np.einsum("nohct,nhc->ohct", m, ghat)
    gg_heads = np.einsum("nohct,ohct->nhc", m, w)
    wn = (w * ghat[:, None, :, :, None]).reshape(n, cfg.out_channels, -1)
    grad_x = tap_loop_col2im(np.matmul(wn.transpose(0, 2, 1), gy), x.shape,
                             k, cfg.stride, cfg.padding)
    ref = {"grad_filters": [], "grad_w_squeeze": [], "grad_b_squeeze": [],
           "grad_w_expand": [], "grad_b_expand": []}
    p = x.mean(axis=(2, 3))
    for i, head in enumerate(layer.heads):
        z1 = p @ head.w_squeeze.T + head.b_squeeze
        a1 = np.maximum(z1, 0.0)
        z2 = a1 @ head.w_expand.T + head.b_expand
        gg = gg_heads[:, i] * fwd.masks[i] + saliency_grad[i]
        gz2 = gg if fwd.keep_sign else gg * (z2 > 0)
        gz1 = (gz2 @ head.w_expand) * (z1 > 0)
        grad_x += (gz1 @ head.w_squeeze)[:, :, None, None] / (
            x.shape[2] * x.shape[3])
        ref["grad_filters"].append(grad_w[:, i].reshape(head.filters.shape))
        ref["grad_w_expand"].append(gz2.T @ a1)
        ref["grad_b_expand"].append(gz2.sum(axis=0))
        ref["grad_w_squeeze"].append(gz1.T @ p)
        ref["grad_b_squeeze"].append(gz1.sum(axis=0))
    ref["grad_input"] = grad_x
    return ref


class TestBackward:
    def loss_setup(self, **case):
        layer, x = stable_setup(**case)
        gen = np.random.default_rng(99)
        threshold = case.get("threshold")
        gating = GlobalGating(threshold) if threshold is not None \
            else HeadwiseGating(0.5)
        fwd = dgc_forward(x, layer, gating, training=True)
        r = gen.normal(size=fwd.output.shape)
        return layer, x, gating, r

    def run_backward(self, layer, x, gating, r, **kw):
        fwd = dgc_forward(x, layer, gating, training=True)
        return fwd, dgc_backward(fwd, layer, r, **kw)

    @pytest.mark.parametrize("case", GRADIENT_CASES)
    def test_input_gradient(self, case):
        layer, x, gating, r = self.loss_setup(**GRADIENT_CASES[case])
        fwd, grads = self.run_backward(layer, x, gating, r)
        if case == "global_empty_head":
            assert any((m.sum(axis=1) == 0).any() for m in fwd.masks)

        def f():
            return float((dgc_forward(x, layer, gating).output * r).sum())

        num = numerical_grad(f, x)
        assert rel_error(grads.grad_input, num) < 1e-5

    @pytest.mark.parametrize("case", GRADIENT_CASES)
    def test_matches_per_head_reference(self, case):
        layer, x, gating, r = self.loss_setup(**GRADIENT_CASES[case])
        gen = np.random.default_rng(23)
        sal = [1e-3 * gen.normal(size=(x.shape[0], layer.config.in_channels))
               for _ in layer.heads]
        fwd, grads = self.run_backward(layer, x, gating, r, saliency_grad=sal)
        ref = per_head_backward(x, layer, fwd, r, sal)
        pairs = [("grad_input", grads.grad_input, ref.pop("grad_input"))]
        pairs += [(name, a, b) for name, want in ref.items()
                  for a, b in zip(getattr(grads, name), want)]
        for name, a, b in pairs:
            assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max(), name

    @pytest.mark.parametrize("case", GRADIENT_CASES)
    def test_parameter_gradients(self, case):
        layer, x, gating, r = self.loss_setup(**GRADIENT_CASES[case])
        _, grads = self.run_backward(layer, x, gating, r)

        def f():
            return float((dgc_forward(x, layer, gating).output * r).sum())

        for hi, head in enumerate(layer.heads):
            for name, got in [("filters", grads.grad_filters[hi]),
                              ("w_squeeze", grads.grad_w_squeeze[hi]),
                              ("b_squeeze", grads.grad_b_squeeze[hi]),
                              ("w_expand", grads.grad_w_expand[hi]),
                              ("b_expand", grads.grad_b_expand[hi])]:
                num = numerical_grad(f, getattr(head, name))
                assert rel_error(got, num) < 1e-5, f"head {hi} {name}"

    def test_global_mode_gradients(self):
        layer, x, gating, r = self.loss_setup(keep_sign=True, threshold=0.2)
        _, grads = self.run_backward(layer, x, gating, r)

        def f():
            return float((dgc_forward(x, layer, gating).output * r).sum())

        num = numerical_grad(f, x)
        assert rel_error(grads.grad_input, num) < 1e-5
        num_w = numerical_grad(f, layer.heads[0].w_expand)
        assert rel_error(grads.grad_w_expand[0], num_w) < 1e-5

    def test_lasso_gradient(self):
        """The lasso's gradient injected as the saliency gradient is the
        gradient of its value through the saliency generator."""
        layer, x, gating, r = self.loss_setup()
        coeff = 1e-2
        fwd = dgc_forward(x, layer, gating, training=True)
        _, (sal,) = lasso_loss_and_grad([fwd.saliencies], coeff)
        grads = dgc_backward(fwd, layer, r, saliency_grad=sal)

        def f():
            fwd = dgc_forward(x, layer, gating)
            main = float((fwd.output * r).sum())
            return main + lasso_loss_and_grad([fwd.saliencies], coeff)[0]

        num = numerical_grad(f, layer.heads[0].w_expand)
        assert rel_error(grads.grad_w_expand[0], num) < 1e-5

    def test_extra_saliency_gradient_injection(self):
        layer, x, gating, r = self.loss_setup()
        gen = np.random.default_rng(17)
        extra = [gen.normal(size=(x.shape[0], layer.config.in_channels))
                 for _ in layer.heads]
        _, grads = self.run_backward(layer, x, gating, r, saliency_grad=extra)

        def f():
            fwd = dgc_forward(x, layer, gating)
            main = float((fwd.output * r).sum())
            return main + sum(float((e * g).sum())
                              for e, g in zip(extra, fwd.saliencies))

        num = numerical_grad(f, layer.heads[1].w_squeeze)
        assert rel_error(grads.grad_w_squeeze[1], num) < 1e-5

    def test_unselected_filter_slices_get_zero_gradient(self):
        """Channels no sample selects must leave their filter slices with
        exactly zero gradient, not merely small."""
        cfg = SMALL
        layer = small_layer(3)
        for head in layer.heads:
            head.b_expand[:] = 1.0
            head.b_expand[3] = -50.0
        x = np.random.default_rng(8).normal(size=(4, 4, 4, 4))
        fwd = dgc_forward(x, layer, HeadwiseGating(0.5), training=True)
        for m in fwd.masks:
            assert not m[:, 3].any()
        grads = dgc_backward(fwd, layer,
                             np.random.default_rng(9).normal(size=fwd.output.shape))
        for gw in grads.grad_filters:
            npt.assert_array_equal(gw[:, 3], np.zeros_like(gw[:, 3]))
            assert np.abs(gw[:, :3]).max() > 0

    def test_one_im2col_and_one_col2im_per_layer(self, rng, monkeypatch):
        from dgconv import dgc
        calls = {"im2col": 0, "col2im": 0}
        for name in calls:
            def counted(*args, _real=getattr(dgc, name), _name=name):
                calls[_name] += 1
                return _real(*args)
            monkeypatch.setattr(dgc, name, counted)
        cfg = DgcLayerConfig(8, 8, 3, 1, 1, heads=4, squeeze=4, prune_rate=0.5)
        layer = init_dgc_layer(cfg, rng)
        fwd = dgc_forward(rng.normal(size=(3, 8, 5, 5)), layer,
                          HeadwiseGating(0.5), training=True)
        dgc_backward(fwd, layer, rng.normal(size=fwd.output.shape))
        assert calls == {"im2col": 1, "col2im": 1}

    def test_sample_blocks_match_one_block(self, rng, monkeypatch):
        """A batch of 7 split 3 + 3 + 1 gives the one-block forward bit for
        bit and its gradients to 1e-12; without the input gradient no
        block rebuilds its gated filters and col2im never runs."""
        from dgconv import dgc
        cfg = DgcLayerConfig(8, 8, 3, 1, 1, heads=4, squeeze=4, prune_rate=0.5)
        layer = init_dgc_layer(cfg, rng)
        x = rng.normal(size=(7, 8, 5, 5))
        r = rng.normal(size=(7, 8, 5, 5))
        per_sample = cfg.out_channels * cfg.in_channels * cfg.kernel_size ** 2

        def run(elements, **kw):
            monkeypatch.setattr(dgc, "GATED_BLOCK_ELEMENTS", elements)
            fwd = dgc_forward(x, layer, GlobalGating(0.1), training=True)
            _, (sal,) = lasso_loss_and_grad([fwd.saliencies], 1e-3)
            return fwd, dgc_backward(fwd, layer, r, saliency_grad=sal, **kw)

        one_fwd, one = run(7 * per_sample)
        assert [b.indices(7) for b in dgc._sample_blocks(7, per_sample)] == \
            [(0, 7, 1)]
        fwd, grads = run(3 * per_sample + per_sample // 2)
        assert [b.indices(7) for b in dgc._sample_blocks(7, per_sample)] == \
            [(0, 3, 1), (3, 6, 1), (6, 7, 1)]
        npt.assert_array_equal(fwd.output, one_fwd.output)
        pairs = [(grads.grad_input, one.grad_input)]
        pairs += [(a, b) for name in ("grad_filters", "grad_w_squeeze",
                                      "grad_b_squeeze", "grad_w_expand",
                                      "grad_b_expand")
                  for a, b in zip(getattr(grads, name), getattr(one, name))]
        for a, b in pairs:
            assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()

        calls = {"_gated_filters": 0, "col2im": 0}
        for name in calls:
            def counted(*args, _real=getattr(dgc, name), _name=name):
                calls[_name] += 1
                return _real(*args)
            monkeypatch.setattr(dgc, name, counted)
        fwd = dgc_forward(x, layer, GlobalGating(0.1), training=True)
        assert calls == {"_gated_filters": 3, "col2im": 0}
        skipped = dgc_backward(fwd, layer, r, input_grad=False)
        assert skipped.grad_input is None
        assert calls == {"_gated_filters": 3, "col2im": 0}
        for a, b in zip(skipped.grad_filters, grads.grad_filters):
            assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()
        dgc_backward(fwd, layer, r)
        assert calls == {"_gated_filters": 6, "col2im": 1}

    def test_backward_requires_training_cache(self, rng):
        layer = small_layer(0)
        fwd = dgc_forward(rng.normal(size=(1, 4, 4, 4)), layer,
                          HeadwiseGating(0.5), training=False)
        with pytest.raises(ValueError):
            dgc_backward(fwd, layer, np.zeros_like(fwd.output))

    def test_backward_rejects_shape_mismatch(self, rng):
        layer = small_layer(0)
        fwd = dgc_forward(rng.normal(size=(1, 4, 4, 4)), layer, HeadwiseGating(0.5))
        with pytest.raises(ValueError):
            dgc_backward(fwd, layer, np.zeros((1, 4, 2, 2)))


class TestLasso:
    def test_single_vector(self):
        g = np.array([[1.0, -2.0, 0.5]])
        value, grads = lasso_loss_and_grad([[g]], 0.1)
        assert value == pytest.approx(0.35)
        npt.assert_array_equal(grads[0][0], [[0.1, -0.1, 0.1]])

    def test_averages_over_entries_and_batch(self):
        g1 = np.array([[1.0, 1.0], [3.0, 3.0]])   # batch-mean L1 = 4
        g2 = np.array([[2.0, 0.0], [0.0, 0.0]])   # batch-mean L1 = 1
        value, grads = lasso_loss_and_grad([[g1], [g2]], 2.0)
        assert value == pytest.approx(2.0 * (4 + 1) / 2)
        # 2 entries, batch 2: each element's weight is 2 / (2 * 2).
        npt.assert_array_equal(grads[1][0], 0.5 * np.sign(g2))

    def test_rejects_empty(self):
        for per_layer in ([], [[]]):
            with pytest.raises(ValueError):
                lasso_loss_and_grad(per_layer, 1.0)

    def test_matches_layer_scale(self, rng):
        layer, x = stable_setup()
        fwd = dgc_forward(x, layer, HeadwiseGating(0.5))
        manual = np.mean([np.abs(g).sum(axis=1).mean() for g in fwd.saliencies])
        value, _ = lasso_loss_and_grad([fwd.saliencies], 1e-5)
        assert value == pytest.approx(1e-5 * manual)

    def test_gradient_finite_difference(self, rng):
        """Two layers of 3 and 2 heads, batch 4, every saliency at least
        0.1 from zero: each returned gradient matches central
        differences of the returned value."""
        per_layer = [[rng.choice([-1.0, 1.0], size=(4, c))
                      * rng.uniform(0.1, 2.0, size=(4, c)) for _ in range(h)]
                     for h, c in ((3, 5), (2, 8))]
        _, grads = lasso_loss_and_grad(per_layer, 0.7)
        for heads, head_grads in zip(per_layer, grads):
            for g, got in zip(heads, head_grads):
                num = numerical_grad(
                    lambda: lasso_loss_and_grad(per_layer, 0.7)[0], g)
                assert rel_error(got, num) < 1e-8


def block_diagonal(w, groups):
    """The dense bank (C', C, k, k) equal to the grouped bank w
    (C', C/groups, k, k): group g's rows see only its channels."""
    co, ci, k, _ = w.shape
    dense = np.zeros((co, ci * groups, k, k))
    cg = co // groups
    for g in range(groups):
        dense[g * cg:(g + 1) * cg, g * ci:(g + 1) * ci] = w[g * cg:(g + 1) * cg]
    return dense


class TestStandardGroupConv:
    def test_matches_block_diagonal_dense(self, rng):
        w = rng.normal(size=(9, 2, 3, 3))
        dense = block_diagonal(w, 3)
        # (batch, map, stride): im2col, shifted taps (9x9 output), stride 2
        for n, hw, stride in ((2, 5, 1), (2, 9, 1), (3, 9, 2)):
            x = rng.normal(size=(n, 6, hw, hw))
            y = sgc_forward(x, w, groups=3, stride=stride, padding=1)
            expect = conv2d_forward(x, ConvFilter(dense, stride, 1))
            npt.assert_allclose(y, expect, rtol=1e-12, atol=1e-12)

    def test_one_group_is_dense(self, rng):
        x = rng.normal(size=(1, 3, 4, 4))
        w = rng.normal(size=(5, 3, 3, 3))
        npt.assert_allclose(sgc_forward(x, w, 1), conv2d_forward(x, ConvFilter(w)))

    def test_backward_finite_difference(self, rng):
        x = rng.normal(size=(2, 4, 4, 4))
        w = rng.normal(size=(4, 2, 3, 3))
        r = rng.normal(size=(2, 4, 4, 4))
        gx, gw = conv2d_backward(x, ConvFilter(w, 1, 1), r, groups=2)

        def f():
            return float((sgc_forward(x, w, 2, 1, 1) * r).sum())

        assert rel_error(gx, numerical_grad(f, x)) < 1e-6
        assert rel_error(gw, numerical_grad(f, w)) < 1e-6

    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("input_grad", [True, False])
    def test_backward_matches_block_diagonal_dense(self, rng, stride,
                                                   input_grad):
        x = rng.normal(size=(3, 6, 7, 7))
        w = rng.normal(size=(9, 2, 3, 3))
        f = ConvFilter(w, stride, 1)
        gy = rng.normal(size=conv2d_forward(x, f, 3).shape)
        gx, gw = conv2d_backward(x, f, gy, input_grad, groups=3)
        dgx, dgw = conv2d_backward(x, ConvFilter(block_diagonal(w, 3), stride, 1),
                                   gy, input_grad)
        diagonal = np.concatenate([dgw[g * 3:(g + 1) * 3, g * 2:(g + 1) * 2]
                                   for g in range(3)])
        npt.assert_allclose(gw, diagonal, rtol=1e-12, atol=1e-12)
        if input_grad:
            npt.assert_allclose(gx, dgx, rtol=1e-12, atol=1e-12)
        else:
            assert gx is None and dgx is None

    def test_rejects_non_divisible(self, rng):
        with pytest.raises(ValueError):
            sgc_forward(rng.normal(size=(1, 5, 4, 4)),
                        rng.normal(size=(4, 2, 3, 3)), 2)

    def test_rejects_bad_bank(self, rng):
        x = rng.normal(size=(1, 4, 5, 5))
        with pytest.raises(ValueError, match="square"):
            sgc_forward(x, rng.normal(size=(4, 2, 3, 1)), 2)
        w = rng.normal(size=(4, 2, 3, 3))
        w[3, 1, 2, 2] = np.nan       # in the last group only
        with pytest.raises(ValueError, match="non-finite"):
            sgc_forward(x, w, 2)
