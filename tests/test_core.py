"""Core kernels against naive-loop and finite-difference oracles."""

import math

import numpy as np
import numpy.testing as npt
import pytest

from dgconv import core
from dgconv.core import (
    SGD,
    BatchNorm2d,
    ConvFilter,
    conv2d_backward,
    conv2d_forward,
    cosine_lr,
    global_avg_pool,
    global_avg_pool_backward,
    linear_backward,
    linear_forward,
    relu_backward,
    relu_forward,
    softmax_cross_entropy,
)

from conftest import naive_conv2d, numerical_grad, rel_error, tap_loop_col2im


class TestConvForward:
    def test_identity_1x1(self, rng):
        x = rng.normal(size=(2, 3, 5, 5))
        w = np.eye(3).reshape(3, 3, 1, 1)
        y = conv2d_forward(x, ConvFilter(w))
        npt.assert_array_equal(y, x)

    def test_all_ones_3x3(self):
        x = np.ones((1, 1, 3, 3))
        w = np.ones((1, 1, 3, 3))
        y = conv2d_forward(x, ConvFilter(w))
        assert y.shape == (1, 1, 1, 1)
        assert y[0, 0, 0, 0] == 9.0

    def test_matches_naive_loops(self, rng):
        x = rng.normal(size=(1, 2, 5, 5))
        w = rng.normal(size=(4, 2, 3, 3))
        y = conv2d_forward(x, ConvFilter(w))
        npt.assert_allclose(y, naive_conv2d(x, w), atol=1e-10)

    @pytest.mark.parametrize("stride,pad", [(1, 0), (1, 1), (2, 0), (2, 1), (3, 2)])
    def test_naive_oracle_all_small_dims(self, rng, stride, pad):
        for h in (3, 5, 8):
            for k in (1, 2, 3):
                if h + 2 * pad < k:
                    continue
                x = rng.normal(size=(2, 3, h, h))
                w = rng.normal(size=(4, 3, k, k))
                y = conv2d_forward(x, ConvFilter(w, stride, pad))
                npt.assert_allclose(y, naive_conv2d(x, w, stride, pad), atol=1e-10)

    def test_output_shape_formula(self, rng):
        x = rng.normal(size=(1, 1, 7, 9))
        w = rng.normal(size=(2, 1, 3, 3))
        y = conv2d_forward(x, ConvFilter(w, stride=2, padding=1))
        assert y.shape == (1, 2, (7 + 2 - 3) // 2 + 1, (9 + 2 - 3) // 2 + 1)

    def test_channel_mismatch_rejected(self, rng):
        x = rng.normal(size=(1, 3, 5, 5))
        w = rng.normal(size=(2, 4, 3, 3))
        with pytest.raises(ValueError, match="channels"):
            conv2d_forward(x, ConvFilter(w))

    def test_empty_output_rejected(self, rng):
        x = rng.normal(size=(1, 1, 2, 2))
        w = rng.normal(size=(1, 1, 3, 3))
        with pytest.raises(ValueError, match="empty output"):
            conv2d_forward(x, ConvFilter(w))

    def test_deterministic(self, rng):
        x = rng.normal(size=(2, 3, 6, 6))
        f = ConvFilter(rng.normal(size=(4, 3, 3, 3)), stride=1, padding=1)
        a = conv2d_forward(x, f)
        b = conv2d_forward(x.copy(), ConvFilter(f.weights.copy(), 1, 1))
        npt.assert_array_equal(a, b)


class TestBatchedConv:
    """core.batched_conv, on both of its stride-1 paths, against the naive
    loops; the rule's constants are patched to force a path."""

    @staticmethod
    def run(monkeypatch, path, *args, **kwargs):
        """batched_conv with the path forced; asserts the path it took."""
        monkeypatch.setattr(core, "SHIFTED_TAPS_MIN_PIXELS",
                            0 if path == "shifted" else 10 ** 9)
        calls, unfold = [], core.im2col
        monkeypatch.setattr(core, "im2col",
                            lambda *a: calls.append(1) or unfold(*a))
        y = core.batched_conv(*args, **kwargs)
        assert len(calls) == (path == "im2col")
        return y

    @pytest.mark.parametrize("path", ["shifted", "im2col"])
    @pytest.mark.parametrize("r", [1, 5])
    @pytest.mark.parametrize("pad", [0, 1, 2])
    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_matches_naive_loops(self, rng, monkeypatch, k, pad, r, path):
        x = rng.normal(size=(r, 3, 6, 9))        # non-square maps
        shared = rng.normal(size=(4, 3, k, k))
        y = self.run(monkeypatch, path, x, shared, 1, pad)
        npt.assert_allclose(y, naive_conv2d(x, shared, 1, pad), atol=1e-10)
        # One bank per sample, input channels scaled per sample.
        banks = rng.normal(size=(r, 4, 3, k, k))
        scale = rng.normal(size=(r, 3))
        y = self.run(monkeypatch, path, x, banks, 1, pad, scale=scale)
        for j in range(r):
            ref = naive_conv2d(x[j:j + 1] * scale[j][:, None, None], banks[j],
                               1, pad)
            npt.assert_allclose(y[j:j + 1], ref, atol=1e-10)

    @pytest.mark.parametrize("path", ["shifted", "im2col"])
    def test_no_input_channels_give_zeros(self, monkeypatch, path):
        x = np.empty((5, 0, 6, 9))
        y = self.run(monkeypatch, path, x, np.empty((5, 4, 0, 3, 3)), 1, 1,
                     scale=np.empty((5, 0)))
        npt.assert_array_equal(y, np.zeros((5, 4, 6, 9)))

    @pytest.mark.parametrize("path", ["shifted", "im2col"])
    def test_stack_entry_independent_of_stack(self, rng, monkeypatch, path):
        x = rng.normal(size=(5, 6, 10, 10))
        banks = rng.normal(size=(5, 4, 6, 3, 3))
        scale = rng.normal(size=(5, 6))
        whole = self.run(monkeypatch, path, x, banks, 1, 1, scale=scale)
        for j in range(5):
            npt.assert_array_equal(
                self.run(monkeypatch, path, x[j:j + 1], banks[j:j + 1], 1, 1,
                         scale=scale[j:j + 1])[0], whole[j])

    @pytest.mark.parametrize("c,co,hw,stack,shifted", [
        (16, 16, 56, 1, True),      # gated head slices of a 64 @ 56x56 layer
        (64, 64, 14, 1, True),
        (128, 128, 28, 1, True),
        (256, 256, 14, 1, False),   # too many output channels
        (16, 16, 4, 3, False),      # the desk model's 4x4 gated heads
        (16, 16, 8, 3, True),
    ])
    def test_rule_picks_path_by_shape(self, rng, monkeypatch, c, co, hw, stack,
                                      shifted):
        assert (co <= core.SHIFTED_TAPS_MAX_CHANNELS
                and hw * hw >= core.SHIFTED_TAPS_MIN_PIXELS) == shifted
        calls, unfold = [], core.im2col
        monkeypatch.setattr(core, "im2col",
                            lambda *a: calls.append(1) or unfold(*a))
        x = rng.normal(size=(stack, c, hw, hw))
        core.batched_conv(x, rng.normal(size=(co, c, 3, 3)), 1, 1)
        core.batched_conv(x, rng.normal(size=(co, c, 3, 3)), 2, 1)
        assert len(calls) == 2 - shifted    # stride 2 always unfolds

    def test_empty_output_rejected(self):
        with pytest.raises(ValueError, match="empty output"):
            core.batched_conv(np.ones((1, 1, 2, 2)), np.ones((1, 1, 3, 3)), 1, 0)


class TestPatchMatrix:
    """im2col's channel-major layout, its scale and padding, the index it
    shares with col2im, and col2im as its adjoint."""

    GEOMETRIES = [(k, stride, pad) for k in (1, 3, 5) for stride in (1, 2, 3)
                  for pad in (0, 1, 2)]
    WIDTHS = (7, 8, 9, 12)

    @staticmethod
    def inputs(rng, k, stride, pad):
        """Stacks of 2 on maps whose outputs are 7, 8, 9 and 12 wide, a
        non-contiguous channel slice and an input with no channels."""
        h = k + 2
        xs = []
        for ow in TestPatchMatrix.WIDTHS:
            w = (ow - 1) * stride + k - 2 * pad      # output exactly ow wide
            xs.append(rng.normal(size=(2, 3, h, w)))
        xs.append(rng.normal(size=(2, 5, h, w))[:, 1:4])
        xs.append(np.empty((2, 0, h, w)))
        return xs

    @pytest.mark.parametrize("k,stride,pad", GEOMETRIES)
    def test_layout(self, rng, k, stride, pad):
        widths = set()
        for x in self.inputs(rng, k, stride, pad):
            n, c = x.shape[:2]
            cols, oh, ow = core.im2col(x, k, stride, pad)
            assert cols.shape == (n, c * k * k, oh * ow)
            widths.add(ow)
            xpad = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
            # cols[n, c*k*k + a*k + b, i*W' + j] == xpad[n, c, i*s + a, j*s + b]
            nn, cc, a, b, i, j = np.indices((n, c, k, k, oh, ow))
            npt.assert_array_equal(cols.reshape(n, c, k, k, oh, ow),
                                   xpad[nn, cc, i * stride + a, j * stride + b])
        assert widths == set(self.WIDTHS)

    @pytest.mark.parametrize("pad", [0, 1, 2])
    def test_scale_multiplies_the_input_not_the_padding(self, rng, pad):
        x = rng.normal(size=(3, 4, 6, 9))[:, ::2]
        scale = -np.abs(rng.normal(size=(3, 2)))
        cols, _, _ = core.im2col(x, 3, 1, pad, scale)
        ref, _, _ = core.im2col(x * scale[..., None, None], 3, 1, pad)
        assert cols.tobytes() == ref.tobytes()
        # Every padding tap reads the zero sentinel: +0.0 under a negative
        # scale, where a scaled zero would be -0.0.
        pads = core._patch_index(6, 9, 3, 1, pad) == 6 * 9
        assert pads.any() == (pad > 0)
        taps = cols.reshape(3, 2, -1)[:, :, pads]
        assert not np.any(taps) and not np.any(np.signbit(taps))

    def test_unfolds_and_col2im_share_one_index(self, rng):
        index = core._patch_index
        index.cache_clear()
        x = rng.normal(size=(2, 5, 8, 8))
        core.col2im(rng.normal(size=(2, 5 * 9, 64)), x.shape, 3, 1, 1)
        assert index.cache_info().misses == 1
        # Other channel counts and stacks of the geometry, as global
        # gating's kept counts give, scaled or not, share the one entry.
        core.im2col(x, 3, 1, 1)
        core.im2col(x[:1, :2], 3, 1, 1)
        core.im2col(x[:, 1:4], 3, 1, 1, rng.normal(size=(2, 3)))
        core.col2im(rng.normal(size=(7, 1 * 9, 64)), (7, 1, 8, 8), 3, 1, 1)
        info = index.cache_info()
        assert (info.hits, info.misses, info.currsize) == (4, 1, 1)

    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("k,stride,pad", GEOMETRIES)
    def test_col2im_equals_tap_loop_bit_for_bit(self, rng, k, stride, pad,
                                                batch):
        shape = (batch, 2, 7, 6)
        oh = core.conv_output_size(7, k, stride, pad)
        ow = core.conv_output_size(6, k, stride, pad)
        g = rng.normal(size=(batch, 2 * k * k, oh * ow))
        strided = rng.normal(size=(batch, 2 * k * k, 2 * oh * ow))[:, :, ::2]
        for gcols in (g, strided):
            got = core.col2im(gcols, shape, k, stride, pad)
            assert got.shape == shape
            npt.assert_array_equal(got, tap_loop_col2im(gcols, shape, k,
                                                        stride, pad))

    @pytest.mark.parametrize("k,stride,pad", GEOMETRIES)
    def test_col2im_is_the_adjoint(self, rng, k, stride, pad):
        for x in self.inputs(rng, k, stride, pad):
            cols, _, _ = core.im2col(x, k, stride, pad)
            g = rng.normal(size=cols.shape)
            lhs = float(np.sum(core.col2im(g, x.shape, k, stride, pad) * x))
            rhs = float(np.sum(g * cols))
            assert abs(lhs - rhs) <= 1e-12 * abs(rhs)


class TestConvBackward:
    def test_zero_grad_out(self, rng):
        x = rng.normal(size=(1, 2, 4, 4))
        f = ConvFilter(rng.normal(size=(3, 2, 3, 3)))
        gx, gw = conv2d_backward(x, f, np.zeros((1, 3, 2, 2)))
        npt.assert_array_equal(gx, 0)
        npt.assert_array_equal(gw, 0)

    def test_scalar_chain_rule(self, rng):
        x = rng.normal(size=(1, 1, 1, 1))
        f = ConvFilter(rng.normal(size=(1, 1, 1, 1)))
        gy = rng.normal(size=(1, 1, 1, 1))
        gx, gw = conv2d_backward(x, f, gy)
        npt.assert_allclose(gw, x * gy, atol=1e-15)
        npt.assert_allclose(gx, f.weights * gy, atol=1e-15)

    @pytest.mark.parametrize("stride,pad", [(1, 0), (2, 1)])
    def test_finite_differences(self, rng, stride, pad):
        x = rng.normal(size=(2, 2, 5, 5))
        w = rng.normal(size=(3, 2, 3, 3))
        gy = rng.normal(size=conv2d_forward(x, ConvFilter(w, stride, pad)).shape)

        def loss():
            return float(np.sum(conv2d_forward(x, ConvFilter(w, stride, pad)) * gy))

        gx, gw = conv2d_backward(x, ConvFilter(w, stride, pad), gy)
        assert rel_error(gx, numerical_grad(loss, x)) < 1e-6
        assert rel_error(gw, numerical_grad(loss, w)) < 1e-6

    def test_without_input_gradient(self, rng):
        x = rng.normal(size=(2, 2, 5, 5))
        f = ConvFilter(rng.normal(size=(3, 2, 3, 3)), 2, 1)
        gy = rng.normal(size=(2, 3, 3, 3))
        gx, gw = conv2d_backward(x, f, gy, input_grad=False)
        assert gx is None
        npt.assert_array_equal(gw, conv2d_backward(x, f, gy)[1])

    def test_shape_mismatch_rejected(self, rng):
        x = rng.normal(size=(1, 2, 4, 4))
        f = ConvFilter(rng.normal(size=(3, 2, 3, 3)))
        with pytest.raises(ValueError, match="grad_out"):
            conv2d_backward(x, f, np.zeros((1, 3, 4, 4)))


class TestBatchNorm:
    def test_constant_channel_outputs_shift(self):
        bn = BatchNorm2d(2)
        bn.gamma[:] = [3.0, -1.0]
        bn.beta[:] = [0.5, 2.0]
        x = np.full((4, 2, 3, 3), 7.0)
        y = bn.forward(x, training=True)
        npt.assert_allclose(y[:, 0], 0.5, atol=1e-12)
        npt.assert_allclose(y[:, 1], 2.0, atol=1e-12)

    def test_identity_on_normalized_batch(self, rng):
        x = rng.normal(size=(16, 3, 4, 4))
        x -= x.mean(axis=(0, 2, 3), keepdims=True)
        x /= x.std(axis=(0, 2, 3), keepdims=True)
        bn = BatchNorm2d(3, eps=1e-12)
        y = bn.forward(x, training=True)
        npt.assert_allclose(y, x, atol=1e-6)

    def test_normalization_statistics(self, rng):
        x = rng.normal(loc=3.0, scale=2.0, size=(8, 4, 5, 5))
        bn = BatchNorm2d(4)
        y = bn.forward(x, training=True)
        assert np.all(np.abs(y.mean(axis=(0, 2, 3))) < 1e-6)
        assert np.all(np.abs(y.var(axis=(0, 2, 3)) - 1.0) < 1e-4)

    def test_eval_before_training_rejected(self, rng):
        bn = BatchNorm2d(3)
        with pytest.raises(ValueError, match="running statistics"):
            bn.forward(rng.normal(size=(2, 3, 4, 4)), training=False)

    def test_eval_uses_running_statistics(self, rng):
        bn = BatchNorm2d(3, momentum=1.0)
        x = rng.normal(size=(8, 3, 4, 4))
        bn.forward(x, training=True)
        y = bn.forward(x, training=False)
        ref = bn.forward(x, training=True)
        npt.assert_allclose(y, ref, atol=1e-10)

    def test_backward_finite_differences(self, rng):
        x = rng.normal(size=(4, 3, 3, 3))
        gy = rng.normal(size=x.shape)
        bn = BatchNorm2d(3)
        bn.gamma[:] = rng.normal(size=3)
        bn.beta[:] = rng.normal(size=3)

        def loss():
            probe = BatchNorm2d(3)
            probe.gamma, probe.beta = bn.gamma, bn.beta
            return float(np.sum(probe.forward(x, training=True) * gy))

        bn.forward(x, training=True)
        gx = bn.backward(gy)
        assert rel_error(gx, numerical_grad(loss, x)) < 1e-5
        assert rel_error(bn.grad_gamma, numerical_grad(loss, bn.gamma)) < 1e-5
        assert rel_error(bn.grad_beta, numerical_grad(loss, bn.beta)) < 1e-5

    def test_eval_matches_four_pass_formula(self, rng):
        # Channel 1 has mean 1e4 and sd 1e-2, where x * a + (beta - a *
        # mean) loses about six digits to cancellation.
        x = rng.normal(size=(8, 3, 5, 5))
        x[:, 1] = 1e4 + 1e-2 * x[:, 1]
        bn = BatchNorm2d(3, momentum=1.0)   # running stats = batch stats
        bn.forward(x, training=True)
        bn.gamma[:] = [0.5, 2.0, -1.5]
        bn.beta[:] = [0.25, -3.0, 1.0]
        y = bn.forward(x, training=False)
        std = np.sqrt(bn.running_var + bn.eps)[None, :, None, None]
        ref = ((x - bn.running_mean[None, :, None, None]) / std
               * bn.gamma[None, :, None, None] + bn.beta[None, :, None, None])
        for c in range(3):
            npt.assert_allclose(y[:, c], ref[:, c], rtol=0,
                                atol=1e-12 * np.abs(ref[:, c]).max())

    def test_large_mean_small_spread_matches_two_pass(self, rng):
        # Channel 1 has mean 1e4 and sd 1e-2: E[x^2] - mean^2 loses about
        # eight digits of its variance there.
        x = rng.normal(size=(8, 3, 5, 5))
        x[:, 1] = 1e4 + 1e-2 * x[:, 1]
        gy = rng.normal(size=x.shape)
        bn = BatchNorm2d(3, momentum=1.0)   # running stats = batch stats
        bn.gamma[:] = [0.5, 2.0, -1.5]
        y = bn.forward(x, training=True)
        gx = bn.backward(gy)

        mean = x.mean(axis=(0, 2, 3))
        xc = x - mean[None, :, None, None]
        var = (xc ** 2).mean(axis=(0, 2, 3))
        std = np.sqrt(var + bn.eps)
        xhat = xc / std[None, :, None, None]
        gamma = bn.gamma[None, :, None, None]
        g = gy * gamma
        ref_gx = (g - g.mean(axis=(0, 2, 3), keepdims=True)
                  - xhat * (g * xhat).mean(axis=(0, 2, 3), keepdims=True)
                  ) / std[None, :, None, None]

        def close(actual, expect):
            npt.assert_allclose(actual, expect, rtol=1e-9,
                                atol=1e-9 * np.abs(expect).max())

        close(y, gamma * xhat)
        close(bn.running_mean, mean)
        close(bn.running_var, var)
        close(gx, ref_gx)
        close(bn.grad_gamma, (gy * xhat).sum(axis=(0, 2, 3)))
        close(bn.grad_beta, gy.sum(axis=(0, 2, 3)))


class TestPoolLinearRelu:
    def test_pool_constant(self):
        y = global_avg_pool(np.full((1, 2, 3, 3), 5.0))
        npt.assert_array_equal(y, np.full((1, 2, 1, 1), 5.0))

    def test_pool_mean(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2)
        assert global_avg_pool(x)[0, 0, 0, 0] == 2.5

    def test_pool_matches_naive_sum(self, rng):
        x = rng.normal(size=(3, 4, 6, 7))
        naive = np.zeros((3, 4, 1, 1))
        for b in range(3):
            for c in range(4):
                naive[b, c, 0, 0] = x[b, c].sum() / (6 * 7)
        npt.assert_allclose(global_avg_pool(x), naive, atol=1e-12)

    def test_pool_empty_rejected(self):
        with pytest.raises(ValueError, match="spatial"):
            global_avg_pool(np.zeros((1, 2, 0, 3)))

    def test_pool_backward(self, rng):
        x = rng.normal(size=(2, 3, 4, 5))
        gy = rng.normal(size=(2, 3, 1, 1))

        def loss():
            return float(np.sum(global_avg_pool(x) * gy))

        gx = global_avg_pool_backward(gy, 4, 5)
        assert rel_error(gx, numerical_grad(loss, x)) < 1e-6

    def test_linear_identity(self, rng):
        x = rng.normal(size=(4, 5))
        y = linear_forward(x, np.eye(5), np.zeros(5))
        npt.assert_array_equal(y, x)

    def test_linear_shape_rejected(self, rng):
        with pytest.raises(ValueError, match="linear"):
            linear_forward(rng.normal(size=(4, 3)), np.eye(5), np.zeros(5))

    def test_relu_values(self):
        npt.assert_array_equal(relu_forward(np.array([-1.0, 0.0, 2.0])),
                               np.array([0.0, 0.0, 2.0]))

    def test_relu_grad_at_zero_is_zero(self):
        g = relu_backward(np.array([0.0]), np.array([5.0]))
        assert g[0] == 0.0

    def test_linear_relu_finite_differences(self, rng):
        x = rng.normal(size=(3, 4))
        w = rng.normal(size=(4, 2))
        b = rng.normal(size=2)
        # keep pre-activations away from the ReLU kink
        z = linear_forward(x, w, b)
        assert np.all(np.abs(z) > 1e-2)
        gy = rng.normal(size=(3, 2))

        def loss():
            return float(np.sum(relu_forward(linear_forward(x, w, b)) * gy))

        gz = relu_backward(z, gy)
        gx, gw, gb = linear_backward(x, w, gz)
        assert rel_error(gx, numerical_grad(loss, x)) < 1e-6
        assert rel_error(gw, numerical_grad(loss, w)) < 1e-6
        assert rel_error(gb, numerical_grad(loss, b)) < 1e-6

    def test_softmax_cross_entropy_grad(self, rng):
        logits = rng.normal(size=(5, 4))
        labels = rng.integers(0, 4, size=5)

        def loss():
            return softmax_cross_entropy(logits, labels)[0]

        _, dlogits = softmax_cross_entropy(logits, labels)
        assert rel_error(dlogits, numerical_grad(loss, logits)) < 1e-6


class TestSGD:
    def test_zero_gradient_is_noop(self):
        p = np.array([1.0, -2.0])
        opt = SGD({"p": p}, lr=0.1, weight_decay=0.0)
        opt.step({"p": np.zeros(2)})
        npt.assert_array_equal(p, [1.0, -2.0])

    def test_first_step_nesterov_form(self):
        p = np.array([1.0])
        g = np.array([0.5])
        opt = SGD({"p": p}, lr=0.1, momentum=0.9, weight_decay=0.0)
        opt.step({"p": g})
        npt.assert_allclose(opt.velocities["p"], [-0.1 * 0.5], atol=1e-15)
        npt.assert_allclose(p, [1.0 - 0.1 * 0.5 * 1.9], atol=1e-15)

    def test_two_steps_match_scalar_recurrence(self):
        lr, m, wd = 0.05, 0.9, 1e-2
        p_ref, v_ref = 2.0, 0.0
        grads = [0.3, -0.7]
        p = np.array([2.0])
        opt = SGD({"p": p}, lr=lr, momentum=m, weight_decay=wd)
        for g in grads:
            d = g + wd * p_ref
            v_ref = m * v_ref - lr * d
            p_ref = p_ref + m * v_ref - lr * d
            opt.step({"p": np.array([g])})
        npt.assert_allclose(p, [p_ref], atol=1e-12)

    def test_decay_exemption(self):
        p = np.array([4.0])
        opt = SGD({"p": p}, lr=0.1, momentum=0.0, weight_decay=0.5, no_decay={"p"})
        opt.step({"p": np.zeros(1)})
        npt.assert_array_equal(p, [4.0])

    def test_non_finite_gradient_names_parameter(self):
        opt = SGD({"theta": np.ones(2)}, lr=0.1)
        with pytest.raises(ValueError, match="theta"):
            opt.step({"theta": np.array([1.0, np.nan])})


class TestCosineLr:
    def test_epoch_zero_returns_base(self):
        assert cosine_lr(0, 150, 0.1) == pytest.approx(0.1)

    def test_midpoint(self):
        assert cosine_lr(75, 150, 0.1) == pytest.approx(0.05)

    def test_last_epoch_direct_formula(self):
        expected = 0.5 * 0.1 * (1 + math.cos(math.pi * 149 / 150))
        assert cosine_lr(149, 150, 0.1) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(1.0966227e-5, rel=1e-4)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            cosine_lr(150, 150, 0.1)
