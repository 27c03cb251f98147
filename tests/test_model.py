"""Whole-network tests: assembly, shapes, and end-to-end gradients."""

import numpy as np
import numpy.testing as npt
import pytest

from dgconv.config import parse_config
from dgconv.core import softmax_cross_entropy
from dgconv.dgc import HeadwiseGating
from dgconv.model import DgcNetwork, build_network
from conftest import numerical_grad, rel_error

TINY = """
model = conv:3:4:3:1:1, dgc:4:4:3:1:1, sgc:4:4:3:1:1:2
classes = 2
heads = 2
squeeze = 2
prune_rate = 0.5
seed = 0
"""

DESK = """
model = conv:3:8:3:2:1, dgc:8:16:3:2:1, dgc:16:32:3:2:1, dgc:32:64:3:1:1
classes = 10
heads = 4
squeeze = 8
prune_rate = 0.5
seed = 1
"""


def tiny_net(seed=0):
    cfg = parse_config(TINY)
    return DgcNetwork(cfg, np.random.default_rng(seed)), cfg


def stable_net(n=2, hw=6, margin=2e-3):
    """Seed search: a net and input where every relu pre-activation (block
    and saliency) and every saliency rank gap clears the margin, so finite
    differences cannot flip a selection or cross a kink."""
    cfg = parse_config(TINY)
    for seed in range(400):
        gen = np.random.default_rng(seed)
        net = DgcNetwork(cfg, gen)
        x = gen.normal(size=(n, 3, hw, hw))
        fwd = net.forward(x, HeadwiseGating(0.5), training=True)
        ok = all(np.abs(p).min() > margin for p in fwd.pre_relu)
        for i in net.dgc_indices:
            for z1, _, z2, g in fwd.dgc_fwds[i]._cache["mlps"]:
                gaps = np.abs(np.diff(np.sort(g, axis=1), axis=1))
                if (np.abs(z1).min() < margin or np.abs(z2).min() < margin
                        or gaps.min() < margin):
                    ok = False
        if ok:
            return net, x
    raise AssertionError("no kink-free seed found")


class TestAssembly:
    def test_forward_shapes(self):
        cfg = parse_config(DESK)
        net = build_network(cfg)
        fwd = net.forward(np.random.default_rng(0).normal(size=(2, 3, 32, 32)),
                          HeadwiseGating(0.5), training=True)
        assert fwd.logits.shape == (2, 10)
        assert fwd.dgc_fwds[1].output.shape == (2, 16, 8, 8)
        assert fwd.dgc_fwds[3].output.shape == (2, 64, 4, 4)
        assert net.dgc_indices == [1, 2, 3]

    def test_parameter_names_cover_everything(self):
        net, _ = tiny_net()
        names = set(net.parameters())
        assert "b0.weights" in names and "b2.weights" in names
        assert "b1.h0.filters" in names and "b1.h1.w_expand" in names
        assert "fc.weight" in names and "b1.bn.gamma" in names

    def test_no_decay_covers_saliency_only(self):
        net, _ = tiny_net()
        nd = net.no_decay_names()
        assert "b1.h0.w_squeeze" in nd and "b1.h1.b_expand" in nd
        assert "b1.h0.filters" not in nd and "fc.weight" not in nd
        assert "b0.weights" not in nd

    def test_parameters_are_live_views(self):
        net, _ = tiny_net()
        x = np.random.default_rng(1).normal(size=(1, 3, 6, 6))
        base = net.forward(x, HeadwiseGating(0.5), True).logits
        net.parameters()["fc.bias"][0] += 1.0
        shifted = net.forward(x, HeadwiseGating(0.5), True).logits
        npt.assert_allclose(shifted[:, 0] - base[:, 0], 1.0)
        npt.assert_allclose(shifted[:, 1], base[:, 1])

    def test_dgc_requires_gating(self):
        net, _ = tiny_net()
        with pytest.raises(ValueError, match="gating"):
            net.forward(np.zeros((1, 3, 6, 6)), None, True)

    def test_eval_before_any_training_rejected(self):
        net, _ = tiny_net()
        with pytest.raises(ValueError, match="running statistics"):
            net.forward(np.zeros((1, 3, 6, 6)), HeadwiseGating(0.5), False)


class TestNetworkGradients:
    def test_all_parameters_match_finite_differences(self):
        net, x = stable_net()
        y = np.array([0, 1])
        gating = HeadwiseGating(0.5)

        def loss():
            fwd = net.forward(x, gating, training=True)
            return softmax_cross_entropy(fwd.logits, y)[0]

        fwd = net.forward(x, gating, training=True)
        _, dlogits = softmax_cross_entropy(fwd.logits, y)
        grads = net.backward(fwd, dlogits)
        params = net.parameters()
        assert set(grads) == set(params)
        for name, p in params.items():
            num = numerical_grad(loss, p)
            assert rel_error(grads[name], num) < 1e-4, name

    def test_first_block_computes_no_input_gradient(self, monkeypatch):
        from dgconv import core, dgc
        calls = []
        for module in (core, dgc):
            def counted(*args, _real=module.col2im):
                calls.append(1)
                return _real(*args)
            monkeypatch.setattr(module, "col2im", counted)
        cfg = parse_config(DESK)
        net = DgcNetwork(cfg, np.random.default_rng(0))
        x = np.random.default_rng(1).normal(size=(4, 3, 32, 32))
        fwd = net.forward(x, HeadwiseGating(0.5), training=True)
        _, dlogits = softmax_cross_entropy(fwd.logits, np.arange(4))
        net.backward(fwd, dlogits)
        assert len(calls) == 3      # one per gated block, none for the stem

    def test_input_path_through_all_blocks(self):
        net, x = stable_net()
        y = np.array([1, 0])
        fwd = net.forward(x, HeadwiseGating(0.5), training=True)
        _, dlogits = softmax_cross_entropy(fwd.logits, y)
        grads = net.backward(fwd, dlogits)
        # every block contributes a finite, mostly nonzero gradient
        for name, g in grads.items():
            assert np.all(np.isfinite(g)), name
        assert np.abs(grads["b0.weights"]).max() > 0
