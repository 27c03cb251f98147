"""Training harness tests: schedule, epochs, metrics, resume, evaluation."""

import shutil

import numpy as np
import numpy.testing as npt
import pytest

from dgconv.config import parse_config
from dgconv.core import BatchNorm2d, ConvFilter, conv2d_forward, relu_forward
from dgconv.data import synth_dataset
from dgconv.dgc import HeadwiseGating, channel_shuffle
from dgconv.model import build_network
from dgconv.train import (
    METRICS_HEADER,
    PruneSchedule,
    evaluate,
    fit,
    prune_rate_at,
)

BASE = """
model = conv:3:4:3:2:1, dgc:4:8:3:2:1, dgc:8:8:3:1:1
classes = 2
batch_size = 32
epochs = 6
lr = 0.1
prune_rate = 0.5
heads = 2
squeeze = 4
lasso = 1e-5
seed = 11
"""


def cfg_with(**overrides):
    text = BASE
    for key, value in overrides.items():
        if f"\n{key} = " in text:
            lines = [line for line in text.splitlines()
                     if not line.startswith(f"{key} = ")]
            text = "\n".join(lines)
        text += f"\n{key} = {value}"
    return parse_config(text)


class TestSchedule:
    def test_stage_boundaries(self):
        s = PruneSchedule(150, 0.75)
        assert prune_rate_at(5, s) == 0.0
        assert prune_rate_at(12, s) == 0.0  # 12 < 12.5
        assert prune_rate_at(140, s) == 0.75
        assert prune_rate_at(62, s) == pytest.approx(0.37125, rel=1e-12)

    def test_reaches_target_exactly_at_boundary(self):
        s = PruneSchedule(60, 0.5)
        assert prune_rate_at(45, s) == 0.5
        assert prune_rate_at(44, s) < 0.5
        assert prune_rate_at(59, s) == 0.5

    def test_monotone_non_decreasing(self):
        for total in (12, 13, 60, 97, 150):
            s = PruneSchedule(total, 0.75)
            rates = [prune_rate_at(e, s) for e in range(total)]
            assert all(b >= a for a, b in zip(rates, rates[1:]))
            assert rates[0] == 0.0 and rates[-1] == 0.75

    def test_stage_order_invariant(self):
        for total in range(1, 40):
            s = PruneSchedule(total, 0.3)
            assert 0 <= s.warmup_end < s.finetune_start <= total

    def test_epoch_range_checked(self):
        s = PruneSchedule(10, 0.5)
        with pytest.raises(ValueError):
            prune_rate_at(10, s)
        with pytest.raises(ValueError):
            prune_rate_at(-1, s)

    def test_bad_target_rejected(self):
        with pytest.raises(ValueError):
            PruneSchedule(10, 1.0)


class TestTrainEpochs:
    def test_zero_lr_freezes_parameters(self):
        cfg = cfg_with(lr=0.0, epochs=2)
        data = synth_dataset(seed=1, classes=2, count=64)
        net = build_network(cfg)
        before = {k: v.copy() for k, v in net.parameters().items()}
        from dgconv.core import SGD
        from dgconv.train import train_epoch
        opt = SGD(params=net.parameters(), lr=0.0,
                  no_decay=net.no_decay_names())
        m = train_epoch(net, opt, data, 0, PruneSchedule(2, 0.5), cfg,
                        np.random.default_rng(0))
        for k, v in net.parameters().items():
            npt.assert_array_equal(v, before[k])
        assert np.isfinite(m.loss_total) and 0 <= m.train_accuracy <= 1

    def test_loss_decomposition_exact(self):
        cfg = cfg_with(epochs=3)
        data = synth_dataset(seed=2, classes=2, count=96)
        res = fit(cfg, data)
        for m in res.history:
            assert abs(m.loss_total - (m.loss_ce + m.loss_lasso
                                       + m.loss_angle)) < 1e-9
            assert m.loss_lasso > 0
            assert m.loss_angle == 0.0

    def test_zero_lasso_is_pure_cross_entropy(self):
        data = synth_dataset(seed=3, classes=2, count=64)
        res = fit(cfg_with(lasso=0.0, epochs=2), data)
        for m in res.history:
            assert m.loss_lasso == 0.0
            assert m.loss_total == m.loss_ce

    def test_single_batch_overfit_smooths_down(self):
        """Trailing-5-mean training loss must not rise after stage 1 on a
        one-batch task (small absolute slack for float noise at the tail)."""
        cfg = cfg_with(epochs=48, batch_size=32, lasso=0.0)
        data = synth_dataset(seed=4, classes=2, count=32)
        res = fit(cfg, data)
        losses = [m.loss_total for m in res.history]
        smoothed = [float(np.mean(losses[max(0, i - 4):i + 1]))
                    for i in range(len(losses))]
        stage1_end = int(np.ceil(48 / 12))
        for a, b in zip(smoothed[stage1_end:], smoothed[stage1_end + 1:]):
            assert b <= a + 1e-4
        assert losses[-1] < 0.05 * losses[0]

    def test_non_finite_loss_aborts_with_batch_index(self):
        cfg = cfg_with(epochs=2)
        data = synth_dataset(seed=5, classes=2, count=64)
        data.images[10] = np.nan
        with pytest.raises(RuntimeError, match=r"non-finite loss .* batch \d+"):
            fit(cfg, data)

    def test_fixed_seed_bit_identical(self):
        cfg = cfg_with(epochs=4)
        data = synth_dataset(seed=6, classes=2, count=96)
        h1 = [m.csv_line() for m in fit(cfg, data).history]
        h2 = [m.csv_line() for m in fit(cfg, data).history]
        assert h1 == h2

    def test_augment_changes_training(self):
        data = synth_dataset(seed=8, classes=2, count=64)
        plain = [m.csv_line() for m in fit(cfg_with(epochs=2), data).history]
        augmented = [m.csv_line()
                     for m in fit(cfg_with(epochs=2, augment=1), data).history]
        assert plain != augmented

    def test_labels_beyond_classes_rejected(self):
        data = synth_dataset(seed=9, classes=3, count=64)
        with pytest.raises(ValueError, match=r"label 2 .* classes = 2"):
            fit(cfg_with(epochs=1), data)
        res = fit(cfg_with(epochs=1), synth_dataset(seed=9, classes=2, count=64))
        with pytest.raises(ValueError, match=r"label 2 .* classes = 2"):
            evaluate(res.net, data)

    def test_metrics_file_schema(self, tmp_path):
        cfg = cfg_with(epochs=3)
        data = synth_dataset(seed=7, classes=2, count=64)
        path = str(tmp_path / "metrics.csv")
        fit(cfg, data, metrics_path=path)
        lines = open(path).read().splitlines()
        assert lines[0] == METRICS_HEADER
        assert len(lines) == 4
        for line in lines[1:]:
            parts = line.split(",")
            assert len(parts) == len(METRICS_HEADER.split(","))
            float(parts[1])  # lr parses


class TestGlobalModeTraining:
    def test_threshold_update_cadence(self):
        cfg = cfg_with(gating="global", angle="1e-4", epochs=7,
                       collection_iterations=2)
        data = synth_dataset(seed=8, classes=2, count=96)
        res = fit(cfg, data)
        assert res.threshold_state.initialized
        assert res.threshold_state.last_update_epoch == 5
        hist = res.history
        assert all(np.isnan(m.threshold) for m in hist[:2])
        assert all(np.isfinite(m.threshold) for m in hist[2:])
        assert all(m.loss_angle > 0 for m in hist)

    def test_angle_term_in_decomposition(self):
        cfg = cfg_with(gating="global", angle="1e-3", epochs=3)
        data = synth_dataset(seed=9, classes=2, count=64)
        for m in fit(cfg, data).history:
            assert abs(m.loss_total - (m.loss_ce + m.loss_lasso
                                       + m.loss_angle)) < 1e-9

    def test_headwise_ignores_angle_coeff(self):
        cfg = cfg_with(angle="1e-3", epochs=2)
        data = synth_dataset(seed=10, classes=2, count=64)
        for m in fit(cfg, data).history:
            assert m.loss_angle == 0.0


class TestResume:
    def test_resume_reproduces_uninterrupted_run(self, tmp_path):
        cfg = cfg_with(epochs=6)
        data = synth_dataset(seed=12, classes=2, count=96)
        ck = str(tmp_path / "run.ckpt")
        frozen = str(tmp_path / "epoch3.ckpt")

        def hook(epoch, metrics, net):
            if epoch == 2:
                shutil.copy(ck, frozen)

        full = fit(cfg, data, checkpoint_path=ck, epoch_hook=hook)
        resumed = fit(cfg, data, resume_from=frozen)
        assert [m.csv_line() for m in resumed.history] == \
            [m.csv_line() for m in full.history[3:]]
        for k, v in full.net.parameters().items():
            npt.assert_array_equal(resumed.net.parameters()[k], v)
        for k, v in full.net.bn_state().items():
            npt.assert_array_equal(resumed.net.bn_state()[k], v)

    def test_resume_global_mode(self, tmp_path):
        cfg = cfg_with(gating="global", angle="1e-4", epochs=6,
                       collection_iterations=2)
        data = synth_dataset(seed=13, classes=2, count=96)
        ck = str(tmp_path / "run.ckpt")
        frozen = str(tmp_path / "epoch4.ckpt")

        def hook(epoch, metrics, net):
            if epoch == 3:
                shutil.copy(ck, frozen)

        full = fit(cfg, data, checkpoint_path=ck, epoch_hook=hook)
        resumed = fit(cfg, data, resume_from=frozen)
        assert [m.csv_line() for m in resumed.history] == \
            [m.csv_line() for m in full.history[4:]]
        assert resumed.threshold_state.threshold == \
            full.threshold_state.threshold

    def test_resume_config_mismatch_rejected(self, tmp_path):
        cfg = cfg_with(epochs=4)
        data = synth_dataset(seed=14, classes=2, count=64)
        ck = str(tmp_path / "run.ckpt")
        fit(cfg, data, checkpoint_path=ck)
        with pytest.raises(ValueError, match="config"):
            fit(cfg_with(epochs=8), data, resume_from=ck)


class TestEvaluate:
    def test_deterministic(self):
        cfg = cfg_with(epochs=3)
        data = synth_dataset(seed=15, classes=2, count=96)
        train, test = data.split(64)
        res = fit(cfg, train)
        e1, e2 = evaluate(res.net, test), evaluate(res.net, test)
        assert e1.csv_lines() == e2.csv_lines()
        assert e1.per_layer_prune_rates == e2.per_layer_prune_rates

    def test_chance_level_for_random_weights(self):
        cfg = cfg_with(lr=0.0, classes=10, epochs=1, prune_rate=0.5)
        data = synth_dataset(seed=16, classes=10, count=1200)
        res = fit(cfg, data)  # zero lr: BN stats fill, weights frozen
        ev = evaluate(res.net, data)
        assert abs(ev.accuracy - 0.1) < 0.03

    def test_bn_stats_required(self):
        net = build_network(cfg_with())
        data = synth_dataset(seed=17, classes=2, count=32)
        with pytest.raises(ValueError, match="running statistics"):
            evaluate(net, data)

    def test_headwise_realized_rates_match_target(self):
        cfg = cfg_with(epochs=3)
        data = synth_dataset(seed=18, classes=2, count=96)
        res = fit(cfg, data)
        ev = evaluate(res.net, data)
        for rate, c in zip(ev.per_layer_prune_rates, (4, 8)):
            expect = 1.0 - np.ceil(0.5 * c) / c
            assert rate == pytest.approx(expect)

    def test_global_mode_requires_threshold(self):
        cfg = cfg_with(gating="global", epochs=2)
        data = synth_dataset(seed=19, classes=2, count=64)
        res = fit(cfg, data)
        with pytest.raises(ValueError, match="threshold"):
            evaluate(res.net, data, threshold_state=None)

    def test_zero_rate_equals_dense_oracle(self):
        """With pruning disabled, evaluation must match an explicitly dense
        network built from the same weights: per head, convolve the
        saliency-scaled input densely, then concat + shuffle."""
        cfg = cfg_with(prune_rate=0.0, epochs=2)
        data = synth_dataset(seed=20, classes=2, count=64)
        train, test = data.split(48)
        res = fit(cfg, train)
        net = res.net
        ev = evaluate(net, test)

        x = test.standardized()
        for blk in net.blocks:
            if blk.dgc is None:
                y = conv2d_forward(x, ConvFilter(blk.weights, blk.spec.stride,
                                                 blk.spec.padding))
            else:
                parts = []
                for head in blk.dgc.heads:
                    p = x.mean(axis=(2, 3))
                    a1 = np.maximum(p @ head.w_squeeze.T + head.b_squeeze, 0)
                    g = np.maximum(a1 @ head.w_expand.T + head.b_expand, 0)
                    parts.append(conv2d_forward(
                        x * g[:, :, None, None],
                        ConvFilter(head.filters, blk.spec.stride,
                                   blk.spec.padding)))
                y = channel_shuffle(np.concatenate(parts, axis=1),
                                    cfg.heads)
            y = blk.bn.forward(y, training=False)
            x = relu_forward(y)
        logits = x.mean(axis=(2, 3)) @ net.fc_weight + net.fc_bias
        oracle_acc = float((logits.argmax(axis=1) == test.labels).mean())
        assert ev.accuracy == oracle_acc

    def test_macs_reported(self):
        cfg = cfg_with(epochs=2)
        data = synth_dataset(seed=21, classes=2, count=64)
        res = fit(cfg, data)
        ev = evaluate(res.net, data)
        assert ev.macs_per_sample > 0
        dense_cfg = cfg_with(epochs=2, prune_rate=0.0)
        dense_res = fit(dense_cfg, data)
        assert evaluate(dense_res.net, data).macs_per_sample > ev.macs_per_sample
