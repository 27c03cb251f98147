"""Tests for the network-wide threshold gating variant."""

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dgconv.global_threshold import (
    GlobalThresholdState,
    SaliencyLibrary,
    angle_loss,
    angle_loss_and_grad,
    collect_saliencies,
    compute_global_threshold,
    maybe_update_threshold,
)
from dgconv.dgc import (DgcLayerConfig, GlobalGating, _gate_masks, dgc_forward,
                        init_dgc_layer)
from conftest import numerical_grad, rel_error


def kept(g, threshold):
    """Global-threshold keep-masks of saliency rows."""
    return _gate_masks(np.atleast_2d(np.asarray(g, dtype=float)),
                       GlobalGating(threshold))


def library_from(values, row_length=None):
    values = np.atleast_2d(np.asarray(values, dtype=float))
    lib = SaliencyLibrary(capacity=max(len(values), 1),
                          row_length=row_length or values.shape[1])
    lib.append_batch(values)
    return lib


class TestLibrary:
    def test_collect_concatenates_in_layer_head_order(self):
        rows = collect_saliencies([[np.array([[1.0, -2.0]]),
                                    np.array([[3.0, 4.0]])]])
        npt.assert_array_equal(rows, [[1.0, -2.0, 3.0, 4.0]])

    def test_collect_batched(self):
        l0 = [np.arange(6.0).reshape(2, 3), -np.ones((2, 3))]
        l1 = [np.full((2, 2), 7.0)]
        rows = collect_saliencies([l0, l1])
        assert rows.shape == (2, 8)
        npt.assert_array_equal(rows[1], [3, 4, 5, -1, -1, -1, 7, 7])

    def test_collect_rejects_missing_head(self):
        with pytest.raises(ValueError):
            collect_saliencies([[np.ones((1, 2))], []])
        with pytest.raises(ValueError):
            collect_saliencies([[np.ones((2, 3)), np.ones((1, 3))]])

    def test_fifo_eviction(self):
        lib = SaliencyLibrary(capacity=2, row_length=1)
        lib.append_batch(np.array([[1.0], [2.0], [3.0]]))
        npt.assert_array_equal(lib.rows, [[2.0], [3.0]])
        lib.append_batch(np.array([[4.0]]))
        npt.assert_array_equal(lib.rows, [[3.0], [4.0]])
        assert len(lib) == 2 and lib.size == 2

    def test_rejects_wrong_row_length(self):
        lib = SaliencyLibrary(capacity=4, row_length=3)
        with pytest.raises(ValueError):
            lib.append_batch(np.ones((1, 2)))

    def test_clear(self):
        lib = library_from([[1.0, 2.0]])
        lib.clear()
        assert len(lib) == 0

    def test_capacity_matches_collection_window(self):
        lib = SaliencyLibrary(capacity=5 * 256, row_length=4)
        lib.append_batch(np.zeros((2000, 4)))
        assert len(lib) == 1280


class TestThreshold:
    def test_half_rate_example(self):
        lib = library_from([[0.1, -0.2, 0.3, -0.4]])
        assert compute_global_threshold(lib, 0.5) == pytest.approx(0.3)

    def test_zero_rate_gives_min(self):
        lib = library_from([[0.7, -0.05, 0.3]])
        assert compute_global_threshold(lib, 0.0) == pytest.approx(0.05)

    def test_all_equal_saturates(self):
        lib = library_from([[0.4, -0.4, 0.4, -0.4]])
        t = compute_global_threshold(lib, 0.75)
        assert t == pytest.approx(0.4)
        assert kept([0.4, -0.4, 0.4, -0.4], t).all()  # nothing strictly below

    def test_permutation_invariant(self):
        gen = np.random.default_rng(2)
        vals = gen.normal(size=(6, 5))
        perm = vals[gen.permutation(6)]
        assert compute_global_threshold(library_from(vals), 0.6) == \
            compute_global_threshold(library_from(perm), 0.6)

    def test_empty_library_rejected(self):
        lib = SaliencyLibrary(capacity=4, row_length=2)
        with pytest.raises(ValueError):
            compute_global_threshold(lib, 0.5)

    @given(st.integers(2, 60), st.floats(0.0, 0.95), st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_strictly_below_fraction_never_exceeds_rate(self, m, rate, seed):
        vals = np.random.default_rng(seed).normal(size=(1, m))
        t = compute_global_threshold(library_from(vals), rate)
        below = float((np.abs(vals) < t).mean())
        assert below <= rate + 1e-12
        # largest achievable: adding the threshold entry itself would exceed
        at_or_below = float((np.abs(vals) <= t).mean())
        assert at_or_below > rate - 1e-12

    def test_realized_rate_tracks_target_on_fresh_draws(self):
        gen = np.random.default_rng(31)
        lib = library_from(gen.normal(size=(1280, 64)))
        t = compute_global_threshold(lib, 0.6)
        fresh = gen.normal(size=(4000, 64))
        realized = float((np.abs(fresh) < t).mean())
        assert abs(realized - 0.6) < 0.02


class TestGlobalGate:
    def test_example(self):
        g = np.array([[0.5, -0.1, 0.9]])
        mask = kept(g, 0.3)
        npt.assert_array_equal(mask, [[True, False, True]])
        npt.assert_allclose(g[mask], [0.5, 0.9])

    def test_zero_threshold_selects_all(self):
        npt.assert_array_equal(kept([0.5, -0.1, 0.9], 0.0), [[True] * 3])

    def test_sign_preserved(self):
        layer = init_dgc_layer(DgcLayerConfig(4, 4, 1, 1, 0, heads=1, squeeze=2),
                               np.random.default_rng(0))
        layer.heads[0].b_expand[:] = [-0.5, 0.0, 0.0, 0.0]
        layer.heads[0].w_expand[:] = 0.0
        npt.assert_array_equal(kept([-0.5], 0.3), [[True]])
        fwd = dgc_forward(np.ones((1, 4, 2, 2)), layer, GlobalGating(0.3),
                          training=False)
        npt.assert_array_equal(fwd.masks[0][0], [True, False, False, False])
        npt.assert_allclose(fwd.saliencies[0][0, fwd.masks[0][0]], [-0.5])

    def test_empty_selection_allowed(self):
        assert not kept([0.1, -0.2], 5.0).any()

    def test_boundary_kept(self):
        npt.assert_array_equal(kept([0.3, -0.3, 0.2999999], 0.3),
                               [[True, True, False]])

    def test_rejects_bad_threshold(self):
        with pytest.raises(ValueError):
            kept(np.ones(3), -0.1)
        with pytest.raises(ValueError):
            kept(np.ones(3), float("nan"))


class TestUpdateCadence:
    def test_updates_every_third_epoch(self):
        lib = library_from(np.random.default_rng(0).normal(size=(8, 4)))
        state = GlobalThresholdState()
        for epoch in range(6):
            state = maybe_update_threshold(state, epoch, lib, 0.5)
            if epoch in (2, 5):
                assert state.initialized and state.last_update_epoch == epoch
            elif epoch < 2:
                assert not state.initialized

    def test_identical_library_identical_threshold(self):
        lib = library_from(np.random.default_rng(1).normal(size=(8, 4)))
        s1 = maybe_update_threshold(GlobalThresholdState(), 2, lib, 0.5)
        t1 = s1.threshold
        s2 = maybe_update_threshold(s1, 5, lib, 0.5)
        assert s2.threshold == t1

    def test_empty_library_warns_and_retains(self):
        empty = SaliencyLibrary(capacity=4, row_length=2)
        state = GlobalThresholdState(threshold=0.7)
        with pytest.warns(RuntimeWarning):
            state = maybe_update_threshold(state, 2, empty, 0.5)
        assert state.threshold == 0.7

    def test_non_update_epoch_untouched(self):
        lib = library_from([[1.0, 2.0]])
        state = maybe_update_threshold(GlobalThresholdState(), 0, lib, 0.5)
        assert not state.initialized


class TestAngleLoss:
    def test_orthogonal_pair_zero(self):
        loss = angle_loss([[np.array([1.0, 0.0]), np.array([0.0, 2.0])]], 1e-4)
        assert loss == pytest.approx(0.0, abs=1e-18)

    def test_identical_pair(self):
        g = np.array([0.3, -0.7, 0.2])
        assert angle_loss([[g, g]], 1e-4) == pytest.approx(1e-4)

    def test_hand_evaluated_pair(self):
        loss = angle_loss([[np.array([1.0, 0.0]), np.array([1.0, 1.0])]], 1.0)
        assert loss == pytest.approx(1.0 / np.sqrt(2.0), rel=1e-12)

    def test_single_head_is_zero(self):
        assert angle_loss([[np.array([1.0, 2.0])]], 1.0) == 0.0

    def test_zero_norm_contributes_zero(self):
        loss = angle_loss([[np.zeros(3), np.array([1.0, 1.0, 1.0])]], 1.0)
        assert loss == 0.0

    def test_positive_rescaling_invariant(self):
        gen = np.random.default_rng(3)
        heads = [gen.normal(size=(2, 5)) for _ in range(3)]
        base = angle_loss([heads], 1.0)
        scaled = [c * h for c, h in zip((0.5, 2.0, 10.0), heads)]
        assert angle_loss([scaled], 1.0) == pytest.approx(base, rel=1e-12)

    def test_head_exchange_symmetric(self):
        gen = np.random.default_rng(4)
        a, b, c = (gen.normal(size=(1, 4)) for _ in range(3))
        assert angle_loss([[a, b, c]], 1.0) == \
            pytest.approx(angle_loss([[c, a, b]], 1.0), rel=1e-12)

    def test_batch_average(self):
        g1 = np.array([[1.0, 0.0], [1.0, 0.0]])
        g2 = np.array([[1.0, 0.0], [0.0, 1.0]])  # cos 1 then cos 0
        assert angle_loss([[g1, g2]], 1.0) == pytest.approx(0.5)

    def test_two_layer_normalization(self):
        g = np.array([1.0, 1.0])
        one = [[g, g]]
        two = [[g, g], [np.array([1.0, 0.0]), np.array([0.0, 1.0])]]
        assert angle_loss(one, 1.0) == pytest.approx(1.0)
        assert angle_loss(two, 1.0) == pytest.approx(0.5)

    def test_gradient_matches_finite_differences(self):
        gen = np.random.default_rng(7)
        for _ in range(20):
            per_layer = [[gen.normal(size=(2, 5)) for _ in range(3)],
                         [gen.normal(size=(2, 4)) for _ in range(2)]]
            stacked = [np.stack(h) for h in per_layer]
            units = [g / np.linalg.norm(g, axis=-1, keepdims=True)
                     for g in stacked]
            coss = [np.einsum("inc,jnc->ijn", u, u) for u in units]
            if min(np.abs(c[~np.eye(c.shape[0], dtype=bool)]).min()
                   for c in coss) > 1e-2:
                break
        else:
            raise AssertionError("no kink-free configuration found")
        loss, grads = angle_loss_and_grad(per_layer, 0.7)

        def f():
            return angle_loss(per_layer, 0.7)

        assert f() == pytest.approx(loss, rel=1e-12)
        for li, heads in enumerate(per_layer):
            for hi in range(len(heads)):
                num = numerical_grad(f, per_layer[li][hi])
                assert rel_error(grads[li][hi], num) < 1e-5, (li, hi)

    def test_grad_zero_for_single_head_and_zero_norm(self):
        loss, grads = angle_loss_and_grad(
            [[np.ones((1, 3))], [np.zeros((1, 2)), np.ones((1, 2))]], 1.0)
        assert loss == 0.0
        for heads in grads:
            for g in heads:
                npt.assert_array_equal(g, np.zeros_like(g))
