"""Index-plan, MAC-accounting, and benchmark tests."""

import sys

import numpy as np
import numpy.testing as npt
import pytest

from dgconv import runtime
from dgconv.dgc import (
    DgcLayerConfig,
    GlobalGating,
    HeadwiseGating,
    dgc_forward,
    init_dgc_layer,
    kept_channels,
)
from dgconv.runtime import (
    BENCH_CSV_HEADER,
    LayerShape,
    MacReport,
    bench_csv_rows,
    execute_plan,
    mac_dense,
    mac_dgc,
    mac_sgc,
    plan_from_forward,
    run_benchmark,
)
from conftest import naive_conv2d


def make_layer(c=8, cp=8, heads=2, squeeze=4, seed=0, k=3, stride=1, pad=1):
    cfg = DgcLayerConfig(c, cp, k, stride, pad, heads=heads, squeeze=squeeze,
                         prune_rate=0.5)
    return init_dgc_layer(cfg, np.random.default_rng(seed))


class TestMacModel:
    def test_dense_example(self):
        shape = LayerShape(64, 64, 3, 32, 32)
        assert mac_dense(shape) == 37_748_736

    def test_dgc_example(self):
        shape = LayerShape(64, 64, 3, 32, 32)
        rep = mac_dgc(shape, 0.75, heads=4, squeeze=16)
        assert rep.saliency_macs == 2_048
        assert rep.conv_macs == 9_437_184
        assert rep.total_macs == 9_439_232
        assert abs(rep.saving_ratio - 4.0) / 4.0 < 1e-3

    def test_zero_rate_ratio_near_one(self):
        shape = LayerShape(64, 64, 3, 32, 32)
        rep = mac_dgc(shape, 0.0, heads=4, squeeze=16)
        assert rep.conv_macs == mac_dense(shape)
        assert 1.0 <= 1.0 / rep.saving_ratio < 1.001

    def test_formula_on_random_shapes(self, rng):
        for _ in range(20):
            c = int(rng.integers(1, 9)) * 8
            cp = int(rng.integers(1, 9)) * 8
            k = int(rng.choice([1, 3, 5]))
            oh, ow = (int(v) for v in rng.integers(1, 40, size=2))
            heads, squeeze = 4, 8
            xi = float(rng.uniform(0, 0.9))
            shape = LayerShape(c, cp, k, oh, ow)
            assert mac_dense(shape) == k * k * c * cp * oh * ow
            rep = mac_dgc(shape, xi, heads, squeeze)
            kept = kept_channels(c, xi)
            assert rep.conv_macs == k * k * kept * (cp // heads) * oh * ow * heads
            assert rep.saliency_macs == heads * 2 * c * c // squeeze
            assert isinstance(rep.total_macs, int)

    def test_measured_counts_global_mode(self):
        shape = LayerShape(8, 8, 3, 4, 4)
        rep = mac_dgc(shape, 0.5, heads=2, squeeze=4, measured_kept=[3.0, 5.0])
        per_slot = 9 * (8 // 2) * 16
        assert rep.conv_macs == per_slot * 8

    def test_sgc(self):
        shape = LayerShape(16, 32, 3, 8, 8)
        assert mac_sgc(shape, 4) == mac_dense(shape) // 4
        with pytest.raises(ValueError):
            mac_sgc(shape, 3)

    def test_validation(self):
        with pytest.raises(ValueError):
            LayerShape(0, 8, 3, 4, 4)
        with pytest.raises(ValueError):
            MacReport(-1, 0, 0)
        with pytest.raises(ValueError):
            mac_dgc(LayerShape(8, 9, 3, 4, 4), 0.5, heads=2, squeeze=4)

    def test_ratio_converges_to_inverse_keep_fraction(self):
        for hw in (8, 32, 128):
            shape = LayerShape(64, 64, 3, hw, hw)
            rep = mac_dgc(shape, 0.75, heads=4, squeeze=16)
            assert abs(rep.saving_ratio - 4.0) < abs(
                mac_dgc(LayerShape(64, 64, 3, 4, 4), 0.75, 4, 16).saving_ratio
                - 4.0) + 1e-9
        big = mac_dgc(LayerShape(64, 64, 3, 32, 32), 0.75, 4, 16)
        assert abs(big.saving_ratio - 4.0) / 4.0 < 1e-3


class TestIndexPlan:
    def test_execution_bit_identical_to_reference(self, rng):
        layer = make_layer()
        x = rng.normal(size=(3, 8, 6, 6))
        fwd = dgc_forward(x, layer, HeadwiseGating(0.5), training=False)
        for s in range(3):
            plan = plan_from_forward(layer, fwd, s)
            out = execute_plan(plan, x[s])
            npt.assert_array_equal(out, fwd.output[s])

    def test_global_gating_plans(self, rng):
        layer = make_layer(seed=3)
        x = rng.normal(size=(2, 8, 5, 5))
        fwd = dgc_forward(x, layer, GlobalGating(0.1), training=False)
        for s in range(2):
            out = execute_plan(plan_from_forward(layer, fwd, s), x[s])
            npt.assert_array_equal(out, fwd.output[s])

    def test_plan_builds_only_the_planned_sample(self, rng):
        layer = make_layer(heads=4)
        fwd = dgc_forward(rng.normal(size=(16, 8, 5, 5)), layer,
                          HeadwiseGating(0.5), training=False)
        plan = plan_from_forward(layer, fwd, 7)
        others = np.arange(16) != 7
        for m, g in zip(fwd.masks, fwd.saliencies):
            m[others] = ~m[others]
            g[others] = -1.0
        again = plan_from_forward(layer, fwd, 7)
        for field in ("indices", "amplify", "filters"):
            for a, b in zip(getattr(plan, field), getattr(again, field)):
                npt.assert_array_equal(a, b)

    def test_all_channels_selected_is_dense(self, rng):
        layer = make_layer(seed=1)
        x = rng.normal(size=(1, 8, 5, 5))
        fwd = dgc_forward(x, layer, HeadwiseGating(0.0), training=False)
        plan = plan_from_forward(layer, fwd, 0)
        for h, bank in enumerate(plan.filters):
            npt.assert_array_equal(bank, layer.heads[h].filters)
        npt.assert_array_equal(execute_plan(plan, x[0]), fwd.output[0])

    def test_gather_layout(self, rng):
        layer = make_layer(seed=2)
        fwd = dgc_forward(rng.normal(size=(2, 8, 5, 5)), layer,
                          HeadwiseGating(0.5), training=False)
        for m in fwd.masks:
            m[1] = np.isin(np.arange(8), [0, 2])
        plan = plan_from_forward(layer, fwd, 1)
        for h, head in enumerate(layer.heads):
            npt.assert_array_equal(plan.indices[h], [0, 2])
            npt.assert_array_equal(plan.amplify[h],
                                   fwd.saliencies[h][1, [0, 2]])
            npt.assert_array_equal(plan.filters[h], head.filters[:, [0, 2]])

    def test_matches_naive_gathered_conv(self, rng):
        layer = make_layer(seed=4)
        x = rng.normal(size=(1, 8, 5, 5))
        fwd = dgc_forward(x, layer, HeadwiseGating(0.5), training=False)
        plan = plan_from_forward(layer, fwd, 0)
        out = execute_plan(plan, x[0])
        for h in range(2):
            xs = x[0, plan.indices[h]] * plan.amplify[h][:, None, None]
            ref = naive_conv2d(xs[None], plan.filters[h], 1, 1)[0]
            # unshuffle: head h occupies interleaved slots h, h+heads, ...
            npt.assert_allclose(out[h::2], ref, rtol=1e-10, atol=1e-12)

    def test_stale_decision_rejected(self, rng):
        """A forward of a layer with another head or channel count does
        not fit this layer."""
        layer = make_layer()            # 2 heads over 8 channels
        for other, c in ((make_layer(heads=4), 8), (make_layer(c=16), 16)):
            fwd = dgc_forward(rng.normal(size=(1, c, 5, 5)), other,
                              HeadwiseGating(0.5), training=False)
            with pytest.raises(ValueError, match="the layer has 2 heads "
                                                 "over 8"):
                plan_from_forward(layer, fwd, 0)

    def test_execute_validates_input(self, rng):
        layer = make_layer()
        fwd = dgc_forward(rng.normal(size=(1, 8, 5, 5)), layer,
                          HeadwiseGating(0.5), training=False)
        plan = plan_from_forward(layer, fwd, 0)
        with pytest.raises(ValueError):
            execute_plan(plan, np.zeros((5, 4, 4)))

    def test_empty_head_zero_slice(self, rng):
        layer = make_layer(seed=5)
        x = rng.normal(size=(1, 8, 5, 5))
        fwd = dgc_forward(x, layer, GlobalGating(1e9), training=False)
        plan = plan_from_forward(layer, fwd, 0)
        out = execute_plan(plan, x[0])
        npt.assert_array_equal(out, np.zeros_like(out))


class TestBatchedEvaluation:
    """Evaluation runs dgc.gathered_conv once per (head, kept count)."""

    @pytest.mark.parametrize("k,stride", [(3, 1), (3, 2), (1, 1), (1, 2)])
    def test_headwise_batch_matches_plans(self, rng, k, stride):
        layer = make_layer(c=16, cp=8, heads=4, seed=6, k=k, stride=stride,
                           pad=k // 2)
        x = rng.normal(size=(7, 16, 7, 7))
        fwd = dgc_forward(x, layer, HeadwiseGating(0.5), training=False)
        for s in range(7):
            npt.assert_array_equal(
                execute_plan(plan_from_forward(layer, fwd, s), x[s]),
                fwd.output[s])

    @pytest.mark.parametrize("k,stride", [(3, 1), (3, 2), (1, 2)])
    def test_global_uneven_and_empty_slices_match_plans(self, rng, k, stride):
        layer = make_layer(c=16, cp=8, heads=4, seed=7, k=k, stride=stride,
                           pad=k // 2)
        x = rng.normal(size=(9, 16, 6, 6))
        g = np.abs(dgc_forward(x, layer, GlobalGating(0.0),
                               training=False).saliencies)
        gating = GlobalGating(float(np.quantile(g, 0.7)))
        fwd = dgc_forward(x, layer, gating, training=False)
        counts = np.stack([m.sum(axis=1) for m in fwd.masks])
        assert (counts == 0).any() and (counts > 0).any()
        assert any(np.unique(c).size > 2 for c in counts)
        for s in range(9):
            npt.assert_array_equal(
                execute_plan(plan_from_forward(layer, fwd, s), x[s]),
                fwd.output[s])

    @pytest.mark.parametrize("mode", ["headwise", "global"])
    def test_shifted_taps_batch_matches_plans(self, rng, monkeypatch, mode):
        from dgconv import core

        layer = make_layer(c=16, cp=8, heads=4, seed=9)
        x = rng.normal(size=(6, 16, 9, 10))
        gating = HeadwiseGating(0.5)
        if mode == "global":
            g = np.abs(dgc_forward(x, layer, GlobalGating(0.0),
                                   training=False).saliencies)
            gating = GlobalGating(float(np.quantile(g, 0.6)))
        unfolds, im2col = [], core.im2col
        monkeypatch.setattr(core, "im2col",
                            lambda *a: unfolds.append(1) or im2col(*a))
        fwd = dgc_forward(x, layer, gating, training=False)
        assert 9 * 10 >= core.SHIFTED_TAPS_MIN_PIXELS and not unfolds
        if mode == "global":    # uneven kept counts: several stacks per head
            assert any(np.unique(m.sum(axis=1)).size > 2 for m in fwd.masks)
        for s in range(6):
            npt.assert_array_equal(
                execute_plan(plan_from_forward(layer, fwd, s), x[s]),
                fwd.output[s])

    def test_one_kernel_call_per_head_and_kept_count(self, rng, monkeypatch):
        from dgconv import dgc

        calls, kernel = [], dgc.gathered_conv

        def counting(x, rows, *args):
            calls.append(np.size(rows))
            return kernel(x, rows, *args)

        monkeypatch.setattr(dgc, "gathered_conv", counting)
        layer = make_layer(c=16, cp=8, heads=4, seed=8)
        x = rng.normal(size=(12, 16, 5, 5))
        dgc_forward(x, layer, HeadwiseGating(0.5), training=False)
        assert calls == [12] * 4
        calls.clear()
        fwd = dgc_forward(x, layer, GlobalGating(0.3), training=False)
        groups = [np.unique(m.sum(axis=1)) for m in fwd.masks]
        assert len(calls) == sum(int((g > 0).sum()) for g in groups)
        assert len(calls) > 4 and sum(calls) < 4 * 12


class TestBenchmark:
    def test_schema_and_decomposition(self):
        results = run_benchmark([(16, 16, 8, 3)], threads=1, repeats=5,
                                warmup=2)
        variants = {r.variant for r in results}
        assert variants == {"dense", "sgc", "dgc"}
        dgc = next(r for r in results if r.variant == "dgc")
        assert set(dgc.components_s) == {"saliency", "index", "conv"}
        comp_sum = sum(dgc.components_s.values())
        assert comp_sum == pytest.approx(dgc.mean_s, rel=0.25, abs=5e-4)
        for r in results:
            assert r.median_s >= 0 and r.repeats == 5 and r.threads == 1

    def test_csv_rows(self):
        results = run_benchmark([(8, 8, 4, 3)], threads=1, repeats=3, warmup=1)
        rows = bench_csv_rows(results)
        assert len(rows) == 3
        assert len(BENCH_CSV_HEADER.split(",")) == len(rows[0].split(","))

    def test_rejects_bad_variant(self):
        with pytest.raises(ValueError, match="variant"):
            run_benchmark([(8, 8, 4, 3)], variants=["magic"], repeats=2,
                          warmup=0)

    def test_rejects_negative_warmup(self):
        with pytest.raises(ValueError, match="warmup must be >= 0, got -1"):
            run_benchmark([(8, 8, 4, 3)], variants=["dense"], repeats=2,
                          warmup=-1)

    def test_auto_scaling_noted_for_tiny_work(self):
        results = run_benchmark([(2, 2, 2, 1)], variants=["dense"],
                                threads=1, repeats=3, warmup=1)
        assert results[0].inner_loops > 1
        assert "scaled" in results[0].note

    def test_repetitions_interleave_variants(self, monkeypatch):
        calls = []

        def recorder(name, fn):
            def wrapped(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(runtime, "conv2d_forward",
                            recorder("dense", runtime.conv2d_forward))
        monkeypatch.setattr(runtime, "sgc_forward",
                            recorder("sgc", runtime.sgc_forward))
        monkeypatch.setattr(runtime, "_saliency_phase",
                            recorder("dgc", runtime._saliency_phase))
        repeats = 4
        run_benchmark([(8, 8, 6, 3)], threads=1, repeats=repeats, warmup=2)
        # Inner loops repeat a variant back to back; collapse those runs.
        blocks = [name for i, name in enumerate(calls)
                  if i == 0 or calls[i - 1] != name]
        # One warm-up/calibration block per variant, then one block per
        # variant in every repetition.
        assert blocks == ["dense", "sgc", "dgc"] * (repeats + 1)


class TestLimitThreads:
    @pytest.mark.skipif(runtime._bundled_openblas() is None,
                        reason="no OpenBLAS library found next to numpy")
    def test_pins_openblas_and_restores(self):
        get, _ = runtime._bundled_openblas()
        before = get()
        with runtime._limit_threads(1) as actual:
            assert get() == 1
            assert actual == 1
        assert get() == before

    def test_reports_zero_when_nothing_pinned(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "threadpoolctl", None)
        monkeypatch.setattr(runtime, "_bundled_openblas", lambda: None)
        with runtime._limit_threads(1) as actual:
            assert actual == 0
        with runtime._limit_threads(None) as actual:
            assert actual == 0

    def test_threadpoolctl_caps_and_reads_blas_pool(self, monkeypatch):
        """With threadpoolctl importable, the cap goes through
        threadpool_limits and the yielded count is the BLAS pool's
        num_threads; an OpenMP pool's count is ignored."""
        import contextlib
        import types

        requested = []

        @contextlib.contextmanager
        def threadpool_limits(limits):
            requested.append(limits)
            yield

        stub = types.ModuleType("threadpoolctl")
        stub.threadpool_limits = threadpool_limits
        stub.threadpool_info = lambda: [
            {"user_api": "openmp", "num_threads": 8},
            {"user_api": "blas", "num_threads": 3}]
        monkeypatch.setitem(sys.modules, "threadpoolctl", stub)
        monkeypatch.setattr(runtime, "_bundled_openblas", lambda: None)
        with runtime._limit_threads(2) as actual:
            assert requested == [2]
            assert actual == 3
