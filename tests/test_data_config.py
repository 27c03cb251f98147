"""Tests for dataset ingestion and the key-value config format."""

import numpy as np
import numpy.testing as npt
import pytest

from dgconv.config import (
    LayerSpec,
    TrainConfig,
    parse_config,
    serialize_config,
)
from dgconv.data import (
    RECORD_BYTES,
    DatasetSource,
    augment_batch,
    load_cifar10,
    synth_dataset,
    write_cifar10,
)


def make_file(tmp_path, n=4, seed=0, name="batch.bin", labels=None):
    gen = np.random.default_rng(seed)
    images = gen.uniform(size=(n, 3, 32, 32))
    if labels is None:
        labels = gen.integers(0, 10, size=n)
    path = str(tmp_path / name)
    write_cifar10(path, images, labels)
    return path, images, labels


class TestBinaryFormat:
    def test_round_trip(self, tmp_path):
        path, images, labels = make_file(tmp_path)
        src = load_cifar10(path)
        assert len(src) == 4
        npt.assert_array_equal(src.labels, labels)
        # quantized to 1/255 on write
        assert np.abs(src.images - images).max() <= 0.5 / 255.0 + 1e-12

    def test_record_size_arithmetic(self, tmp_path):
        path, _, _ = make_file(tmp_path, n=2)
        import os
        assert os.path.getsize(path) == 2 * RECORD_BYTES == 6146

    def test_wrong_size_rejected(self, tmp_path):
        path = str(tmp_path / "bad.bin")
        with open(path, "wb") as fh:
            fh.write(b"\x00" * (RECORD_BYTES + 1))
        with pytest.raises(ValueError, match="record size"):
            load_cifar10(path)

    def test_bad_label_names_record(self, tmp_path):
        path, images, _ = make_file(tmp_path, n=3)
        raw = bytearray(open(path, "rb").read())
        raw[2 * RECORD_BYTES] = 10
        with open(path, "wb") as fh:
            fh.write(raw)
        with pytest.raises(ValueError, match="record 2"):
            load_cifar10(path)

    def test_channel_major_layout(self, tmp_path):
        images = np.zeros((1, 3, 32, 32))
        images[0, 1] = 1.0  # green plane
        path = str(tmp_path / "g.bin")
        write_cifar10(path, images, np.array([0]))
        raw = np.fromfile(path, dtype=np.uint8)
        npt.assert_array_equal(raw[1:1025], 0)
        npt.assert_array_equal(raw[1025:2049], 255)
        npt.assert_array_equal(raw[2049:3073], 0)

    def test_multiple_files_concatenate(self, tmp_path):
        p1, _, l1 = make_file(tmp_path, n=2, seed=1, name="a.bin")
        p2, _, l2 = make_file(tmp_path, n=3, seed=2, name="b.bin")
        src = load_cifar10([p1, p2])
        npt.assert_array_equal(src.labels, np.concatenate([l1, l2]))


class TestDatasetSource:
    def test_standardization_uses_own_stats(self):
        src = synth_dataset(seed=1, classes=2, count=64)
        x = src.standardized()
        assert np.abs(x.mean(axis=(0, 2, 3))).max() < 1e-10
        npt.assert_allclose(x.std(axis=(0, 2, 3)), 1.0, atol=1e-10)

    def test_external_stats_apply(self):
        train = synth_dataset(seed=1, classes=2, count=64)
        test = synth_dataset(seed=2, classes=2, count=32, stats=train.stats)
        npt.assert_array_equal(test.mean, train.mean)
        manual = (test.images - train.mean[:, None, None]) / train.std[:, None, None]
        npt.assert_allclose(test.standardized(), manual)

    def test_synth_deterministic(self):
        a = synth_dataset(seed=7, classes=3, count=10)
        b = synth_dataset(seed=7, classes=3, count=10)
        npt.assert_array_equal(a.images, b.images)
        npt.assert_array_equal(a.labels, b.labels)

    def test_synth_class_separable(self):
        src = synth_dataset(seed=3, classes=2, count=200)
        means = [src.images[src.labels == c].mean(axis=0) for c in (0, 1)]
        gap = np.abs(means[0] - means[1]).mean()
        within = src.images[src.labels == 0].std(axis=0).mean()
        assert gap > within  # template difference dominates noise

    def test_synth_validation(self):
        with pytest.raises(ValueError):
            synth_dataset(seed=0, classes=11)
        with pytest.raises(ValueError):
            synth_dataset(seed=0, classes=2, count=0)

    def test_batches_cover_dataset_once(self):
        src = synth_dataset(seed=4, classes=2, count=10)
        seen = []
        for x, y in src.batches(4):
            assert x.shape[0] == y.shape[0]
            seen.extend(y.tolist())
        assert len(seen) == 10
        npt.assert_array_equal(seen, src.labels)

    def test_batches_shuffle_with_rng(self):
        src = synth_dataset(seed=4, classes=2, count=32)
        got = np.concatenate([y for _, y in
                              src.batches(8, np.random.default_rng(0))])
        assert sorted(got.tolist()) == sorted(src.labels.tolist())
        assert not np.array_equal(got, src.labels)

    def test_labels_validated(self):
        with pytest.raises(ValueError):
            DatasetSource(np.zeros((2, 3, 32, 32)), np.array([0, 10]),
                          np.zeros(3), np.ones(3))


class TestAugmentation:
    def test_shapes_preserved(self):
        x = np.random.default_rng(0).normal(size=(6, 3, 32, 32))
        out = augment_batch(x, np.random.default_rng(1))
        assert out.shape == x.shape

    def test_crop_shifts_content(self):
        x = np.zeros((1, 3, 32, 32))
        x[0, :, 16, 16] = 1.0
        gen = np.random.default_rng(2)
        shifted = [np.argwhere(augment_batch(x, gen)[0, 0] == 1.0)
                   for _ in range(20)]
        assert all(s.shape == (1, 2) for s in shifted)
        positions = {tuple(s[0]) for s in shifted}
        assert len(positions) > 1

    def test_flip_only_mirrors(self):
        """Every output is one of the 81 crops of the zero-padded input,
        mirrored or not; about half are mirrored."""
        n = 400
        x = np.random.default_rng(3).normal(size=(n, 3, 32, 32))
        out = augment_batch(x, np.random.default_rng(4))
        padded = np.pad(x, ((0, 0), (0, 0), (4, 4), (4, 4)))
        mirrored = []
        for i in range(n):
            match = {m for t in range(9) for l in range(9)
                     for m in (False, True)
                     if np.array_equal(out[i, :, :, ::-1] if m else out[i],
                                       padded[i, :, t:t + 32, l:l + 32])}
            assert len(match) == 1, f"sample {i}: crop matches {match}"
            mirrored.append(match.pop())
        assert 0.3 < np.mean(mirrored) < 0.7


class TestConfig:
    GOOD = """
    # desk topology
    model = conv:3:16:3:2:1, dgc:16:32:3:2:1, dgc:32:64:3:2:1, dgc:64:64:3:1:1
    classes = 10
    batch_size = 64
    epochs = 60
    lr = 0.1
    prune_rate = 0.75
    heads = 4
    squeeze = 8
    gating = headwise
    seed = 3
    augment = 1
    """

    def test_parse_good(self):
        cfg = parse_config(self.GOOD)
        assert cfg.classes == 10 and cfg.epochs == 60 and cfg.augment
        assert len(cfg.model) == 4
        assert cfg.model[1] == LayerSpec("dgc", 16, 32, 3, 2, 1)
        assert cfg.momentum == 0.9  # default

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown key 'lrate'"):
            parse_config("model = conv:3:8:3:1:1\nclasses = 2\nlrate = 0.1")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            parse_config("model = conv:3:8:3:1:1\nclasses = 2\nclasses = 3")

    def test_missing_required(self):
        with pytest.raises(ValueError, match="model"):
            parse_config("classes = 2")

    def test_malformed_line(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_config("classes = 2\nnonsense")

    def test_bad_layer_token(self):
        with pytest.raises(ValueError, match="model"):
            parse_config("model = dgc:16:32\nclasses = 2")
        with pytest.raises(ValueError, match="model"):
            parse_config("model = pool:3:8:3:1:1\nclasses = 2")

    def test_shape_consistency_enforced(self):
        with pytest.raises(ValueError, match="input channels"):
            parse_config("model = conv:3:16:3:1:1, dgc:8:32:3:1:1\nclasses = 2")

    def test_sgc_takes_groups(self):
        cfg = parse_config("model = sgc:8:16:3:1:1:4\nclasses = 2")
        assert cfg.model[0].groups == 4
        with pytest.raises(ValueError):
            parse_config("model = sgc:8:16:3:1:1\nclasses = 2")
        with pytest.raises(ValueError, match="not divisible by 3 groups"):
            parse_config("model = sgc:8:16:3:1:1:3\nclasses = 2")

    @pytest.mark.parametrize("kind", ["conv", "dgc"])
    def test_groups_only_on_sgc(self, kind):
        with pytest.raises(ValueError, match="groups"):
            LayerSpec(kind, 8, 16, 3, 1, 1, groups=2)
        assert LayerSpec(kind, 8, 16, 3, 1, 1, groups=1).groups == 1

    def test_gating_mode_validated(self):
        with pytest.raises(ValueError, match="gating"):
            parse_config("model = conv:3:8:3:1:1\nclasses = 2\ngating = magic")

    def test_prune_rate_range(self):
        with pytest.raises(ValueError, match="prune_rate"):
            parse_config("model = conv:3:8:3:1:1\nclasses = 2\nprune_rate = 1.0")

    def test_serialize_round_trip(self):
        cfg = parse_config(self.GOOD)
        assert parse_config(serialize_config(cfg)) == cfg

    def test_round_trip_preserves_floats_exactly(self):
        cfg = TrainConfig(model=(LayerSpec("conv", 3, 8),), classes=2,
                          lr=0.07, lasso=3.3e-6, prune_rate=2.0 / 3.0)
        back = parse_config(serialize_config(cfg))
        assert back.lr == cfg.lr and back.lasso == cfg.lasso
        assert back.prune_rate == cfg.prune_rate
