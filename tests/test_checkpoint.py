"""Checkpoint format, validation, and lossless round trips."""

import json
import os
import tempfile

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dgconv.checkpoint import (
    MAGIC,
    load_checkpoint,
    restore_network,
    restore_optimizer,
    save_checkpoint,
)
from dgconv.config import parse_config
from dgconv.core import SGD
from dgconv.dgc import HeadwiseGating
from dgconv.global_threshold import GlobalThresholdState
from dgconv.model import DgcNetwork
from conftest import rewrite_manifest

CFG = """
model = conv:3:4:3:1:1, dgc:4:4:3:1:1
classes = 2
heads = 2
squeeze = 2
prune_rate = 0.5
seed = 9
"""
# Training standardization (mean, std) per image channel.
STATS = (np.array([0.1 / 3, 0.5, 0.7]), np.array([0.2, 1 / 7, 0.3]))


def trained_state(seed=9):
    cfg = parse_config(CFG)
    net = DgcNetwork(cfg, np.random.default_rng(seed))
    opt = SGD(params=net.parameters(), lr=0.1, no_decay=net.no_decay_names())
    gen = np.random.default_rng(seed + 1)
    x = gen.normal(size=(4, 3, 6, 6))
    fwd = net.forward(x, HeadwiseGating(0.5), training=True)
    grads = net.backward(fwd, gen.normal(size=fwd.logits.shape))
    opt.step(grads)
    return net, opt, gen


class TestRoundTrip:
    def test_save_load_save_byte_identical(self, tmp_path):
        net, opt, rng = trained_state()
        p1, p2 = str(tmp_path / "a.ckpt"), str(tmp_path / "b.ckpt")
        state = GlobalThresholdState(threshold=0.25, last_update_epoch=2)
        save_checkpoint(p1, net, opt, epoch=3, rng=rng, threshold_state=state, stats=STATS)
        ckpt = load_checkpoint(p1)
        net2 = restore_network(ckpt)
        opt2 = restore_optimizer(ckpt, net2)
        rng2 = np.random.default_rng(0)
        rng2.bit_generator.state = ckpt.rng_state
        from dgconv.checkpoint import restore_threshold
        save_checkpoint(p2, net2, opt2, epoch=ckpt.epoch, rng=rng2,
                        threshold_state=restore_threshold(ckpt),
                        stats=ckpt.stats)
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_older_schedule_entry_is_ignored(self, tmp_path):
        net, opt, rng = trained_state()
        path = str(tmp_path / "old.ckpt")
        save_checkpoint(path, net, opt, epoch=1, rng=rng, stats=STATS)
        new = load_checkpoint(path)

        def add_schedule(manifest):
            assert "schedule" not in manifest
            manifest["schedule"] = {"total_epochs": 60, "target": 0.5}

        rewrite_manifest(path, add_schedule)
        old = load_checkpoint(path)
        assert old.arrays.keys() == new.arrays.keys()
        for name, arr in new.arrays.items():
            npt.assert_array_equal(old.arrays[name], arr)

    def test_values_restored_exactly(self, tmp_path):
        net, opt, rng = trained_state()
        path = str(tmp_path / "c.ckpt")
        save_checkpoint(path, net, opt, epoch=1, rng=rng, stats=STATS)
        originals = {k: v.copy() for k, v in net.parameters().items()}
        bn_mean = net.blocks[0].bn.running_mean.copy()
        for v in net.parameters().values():
            v += 1.0
        net2 = restore_network(load_checkpoint(path))
        for k, v in net2.parameters().items():
            npt.assert_array_equal(v, originals[k])
        npt.assert_array_equal(net2.blocks[0].bn.running_mean, bn_mean)
        assert net2.bn_batches_tracked() == net.bn_batches_tracked()

    def test_rng_state_round_trips(self, tmp_path):
        net, opt, rng = trained_state()
        path = str(tmp_path / "d.ckpt")
        save_checkpoint(path, net, opt, epoch=1, rng=rng, stats=STATS)
        expect = rng.normal(size=5)
        rng2 = np.random.default_rng(123)
        rng2.bit_generator.state = load_checkpoint(path).rng_state
        npt.assert_array_equal(rng2.normal(size=5), expect)

    def test_optimizer_velocities_restored(self, tmp_path):
        net, opt, rng = trained_state()
        path = str(tmp_path / "e.ckpt")
        save_checkpoint(path, net, opt, epoch=1, rng=rng, stats=STATS)
        ckpt = load_checkpoint(path)
        opt2 = restore_optimizer(ckpt, restore_network(ckpt))
        for name, v in opt.velocities.items():
            npt.assert_array_equal(opt2.velocities[name], v)
        assert np.abs(opt.velocities["fc.weight"]).max() > 0

    def test_missing_velocities_rejected_on_resume(self, tmp_path):
        """A checkpoint without its opt.* rows still restores the network,
        which is all evaluation reads, but not the optimizer: zero
        velocities would make a resumed run silently differ."""
        net, opt, rng = trained_state()
        opt.velocities.clear()
        path = str(tmp_path / "nov.ckpt")
        save_checkpoint(path, net, opt, epoch=1, rng=rng, stats=STATS)
        ckpt = load_checkpoint(path)
        net2 = restore_network(ckpt)
        with pytest.raises(ValueError, match="lacks optimizer velocities.*opt"):
            restore_optimizer(ckpt, net2)

    def test_misshapen_velocity_rejected(self, tmp_path):
        """A (1, 1) velocity is not broadcast into the (4, 2) fc.weight."""
        net, opt, rng = trained_state()
        opt.velocities["fc.weight"] = np.array([[0.5]])
        path = str(tmp_path / "vshape.ckpt")
        save_checkpoint(path, net, opt, epoch=1, rng=rng, stats=STATS)
        ckpt = load_checkpoint(path)
        with pytest.raises(ValueError, match="opt.fc.weight has shape"):
            restore_optimizer(ckpt, restore_network(ckpt))

    def test_threshold_state_persisted(self, tmp_path):
        net, opt, rng = trained_state()
        path = str(tmp_path / "f.ckpt")
        state = GlobalThresholdState(threshold=0.125, last_update_epoch=5)
        save_checkpoint(path, net, opt, epoch=6, rng=rng, threshold_state=state, stats=STATS)
        ckpt = load_checkpoint(path)
        assert ckpt.threshold == 0.125
        assert ckpt.threshold_last_update == 5


    def test_standardization_restored_exactly(self, tmp_path):
        net, opt, rng = trained_state()
        path = str(tmp_path / "g.ckpt")
        save_checkpoint(path, net, opt, epoch=1, rng=rng, stats=STATS)
        for got, want in zip(load_checkpoint(path).stats, STATS):
            npt.assert_array_equal(got, want)


class TestValidation:
    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOTCKPT 9\n{}")
        with pytest.raises(ValueError, match="header"):
            load_checkpoint(str(path))

    def test_truncated_blob_rejected(self, tmp_path):
        net, opt, rng = trained_state()
        path = str(tmp_path / "t.ckpt")
        save_checkpoint(path, net, opt, epoch=1, rng=rng, stats=STATS)
        data = open(path, "rb").read()
        open(path, "wb").write(data[:-16])
        with pytest.raises(ValueError, match="blob"):
            load_checkpoint(path)

    def test_tampered_offsets_rejected(self, tmp_path):
        net, opt, rng = trained_state()
        path = str(tmp_path / "o.ckpt")
        save_checkpoint(path, net, opt, epoch=1, rng=rng, stats=STATS)
        with open(path, "rb") as fh:
            assert fh.readline() == MAGIC
            length = int(fh.readline())
            manifest = json.loads(fh.read(length))
            blob = fh.read()
        manifest["params"][1][2] += 1  # shift an offset
        payload = json.dumps(manifest).encode()
        with open(path, "wb") as fh:
            fh.write(MAGIC + f"{len(payload)}\n".encode() + payload + blob)
        with pytest.raises(ValueError, match="partition"):
            load_checkpoint(path)

    @pytest.mark.parametrize("key", ["rng_state", "params", "blob_elements",
                                     "threshold", "config", "mean", "std"])
    def test_missing_manifest_key_named(self, tmp_path, key):
        net, opt, rng = trained_state()
        path = str(tmp_path / "k.ckpt")
        save_checkpoint(path, net, opt, epoch=1, rng=rng, stats=STATS)
        rewrite_manifest(path, lambda manifest: manifest.pop(key))
        with pytest.raises(ValueError, match=f"manifest lacks.*{key}"):
            load_checkpoint(path)

    @pytest.mark.parametrize("edit", [
        lambda manifest: manifest["std"].pop(),
        lambda manifest: manifest["std"].__setitem__(0, 0.0),
    ], ids=["lengths_differ", "zero_std"])
    def test_bad_standardization_rejected(self, tmp_path, edit):
        net, opt, rng = trained_state()
        path = str(tmp_path / "m.ckpt")
        save_checkpoint(path, net, opt, epoch=1, rng=rng, stats=STATS)
        rewrite_manifest(path, edit)
        with pytest.raises(ValueError, match="mean and std"):
            load_checkpoint(path)

    def test_shape_drift_rejected(self, tmp_path):
        net, opt, rng = trained_state()
        path = str(tmp_path / "s.ckpt")
        save_checkpoint(path, net, opt, epoch=1, rng=rng, stats=STATS)
        ckpt = load_checkpoint(path)
        ckpt.arrays["fc.weight"] = ckpt.arrays["fc.weight"][:, :1]
        with pytest.raises(ValueError, match="shape"):
            restore_network(ckpt)

    def test_failed_save_leaves_no_partial_file(self, tmp_path, monkeypatch):
        net, opt, rng = trained_state()
        path = str(tmp_path / "atomic.ckpt")
        save_checkpoint(path, net, opt, epoch=1, rng=rng, stats=STATS)
        before = open(path, "rb").read()

        import dgconv.checkpoint as cp

        def boom(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(cp.os, "replace", boom)
        with pytest.raises(OSError):
            save_checkpoint(path, net, opt, epoch=2, rng=rng, stats=STATS)
        monkeypatch.undo()
        assert open(path, "rb").read() == before
        leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
        assert not leftovers


class TestManifestTypes:
    @pytest.mark.parametrize("key,value,want", [
        ("mean", {"a": 1}, "mean must be a list of finite numbers"),
        ("mean", [float("nan")] * 3, "mean must be a list of finite numbers"),
        ("std", [float("inf")] * 3, "std must be a list of finite numbers"),
        ("mean", [], "non-empty"),
        ("blob_elements", None, "blob_elements must be an integer"),
        ("blob_elements", True, "blob_elements must be an integer"),
        ("params", 5, "params must be a list"),
        ("params", [["fc.weight", [2, -1], 0]], "params must be a list"),
        ("config", 7, "config must be config text"),
        ("epoch", 1.5, "epoch must be an integer"),
        ("bn_batches_tracked", [None], "bn_batches_tracked must be"),
        ("threshold", "0.5", "threshold must be null or a finite number"),
        ("threshold_last_update", 2.0, "threshold_last_update must be"),
        ("rng_state", {"bit_generator": "PCG64"}, "rng_state"),
    ])
    def test_wrong_type_named(self, tmp_path, key, value, want):
        net, opt, rng = trained_state()
        path = str(tmp_path / "w.ckpt")
        save_checkpoint(path, net, opt, epoch=1, rng=rng, stats=STATS)
        rewrite_manifest(path, lambda manifest: manifest.__setitem__(key, value))
        with pytest.raises(ValueError, match=want):
            load_checkpoint(path)

    def test_manifest_length_out_of_range(self, tmp_path):
        path = tmp_path / "n.ckpt"
        path.write_bytes(MAGIC + b"-3\n{}")
        with pytest.raises(ValueError, match="out of range"):
            load_checkpoint(str(path))


def _checkpoint_bytes():
    net, opt, rng = trained_state()
    state = GlobalThresholdState(threshold=0.25, last_update_epoch=2)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fuzz.ckpt")
        save_checkpoint(path, net, opt, epoch=3, rng=rng, threshold_state=state,
                        stats=STATS)
        return open(path, "rb").read()


FUZZ_CHECKPOINT = _checkpoint_bytes()
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=8)
    | st.floats(allow_nan=True, allow_infinity=True),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12)


def _load_bytes(tmp_dir, data):
    path = os.path.join(tmp_dir, "fuzzed.ckpt")
    with open(path, "wb") as fh:
        fh.write(data)
    return load_checkpoint(path)


class TestFuzz:
    """Damaged checkpoint files leave load_checkpoint as a ValueError and
    as no other exception."""

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_truncated_file_rejected(self, data):
        cut = data.draw(st.integers(0, len(FUZZ_CHECKPOINT) - 1))
        with tempfile.TemporaryDirectory() as tmp:
            with pytest.raises(ValueError):
                _load_bytes(tmp, FUZZ_CHECKPOINT[:cut])

    @settings(max_examples=300, deadline=None)
    @given(st.data(), JSON_VALUES)
    def test_replaced_manifest_value(self, data, value):
        head, length, rest = FUZZ_CHECKPOINT.split(b"\n", 2)
        manifest = json.loads(rest[:int(length)])
        blob = rest[int(length):]
        # Walk from a top-level key into nested containers, then replace.
        parent, key = manifest, data.draw(st.sampled_from(sorted(manifest)))
        while isinstance(parent[key], (list, dict)) and parent[key] \
                and data.draw(st.booleans()):
            parent = parent[key]
            key = data.draw(st.sampled_from(
                sorted(parent) if isinstance(parent, dict)
                else range(len(parent))))
        parent[key] = value
        payload = json.dumps(manifest).encode()
        fuzzed = head + b"\n" + f"{len(payload)}\n".encode() + payload + blob
        with tempfile.TemporaryDirectory() as tmp:
            try:
                _load_bytes(tmp, fuzzed)
            except ValueError:
                pass
