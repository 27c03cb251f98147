"""Self-test of the benchmark's output checks.

Each workload runs one round, its checks must pass, and each check must
then reject the same output perturbed by 1e-6 (relative for floats, by
one for counts).  Run from the repository root:

    python3 -m pytest perfbench/test_checks.py -q
"""

import math
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import dgconv as D  # noqa: E402
import workloads as W  # noqa: E402

PERTURB = 1e-6


def bumped(a: np.ndarray) -> np.ndarray:
    """Copy of a with its largest-magnitude entry moved by 1e-6 of itself."""
    out = np.array(a, dtype=np.float64, copy=True)
    i = np.argmax(np.abs(out))
    out.flat[i] += PERTURB * abs(out.flat[i])
    return out


def ran(cls, tmp_path_factory, *args):
    wl = cls(*args, 7, str(tmp_path_factory.mktemp("wl")))
    wl.setup()
    wl.run_round()
    assert wl.check() == []
    return wl


def rejects(wl, fragment: str) -> None:
    errors = wl.check()
    assert any(fragment in e for e in errors), errors


# -- layer_b1 -----------------------------------------------------------------

@pytest.fixture(scope="module")
def b1(tmp_path_factory):
    return ran(W.LayerB1, tmp_path_factory)


@pytest.mark.parametrize("variant, fragment", [
    ("dense", "conv2d_forward differs"),
    ("grouped", "sgc_forward differs"),
    ("plan", "execute_plan differs"),
])
def test_b1_rejects_perturbed_output(b1, monkeypatch, variant, fragment):
    out = b1.cases[1]["out"]
    monkeypatch.setitem(out, variant, bumped(out[variant]))
    rejects(b1, fragment)


def test_b1_rejects_perturbed_gated_output(b1, monkeypatch):
    fwd = b1.cases[2]["out"]["gated"]
    monkeypatch.setattr(fwd, "output", bumped(fwd.output))
    rejects(b1, "dgc_forward differs")


def test_b1_rejects_wrong_kept_count(b1, monkeypatch):
    fwd = b1.cases[0]["out"]["gated"]
    mask = fwd.masks[0].copy()
    mask[0, np.flatnonzero(mask[0])[0]] = False
    monkeypatch.setattr(fwd, "masks", [mask] + fwd.masks[1:])
    rejects(b1, "expected")


# -- eval_headwise / eval_global -------------------------------------------------

@pytest.fixture(scope="module", params=["headwise", "global"])
def ev(request, tmp_path_factory):
    wl = W.EvalDesk(request.param, 7, str(tmp_path_factory.mktemp("ev")))
    wl.setup()
    wl.run_round()
    assert wl.check() == []
    return wl


def test_eval_rejects_perturbed_logits(ev, monkeypatch):
    forward = D.model.DgcNetwork.forward

    def perturbed(self, *args, **kwargs):
        out = forward(self, *args, **kwargs)
        out.logits = bumped(out.logits)
        return out

    monkeypatch.setattr(D.model.DgcNetwork, "forward", perturbed)
    rejects(ev, "logits differ")


def test_eval_rejects_perturbed_accuracy(ev, monkeypatch):
    monkeypatch.setattr(ev.result, "accuracy", ev.result.accuracy * (1 + PERTURB))
    rejects(ev, "accuracy")


def test_eval_rejects_perturbed_prune_rate(ev, monkeypatch):
    rates = list(ev.result.per_layer_prune_rates)
    rates[1] *= 1 + PERTURB
    monkeypatch.setattr(ev.result, "per_layer_prune_rates", rates)
    rejects(ev, "prune rates")


def test_eval_rejects_mac_count_off_by_one(ev, monkeypatch):
    monkeypatch.setattr(ev.result, "macs_per_sample", ev.result.macs_per_sample + 1)
    rejects(ev, "macs_per_sample")


def test_eval_rejects_perturbed_threshold(ev, monkeypatch):
    if ev.mode != "global":
        pytest.skip("head-wise gating has no threshold")
    monkeypatch.setattr(ev, "gate", ("threshold", ev.gate[1] * (1 + PERTURB)))
    rejects(ev, "rank statistic")


# -- train_desk -----------------------------------------------------------------

@pytest.fixture(scope="module")
def tr(tmp_path_factory):
    return ran(W.TrainDesk, tmp_path_factory)


@pytest.mark.parametrize("field, fragment", [
    ("active_prune_rate", "active rate"),
    ("realized_prune_rate", "realized rate"),
])
def test_train_rejects_perturbed_rate(tr, monkeypatch, field, fragment):
    m = tr.result.history[2]
    monkeypatch.setattr(m, field, getattr(m, field) + PERTURB)
    rejects(tr, fragment)


def test_train_rejects_non_finite_loss(tr, monkeypatch):
    monkeypatch.setattr(tr.result.history[0], "loss_lasso", math.nan)
    rejects(tr, "non-finite")


def test_train_rejects_cross_entropy_at_chance(tr, monkeypatch):
    monkeypatch.setattr(tr.result.history[-1], "loss_ce", math.log(W.CLASSES))
    rejects(tr, "cross-entropy")


def test_train_rejects_checkpoint_mismatch(tr, monkeypatch):
    net = tr.result.net
    monkeypatch.setattr(net, "fc_weight", bumped(net.fc_weight))
    rejects(tr, "reloaded checkpoint")


def test_train_rejects_perturbed_gradient(tr, monkeypatch):
    backward = D.model.DgcNetwork.backward

    def perturbed(self, *args, **kwargs):
        return {k: v * (1 + PERTURB) for k, v in
                backward(self, *args, **kwargs).items()}

    monkeypatch.setattr(D.model.DgcNetwork, "backward", perturbed)
    rejects(tr, "finite difference")
