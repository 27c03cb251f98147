"""Command-line interface tests: exit codes, file outputs, determinism."""

import os
import re

import numpy as np
import numpy.testing as npt
import pytest

from dgconv.cli import EXIT_ASSERT, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, main
from dgconv.checkpoint import load_checkpoint, restore_network
from dgconv.data import load_cifar10, synth_dataset, write_cifar10
from dgconv.runtime import BenchResult, read_bench_csv
from dgconv.train import (METRICS_HEADER, evaluate, read_eval_csv,
                          read_metrics_csv)
from dgconv.vis import read_matrix_csv
from conftest import rewrite_manifest

CFG = """
model = conv:3:4:3:2:1, dgc:4:8:3:2:1
classes = 2
batch_size = 32
epochs = 2
lr = 0.05
heads = 2
squeeze = 4
prune_rate = 0.5
seed = 3
"""

DATA_ARGS = ["--train-count", "96", "--eval-count", "48"]


@pytest.fixture
def cfg_path(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(CFG)
    return str(path)


def shifted_datasets(tmp_path):
    """A training file and an evaluation file whose own per-channel
    statistics differ: the evaluation images are squeezed and brightened."""
    train = synth_dataset(seed=0, classes=2, count=96)
    held = synth_dataset(seed=1, classes=2, count=48)
    train_bin, eval_bin = str(tmp_path / "train.bin"), str(tmp_path / "eval.bin")
    write_cifar10(train_bin, train.images, train.labels)
    write_cifar10(eval_bin, 0.5 * held.images + 0.4, held.labels)
    return train_bin, eval_bin


def run_train(tmp_path, cfg_path, name="run", extra=()):
    out = str(tmp_path / name)
    code = main(["train", "--config", cfg_path, "--out", out,
                 *DATA_ARGS, *extra])
    return code, out


class TestExitCodes:
    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == EXIT_OK
        assert main(["train", "--help"]) == EXIT_OK
        capsys.readouterr()

    def test_missing_subcommand_is_usage_error(self, capsys):
        assert main([]) == EXIT_USAGE
        capsys.readouterr()

    def test_unknown_flag_is_usage_error(self, capsys):
        assert main(["bench", "--bogus"]) == EXIT_USAGE
        capsys.readouterr()

    def test_missing_config_names_path(self, tmp_path, capsys):
        missing = str(tmp_path / "absent.cfg")
        assert main(["train", "--config", missing]) == EXIT_USAGE
        assert missing in capsys.readouterr().err

    def test_config_directory_is_usage_error(self, tmp_path, capsys):
        assert main(["train", "--config", str(tmp_path)]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: ")

    def test_out_naming_a_file_is_usage_error(self, tmp_path, cfg_path,
                                              capsys):
        taken = tmp_path / "taken"
        taken.write_text("")
        code = main(["train", "--config", cfg_path, "--out", str(taken),
                     *DATA_ARGS])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: ")

    def test_invalid_config_key_named(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text(CFG + "lrate = 0.1\n")
        assert main(["train", "--config", str(path)]) == EXIT_USAGE
        assert "lrate" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_loss_is_numeric_error(self, tmp_path, capsys):
        path = tmp_path / "explode.cfg"
        path.write_text(CFG.replace("lr = 0.05", "lr = 1e300"))
        code = main(["train", "--config", str(path),
                     "--out", str(tmp_path / "run"), *DATA_ARGS])
        assert code == EXIT_NUMERIC
        assert "non-finite" in capsys.readouterr().err


class TestTrain:
    def test_one_epoch_emits_one_metrics_line(self, tmp_path, cfg_path,
                                              capsys):
        code, out = run_train(tmp_path, cfg_path, extra=["--epochs", "1"])
        assert code == EXIT_OK
        lines = read_metrics_csv(os.path.join(out, "metrics.csv"))
        assert len(lines) == 1 and lines[0].epoch == 0
        head = capsys.readouterr().out.splitlines()[0]
        assert head.startswith("# dgconv train seed=3")
        assert os.path.exists(os.path.join(out, "model.ckpt"))

    def test_progress_on_stderr_and_stdout_unchanged(self, tmp_path,
                                                     cfg_path, capsys):
        code, out = run_train(tmp_path, cfg_path)
        assert code == EXIT_OK
        captured = capsys.readouterr()
        metrics_path = os.path.join(out, "metrics.csv")
        history = read_metrics_csv(metrics_path)
        assert captured.out.splitlines() == [
            f"# dgconv train seed=3 config={cfg_path} epochs=2 images=96",
            METRICS_HEADER,
            history[-1].csv_line(),
            f"metrics: {metrics_path}",
            f"checkpoint: {os.path.join(out, 'model.ckpt')}",
        ]
        lines = captured.err.splitlines()
        assert len(lines) == len(history) == 2
        for i, (line, m) in enumerate(zip(lines, history)):
            match = re.fullmatch(r"epoch (\d+)/2: loss=(\S+) "
                                 r"realized_prune_rate=(\S+) seconds=(\S+)",
                                 line)
            assert match, line
            assert int(match[1]) == i + 1
            assert match[2] == f"{m.loss_total:.6g}"
            assert match[3] == f"{m.realized_prune_rate:.4f}"
            assert float(match[4]) >= 0

    def test_count_below_one_is_usage_error(self, tmp_path, cfg_path,
                                            capsys):
        code = main(["train", "--config", cfg_path, "--epochs", "1",
                     "--out", str(tmp_path / "run"), "--train-count", "200",
                     "--eval-count", "0"])
        assert code == EXIT_USAGE
        assert "--eval-count: must be >= 1, got 0" in capsys.readouterr().err

    def test_seed_flag_overrides_config(self, tmp_path, cfg_path, capsys):
        code, _ = run_train(tmp_path, cfg_path,
                            extra=["--epochs", "1", "--seed", "9"])
        assert code == EXIT_OK
        assert "seed=9" in capsys.readouterr().out.splitlines()[0]

    def test_interrupted_run_resumes_bit_identically(self, tmp_path,
                                                     cfg_path, monkeypatch,
                                                     capsys):
        import dgconv.train as train_mod
        code, full = run_train(tmp_path, cfg_path, "full")
        assert code == EXIT_OK

        real = train_mod.train_epoch

        def interrupt(net, optimizer, data, epoch, *rest, **kw):
            if epoch == 1:
                raise RuntimeError("simulated crash")
            return real(net, optimizer, data, epoch, *rest, **kw)

        monkeypatch.setattr(train_mod, "train_epoch", interrupt)
        code, part = run_train(tmp_path, cfg_path, "part")
        assert code == EXIT_NUMERIC
        monkeypatch.setattr(train_mod, "train_epoch", real)
        ckpt = os.path.join(part, "model.ckpt")
        assert load_checkpoint(ckpt).epoch == 1
        code = main(["train", "--config", cfg_path, "--out", part,
                     "--resume", ckpt, *DATA_ARGS])
        assert code == EXIT_OK
        with open(os.path.join(full, "metrics.csv")) as a, \
                open(os.path.join(part, "metrics.csv")) as b:
            assert a.read() == b.read()
        capsys.readouterr()

    def test_resume_with_changed_config_rejected(self, tmp_path, cfg_path,
                                                 capsys):
        code, out = run_train(tmp_path, cfg_path)
        assert code == EXIT_OK
        code = main(["train", "--config", cfg_path, "--out", out,
                     "--resume", os.path.join(out, "model.ckpt"),
                     "--epochs", "4", *DATA_ARGS])
        assert code == EXIT_USAGE
        assert "config differs" in capsys.readouterr().err

    def test_resume_on_other_data_rejected(self, tmp_path, cfg_path, capsys):
        code, out = run_train(tmp_path, cfg_path, extra=["--epochs", "1"])
        assert code == EXIT_OK
        code = main(["train", "--config", cfg_path, "--out", out,
                     "--resume", os.path.join(out, "model.ckpt"),
                     "--epochs", "1", "--train-count", "64",
                     "--eval-count", "48"])
        assert code == EXIT_USAGE
        assert "statistics differ" in capsys.readouterr().err

    def test_binary_dataset_file(self, tmp_path, cfg_path, capsys):
        src = synth_dataset(seed=0, classes=2, count=64)
        bin_path = str(tmp_path / "batch.bin")
        write_cifar10(bin_path, src.images, src.labels)
        code = main(["train", "--config", cfg_path,
                     "--out", str(tmp_path / "run"),
                     "--dataset", bin_path, "--epochs", "1"])
        assert code == EXIT_OK
        assert "images=64" in capsys.readouterr().out

    def test_dataset_path_errors(self, tmp_path, cfg_path, capsys):
        code = main(["train", "--config", cfg_path,
                     "--dataset", str(tmp_path / "nope.bin")])
        assert code == EXIT_USAGE
        assert "nope.bin" in capsys.readouterr().err
        empty = tmp_path / "emptydir"
        empty.mkdir()
        code = main(["train", "--config", cfg_path,
                     "--dataset", str(empty)])
        assert code == EXIT_USAGE
        assert "no .bin files" in capsys.readouterr().err


    def test_labels_beyond_classes_are_usage_error(self, tmp_path, cfg_path,
                                                  capsys):
        src = synth_dataset(seed=0, classes=10, count=64)
        bin_path = str(tmp_path / "ten.bin")
        write_cifar10(bin_path, src.images, src.labels)
        code = main(["train", "--config", cfg_path,
                     "--out", str(tmp_path / "run"),
                     "--dataset", bin_path, "--epochs", "1"])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"label {src.labels[src.labels >= 2][0]} " in err
        assert "classes = 2" in err


class TestEval:
    def test_labels_beyond_classes_are_usage_error(self, tmp_path, cfg_path,
                                                  capsys):
        _, out = run_train(tmp_path, cfg_path, extra=["--epochs", "1"])
        src = synth_dataset(seed=0, classes=10, count=64)
        bin_path = str(tmp_path / "ten.bin")
        write_cifar10(bin_path, src.images, src.labels)
        capsys.readouterr()
        code = main(["eval", "--checkpoint", os.path.join(out, "model.ckpt"),
                     "--dataset", bin_path])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"label {src.labels[src.labels >= 2][0]} " in err
        assert "classes = 2" in err

    def test_same_checkpoint_twice_identical_table(self, tmp_path, cfg_path,
                                                   capsys):
        _, out = run_train(tmp_path, cfg_path)
        ckpt = os.path.join(out, "model.ckpt")
        capsys.readouterr()
        assert main(["eval", "--checkpoint", ckpt, *DATA_ARGS]) == EXIT_OK
        first = capsys.readouterr().out
        assert main(["eval", "--checkpoint", ckpt, *DATA_ARGS]) == EXIT_OK
        assert capsys.readouterr().out == first
        assert first.splitlines()[0].startswith("# dgconv eval seed=3")

    def test_table_matches_direct_evaluate(self, tmp_path, cfg_path, capsys):
        _, out = run_train(tmp_path, cfg_path)
        ckpt_path = os.path.join(out, "model.ckpt")
        table = str(tmp_path / "eval.csv")
        assert main(["eval", "--checkpoint", ckpt_path, "--out", table,
                     *DATA_ARGS]) == EXIT_OK
        capsys.readouterr()
        with open(table) as fh:
            parsed = read_eval_csv(fh.read().splitlines())
        net = restore_network(load_checkpoint(ckpt_path))
        data = synth_dataset(seed=3, classes=2, count=96 + 48).split(96)[1]
        direct = evaluate(net, data)
        assert parsed.csv_lines() == direct.csv_lines()
        assert parsed.macs_per_sample == direct.macs_per_sample

    def test_checkpoint_missing_manifest_key_is_usage_error(
            self, tmp_path, cfg_path, capsys):
        _, out = run_train(tmp_path, cfg_path)
        ckpt = os.path.join(out, "model.ckpt")
        rewrite_manifest(ckpt, lambda manifest: manifest.pop("rng_state"))
        capsys.readouterr()
        assert main(["eval", "--checkpoint", ckpt, *DATA_ARGS]) == EXIT_USAGE
        assert "rng_state" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [
        ("mean", {"a": 1}), ("blob_elements", None), ("params", 5),
        ("mean", [float("nan")] * 3), ("std", [float("inf")] * 3),
    ], ids=["mean_dict", "blob_elements_null", "params_int", "mean_nan",
            "std_inf"])
    def test_malformed_manifest_is_usage_error(self, tmp_path, cfg_path,
                                               capsys, key, value):
        _, out = run_train(tmp_path, cfg_path, extra=["--epochs", "1"])
        ckpt = os.path.join(out, "model.ckpt")
        rewrite_manifest(ckpt, lambda manifest: manifest.__setitem__(key,
                                                                     value))
        capsys.readouterr()
        assert main(["eval", "--checkpoint", ckpt, *DATA_ARGS]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"manifest {key} must be" in err
        assert "Traceback" not in err

    def test_batch_size_below_one_is_usage_error(self, tmp_path, cfg_path,
                                                 capsys):
        _, out = run_train(tmp_path, cfg_path, extra=["--epochs", "1"])
        capsys.readouterr()
        code = main(["eval", "--checkpoint", os.path.join(out, "model.ckpt"),
                     "--batch-size", "0", *DATA_ARGS])
        assert code == EXIT_USAGE
        assert "--batch-size: must be >= 1, got 0" in capsys.readouterr().err

    def test_checkpoint_without_standardization_is_usage_error(
            self, tmp_path, cfg_path, capsys):
        _, out = run_train(tmp_path, cfg_path, extra=["--epochs", "1"])
        ckpt = os.path.join(out, "model.ckpt")
        rewrite_manifest(ckpt, lambda manifest: [manifest.pop(key)
                                                 for key in ("mean", "std")])
        capsys.readouterr()
        assert main(["eval", "--checkpoint", ckpt, *DATA_ARGS]) == EXIT_USAGE
        assert "manifest lacks mean, std" in capsys.readouterr().err
        code = main(["visualize", "--checkpoint", ckpt,
                     "--out", str(tmp_path / "vis"), *DATA_ARGS])
        assert code == EXIT_USAGE
        assert "manifest lacks mean, std" in capsys.readouterr().err

    def test_dataset_standardized_with_training_statistics(
            self, tmp_path, cfg_path, capsys):
        train_bin, eval_bin = shifted_datasets(tmp_path)
        out = str(tmp_path / "run")
        assert main(["train", "--config", cfg_path, "--out", out,
                     "--dataset", train_bin, "--epochs", "1"]) == EXIT_OK
        ckpt_path = os.path.join(out, "model.ckpt")
        table = str(tmp_path / "eval.csv")
        assert main(["eval", "--checkpoint", ckpt_path, "--dataset", eval_bin,
                     "--out", table]) == EXIT_OK
        capsys.readouterr()
        with open(table) as fh:
            parsed = read_eval_csv(fh.read().splitlines())
        ckpt = load_checkpoint(ckpt_path)
        stats = load_cifar10(train_bin).stats
        for got, want in zip(ckpt.stats, stats):
            npt.assert_array_equal(got, want)
        net = restore_network(ckpt)
        direct = evaluate(net, load_cifar10(eval_bin, stats))
        assert parsed.csv_lines() == direct.csv_lines()
        own = evaluate(net, load_cifar10(eval_bin))
        assert own.csv_lines() != direct.csv_lines()

    def test_missing_checkpoint_is_usage_error(self, tmp_path, capsys):
        code = main(["eval", "--checkpoint", str(tmp_path / "no.ckpt")])
        assert code == EXIT_USAGE
        assert "no.ckpt" in capsys.readouterr().err

    def test_checkpoint_directory_is_usage_error(self, tmp_path, capsys):
        assert main(["eval", "--checkpoint", str(tmp_path)]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: ")


def fake_results(sgc=1.0, dgc=2.0, dense=3.0):
    rows = []
    for variant, med in (("dense", dense), ("sgc", sgc), ("dgc", dgc)):
        comp = {"saliency": med / 4, "index": med / 4,
                "conv": med / 2} if variant == "dgc" else {}
        rows.append(BenchResult(variant, "8x8x6x6k3", 1, 3, 1, med,
                                med / 10, med, comp))
    return rows


class TestBench:
    def test_rows_parse_and_seed_reported(self, tmp_path, capsys):
        table = str(tmp_path / "bench.csv")
        code = main(["bench", "--shapes", "4x4x5k3", "--repeats", "3",
                     "--warmup", "1", "--seed", "7", "--out", table])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert out.splitlines()[0].startswith("# dgconv bench seed=7")
        with open(table) as fh:
            parsed = read_bench_csv(fh.read().splitlines())
        assert sorted(r.variant for r in parsed) == ["dense", "dgc", "sgc"]
        dgc = next(r for r in parsed if r.variant == "dgc")
        assert set(dgc.components_s) == {"saliency", "index", "conv"}

    def test_repeats_one_warns(self, capsys):
        code = main(["bench", "--shapes", "4x4x5k3", "--repeats", "1",
                     "--warmup", "1", "--variants", "dense"])
        assert code == EXIT_OK
        assert "dispersion" in capsys.readouterr().err

    @pytest.mark.parametrize("threads", ["0", "-2"])
    def test_threads_below_one_is_usage_error(self, monkeypatch, capsys,
                                              threads):
        import dgconv.cli as cli_mod
        monkeypatch.setattr(cli_mod, "run_benchmark",
                            lambda *a, **k: fake_results())
        code = main(["bench", "--threads", threads])
        assert code == EXIT_USAGE
        assert f"--threads: must be >= 1, got {threads}" in \
            capsys.readouterr().err

    def test_negative_warmup_is_usage_error(self, capsys):
        code = main(["bench", "--shapes", "4x4x5k3", "--repeats", "2",
                     "--warmup", "-3", "--variants", "dense"])
        assert code == EXIT_USAGE
        assert "--warmup: must be >= 0, got -3" in capsys.readouterr().err

    def test_zero_kernel_size_is_usage_error(self, capsys):
        code = main(["bench", "--shapes", "4x4x4k0", "--repeats", "2"])
        assert code == EXIT_USAGE
        assert "kernel_size must be >= 1, got 0" in capsys.readouterr().err

    def test_bad_shape_token_is_usage_error(self, capsys):
        assert main(["bench", "--shapes", "4x4x5"]) == EXIT_USAGE
        assert "shape token" in capsys.readouterr().err

    def test_unknown_variant_is_usage_error(self, capsys):
        code = main(["bench", "--shapes", "4x4x5k3", "--repeats", "2",
                     "--variants", "dgc", "turbo"])
        assert code == EXIT_USAGE
        assert "turbo" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,named", [
        (["--variants", "dense", "dgc", "dgc"], "--variants repeats 'dgc'"),
        (["--shapes", "4x4x5k3", "8x8x5k3", "4x4x5k3"],
         "--shapes repeats '4x4x5k3'"),
        (["--shapes", "4x4x5k3", "04x4x5k3"],
         "--shapes repeats '04x4x5k3'"),
    ])
    def test_repeated_token_is_usage_error(self, monkeypatch, capsys, argv,
                                           named):
        import dgconv.cli as cli_mod
        calls = []
        monkeypatch.setattr(cli_mod, "run_benchmark",
                            lambda *a, **k: calls.append(1) or fake_results())
        assert main(["bench", "--assert-ordering"] + argv) == EXIT_USAGE
        assert named in capsys.readouterr().err
        assert not calls

    def test_assert_ordering_pass_and_fail(self, monkeypatch, capsys):
        import dgconv.cli as cli_mod
        monkeypatch.setattr(cli_mod, "run_benchmark",
                            lambda *a, **k: fake_results())
        code = main(["bench", "--assert-ordering"])
        assert code == EXIT_OK
        monkeypatch.setattr(cli_mod, "run_benchmark",
                            lambda *a, **k: fake_results(sgc=5.0))
        code = main(["bench", "--assert-ordering"])
        assert code == EXIT_ASSERT
        assert "ordering" in capsys.readouterr().err

    def test_assert_ordering_needs_all_variants(self, capsys):
        code = main(["bench", "--shapes", "4x4x5k3", "--repeats", "2",
                     "--warmup", "1", "--variants", "dense",
                     "--assert-ordering"])
        assert code == EXIT_USAGE
        assert "needs dense, sgc, and dgc" in capsys.readouterr().err


class TestVisualize:
    def test_dataset_standardized_with_training_statistics(
            self, tmp_path, cfg_path, monkeypatch, capsys):
        import dgconv.cli as cli
        train_bin, eval_bin = shifted_datasets(tmp_path)
        out = str(tmp_path / "run")
        assert main(["train", "--config", cfg_path, "--out", out,
                     "--dataset", train_bin, "--epochs", "1"]) == EXIT_OK
        traced = []

        def collect(net, images, *args, **kw):
            traced.append(images)
            return real(net, images, *args, **kw)

        real = cli.collect_bundle
        monkeypatch.setattr(cli, "collect_bundle", collect)
        assert main(["visualize", "--checkpoint",
                     os.path.join(out, "model.ckpt"), "--out",
                     str(tmp_path / "vis"), "--dataset", eval_bin,
                     "--count", "4"]) == EXIT_OK
        capsys.readouterr()
        mean, std = load_cifar10(train_bin).stats
        images = load_cifar10(eval_bin).images[:4]
        npt.assert_array_equal(traced[0], (images - mean[:, None, None])
                               / std[:, None, None])

    def test_exports_deterministic_files(self, tmp_path, cfg_path, capsys):
        _, out = run_train(tmp_path, cfg_path)
        ckpt = os.path.join(out, "model.ckpt")
        capsys.readouterr()
        dirs = []
        for name in ("visA", "visB"):
            vis_out = str(tmp_path / name)
            code = main(["visualize", "--checkpoint", ckpt, "--out", vis_out,
                         "--count", "4", "--contributions", "0", "1",
                         *DATA_ARGS])
            assert code == EXIT_OK
            dirs.append(vis_out)
        head = capsys.readouterr().out.splitlines()[0]
        assert head.startswith("# dgconv visualize seed=3")
        names = sorted(os.listdir(dirs[0]))
        assert names == sorted(os.listdir(dirs[1]))
        assert "layer01_saliency.csv" in names
        assert "layer01_decisions.pgm" in names
        for name in names:
            with open(os.path.join(dirs[0], name), "rb") as a, \
                    open(os.path.join(dirs[1], name), "rb") as b:
                assert a.read() == b.read(), name

    def test_seed_embedded_in_file_comments(self, tmp_path, cfg_path,
                                            capsys):
        _, out = run_train(tmp_path, cfg_path)
        vis_out = str(tmp_path / "vis")
        code = main(["visualize", "--checkpoint",
                     os.path.join(out, "model.ckpt"), "--out", vis_out,
                     "--count", "2", *DATA_ARGS])
        assert code == EXIT_OK
        capsys.readouterr()
        _, comments = read_matrix_csv(os.path.join(vis_out,
                                                   "realized_rates.csv"))
        assert "seed=3" in comments

    def test_unknown_contribution_block_lists_valid(self, tmp_path, cfg_path,
                                                    capsys):
        _, out = run_train(tmp_path, cfg_path)
        code = main(["visualize", "--checkpoint",
                     os.path.join(out, "model.ckpt"),
                     "--out", str(tmp_path / "vis"), "--count", "2",
                     "--contributions", "9", *DATA_ARGS])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "valid indices: [0, 1]" in err

    def test_headwise_rates_match_target_rounding(self, tmp_path, cfg_path,
                                                  capsys):
        _, out = run_train(tmp_path, cfg_path)
        vis_out = str(tmp_path / "vis")
        main(["visualize", "--checkpoint", os.path.join(out, "model.ckpt"),
              "--out", vis_out, "--count", "4", *DATA_ARGS])
        capsys.readouterr()
        rates, _ = read_matrix_csv(os.path.join(vis_out,
                                                "realized_rates.csv"))
        assert rates[0, 1] == 0.5
