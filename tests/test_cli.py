import json
import re
import tempfile
import tracemalloc

import numpy as np
import pytest

from bimodalnet.bilinear import FACTORED_SHARED, GATHER_BYTES, LabelTree
from bimodalnet.cli import ArchParseError, build_parser, main, parse_arch
from bimodalnet.data import Dataset, load_dataset, load_model, save_dataset, save_model
from bimodalnet.training import TrainConfig, build_model, eval_rows
from tests.conftest import no_unclosed_files

FULL_SCALE_ARCH = "[360,500,500,200,1328 | 540,500,500,200,1328 | F=200]"


class TestParseArch:
    def test_full_scale_notation(self):
        dims_a, dims_v, fused = parse_arch(FULL_SCALE_ARCH)
        assert dims_a == (360, 500, 500, 200, 1328)
        assert dims_v == (540, 500, 500, 200, 1328)
        assert fused == 200

    def test_minimal(self):
        assert parse_arch("[2,2 | 2,2 | F=1]") == ((2, 2), (2, 2), 1)

    def test_whitespace_tolerant(self):
        assert parse_arch("  [ 3, 4 , 2|3,4,2|  F=2 ]  ") == ((3, 4, 2), (3, 4, 2), 2)

    def test_mismatched_class_counts(self):
        with pytest.raises(ArchParseError, match="500 != 600"):
            parse_arch("[360,500 | 540,600 | F=10]")

    def test_missing_bracket(self):
        with pytest.raises(ArchParseError, match="position 0"):
            parse_arch("3,4|3,4|F=2]")

    def test_bad_integer_reports_position(self):
        with pytest.raises(ArchParseError) as exc:
            parse_arch("[3,x | 3,4 | F=2]")
        assert exc.value.position == 3

    def test_missing_f_component(self):
        with pytest.raises(ArchParseError, match="F="):
            parse_arch("[3,4 | 3,4 | 2]")

    def test_trailing_garbage(self):
        with pytest.raises(ArchParseError, match="after"):
            parse_arch("[3,4 | 3,4 | F=2] extra")

    def test_nonpositive_dim(self):
        with pytest.raises(ArchParseError, match="positive"):
            parse_arch("[3,0 | 3,0 | F=2]")

    @pytest.mark.parametrize("arch,position", [
        ("[20,6,8\u00a0| 20,6,8 | F=2]", 7), ("[3,\u0664 | 3,4 | F=2]", 3),
        ("[3,4 |\n3,4 | F=2]", 6)])
    def test_character_a_header_cannot_hold(self, arch, position):
        # str.strip and int accept these, but the arch is stored in the model header
        with pytest.raises(ArchParseError) as exc:
            parse_arch(arch)
        assert exc.value.position == position


@pytest.fixture
def synth_files(tmp_path):
    train = tmp_path / "train.bin"
    test = tmp_path / "test.bin"
    code = main(["synth", "--out-train", str(train), "--out-test", str(test),
                 "--d1", "5", "--d2", "5", "--classes", "4", "--groups", "2",
                 "--n-train", "120", "--n-test", "40", "--noise-std", "0.05",
                 "--rank", "1", "--seed", "9"])
    assert code == 0
    return train, test


class TestSynth:
    def test_writes_loadable_datasets(self, synth_files):
        train, test = synth_files
        ds = load_dataset(train)
        assert (ds.n, ds.d1, ds.d2, ds.num_classes) == (120, 5, 5, 4)
        assert load_dataset(test).split == "test"

    def test_byte_identical_reruns(self, synth_files, tmp_path):
        train, _ = synth_files
        again = tmp_path / "again.bin"
        main(["synth", "--out-train", str(again), "--out-test",
              str(tmp_path / "t2.bin"), "--d1", "5", "--d2", "5",
              "--classes", "4", "--groups", "2", "--n-train", "120",
              "--n-test", "40", "--noise-std", "0.05", "--rank", "1",
              "--seed", "9"])
        assert again.read_bytes() == train.read_bytes()

    def test_env_var_seed(self, tmp_path, monkeypatch):
        monkeypatch.setenv("BIMODALNET_SEED", "77")
        a = tmp_path / "a.bin"
        main(["synth", "--out-train", str(a), "--out-test", str(tmp_path / "at.bin"),
              "--n-train", "50", "--n-test", "10"])
        b = tmp_path / "b.bin"
        main(["synth", "--out-train", str(b), "--out-test", str(tmp_path / "bt.bin"),
              "--n-train", "50", "--n-test", "10", "--seed", "77"])
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("flag", ["--noise-std", "--linear-scale"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-0.5"])
    def test_scale_must_be_finite_and_non_negative(self, tmp_path, capsys, flag, value):
        train, test = tmp_path / "train.bin", tmp_path / "test.bin"
        code = main(["synth", "--out-train", str(train), "--out-test", str(test),
                     "--n-train", "50", "--n-test", "10", flag, value])
        assert code == 1
        assert "noise_std and linear_scale must be finite and >= 0" in capsys.readouterr().err
        assert not train.exists() and not test.exists()


ARCH_SMALL = "[5,6,3,4 | 5,6,3,4 | F=2]"


class TestTrain:
    def test_zero_epochs_writes_initialized_model(self, synth_files, tmp_path):
        train, _ = synth_files
        out = tmp_path / "model.bin"
        code = main(["train", "--data", str(train), "--mode", "bilinear",
                     "--arch", ARCH_SMALL, "--epochs", "0", "--seed", "3",
                     "--out", str(out)])
        assert code == 0
        model = load_model(out)
        assert model.num_classes == 4
        assert model.spec.arch == ARCH_SMALL

    def test_train_eval_round(self, synth_files, tmp_path, capsys):
        train, test = synth_files
        out = tmp_path / "model.bin"
        log = tmp_path / "metrics.jsonl"
        code = main(["train", "--data", str(train), "--test-data", str(test),
                     "--mode", "bilinear", "--arch", ARCH_SMALL,
                     "--epochs", "3", "--lr", "0.5", "--seed", "3",
                     "--out", str(out), "--log", str(log)])
        assert code == 0
        records = [json.loads(line) for line in log.read_text().splitlines()]
        splits = {r["split"] for r in records if "split" in r}
        assert splits == {"train", "test"}
        assert all(set(r) == {"epoch", "split", "leaf_error", "group_error", "nll"}
                   for r in records if "split" in r)
        capsys.readouterr()
        assert main(["eval", "--model", str(out), "--data", str(test)]) == 0
        record = json.loads(capsys.readouterr().out.strip())
        assert record["n"] == 40
        assert 0.0 <= record["leaf_error"] <= 1.0

    def test_byte_identical_model_and_log(self, synth_files, tmp_path):
        train, _ = synth_files
        blobs = []
        for tag in ("one", "two"):
            out = tmp_path / f"{tag}.model"
            log = tmp_path / f"{tag}.jsonl"
            main(["train", "--data", str(train), "--mode", "bilinear",
                  "--arch", ARCH_SMALL, "--epochs", "2", "--seed", "5",
                  "--out", str(out), "--log", str(log)])
            blobs.append((out.read_bytes(), log.read_bytes()))
        assert blobs[0] == blobs[1]

    def test_unwritable_temp_directory_writes_no_model(self, synth_files, tmp_path, capsys,
                                                       monkeypatch):
        # the rollback snapshot's file cannot be made, so no step runs
        train, _ = synth_files
        out = tmp_path / "model.bin"
        missing = tmp_path / "missing"
        monkeypatch.setattr(tempfile, "tempdir", str(missing))
        capsys.readouterr()
        code = main(["train", "--data", str(train), "--mode", "bilinear",
                     "--arch", ARCH_SMALL, "--epochs", "1", "--seed", "3",
                     "--out", str(out)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.search(rf"^error: .*{re.escape(str(missing))}", captured.err, re.M)
        assert not out.exists()

    def test_arch_class_count_must_match_dataset(self, synth_files, tmp_path):
        train, _ = synth_files
        code = main(["train", "--data", str(train), "--mode", "bilinear",
                     "--arch", "[5,6,9 | 5,6,9 | F=2]", "--epochs", "0",
                     "--out", str(tmp_path / "m.bin")])
        assert code == 1

    def test_config_file_with_flag_override(self, synth_files, tmp_path):
        train, _ = synth_files
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "mode = bilinear\n"
            f"arch = {ARCH_SMALL}\n"
            "epochs = 99  # overridden below\n"
            "seed = 3\n"
        )
        out = tmp_path / "m.bin"
        code = main(["train", "--config", str(cfg), "--data", str(train),
                     "--epochs", "0", "--out", str(out)])
        assert code == 0
        ref = tmp_path / "ref.bin"
        main(["train", "--data", str(train), "--mode", "bilinear",
              "--arch", ARCH_SMALL, "--epochs", "0", "--seed", "3",
              "--out", str(ref)])
        assert out.read_bytes() == ref.read_bytes()

    def test_unknown_config_key_is_usage_error(self, synth_files, tmp_path):
        train, _ = synth_files
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bogus = 1\n")
        code = main(["train", "--config", str(cfg), "--data", str(train),
                     "--out", str(tmp_path / "m.bin")])
        assert code == 2

    def test_warm_start_towers(self, synth_files, tmp_path):
        train, _ = synth_files
        audio, visual = _unimodal_models(train, tmp_path)
        fused = tmp_path / "fused.model"
        code = main(["train", "--data", str(train), "--mode", "fused",
                     "--tower-a", str(audio), "--tower-v", str(visual),
                     "--epochs", "1", "--seed", "8", "--out", str(fused)])
        assert code == 0
        model = load_model(fused)
        assert np.array_equal(model.tower_a.weights[0], load_model(audio).tower.weights[0])
        assert np.array_equal(model.tower_v.weights[0], load_model(visual).tower.weights[0])


def _unimodal_models(train, tmp_path, arch=ARCH_SMALL):
    """Paths of an audio (modality 1) and a visual (modality 2) model."""
    paths = []
    for mode in ("audio", "visual"):
        path = tmp_path / f"{mode}.model"
        assert main(["train", "--data", str(train), "--mode", mode, "--arch", arch,
                     "--epochs", "1", "--seed", "8", "--out", str(path)]) == 0
        paths.append(path)
    return paths


class TestWarmStartTowers:
    """A warm-start tower must fit its flag: a unimodal model of the flag's
    modality, with the dims --arch gives it, under a fused or bilinear mode.
    Otherwise train exits 1, names the flag, the modality and the dims, and
    writes no model. The features here have d1 = d2, so a tower of either
    modality would read either input."""

    @pytest.mark.parametrize("args, message", [
        (["--mode", "bilinear", "--arch", ARCH_SMALL, "--tower-a", "@visual"],
         r"--tower-a takes a modality 1 tower; \S+visual\.model holds a modality 2 "
         r"tower with dims 5,6,3$"),
        (["--mode", "fused", "--tower-v", "@audio"],
         r"--tower-v takes a modality 2 tower; \S+audio\.model holds a modality 1 "
         r"tower with dims 5,6,3$"),
        (["--mode", "bilinear", "--arch", "[5,6,3,4 | 5,9,3,4 | F=2]", "--tower-v", "@visual"],
         r"--tower-v: --arch gives modality 2 the dims 5,9,3; \S+visual\.model holds a "
         r"modality 2 tower with dims 5,6,3$"),
        (["--mode", "visual", "--arch", ARCH_SMALL, "--tower-v", "@visual"],
         r"--tower-v: mode 'visual' takes no warm-start tower; \S+visual\.model holds a "
         r"modality 2 tower with dims 5,6,3$"),
        (["--mode", "audio", "--arch", ARCH_SMALL, "--tower-a", "@audio"],
         r"--tower-a: mode 'audio' takes no warm-start tower; \S+audio\.model holds a "
         r"modality 1 tower with dims 5,6,3$"),
    ])
    def test_mismatched_tower_is_refused(self, synth_files, tmp_path, capsys, args, message):
        train, _ = synth_files
        models = dict(zip(("@audio", "@visual"), _unimodal_models(train, tmp_path)))
        args = [str(models.get(a, a)) for a in args]  # "@audio" is the audio model's path
        out = tmp_path / "warm.model"
        capsys.readouterr()
        code = main(["train", "--data", str(train), "--epochs", "1", "--seed", "8",
                     *args, "--out", str(out)])
        assert code == 1
        assert re.search(message, capsys.readouterr().err.strip()), message
        assert not out.exists()

    def test_tower_of_another_kind_is_refused(self, synth_files, tmp_path, capsys):
        train, _ = synth_files
        fused = tmp_path / "fused.model"
        assert main(["train", "--data", str(train), "--mode", "fused", "--arch", ARCH_SMALL,
                     "--epochs", "0", "--out", str(fused)]) == 0
        capsys.readouterr()
        code = main(["train", "--data", str(train), "--mode", "fused", "--tower-a", str(fused),
                     "--epochs", "1", "--out", str(tmp_path / "warm.model")])
        assert code == 1
        assert "--tower-a: " in capsys.readouterr().err

    def test_matching_towers_under_the_arch(self, synth_files, tmp_path):
        train, _ = synth_files
        audio, visual = _unimodal_models(train, tmp_path)
        out = tmp_path / "bilinear.model"
        assert main(["train", "--data", str(train), "--mode", "bilinear", "--arch", ARCH_SMALL,
                     "--tower-a", str(audio), "--tower-v", str(visual), "--epochs", "0",
                     "--out", str(out)]) == 0
        model = load_model(out)
        assert np.array_equal(model.tower1.weights[1], load_model(audio).tower.weights[1])
        assert np.array_equal(model.tower2.weights[1], load_model(visual).tower.weights[1])


class TestGradcheckCommand:
    def test_spec_example_passes(self, capsys):
        code = main(["gradcheck", "--arch", "[3,4,2|3,4,2|F=2]",
                     "--classes", "4", "--groups", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "PASS" in out
        assert "max_rel_error" in out

    def test_coarse_step_fails(self, capsys):
        code = main(["gradcheck", "--arch", "[3,4,2|3,4,2|F=2]",
                     "--classes", "4", "--groups", "2", "--h", "1.0"])
        assert code == 1
        assert "FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize("args,message", [
        (["--h", "nan"], "finite and positive"), (["--h", "0"], "finite and positive"),
        (["--h=-1e-5"], "finite and positive"), (["--h", "inf"], "finite and positive"),
        (["--classes", "0"], "at least one leaf"), (["--classes", "-4"], "at least one leaf"),
        (["--groups", "0"], "at least one leaf")])
    def test_refused_value_exits_with_its_message(self, capsys, args, message):
        code = main(["gradcheck", "--arch", "[3,4,2|3,4,2|F=2]", "--classes", "4", *args])
        captured = capsys.readouterr()
        assert code == 1
        assert message in captured.err and "PASS" not in captured.out

    def test_other_modes(self):
        assert main(["gradcheck", "--arch", "[3,4,2|3,4,2|F=2]", "--classes", "4",
                     "--mode", "fused"]) == 0
        assert main(["gradcheck", "--arch", "[3,4,2|3,4,2|F=2]", "--classes", "4",
                     "--mode", "audio"]) == 0
        assert main(["gradcheck", "--arch", "[3,4,2|3,4,2|F=2]", "--classes", "4",
                     "--groups", "2", "--variant", "full"]) == 0


class TestEnsembleCommand:
    def test_averages_saved_models(self, synth_files, tmp_path, capsys):
        train, test = synth_files
        paths = []
        for seed in (1, 2):
            out = tmp_path / f"m{seed}.model"
            main(["train", "--data", str(train), "--mode", "bilinear",
                  "--arch", ARCH_SMALL, "--epochs", "1", "--seed", str(seed),
                  "--out", str(out)])
            paths.append(str(out))
        capsys.readouterr()
        code = main(["ensemble", *paths, "--data", str(test)])
        assert code == 0
        record = json.loads(capsys.readouterr().out.strip())
        assert record["members"] == 2
        assert 0.0 <= record["nll"]

    def test_single_model_is_usage_error(self, synth_files, tmp_path):
        train, test = synth_files
        out = tmp_path / "m.model"
        main(["train", "--data", str(train), "--mode", "bilinear",
              "--arch", ARCH_SMALL, "--epochs", "0", "--seed", "1",
              "--out", str(out)])
        assert main(["ensemble", str(out), "--data", str(test)]) == 2


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self):
        assert main(["synth", "--nonsense"]) == 2

    def test_missing_file_is_runtime_error(self, tmp_path):
        assert main(["eval", "--model", str(tmp_path / "nope.model"),
                     "--data", str(tmp_path / "nope.bin")]) == 1

    def test_malformed_arch_is_usage_error(self, synth_files, tmp_path):
        train, _ = synth_files
        code = main(["train", "--data", str(train), "--mode", "bilinear",
                     "--arch", "oops", "--out", str(tmp_path / "m.bin")])
        assert code == 2

    def test_non_ascii_arch_exits_before_reading_data(self, tmp_path, capsys):
        out = tmp_path / "m.bin"
        out.write_bytes(b"an earlier model")
        code = main(["train", "--data", str(tmp_path / "absent.bin"), "--mode", "bilinear",
                     "--arch", "[5,4,4\u00a0| 5,4,4 | F=2]", "--out", str(out)])
        assert code == 2
        assert "position 6" in capsys.readouterr().err
        assert out.read_bytes() == b"an earlier model"


def _synth(tmp_path, tag, classes, groups):
    """A d=5/5 planted (train, test) pair with the given class count and groups."""
    train, test = tmp_path / f"{tag}-train.bin", tmp_path / f"{tag}-test.bin"
    assert main(["synth", "--out-train", str(train), "--out-test", str(test),
                 "--d1", "5", "--d2", "5", "--classes", str(classes),
                 "--groups", str(groups), "--n-train", "80", "--n-test", "40",
                 "--seed", "4"]) == 0
    return train, test


ARCH_C8 = "[5,6,8 | 5,6,8 | F=2]"


@pytest.fixture
def c8_model(tmp_path):
    """A factored-shared C=8 model trained under a 4-group tree, and its test split."""
    train, test = _synth(tmp_path, "c8", 8, 4)
    out = tmp_path / "c8.model"
    assert main(["train", "--data", str(train), "--mode", "bilinear", "--arch", ARCH_C8,
                 "--epochs", "1", "--seed", "2", "--out", str(out)]) == 0
    return out, train, test


class TestDatasetMustMatchModel:
    @pytest.mark.parametrize("classes,groups", [(16, 4), (4, 2)])
    def test_eval_and_ensemble_name_both_class_counts(self, c8_model, tmp_path, capsys,
                                                      classes, groups):
        model, _, _ = c8_model
        _, other = _synth(tmp_path, f"c{classes}", classes, groups)
        capsys.readouterr()
        assert main(["eval", "--model", str(model), "--data", str(other)]) == 1
        assert f"dataset has {classes} classes, model 8" in capsys.readouterr().err
        assert main(["ensemble", str(model), str(model), "--data", str(other)]) == 1
        assert f"dataset has {classes} classes, model 8" in capsys.readouterr().err

    def test_train_test_data_with_other_class_count(self, c8_model, tmp_path, capsys):
        _, train, _ = c8_model
        _, other = _synth(tmp_path, "c16", 16, 4)
        capsys.readouterr()
        code = main(["train", "--data", str(train), "--test-data", str(other),
                     "--mode", "bilinear", "--arch", ARCH_C8, "--epochs", "1",
                     "--out", str(tmp_path / "m.bin")])
        assert code == 1
        assert "dataset has 16 classes, model 8" in capsys.readouterr().err

    def test_eval_under_another_label_tree(self, c8_model, tmp_path, capsys):
        model, _, test = c8_model
        _, two_groups = _synth(tmp_path, "g2", 8, 2)
        capsys.readouterr()
        assert main(["eval", "--model", str(model), "--data", str(two_groups)]) == 1
        assert "label tree" in capsys.readouterr().err
        assert main(["ensemble", str(model), str(model), "--data", str(two_groups)]) == 1
        assert "label tree" in capsys.readouterr().err
        assert main(["eval", "--model", str(model), "--data", str(test)]) == 0


class TestUnsharedModelUnderAnotherTree:
    """Only a factored-shared head's posteriors use the label tree, so an
    unshared bilinear model reads under any tree with its class count."""

    def _train(self, data, variant, out):
        assert main(["train", "--data", str(data), "--mode", "bilinear", "--variant", variant,
                     "--arch", ARCH_C8, "--epochs", "1", "--seed", "2", "--out", str(out)]) == 0

    @pytest.mark.parametrize("variant", ["factored", "full"])
    def test_eval_gives_the_group_error_under_the_dataset_tree(self, c8_model, tmp_path,
                                                              capsys, variant):
        _, train, _ = c8_model
        _, two_groups = _synth(tmp_path, "g2", 8, 2)
        out = tmp_path / f"{variant}.model"
        self._train(train, variant, out)
        model = load_model(out)
        assert model.tree is None and model.head.tree.num_groups == 4  # kept in the file
        capsys.readouterr()
        assert main(["eval", "--model", str(out), "--data", str(two_groups)]) == 0
        record = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        data = load_dataset(two_groups)
        probs = model.posterior_batch(data.x1, data.x2)
        group_probs = np.stack([probs[:, data.tree.group_of == g].sum(axis=1)
                                for g in range(2)], axis=1)
        wrong = int((group_probs.argmax(axis=1) != data.tree.group_of[data.y]).sum())
        assert record["group_error"] == wrong / data.n
        assert record["leaf_error"] == (probs.argmax(axis=1) != data.y).sum() / data.n

    def test_ensemble_takes_the_shared_members_tree(self, c8_model, tmp_path, capsys):
        shared, _, test = c8_model
        two_train, two_groups = _synth(tmp_path, "g2", 8, 2)
        unshared = tmp_path / "factored.model"
        self._train(two_train, "factored", unshared)
        capsys.readouterr()
        assert main(["ensemble", str(unshared), str(shared), "--data", str(test)]) == 0
        assert json.loads(capsys.readouterr().out.strip().splitlines()[-1])["members"] == 2
        assert main(["ensemble", str(unshared), str(shared), "--data", str(two_groups)]) == 1
        assert "label tree" in capsys.readouterr().err


class TestOneParserManyCalls:
    def test_usage_error_then_valid_command(self, synth_files, tmp_path, capsys):
        train, _ = synth_files
        assert main(["train", "--data", str(train), "--epochs", "many"]) == 2
        assert "invalid int value" in capsys.readouterr().err
        out = tmp_path / "m.bin"
        assert main(["train", "--data", str(train), "--mode", "bilinear",
                     "--arch", ARCH_SMALL, "--epochs", "0", "--out", str(out)]) == 0
        assert load_model(out).num_classes == 4

    def test_no_flag_value_leaks_into_the_next_call(self, synth_files, tmp_path,
                                                    monkeypatch):
        train, _ = synth_files
        monkeypatch.setenv("BIMODALNET_SEED", "11")
        common = ["train", "--data", str(train), "--mode", "bilinear",
                  "--arch", ARCH_SMALL, "--epochs", "0"]
        seeded, unseeded, env = (tmp_path / f"{tag}.bin" for tag in ("7", "none", "11"))
        assert main(common + ["--seed", "7", "--out", str(seeded)]) == 0
        assert main(common + ["--out", str(unseeded)]) == 0
        assert main(common + ["--seed", "11", "--out", str(env)]) == 0
        assert unseeded.read_bytes() == env.read_bytes()
        assert seeded.read_bytes() != env.read_bytes()

    def test_build_parser_returns_a_new_parser(self):
        assert build_parser() is not build_parser()


class TestConfigFileParity:
    """A config file takes every train flag's name, aliases included, and
    checks its values as the flag does."""

    def _train(self, train, out, *extra, config=None):
        argv = ["train", "--data", str(train), "--out", str(out), *extra]
        return main(argv + (["--config", str(config)] if config else []))

    def test_aliases_give_the_same_model_as_the_flags(self, synth_files, tmp_path):
        train, _ = synth_files
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"mode = bilinear\narch = {ARCH_SMALL}\nepochs = 2\nseed = 4\n"
                       "lr = 0.7\nlambda = 0.3\n")
        from_file, from_flags = tmp_path / "file.bin", tmp_path / "flags.bin"
        assert self._train(train, from_file, config=cfg) == 0
        assert self._train(train, from_flags, "--mode", "bilinear", "--arch", ARCH_SMALL,
                           "--epochs", "2", "--seed", "4", "--lr", "0.7",
                           "--lambda", "0.3") == 0
        assert from_file.read_bytes() == from_flags.read_bytes()
        assert load_model(from_file).head.lam == 0.3

    @pytest.mark.parametrize("line", ["mode = bogus", "variant = nope", "epochs = 2.5"])
    def test_refused_value_is_usage_error_at_its_line(self, synth_files, tmp_path, capsys,
                                                      line):
        train, _ = synth_files
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"arch = {ARCH_SMALL}\n{line}\n")
        out = tmp_path / "m.bin"
        assert self._train(train, out, config=cfg) == 2
        assert f"{cfg}:2: " in capsys.readouterr().err
        assert not out.exists()

    def test_flag_overrides_aliased_file_key(self, synth_files, tmp_path):
        train, _ = synth_files
        cfg = tmp_path / "run.cfg"
        cfg.write_text("lambda = 3\n")
        common = ["--mode", "bilinear", "--arch", ARCH_SMALL, "--epochs", "1", "--seed", "6",
                  "--lam", "2"]
        both, flags = tmp_path / "both.bin", tmp_path / "flags.bin"
        assert self._train(train, both, *common, config=cfg) == 0
        assert self._train(train, flags, *common) == 0
        assert both.read_bytes() == flags.read_bytes()


class TestRefusedSettings:
    @pytest.mark.parametrize("flag,value,field", [
        ("--lr", "nan", "learning_rate"), ("--lr", "inf", "learning_rate"),
        ("--init-scale", "inf", "init_scale"), ("--init-scale", "nan", "init_scale"),
        ("--init-scale", "-0.5", "init_scale"), ("--lam", "nan", "lam"),
    ])
    def test_non_finite_or_negative_value_writes_no_model(self, synth_files, tmp_path,
                                                          capsys, flag, value, field):
        train, _ = synth_files
        out = tmp_path / "m.bin"
        code = main(["train", "--data", str(train), "--mode", "bilinear", "--arch", ARCH_SMALL,
                     "--epochs", "1", f"{flag}={value}", "--out", str(out)])
        assert code == 1
        assert f"error: {field} must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["abc", "-3"])
    def test_bad_seed_variable_is_usage_error_naming_it(self, synth_files, tmp_path, capsys,
                                                        monkeypatch, value):
        train, _ = synth_files
        monkeypatch.setenv("BIMODALNET_SEED", value)
        out = tmp_path / "m.bin"
        assert main(["train", "--data", str(train), "--mode", "bilinear", "--arch", ARCH_SMALL,
                     "--epochs", "0", "--out", str(out)]) == 2
        assert "BIMODALNET_SEED" in capsys.readouterr().err
        assert not out.exists()


class TestFusionTop:
    """A malformed ``--fusion-top`` is a usage error, refused before any data
    is read, from a flag and from a config file alike."""

    @pytest.mark.parametrize("value,message", [
        ("abc", "cannot parse fusion top dims 'abc'"),
        ("0", "fusion top dims must be positive, got (0,)"),
        ("4,-1", "fusion top dims must be positive, got (4, -1)"),
    ])
    def test_refused_flag_writes_no_model(self, tmp_path, capsys, value, message):
        out = tmp_path / "m.bin"
        code = main(["train", "--data", str(tmp_path / "absent.bin"), "--mode", "fused",
                     "--arch", ARCH_SMALL, f"--fusion-top={value}", "--out", str(out)])
        assert code == 2
        assert f"argument --fusion-top: {message}\n" in capsys.readouterr().err
        assert not out.exists()

    def test_refused_config_value_names_its_line(self, synth_files, tmp_path, capsys):
        train, _ = synth_files
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"mode = fused\narch = {ARCH_SMALL}\nfusion_top = abc\n")
        out = tmp_path / "m.bin"
        assert main(["train", "--data", str(train), "--out", str(out),
                     "--config", str(cfg)]) == 2
        assert (f"error: {cfg}:3: key 'fusion_top' cannot parse fusion top dims 'abc'\n"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("value", ["", "softmax"])
    def test_empty_or_softmax_is_no_top(self, synth_files, tmp_path, value):
        train, _ = synth_files
        out = tmp_path / "m.bin"
        assert main(["train", "--data", str(train), "--mode", "fused", "--arch", ARCH_SMALL,
                     f"--fusion-top={value}", "--epochs", "0", "--out", str(out)]) == 0
        assert load_model(out).head.top is None


class TestMissingSettings:
    @pytest.mark.parametrize("mode,missing,code,message", [
        ("bilinear", "--data", 2, "train requires --data"),
        ("bilinear", "--out", 2, "train requires --out"),
        ("bilinear", "--arch", 1, "mode 'bilinear' requires --arch"),
        ("audio", "--arch", 1, "mode 'audio' requires --arch"),
        ("visual", "--arch", 1, "mode 'visual' requires --arch"),
    ])
    def test_train_without_a_required_setting(self, synth_files, tmp_path, capsys, mode,
                                              missing, code, message):
        train, _ = synth_files
        out = tmp_path / "m.bin"
        given = {"--data": str(train), "--out": str(out), "--arch": ARCH_SMALL}
        del given[missing]
        argv = ["train", "--mode", mode, "--epochs", "0"]
        assert main(argv + [arg for pair in given.items() for arg in pair]) == code
        assert capsys.readouterr().err.endswith(f"error: {message}\n")
        assert not out.exists()


class TestNegativeSeed:
    """A negative seed is a usage error naming where it was given."""

    def test_synth_flag(self, tmp_path, capsys):
        out = tmp_path / "train.bin"
        assert main(["synth", "--out-train", str(out), "--out-test", str(tmp_path / "t.bin"),
                     "--seed", "-3"]) == 2
        assert "argument --seed: must be a non-negative integer, got '-3'" in (
            capsys.readouterr().err)
        assert not out.exists()

    def test_gradcheck_flag(self, capsys):
        assert main(["gradcheck", "--arch", "[3,4,2|3,4,2|F=2]", "--classes", "4",
                     "--seed", "-3"]) == 2
        captured = capsys.readouterr()
        assert "argument --seed: must be a non-negative integer" in captured.err
        assert captured.out == ""

    def test_train_flag(self, synth_files, tmp_path, capsys):
        train, _ = synth_files
        out = tmp_path / "m.bin"
        assert main(["train", "--data", str(train), "--mode", "bilinear", "--arch", ARCH_SMALL,
                     "--epochs", "0", "--seed=-3", "--out", str(out)]) == 2
        assert "argument --seed: must be a non-negative integer" in capsys.readouterr().err
        assert not out.exists()

    def test_train_config_file(self, synth_files, tmp_path, capsys):
        train, _ = synth_files
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"mode = bilinear\narch = {ARCH_SMALL}\nseed = -3\n")
        out = tmp_path / "m.bin"
        assert main(["train", "--data", str(train), "--config", str(cfg),
                     "--out", str(out)]) == 2
        assert (f"{cfg}:3: key 'seed' must be a non-negative integer, got '-3'"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_zero_is_a_seed(self, tmp_path):
        out = tmp_path / "train.bin"
        assert main(["synth", "--out-train", str(out), "--out-test", str(tmp_path / "t.bin"),
                     "--n-train", "20", "--n-test", "10", "--seed", "0"]) == 0


@pytest.fixture
def small_model(synth_files, tmp_path):
    train, _ = synth_files
    out = tmp_path / "small.model"
    assert main(["train", "--data", str(train), "--mode", "bilinear", "--arch", ARCH_SMALL,
                 "--epochs", "0", "--seed", "1", "--out", str(out)]) == 0
    return out


def _read_commands(model, train, test, out):
    return {
        "eval": ["eval", "--model", str(model), "--data", str(test)],
        "ensemble": ["ensemble", str(model), str(model), "--data", str(test)],
        "train": ["train", "--data", str(train), "--test-data", str(test), "--mode", "bilinear",
                  "--arch", ARCH_SMALL, "--epochs", "1", "--seed", "1", "--out", str(out)],
    }


# the synth_files test split: 40 rows, d1 = d2 = 5, C = 4; x1 starts at byte
# 53, x2 at 1,653 and the labels at 3,253
_FAULTS = {
    "nan-x1": (53 + 40 * 7 + 16, np.array([np.nan], "<f8").tobytes(),
               "non-finite first-modality feature in row 7 at byte offset 333"),
    "nan-x2": (1653 + 40 * 7 + 16, np.array([np.nan], "<f8").tobytes(),
               "non-finite second-modality feature in row 7 at byte offset 1933"),
    "label": (3253 + 4 * 7, np.array([4], "<i4").tobytes(),
              "label 4 of row 7 is outside [0, 4) at byte offset 3281"),
    "truncated": (2000, None,
                  "needed 1600 bytes for second-modality features at byte offset 1653"),
}


class TestStreamedReads:
    """eval, ensemble and train --test-data read their split from its file."""

    def test_each_command_closes_its_file(self, synth_files, small_model, tmp_path, capsys):
        train, test = synth_files
        with no_unclosed_files():
            for argv in _read_commands(small_model, train, test, tmp_path / "m.bin").values():
                assert main(argv) == 0
        printed = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert [r["n"] for r in printed[:2]] == [40, 40]

    @pytest.mark.parametrize("command", ["eval", "ensemble", "train"])
    @pytest.mark.parametrize("fault", sorted(_FAULTS))
    def test_corrupt_split_fails_with_its_offset(self, synth_files, small_model, tmp_path,
                                                 capsys, command, fault):
        train, test = synth_files
        assert len(test.read_bytes()) == 3413
        offset, data, message = _FAULTS[fault]
        blob = test.read_bytes()
        test.write_bytes(blob[:offset] + data + blob[offset + len(data):] if data
                         else blob[:offset])
        out = tmp_path / "m.bin"
        capsys.readouterr()
        with no_unclosed_files():
            assert main(_read_commands(small_model, train, test, out)[command]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err
        assert not out.exists()


class TestStreamedReadMemory:
    C, D = 1328, 64

    @classmethod
    def _reads(cls, tmp_path):
        """(n, ``eval`` argv) of a paper-leaves model, whose 74-row blocks are
        worth two lanes, over splits of 6 and 21 whole blocks."""
        c, d = cls.C, cls.D
        tree = LabelTree(np.arange(c) * 42 // c, 42)
        model = tmp_path / "paper-leaves.model"
        save_model(build_model(TrainConfig(mode="bilinear", variant=FACTORED_SHARED,
                                           dims_a=(d, 8), dims_v=(d, 8), fused_dim=4,
                                           epochs=0, seed=1), d, d, c, tree), model)
        rng = np.random.default_rng(5)
        reads = []
        for n in (6 * eval_rows(c), 21 * eval_rows(c)):
            data = tmp_path / f"split-{n}.bin"
            save_dataset(Dataset(rng.standard_normal((n, d)), rng.standard_normal((n, d)),
                                 rng.integers(0, c, n), tree, "test"), data)
            reads.append((n, ["eval", "--model", str(model), "--data", str(data)]))
        assert main(reads[0][1]) == 0  # builds the cached parser outside the trace
        return reads

    @staticmethod
    def _peak(argv) -> int:
        tracemalloc.start()
        try:
            assert main(argv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_eval_peak_grows_only_by_the_per_row_vectors(self, tmp_path, capsys, one_lane):
        """The features are read a block at a time: from n_small to n_large
        rows, the peak of an ``eval`` grows by the labels, group targets and
        log-likelihoods (24 bytes a row), not by the 8 (d1 + d2) bytes a row
        of the features. Both n are whole numbers of 74-row blocks, so the
        blocks' leaf-width arrays are the same size at both. The read runs
        on one lane: on two, a pair's two blocks reach their peaks at times
        the scheduler sets, so two reads' peaks differ by up to a block's
        arrays (``test_a_paired_eval_holds_one_block_more``)."""
        (n_small, small), (n_large, large) = self._reads(tmp_path)
        peaks = [self._peak(small), self._peak(large)]
        capsys.readouterr()
        growth = peaks[1] - peaks[0]
        assert growth <= 1.1 * 40 * (n_large - n_small), (peaks, growth / (n_large - n_small))

    def test_a_paired_eval_holds_one_block_more(self, tmp_path, capsys, monkeypatch,
                                                two_lanes):
        """On two lanes the blocks run in pairs, each pair read beforehand,
        the second block into the file's second buffer pair. Run one block
        after the other on the calling thread, the pairs hold, over the same
        read on one lane, the second buffer pair and a gather block, as the
        head takes its lane arrangement: no more buffers or blocks at any n.
        On the lane worker, a pair may hold at most the worker's block more,
        whenever each thread reaches its peak: its logits, one more
        leaf-width array, a gather block and its tower features, and an
        eighth of a leaf-width array for its group-width arrays and per-row
        values."""
        from bimodalnet import linalg

        def one_after_the_other(first, first_args, second, second_args):
            return first(*first_args), second(*second_args)

        rows = eval_rows(self.C)
        leaf_bytes = 8 * rows * self.C
        pair_bytes = GATHER_BYTES + 8 * rows * 2 * self.D
        block_bytes = (2 + 1 / 8) * leaf_bytes + GATHER_BYTES + 8 * rows * (8 + 8)
        worker = linalg.both
        for n, argv in self._reads(tmp_path):
            monkeypatch.setattr(linalg.os, "sched_getaffinity", lambda pid: {0})
            one = self._peak(argv)
            monkeypatch.setattr(linalg.os, "sched_getaffinity", lambda pid: {0, 1})
            monkeypatch.setattr(linalg, "both", one_after_the_other)
            sequential = self._peak(argv)
            monkeypatch.setattr(linalg, "both", worker)
            two_lanes.clear()
            paired = [self._peak(argv) for _ in range(3)]
            assert two_lanes.count("block") == 3 * (n // rows // 2), (n, two_lanes)
            assert sequential - one <= pair_bytes, (n, one, sequential, pair_bytes)
            assert max(paired) - sequential <= block_bytes, (n, sequential, paired, block_bytes)
        capsys.readouterr()
