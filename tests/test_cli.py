import dataclasses
import hashlib
import json
import math
import os
import re
from pathlib import Path

import numpy as np
import pytest

from novelcap import cli, data as datamod, evaluation, pipeline
from novelcap.checkpoint import load_checkpoint, save_checkpoint
from novelcap.cli import _build_config, build_parser, main
from novelcap.config import MODEL_SIZES, load_config
from novelcap.data import load_dataset, load_manifest, load_world_config, save_dataset, split_from_manifest
from novelcap.decoder import CaptionModel, decode_within_budget, param_shapes
from novelcap.errors import NumericError
from novelcap.evaluation import average_f1_over
from novelcap.memory import Detections
from novelcap.pipeline import TrainingPairs, make_captioner
from novelcap.vocabulary import build_vocabulary, intersect_detectable

from support import world_text

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SMALL_WORLD = dict(names=("dog", "cat", "bus", "tree", "boat", "bird", "car", "horse"),
                   dim=8, seed=3, noise_scale=0.05, latent_rank=5)


def write_world(tmp_path, name="world.cfg", **changes):
    path = tmp_path / name
    path.write_text(world_text(**dict(SMALL_WORLD, **changes)))
    return str(path)


def write_config(tmp_path, **extra):
    values = {
        "hidden_size": 24, "embed_size": 16, "image_dim": 8, "key_dim": 8,
        "epochs": 2, "batch_size": 8, "seed": 3, "n_det": 4, "max_steps": 12,
        "dataset": str(tmp_path / "dataset.jsonl"),
        "manifest": str(tmp_path / "split.json"),
        "checkpoint": str(tmp_path / "model.ckpt"),
        "report": str(tmp_path / "report.json"),
        "train_log": str(tmp_path / "train.log"),
    }
    values.update(extra)
    path = tmp_path / "run.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
    return str(path)


def gen_args(cfg, world, held="bus,bird", n_images="80"):
    return ["gen-data", "--config", cfg, "--world-config", world,
            "--held-out", held, "--n-images", n_images]


def split_of(cfg):
    return split_from_manifest(load_dataset(cfg.dataset), load_manifest(cfg.manifest))


def training_vocabulary(cfg):
    """The vocabulary of the training records of the config's manifest, built as the CLI builds it."""
    return build_vocabulary([ref for rec in split_of(cfg).train for ref in rec.references])


def files_under(root):
    """The bytes of every file under ``root``, by relative path."""
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in Path(root).rglob("*") if p.is_file()}


@pytest.fixture()
def trained(tmp_path):
    """gen-data + train once, shared by the eval-style tests."""
    cfg_path = write_config(tmp_path)
    world = write_world(tmp_path)
    assert main(gen_args(cfg_path, world)) == 0
    assert main(["train", "--config", cfg_path]) == 0
    return tmp_path, cfg_path


class TestGenData:
    def test_writes_all_files_and_summary(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path)
        assert main(gen_args(cfg_path, write_world(tmp_path))) == 0
        cfg = load_config(cfg_path)
        manifest = load_manifest(cfg.manifest)
        assert manifest["held_out_words"] == ["bus", "bird"]
        assert len(load_dataset(cfg.dataset)) == 80
        vocab = training_vocabulary(cfg)
        assert "bus" not in vocab.index and "bird" not in vocab.index
        out = capsys.readouterr().out
        assert "train=" in out and "dog:" in out and f"\nvocab_size={vocab.size}\n" in out

    def test_out_writes_exactly_the_dataset_and_the_manifest(self, tmp_path):
        out = tmp_path / "out"
        assert main(gen_args(write_config(tmp_path), write_world(tmp_path)) + ["--out", str(out)]) == 0
        assert sorted(os.listdir(out)) == ["dataset.jsonl", "split.json"]

    def test_a_failed_manifest_write_leaves_the_last_dataset_and_manifest_whole(self, tmp_path, capsys,
                                                                              monkeypatch):
        cfg_path = write_config(tmp_path)
        assert main(gen_args(cfg_path, write_world(tmp_path))) == 0
        other_world = write_world(tmp_path, "other-world.cfg", seed=4)  # a run that writes other records
        before = files_under(tmp_path)

        def failing_save(*args):
            raise OSError("manifest write failed")

        with monkeypatch.context() as patch:
            patch.setattr(datamod, "save_manifest", failing_save)
            capsys.readouterr()
            assert main(gen_args(cfg_path, other_world)) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "novelcap: io: manifest write failed\n")
        assert files_under(tmp_path) == before  # no temporary file is left either
        assert main(gen_args(cfg_path, other_world)) == 0  # unpatched, the same run rewrites both files
        cfg = load_config(cfg_path)
        assert all(files_under(tmp_path)[name] != before[name] for name in (Path(cfg.dataset).name,
                                                                             Path(cfg.manifest).name))

    def test_repeated_held_out_word_fails_before_writing(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path)
        assert main(gen_args(cfg_path, write_world(tmp_path), held="bus,bus,bird")) == 1
        err = capsys.readouterr().err
        assert err.startswith("novelcap: ") and "'bus' is listed twice" in err, err
        cfg = load_config(cfg_path)
        for path in (cfg.dataset, cfg.manifest):
            assert not os.path.exists(path), path

    @pytest.mark.parametrize("n_images", ["0", "-5"])
    def test_n_images_below_one_fails_by_flag_before_generating(self, tmp_path, capsys, monkeypatch, n_images):
        def unreachable(*args, **kwargs):
            raise AssertionError("records generated for a refused --n-images")

        monkeypatch.setattr(datamod, "generate_synthetic", unreachable)
        cfg_path = write_config(tmp_path)
        assert main(gen_args(cfg_path, write_world(tmp_path), n_images=n_images)) == 1
        assert capsys.readouterr().err == f"novelcap: ConfigError: cli: --n-images must be >= 1, got {n_images}\n"
        assert not os.path.exists(load_config(cfg_path).dataset)

    def test_default_world_has_eight_held_out(self, tmp_path):
        cfg_path = write_config(tmp_path, image_dim=32, key_dim=32)
        assert main(["gen-data", "--config", cfg_path, "--n-images", "200"]) == 0
        manifest = load_manifest(load_config(cfg_path).manifest)
        assert len(manifest["held_out_words"]) == 8

    def test_same_seed_twice_identical_files(self, tmp_path):
        cfg_path = write_config(tmp_path)
        world = write_world(tmp_path)
        cfg = load_config(cfg_path)
        assert main(gen_args(cfg_path, world)) == 0
        first = {p: open(p, "rb").read() for p in (cfg.dataset, cfg.manifest)}
        assert main(gen_args(cfg_path, world)) == 0
        for p, raw in first.items():
            assert open(p, "rb").read() == raw

    def test_unknown_held_out_word_fails(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path)
        code = main(gen_args(cfg_path, write_world(tmp_path), held="bus,submarine"))
        assert code == 1
        assert "CoverageError" in capsys.readouterr().err

    def test_empty_held_out_is_a_word_not_the_default(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path)
        assert main(gen_args(cfg_path, write_world(tmp_path), held="")) == 1
        err = capsys.readouterr().err
        assert err == "novelcap: CoverageError: cli: held-out word '' is not in the object inventory\n", err
        assert not os.path.exists(load_config(cfg_path).dataset)

    def test_world_key_of_the_run_config_is_used_and_the_flag_wins(self, tmp_path):
        in_file = write_world(tmp_path)
        in_flag = write_world(tmp_path, "flag-world.cfg", names=SMALL_WORLD["names"][::-1])
        cfg_path = write_config(tmp_path, world=in_file)
        manifest = load_config(cfg_path).manifest
        assert main(["gen-data", "--config", cfg_path, "--held-out", "bus", "--n-images", "40"]) == 0
        assert tuple(load_manifest(manifest)["class_names"]) == SMALL_WORLD["names"]
        assert main(gen_args(cfg_path, in_flag, held="bus", n_images="40")) == 0
        assert tuple(load_manifest(manifest)["class_names"]) == SMALL_WORLD["names"][::-1]

    @pytest.mark.parametrize("line, message", [
        ("present_score = 0.9 0.1", "DomainError: data: world present_score must be "),
        ("refs_per_image = 0", "DomainError: data: world refs_per_image must be "),
        ("noise_scale = nan", "DomainError: data: world noise_scale must be "),
        ("inventory = ", "DomainError: data: world inventory must be non-empty"),
        ("templates = a {} here | a {} and {x}", "DomainError: data: world templates: 'a {} and {x}' has a field"),
        ("templates = a {} here | {0} {1}", "DomainError: data: world templates: '{0} {1}' has a field"),
        ("templates = a {} here | a {} {", "DomainError: data: world templates: 'a {} {': "),
        ("present_score = 0.5", "ParseError: data: line 9: present_score = '0.5' does not parse"),
        ("dim = x", "ParseError: data: line 5: dim = 'x' does not parse"),
        ("dim = 1000000000000", "DomainError: data: world dim 1000000000000, latent_rank 5 and 8 names size the "
                                "basis and anchors at 104000000000000 bytes, past the 1073741824-byte budget\n"),
    ], ids=["present_score", "refs_per_image", "noise_scale", "empty-inventory", "named-field", "numbered-fields",
            "unbalanced-brace", "one-number-band", "word-dim", "dim-past-the-budget"])
    def test_world_value_out_of_range_fails_by_key(self, tmp_path, capsys, line, message):
        key = line.partition("=")[0].strip()
        world = Path(write_world(tmp_path))
        lines = [line if old.partition("=")[0].strip() == key else old for old in world.read_text().splitlines()]
        assert line in lines  # the saved world sets every key once; this case replaces one
        world.write_text("\n".join(lines) + "\n")
        cfg_path = write_config(tmp_path)
        assert main(gen_args(cfg_path, str(world))) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"novelcap: {message}") and err.count("\n") == 1, err
        assert not os.path.exists(load_config(cfg_path).dataset)

    def test_repeated_world_key_names_both_lines(self, tmp_path, capsys):
        world = Path(write_world(tmp_path))
        lines = world.read_text().splitlines()
        first = next(n for n, line in enumerate(lines, start=1) if line.startswith("seed "))
        world.write_text("\n".join(lines + ["seed = 9"]) + "\n")
        cfg_path = write_config(tmp_path)
        assert main(gen_args(cfg_path, str(world))) == 1
        assert capsys.readouterr().err == (f"novelcap: ParseError: data: line {len(lines) + 1}: key 'seed' is set "
                                           f"twice (first on line {first})\n")
        assert not os.path.exists(load_config(cfg_path).dataset)

    def test_repeated_known_word_in_the_manifest_fails_eval(self, trained, capsys):
        _, cfg_path = trained  # eval reads its checkpoint before the manifest
        manifest = Path(load_config(cfg_path).manifest)
        doc = json.loads(manifest.read_text())
        doc["known_words"].append(doc["known_words"][0])
        manifest.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["eval", "--config", cfg_path]) == 1
        err = capsys.readouterr().err
        assert err == f"novelcap: SchemaError: data: manifest known word {doc['known_words'][0]!r} is listed twice\n"


class TestTrain:
    def test_training_record_that_mentions_a_held_out_word_is_refused(self, tmp_path, capsys):
        # a manifest of one corpus over another corpus with the same record ids
        for name, seed in (("a", 3), ("b", 4)):
            cfg_path = write_config(tmp_path)
            world = write_world(tmp_path, f"world-{name}.cfg", seed=seed)
            assert main(gen_args(cfg_path, world) + ["--out", str(tmp_path / name)]) == 0
        cfg_path = write_config(tmp_path, dataset=tmp_path / "b" / "dataset.jsonl",
                                manifest=tmp_path / "a" / "split.json")
        capsys.readouterr()
        assert main(["train", "--config", cfg_path]) == 1
        err = capsys.readouterr().err
        record, word = err.split("'")[1], err.split("'")[3]
        assert err == f"novelcap: SchemaError: data: training record {record!r} mentions held-out word {word!r}\n"
        assert record in load_manifest(tmp_path / "a" / "split.json")["train"] and word in ("bus", "bird")
        rec = next(r for r in load_dataset(tmp_path / "b" / "dataset.jsonl") if r.image_id == record)
        assert any(word in ref for ref in rec.references)
        assert not os.path.exists(load_config(cfg_path).checkpoint)

    def test_smoke_writes_checkpoint_and_log(self, trained):
        tmp_path, cfg_path = trained
        cfg = load_config(cfg_path)
        params, vocab_ref = load_checkpoint(cfg.checkpoint)
        vocab = training_vocabulary(cfg)
        assert vocab_ref == vocab.digest() == "sha256:" + hashlib.sha256(vocab.text().encode()).hexdigest()
        assert "lstm_w" in params
        log_lines = (tmp_path / "train.log").read_text().splitlines()
        assert len(log_lines) == cfg.epochs + 1
        assert log_lines[0].startswith("epoch=1 loss_smp=")
        assert log_lines[-1].startswith("best_epoch=")

    def test_a_failed_run_leaves_the_last_log_and_checkpoint_whole(self, trained, capsys, monkeypatch):
        tmp_path, cfg_path = trained
        cfg = load_config(cfg_path)
        outputs = (Path(cfg.train_log), Path(cfg.checkpoint))
        before = [path.read_bytes() for path in outputs]
        assert all(before)
        files = sorted(os.listdir(tmp_path))

        def failing_validation(*args):
            raise NumericError("evaluation: validation failed")

        monkeypatch.setattr(evaluation, "average_f1_over", failing_validation)  # epoch 1's validation
        capsys.readouterr()
        assert main(["train", "--config", cfg_path]) == 1
        assert capsys.readouterr().err == "novelcap: NumericError: evaluation: validation failed\n"
        assert [path.read_bytes() for path in outputs] == before
        assert sorted(os.listdir(tmp_path)) == files  # no temporary file is left

    def test_loss_drops_within_run(self, tmp_path):
        cfg_path = write_config(tmp_path, epochs=4)
        assert main(gen_args(cfg_path, write_world(tmp_path))) == 0
        assert main(["train", "--config", cfg_path]) == 0
        lines = (tmp_path / "train.log").read_text().splitlines()[:-1]
        totals = [float(l.split("total=")[1].split()[0]) for l in lines]
        assert totals[-1] < totals[0]

    def test_best_checkpoint_reproduces_logged_val_f1(self, trained):
        tmp_path, cfg_path = trained
        cfg = load_config(cfg_path)
        best_line = (tmp_path / "train.log").read_text().splitlines()[-1]
        logged = float(best_line.split("best_val_f1=")[1])
        params, _ = load_checkpoint(cfg.checkpoint)
        model = CaptionModel.from_params(params)
        vocab = training_vocabulary(cfg)
        det_map = intersect_detectable(vocab, load_manifest(cfg.manifest)["class_names"])
        split = split_of(cfg)
        captioner = make_captioner(model, vocab, det_map, cfg, mode="dnoc")
        val_f1 = average_f1_over(split.val, captioner, split.held_out_words)
        assert val_f1 == logged


class TestCommittedOutputs:
    """Every file a command writes goes to a temporary name first, so an
    output that cannot be written fails before the command's work and
    leaves every earlier file as it was."""

    @pytest.mark.parametrize("command, output", [
        ("gen-data", "dataset"), ("gen-data", "manifest"), ("train", "train_log"), ("train", "checkpoint"),
        ("eval", "report"), ("sweep-ndet", "--out"),
    ], ids=["gen-data-dataset", "gen-data-manifest", "train-train_log", "train-checkpoint", "eval-report",
            "sweep-ndet-out"])
    def test_an_output_path_that_names_a_directory_fails_before_any_work(self, trained, capsys, monkeypatch,
                                                                         command, output):
        tmp_path, _ = trained
        assert main(["eval", "--config", str(tmp_path / "run.cfg")]) == 0  # a report among the earlier files
        target = tmp_path / "taken"
        target.mkdir()
        cfg_path = write_config(tmp_path, **({} if output == "--out" else {output: target}))
        args = {"gen-data": gen_args(cfg_path, str(tmp_path / "world.cfg")),
                "train": ["train", "--config", cfg_path], "eval": ["eval", "--config", cfg_path],
                "sweep-ndet": ["sweep-ndet", "--config", cfg_path, "--values", "1,2", "--out", str(target)]}[command]
        before = files_under(tmp_path)

        def unreachable(*args, **kwargs):
            raise AssertionError("work done for an output that cannot be written")

        for owner, name in ((datamod, "generate_synthetic"), (cli, "train_model"), (cli, "make_captioner")):
            monkeypatch.setattr(owner, name, unreachable)
        capsys.readouterr()
        assert main(args) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"novelcap: io: [Errno 21] Is a directory: '{target}'\n")
        assert files_under(tmp_path) == before and not os.listdir(target)  # and no temporary file

    @pytest.mark.parametrize("command", ["gen-data", "train"])
    def test_two_outputs_that_name_one_file_are_refused_by_name(self, trained, capsys, monkeypatch, command):
        tmp_path, _ = trained
        if command == "gen-data":  # another spelling of the dataset's path
            first, second = tmp_path / "dataset.jsonl", f"{tmp_path}/./dataset.jsonl"
            cfg_path = write_config(tmp_path, manifest=second)
            args = gen_args(cfg_path, str(tmp_path / "world.cfg"))
        else:  # a link to the checkpoint
            first, second = tmp_path / "log-link", tmp_path / "model.ckpt"
            first.symlink_to(second)
            cfg_path = write_config(tmp_path, train_log=first)
            args = ["train", "--config", cfg_path]
        before = files_under(tmp_path)

        def unreachable(*args, **kwargs):
            raise AssertionError("a temporary file made for two outputs that name one file")

        monkeypatch.setattr(cli, "open", unreachable, raising=False)  # shadows the builtin in cli alone
        capsys.readouterr()
        assert main(args) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"novelcap: ConfigError: cli: outputs {first} and {second} "
                                                    f"name one file\n")
        assert files_under(tmp_path) == before

    @pytest.mark.parametrize("command", ["eval", "train", "gen-data"])
    def test_an_output_that_names_an_input_is_refused_by_name(self, trained, capsys, monkeypatch, command):
        tmp_path, _ = trained
        if command == "eval":  # --out as another spelling of the manifest eval reads
            output, read = f"{tmp_path}/./split.json", tmp_path / "split.json"
            args = ["eval", "--config", write_config(tmp_path), "--out", output]
        elif command == "train":  # the checkpoint at the dataset train reads
            output = read = tmp_path / "dataset.jsonl"
            args = ["train", "--config", write_config(tmp_path, checkpoint=output)]
        else:  # the dataset at the world config gen-data reads
            output = read = tmp_path / "world.cfg"
            args = gen_args(write_config(tmp_path, dataset=output), str(read))
        before = files_under(tmp_path)

        def unreachable(*args, **kwargs):
            raise AssertionError("work done or a temporary file made for an output that names an input")

        for owner, name in ((datamod, "generate_synthetic"), (cli, "train_model"), (cli, "make_captioner"),
                            (cli, "open")):
            monkeypatch.setattr(owner, name, unreachable, raising=False)  # open shadows the builtin in cli alone
        capsys.readouterr()
        assert main(args) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"novelcap: ConfigError: cli: output {output} and input {read} "
                                                    f"name one file\n")
        assert files_under(tmp_path) == before

    def test_every_output_is_checked_before_any_directory_is_made(self, trained, capsys):
        tmp_path, _ = trained
        taken = tmp_path / "taken"
        taken.mkdir()
        cfg_path = write_config(tmp_path, train_log=tmp_path / "fresh" / "train.log")
        before = files_under(tmp_path)
        capsys.readouterr()
        assert main(["train", "--config", cfg_path, "--checkpoint", str(taken)]) == 1
        assert capsys.readouterr().err == f"novelcap: io: [Errno 21] Is a directory: '{taken}'\n"
        assert not (tmp_path / "fresh").exists() and files_under(tmp_path) == before


    @pytest.mark.parametrize("through", ["afile/model.ckpt", "afile/sub/model.ckpt", "dangling/model.ckpt"])
    def test_an_output_whose_directory_path_runs_through_a_file_is_refused_by_name(self, trained, capsys, through):
        tmp_path, _ = trained
        (tmp_path / "afile").write_text("a file, not a directory\n")
        (tmp_path / "dangling").symlink_to(tmp_path / "nowhere")
        cfg_path = write_config(tmp_path, train_log=tmp_path / "fresh" / "train.log")
        output = tmp_path / through
        before = files_under(tmp_path)
        capsys.readouterr()
        assert main(["train", "--config", cfg_path, "--checkpoint", str(output)]) == 1
        assert capsys.readouterr().err == f"novelcap: io: [Errno 20] Not a directory: '{output}'\n"
        assert not (tmp_path / "fresh").exists() and files_under(tmp_path) == before  # and no temporary file


class TestEvalAndSweep:
    def test_eval_dnoc_report_round_trip(self, trained, capsys):
        tmp_path, cfg_path = trained
        assert main(["eval", "--config", cfg_path, "--mode", "dnoc"]) == 0
        out = capsys.readouterr().out
        cfg = load_config(cfg_path)
        report = json.loads(Path(cfg.report).read_text())
        assert report["mode"] == "dnoc"
        assert report["split_hash"] and report["split_hash"] in out
        assert "average_f1" in out

    def test_eval_twice_is_byte_identical(self, trained):
        tmp_path, cfg_path = trained
        cfg = load_config(cfg_path)
        assert main(["eval", "--config", cfg_path, "--mode", "dnoc"]) == 0
        first = open(cfg.report, "rb").read()
        assert main(["eval", "--config", cfg_path, "--mode", "dnoc"]) == 0
        assert open(cfg.report, "rb").read() == first

    def test_no_memory_mode_runs(self, trained):
        tmp_path, cfg_path = trained
        out = str(tmp_path / "nomem.json")
        assert main(["eval", "--config", cfg_path, "--mode", "no-memory", "--out", out]) == 0
        assert json.loads(Path(out).read_text())["mode"] == "no-memory"

    def test_modes_share_identical_split_hash(self, trained):
        tmp_path, cfg_path = trained
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        assert main(["eval", "--config", cfg_path, "--mode", "dnoc", "--out", a]) == 0
        assert main(["eval", "--config", cfg_path, "--mode", "no-memory", "--out", b]) == 0
        assert json.loads(Path(a).read_text())["split_hash"] == json.loads(Path(b).read_text())["split_hash"]

    def test_no_placeholder_baseline_scores_zero_held_out(self, tmp_path):
        cfg_path = write_config(tmp_path, train_mode="no-placeholder", epochs=1)
        assert main(gen_args(cfg_path, write_world(tmp_path))) == 0
        assert main(["train", "--config", cfg_path]) == 0
        out = str(tmp_path / "baseline.json")
        assert main(["eval", "--config", cfg_path, "--mode", "no-placeholder", "--out", out]) == 0
        report = json.loads(Path(out).read_text())
        assert report["average_f1"] == 0.0
        assert all(report["per_object"][w]["f1"] == 0.0 for w in ("bus", "bird"))

    def test_sweep_single_value_matches_eval(self, trained, capsys):
        tmp_path, cfg_path = trained
        assert main(["eval", "--config", cfg_path, "--mode", "dnoc"]) == 0
        capsys.readouterr()
        assert main(["sweep-ndet", "--config", cfg_path, "--values", "4"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "n_det\taverage_f1"
        sweep_f1 = float(out[1].split("\t")[1])
        assert sweep_f1 == json.loads(Path(load_config(cfg_path).report).read_text())["average_f1"]

    def test_sweep_writes_table_file(self, trained):
        tmp_path, cfg_path = trained
        out = str(tmp_path / "sweep.tsv")
        assert main(["sweep-ndet", "--config", cfg_path, "--values", "1,2", "--out", out]) == 0
        lines = open(out).read().splitlines()
        assert lines[0] == "n_det\taverage_f1"
        assert len(lines) == 3

    def test_the_config_sizes_change_no_output_of_a_trained_model(self, trained, capsys):
        # the checkpoint states the model's sizes: eval, caption and sweep-ndet read none of the config's
        tmp_path, _ = trained
        table = str(tmp_path / "sweep.tsv")
        commands = (["eval", "--mode", "dnoc"], ["caption", "--image-id", "synth-00000"],
                    ["sweep-ndet", "--values", "1,4", "--out", table])
        runs = []
        for sizes in ({}, {"hidden_size": 10 ** 12, "embed_size": 0, "image_dim": 3, "key_dim": -1}):
            cfg_path = write_config(tmp_path, **sizes)
            outputs = []
            for command in commands:
                assert main(command[:1] + ["--config", cfg_path] + command[1:]) == 0
                outputs.append(capsys.readouterr())
            runs.append((outputs, Path(load_config(cfg_path).report).read_bytes(), Path(table).read_bytes()))
        assert runs[0] == runs[1]

    def test_malformed_checkpoint_is_checkpoint_error(self, trained, capsys):
        tmp_path, cfg_path = trained
        params, vocab_ref = load_checkpoint(load_config(cfg_path).checkpoint)
        missing = {k: v for k, v in params.items() if k != "embed"}
        extra = dict(params, w_extra=np.zeros(3))
        misshapen = dict(params, lstm_w=params["lstm_w"][:, 1:])
        # checkpoints of the retired architectures: no cell-state projection, or a key projection
        no_cell_init = {k: v for k, v in params.items() if k not in ("w_img_cell", "b_img_cell")}
        key_projection = dict(params, w_key=np.eye(params["w_query"].shape[0]))
        non_finite = dict(params, b_out=np.full_like(params["b_out"], np.nan))
        for name, bad in (("embed", missing), ("w_extra", extra), ("lstm_w", misshapen),
                          ("w_img_cell", no_cell_init), ("w_key", key_projection),
                          ("b_out", non_finite)):
            path = tmp_path / f"bad_{name}.ckpt"
            save_checkpoint(path, bad, vocab_ref=vocab_ref)
            code = main(["eval", "--config", cfg_path, "--checkpoint", str(path)])
            assert code == 1
            err = capsys.readouterr().err
            assert "CheckpointError" in err and repr(name) in err, err


class TestCheckpointVocabulary:
    """A checkpoint reads only the vocabulary of the training records it was
    trained on: a manifest whose training records give other words, or the
    same words at other ids, is refused by the manifest, as is a stored path."""

    @staticmethod
    def args(command, cfg_path):
        extra = {"caption": ["--image-id", load_dataset(load_config(cfg_path).dataset)[0].image_id],
                 "sweep-ndet": ["--values", "1,2"]}
        return [command, "--config", cfg_path, *extra.get(command, [])]

    @pytest.mark.parametrize("same_words", [True, False], ids=["same-words", "other-words"])
    @pytest.mark.parametrize("command", ["eval", "caption", "sweep-ndet"])
    def test_a_manifest_whose_training_records_give_another_vocabulary_is_refused(self, trained, capsys, command,
                                                                                  same_words):
        tmp_path, cfg_path = trained
        cfg = load_config(cfg_path)
        trained_on = training_vocabulary(cfg)
        doc = json.loads(Path(cfg.manifest).read_text())
        train = split_of(cfg).train

        def words_without(moved):
            return build_vocabulary([ref for r in train if r.image_id not in moved for ref in r.references]).words

        if same_words:  # one record fewer that keeps every word, at other ids
            moved = next(ids for ids in ({r.image_id} for r in train)
                         if sorted(words_without(ids)) == sorted(trained_on.words)
                         and words_without(ids) != trained_on.words)
        else:  # the first record alone holds fewer words
            moved = {r.image_id for r in train[1:]}
        assert (len(words_without(moved)) == trained_on.size) == same_words
        doc["train"] = [i for i in doc["train"] if i not in moved]  # to val, out of the training records
        doc["val"] += sorted(moved)
        other = tmp_path / "other-split.json"
        other.write_text(json.dumps(doc))
        other_cfg = write_config(tmp_path, manifest=other)
        gives = training_vocabulary(load_config(other_cfg)).digest()
        capsys.readouterr()
        assert main(self.args(command, other_cfg)) == 1
        assert capsys.readouterr().err == (
            f"novelcap: CheckpointError: cli: checkpoint {cfg.checkpoint} was not trained with the vocabulary of "
            f"the training records of {other} (it holds {trained_on.digest()!r}, they give {gives!r})\n")

    @pytest.mark.parametrize("command", ["eval", "caption", "sweep-ndet"])
    def test_a_checkpoint_of_another_vocab_size_under_the_same_digest_is_refused(self, trained, capsys, command):
        tmp_path, cfg_path = trained
        cfg = load_config(cfg_path)
        params, vocab_ref = load_checkpoint(cfg.checkpoint)
        # one word more in every array the vocabulary sizes
        wider = dict(params, embed=np.pad(params["embed"], ((0, 0), (0, 1))),
                     w_out=np.pad(params["w_out"], ((0, 1), (0, 0))), b_out=np.pad(params["b_out"], (0, 1)))
        save_checkpoint(cfg.checkpoint, wider, vocab_ref=vocab_ref)
        size = training_vocabulary(cfg).size
        capsys.readouterr()
        assert main(self.args(command, cfg_path)) == 1
        assert capsys.readouterr() == ("", (
            f"novelcap: CheckpointError: cli: checkpoint {cfg.checkpoint} has vocab_size {size + 1}, not the "
            f"{size} words of the training records of {cfg.manifest}\n"))

    @pytest.mark.parametrize("command", ["eval", "caption", "sweep-ndet"])
    def test_a_checkpoint_that_holds_a_vocabulary_path_is_refused(self, trained, capsys, command):
        tmp_path, cfg_path = trained
        cfg = load_config(cfg_path)
        assert main(self.args(command, cfg_path)) == 0
        params, _ = load_checkpoint(cfg.checkpoint)
        save_checkpoint(cfg.checkpoint, params, vocab_ref="data/words")  # a path, as train wrote before the digest
        capsys.readouterr()
        assert main(self.args(command, cfg_path)) == 1
        err = capsys.readouterr().err
        assert "CheckpointError" in err and "holds 'data/words'" in err, err


def rewrite_dataset(cfg_path, edit):
    """Apply ``edit`` to every loaded record and save the dataset back in place."""
    path = load_config(cfg_path).dataset
    records = load_dataset(path)
    for rec in records:
        edit(rec)
    save_dataset(records, path)


class TestDetectionChecks:
    @pytest.mark.parametrize("mode", ["dnoc", "no-memory"])
    def test_label_outside_class_names_names_record(self, trained, capsys, mode):
        tmp_path, cfg_path = trained

        def relabel(rec):
            if rec.image_id == "synth-00005":
                rec.detections.labels[0] = 99
        rewrite_dataset(cfg_path, relabel)
        assert main(["eval", "--config", cfg_path, "--mode", mode]) == 1
        err = capsys.readouterr().err
        assert "SchemaError" in err and "record 'synth-00005' has detection label 99" in err, err

    @pytest.mark.parametrize("command, key", [(["eval", "--mode", "no-memory"], "key_dim"),
                                              (["eval"], "image_dim"),
                                              (["caption", "--image-id", "synth-00000"], "key_dim"),
                                              (["sweep-ndet", "--values", "1,2"], "key_dim"),
                                              (["train"], "key_dim"),
                                              (["train"], "image_dim")],
                             ids=["eval", "eval-image_dim", "caption", "sweep-ndet", "train", "train-image_dim"])
    def test_detection_length_must_match_key_dim(self, trained, capsys, monkeypatch, command, key):
        # train holds the data to the config's sizes; the others, to the sizes of the checkpoint they load
        tmp_path, cfg_path = trained

        def shorten(rec):
            if key == "image_dim":
                rec.feature = rec.feature[:6]
            else:
                rec.detections = Detections(rec.detections.features[:, :6], rec.detections.labels,
                                            rec.detections.scores)
        rewrite_dataset(cfg_path, shorten)

        def unreachable(*args, **kwargs):
            raise AssertionError("pairs built or a caption decoded for data of the wrong length")

        monkeypatch.setattr(TrainingPairs, "of", unreachable)
        monkeypatch.setattr(pipeline, "decode_greedy", unreachable)
        monkeypatch.setattr(pipeline, "decode_batch", unreachable)
        assert main(command[:1] + ["--config", cfg_path] + command[1:]) == 1
        captured = capsys.readouterr()
        kind = "image" if key == "image_dim" else "detection"
        assert (captured.out, captured.err) == ("", (
            f"novelcap: SchemaError: cli: {kind} features in {load_config(cfg_path).dataset} have length 6, "
            f"not the {'config' if command == ['train'] else 'checkpoint'}'s {key} 8\n"))


class TestListFlags:
    @pytest.mark.parametrize("flag, args", [
        ("--values", ["sweep-ndet", "--values", "1,x"]),
        ("--objects-per-image", ["gen-data", "--objects-per-image", "1"]),
        ("--ratios", ["gen-data", "--ratios", "0.8,0.1,x"]),
    ], ids=["values", "objects-per-image", "ratios"])
    def test_malformed_list_names_flag(self, tmp_path, capsys, flag, args):
        assert main(args + ["--config", write_config(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("novelcap: ConfigError: cli: ") and flag in err, err

    @pytest.mark.parametrize("args, message", [
        (["gen-data", "--objects-per-image", "-1,2"], "DomainError: data: bad objects_per_image range (-1, 2)"),
        (["gen-data", "--ratios", "-1,1,1"],
         "DomainError: data: split ratios (-1.0, 1.0, 1.0) must be non-negative and sum to 1"),
        (["gen-data", "--ratios", "nan,0.5,0.5"],
         "DomainError: data: split ratios (nan, 0.5, 0.5) must be non-negative and sum to 1"),
        (["gen-data", "--ratios", "0.5,nan,0.5"],
         "DomainError: data: split ratios (0.5, nan, 0.5) must be non-negative and sum to 1"),
        (["gen-data", "--ratios", "0.5,0.5,nan"],
         "DomainError: data: split ratios (0.5, 0.5, nan) must be non-negative and sum to 1"),
        (["sweep-ndet", "--values", "-1,2"], "DomainError: cli: sweep values must all be >= 1"),
        (["sweep-ndet", "--val", "-1,2"], "DomainError: cli: sweep values must all be >= 1"),
    ], ids=["objects-per-image", "ratios", "ratios-nan-first", "ratios-nan-second", "ratios-nan-third", "values",
            "abbreviated-values"])
    def test_value_with_a_leading_dash_reaches_the_check_that_names_it(self, tmp_path, capsys, args, message):
        extra = ["--world-config", write_world(tmp_path), "--held-out", "bus", "--n-images", "80"]
        cfg_path = write_config(tmp_path)
        assert main(args + ["--config", cfg_path] + (extra if args[0] == "gen-data" else [])) == 1
        assert capsys.readouterr().err == f"novelcap: {message}\n"
        assert not os.path.exists(load_config(cfg_path).dataset)


class TestNDetPastEveryTable:
    def test_train_eval_and_sweep_past_every_table_equal_those_at_the_longest_table(self, tmp_path, capsys):
        # n_det sizes no buffer: past every table it takes every row, as the longest table's length does
        cfg_path = write_config(tmp_path)
        assert main(gen_args(cfg_path, write_world(tmp_path))) == 0
        cfg = load_config(cfg_path)
        longest = max(len(rec.detections) for rec in load_dataset(cfg.dataset))
        assert longest > cfg.n_det
        runs = []
        for n_det in (longest, 10 ** 12):
            ckpt_path, report = str(tmp_path / f"{n_det}.ckpt"), str(tmp_path / f"{n_det}.json")
            flags = ["--config", cfg_path, "--n-det", str(n_det), "--checkpoint", ckpt_path]
            assert main(["train", *flags]) == 0
            assert main(["eval", *flags, "--out", report]) == 0
            capsys.readouterr()
            assert main(["sweep-ndet", "--config", cfg_path, "--checkpoint", ckpt_path,
                         "--values", f"{longest},{10 ** 12}"]) == 0
            sweep = [line.split("\t") for line in capsys.readouterr().out.splitlines()[1:]]
            assert [n for n, _ in sweep] == [str(longest), str(10 ** 12)] and sweep[0][1] == sweep[1][1]
            runs.append((Path(ckpt_path).read_bytes(), Path(cfg.train_log).read_bytes(),
                         Path(report).read_bytes(), sweep[0][1]))
        assert runs[0] == runs[1]


class TestMaxStepsPastTheBudget:
    @pytest.mark.parametrize("command", [["train"], ["eval"], ["caption", "--image-id", "synth-00000"],
                                         ["sweep-ndet", "--values", "1,2"]],
                             ids=["train", "eval", "caption", "sweep-ndet"])
    def test_is_refused_by_key_before_any_epoch_or_caption(self, trained, capsys, monkeypatch, command):
        tmp_path, _ = trained

        def unreachable(*args, **kwargs):
            raise AssertionError("data read for a refused max_steps")

        monkeypatch.setattr(datamod, "load_dataset", unreachable)
        cfg_path = write_config(tmp_path, max_steps=10 ** 12)
        capsys.readouterr()
        assert main(command[:1] + ["--config", cfg_path] + command[1:]) == 1
        captured = capsys.readouterr()
        assert not captured.out
        owner = "config" if command[0] == "train" else "checkpoint"  # whose hidden_size sizes the decode
        assert captured.err == (f"novelcap: ConfigError: decoder: max_steps 1000000000000 and the {owner}'s "
                                f"hidden_size 24 size a greedy decode's buffers at 384000000000192 bytes, past the "
                                f"1073741824-byte budget\n")

    def test_eval_counts_it_at_the_checkpoint_hidden_size(self, trained, capsys, monkeypatch):
        # 10**7 steps fit the budget at the config's hidden_size 1, not at the checkpoint's 24
        tmp_path, _ = trained
        cfg_path = write_config(tmp_path, hidden_size=1, max_steps=10 ** 7, report=tmp_path / "fresh.json")
        cfg = load_config(cfg_path)
        decode_within_budget(cfg.max_steps, cfg.hidden_size, "config")  # train would decode within the budget

        def unreachable(*args, **kwargs):
            raise AssertionError("data read for a refused max_steps")

        monkeypatch.setattr(datamod, "load_dataset", unreachable)
        capsys.readouterr()
        assert main(["eval", "--config", cfg_path]) == 1
        assert capsys.readouterr() == ("", (
            "novelcap: ConfigError: decoder: max_steps 10000000 and the checkpoint's hidden_size 24 size a greedy "
            "decode's buffers at 3840000192 bytes, past the 1073741824-byte budget\n"))
        assert not os.path.exists(cfg.report)


class TestEmbedSizePastTheBudget:
    def test_train_refuses_it_by_its_sizes_before_any_epoch(self, trained, capsys, monkeypatch):
        tmp_path, _ = trained
        before = files_under(tmp_path)

        def unreachable(*args, **kwargs):
            raise AssertionError("training pairs built for a refused embed_size")

        monkeypatch.setattr(TrainingPairs, "of", unreachable)
        cfg_path = write_config(tmp_path, embed_size=10 ** 12)
        vocab_size = training_vocabulary(load_config(cfg_path)).size
        theta_bytes = sum(math.prod(s) for s in param_shapes(vocab_size, 24, 10 ** 12, 8, 8).values()) * 8
        table_bytes = (4 * 24 * (vocab_size + 24) + 24 * vocab_size) * 8  # gate table, recurrent block, w_out.T
        capsys.readouterr()
        assert main(["train", "--config", cfg_path]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", (
            f"novelcap: ConfigError: decoder: vocab_size {vocab_size}, hidden_size 24, embed_size 1000000000000, "
            f"image_dim 8 and key_dim 8 size the 9 theta-sized vectors and 2 sets of decode tables training holds "
            f"at {9 * theta_bytes + 2 * table_bytes} bytes, past the 1073741824-byte budget\n"))
        before["run.cfg"] = Path(cfg_path).read_bytes()
        assert files_under(tmp_path) == before  # the last run's log and checkpoint, and no temporary file


class TestCorpusPastTheBudget:
    @pytest.mark.parametrize("n_images, world_changes, refs, corpus_bytes", [
        ("1000000000000", {}, 2, 624000000000000),
        ("80", {"refs_per_image": 10 ** 12}, 10 ** 12, 6400000000037120),
    ], ids=["n-images", "refs_per_image"])
    def test_gen_data_refuses_it_by_its_sizes_before_any_draw(self, tmp_path, capsys, monkeypatch, n_images,
                                                              world_changes, refs, corpus_bytes):
        # 8 objects of dim 8, 2 + 3 distractor rows, 10-token templates: 10**12 of either is past the budget
        def unreachable(*args, **kwargs):
            raise AssertionError("records drawn for a refused corpus")

        monkeypatch.setattr(datamod, "_generate_once", unreachable)
        cfg_path = write_config(tmp_path)
        world = write_world(tmp_path, **world_changes)
        before = files_under(tmp_path)
        assert main(gen_args(cfg_path, world, n_images=n_images)) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", (
            f"novelcap: DomainError: data: n_images {n_images}, refs_per_image {refs} and dim 8 size the corpus "
            f"at {corpus_bytes} bytes, past the 1073741824-byte budget\n"))
        assert files_under(tmp_path) == before  # no dataset, manifest or temporary file


class TestModelSizesAreTrainsAlone:
    def test_gen_data_reads_neither_them_nor_the_decode_budget(self, tmp_path, capsys):
        # sizes that train refuses, and a decode past the budget, change no byte of gen-data's outputs
        shipped = (CONFIGS / "benchmark.cfg").read_text()
        broken = shipped
        for key, value in {"hidden_size": 0, "embed_size": 0, "image_dim": -1, "key_dim": 0,
                           "max_steps": 10 ** 12}.items():
            broken, count = re.subn(rf"^{key} = .*$", f"{key} = {value}", broken, flags=re.MULTILINE)
            assert count == 1, key
        (tmp_path / "sizes.cfg").write_text(broken)
        runs = []
        for cfg_path in (CONFIGS / "benchmark.cfg", tmp_path / "sizes.cfg"):
            out = tmp_path / "data"
            assert main(["gen-data", "--config", str(cfg_path), "--world-config", str(CONFIGS / "benchmark-world.cfg"),
                         "--n-images", "1050", "--objects-per-image", "1,1", "--out", str(out)]) == 0
            runs.append((capsys.readouterr(), files_under(out)))
        assert runs[0] == runs[1] and runs[0][1]

    @pytest.mark.parametrize("key", MODEL_SIZES)
    def test_train_refuses_each_at_zero_by_key_before_any_data(self, tmp_path, capsys, monkeypatch, key):
        def unreachable(*args, **kwargs):
            raise AssertionError("data read for a refused size")

        monkeypatch.setattr(datamod, "load_dataset", unreachable)
        cfg_path = write_config(tmp_path, **{key: 0})
        assert main(["train", "--config", cfg_path]) == 1
        assert capsys.readouterr() == ("", f"novelcap: ConfigError: config: {key} must be >= 1, got 0\n")
        assert os.listdir(tmp_path) == ["run.cfg"]


@pytest.mark.filterwarnings("error")  # a RuntimeWarning would raise out of main and fail the test
class TestFloatFaults:
    """A float fault prints one stderr line and writes nothing: the named
    check that follows it, or else a NumericError naming the module that
    made it."""

    @pytest.mark.parametrize("key, message", [
        ("weight_decay", "adam_step overflowed the second moment: a gradient entry is past 1e154"),
        ("lr", "adam_step produced non-finite parameter entries"),
    ])
    def test_train_refuses_an_adam_step_past_float64_by_name(self, trained, capsys, key, message):
        tmp_path, _ = trained
        cfg_path = write_config(tmp_path, **{key: 1e300})
        before = files_under(tmp_path)
        capsys.readouterr()
        assert main(["train", "--config", cfg_path]) == 1
        assert capsys.readouterr() == ("", f"novelcap: NumericError: numerics: {message}\n")
        assert files_under(tmp_path) == before  # the last run's log and checkpoint, and no temporary file

    def test_train_on_a_world_past_float64_prints_only_its_loss_check(self, tmp_path, capsys):
        # the memory loss divides by a zero probability: the loss check names the fault, numpy does not
        cfg_path = write_config(tmp_path)
        assert main(gen_args(cfg_path, write_world(tmp_path, noise_scale=1e300))) == 0
        capsys.readouterr()
        assert main(["train", "--config", cfg_path]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1, captured
        assert captured.err.startswith("novelcap: NumericError: pipeline: non-finite training loss ("), captured
        cfg = load_config(cfg_path)
        assert not os.path.exists(cfg.checkpoint) and not os.path.exists(cfg.train_log)

    def test_a_fault_that_no_check_follows_is_refused_in_its_module(self, trained, capsys):
        # keys and a query projection near float64's edge overflow each fill's similarities: a report of those
        # fills would be noise
        tmp_path, cfg_path = trained
        cfg = load_config(cfg_path)
        save_dataset([dataclasses.replace(rec, detections=Detections(rec.detections.features * 1e300,
                                                                     rec.detections.labels, rec.detections.scores))
                      for rec in load_dataset(cfg.dataset)], cfg.dataset)
        params, vocab_ref = load_checkpoint(cfg.checkpoint)
        huge = str(tmp_path / "huge.ckpt")
        save_checkpoint(huge, dict(params, w_query=params["w_query"] * 1e300), vocab_ref=vocab_ref)
        capsys.readouterr()
        assert main(["eval", "--config", cfg_path, "--checkpoint", huge]) == 1
        assert capsys.readouterr() == ("", "novelcap: NumericError: memory: overflow encountered in matmul\n")
        assert not os.path.exists(cfg.report)


class TestCaption:
    def test_prints_single_caption(self, trained, capsys):
        tmp_path, cfg_path = trained
        cfg = load_config(cfg_path)
        image_id = load_dataset(cfg.dataset)[0].image_id
        assert main(["caption", "--config", cfg_path, "--image-id", image_id]) == 0
        out = capsys.readouterr().out.strip()
        assert out and "<GO>" not in out

    def test_unknown_image_id_fails(self, trained, capsys):
        tmp_path, cfg_path = trained
        code = main(["caption", "--config", cfg_path, "--image-id", "nope"])
        assert code == 1
        assert "CoverageError" in capsys.readouterr().err


class TestConfigPlumbing:
    def test_flags_override_file(self, tmp_path):
        cfg_path = write_config(tmp_path, seed=3)
        cfg = load_config(cfg_path)
        assert cfg.seed == 3
        args = build_parser().parse_args(["eval", "--config", cfg_path, "--seed", "9", "--n-det", "2",
                                          "--checkpoint", "other.ckpt"])
        flagged = _build_config(args)
        assert (flagged.seed, flagged.n_det, flagged.checkpoint) == (9, 2, "other.ckpt")
        assert dataclasses.replace(flagged, seed=3, n_det=4, checkpoint=cfg.checkpoint) == cfg
        assert _build_config(build_parser().parse_args(["eval", "--config", cfg_path])) == cfg

    @pytest.mark.parametrize("line", ["lr = -1", "max_steps = 0"], ids=["lr", "max_steps"])
    def test_invalid_value_rejected(self, tmp_path, line):
        path = tmp_path / "bad.cfg"
        path.write_text(line + "\n")
        from novelcap.config import validate_config
        from novelcap.errors import ConfigError
        with pytest.raises(ConfigError):
            validate_config(load_config(path))

    @pytest.mark.parametrize("line", ["whatever = 3", "key_projection = true", "image_to_cell = true",
                                      "beta1 = 0.9", "clip_norm = 5", "min_count = 1"],
                             ids=["whatever", "key_projection", "image_to_cell", "beta1", "clip_norm",
                                  "min_count"])
    def test_unknown_key_names_line(self, tmp_path, line):
        path = tmp_path / "bad.cfg"
        path.write_text(f"# comment\n{line}\n")
        from novelcap.config import load_config as lc
        from novelcap.errors import ParseError
        with pytest.raises(ParseError, match="line 2"):
            lc(path)

    @pytest.mark.parametrize("line, reason", [
        ("n_det = x", "invalid literal for int() with base 10: 'x'"),
        ("seed = 1.5", "invalid literal for int() with base 10: '1.5'"),
        ("lr = fast", "could not convert string to float: 'fast'"),
    ], ids=["n_det", "seed", "lr"])
    def test_a_value_that_does_not_parse_names_its_line_and_key(self, tmp_path, capsys, line, reason):
        path = tmp_path / "run.cfg"
        path.write_text(f"# comment\nepochs = 2\n{line}\n")
        key, _, value = (part.strip() for part in line.partition("="))
        message = f"config: line 3: {key} = {value!r} does not parse ({reason})"
        from novelcap.errors import ParseError
        with pytest.raises(ParseError) as caught:
            load_config(path)
        assert str(caught.value) == message
        assert main(["train", "--config", str(path)]) == 1
        assert capsys.readouterr().err == f"novelcap: ParseError: {message}\n"

    def test_repeated_key_names_both_lines(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("n_det = 4\n# the dash spelling is the same key\nn-det = 9\n")
        from novelcap.errors import ParseError
        with pytest.raises(ParseError, match=r"^config: line 3: key 'n_det' is set twice \(first on line 1\)$"):
            load_config(path)

    @pytest.mark.parametrize("command, extra, message", [
        (["gen-data", "--seed", "-1"], {}, "seed must be >= 0, got -1"),
        (["train"], {"lr": "nan"}, "lr must be finite and > 0, got nan"),
        (["train"], {"lr": "inf"}, "lr must be finite and > 0, got inf"),
        (["train"], {"weight_decay": "nan"}, "weight_decay must be finite and >= 0, got nan"),
    ], ids=["seed", "lr-nan", "lr-inf", "weight_decay-nan"])
    def test_bad_run_value_fails_by_key(self, tmp_path, capsys, command, extra, message):
        assert main(command + ["--config", write_config(tmp_path, **extra)]) == 1
        assert capsys.readouterr().err == f"novelcap: ConfigError: config: {message}\n"


class TestShippedConfigs:
    """The CLI twin of the acceptance benchmark loads through the CLI's own config path."""

    def test_benchmark_configs_load(self):
        configs = Path(__file__).resolve().parent.parent / "configs"
        args = build_parser().parse_args(["gen-data", "--config", str(configs / "benchmark.cfg"),
                                          "--world-config", str(configs / "benchmark-world.cfg")])
        cfg = _build_config(args)
        spec = json.loads((Path(__file__).resolve().parent / "acceptance_config.json").read_text())["benchmark"]
        for key, value in spec["run"].items():
            assert getattr(cfg, key) == value, key
        world = load_world_config(cfg.world)
        for key, value in spec["world"].items():
            assert getattr(world, key) == (tuple(value) if isinstance(value, list) else value), key
        assert (world.names, world.templates) == (datamod.DEFAULT_INVENTORY, datamod.DEFAULT_TEMPLATES)
        assert tuple(spec["held_out"]) == datamod.DEFAULT_HELD_OUT  # gen-data's held-out words without --held-out
        assert world.dim == cfg.image_dim == cfg.key_dim
