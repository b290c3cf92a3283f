"""The byte-identity check's command list and comparison, checked on the
shipped config and on made-up output directories: no tree is extracted
and no command runs."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "cli_bits.py"


@pytest.fixture(scope="module")
def cli_bits():
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(TOOL.parent))  # the tool imports git_trees from beside it, as a script does
        spec = importlib.util.spec_from_file_location("cli_bits_under_test", TOOL)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return module


def test_a_revision_that_is_not_a_commit_fails_with_the_tools_own_prefix(cli_bits, capsys):
    with pytest.raises(SystemExit) as caught:
        cli_bits.resolve("no-such-revision", cli_bits.fail)
    assert caught.value.code == 2
    assert capsys.readouterr().err.startswith("cli_bits: 'no-such-revision' is not a commit: ")


def outputs(root, files):
    for path, data in files.items():
        (root / path).parent.mkdir(parents=True, exist_ok=True)
        (root / path).write_bytes(data)
    return root


FILES = {"run/out/benchmark/model.ckpt": bytes(range(256)), "run/out/benchmark/train.log": b"epoch=1\n",
         "streams/01-header-train.stdout": b"epoch=1\n", "streams/01-header-train.exit": b"0\n"}


def test_equal_directories_are_the_same_output_for_output(cli_bits, tmp_path):
    base, head = outputs(tmp_path / "base", FILES), outputs(tmp_path / "head", FILES)
    assert cli_bits.compare_dirs(base, head) == [(path, "same") for path in sorted(FILES)]


def test_a_changed_byte_and_a_missing_file_are_each_reported(cli_bits, tmp_path):
    changed = dict(FILES)
    changed["run/out/benchmark/model.ckpt"] = bytes(range(255)) + b"\x00"
    del changed["streams/01-header-train.exit"]
    changed["streams/02-header-eval.stdout"] = b""
    verdicts = dict(cli_bits.compare_dirs(outputs(tmp_path / "base", FILES), outputs(tmp_path / "head", changed)))
    assert verdicts == {"run/out/benchmark/model.ckpt": "differs", "run/out/benchmark/train.log": "same",
                        "streams/01-header-train.stdout": "same", "streams/01-header-train.exit": "only in base",
                        "streams/02-header-eval.stdout": "only in head"}


def test_the_commands_are_the_config_header_then_every_mode_the_sweep_and_captions(cli_bits):
    text = (ROOT / "configs" / "benchmark.cfg").read_text()
    header = cli_bits.header_commands(text)
    assert [args[0] for args in header] == ["gen-data", "train", "eval"]
    assert header[0] == ["gen-data", "--config", "configs/benchmark.cfg", "--world-config",
                         "configs/benchmark-world.cfg", "--n-images", "1050", "--objects-per-image", "1,1"]
    runs = cli_bits.commands(text)
    assert [args for _, args in runs[:3]] == header
    labels = [label for label, _ in runs]
    assert len(set(labels)) == len(labels) == 3 + 3 + 1 + 3 * len(cli_bits.IMAGE_IDS)
    evals = [args for _, args in runs if args[0] == "eval"][1:]
    assert [args[args.index("--mode") + 1] for args in evals] == list(cli_bits.MODES)
    assert len({args[args.index("--out") + 1] for args in evals}) == 3  # one report per mode
    [sweep] = [args for _, args in runs if args[0] == "sweep-ndet"]
    assert sweep[sweep.index("--values") + 1] == ",".join(str(n) for n in range(1, 17))
    captions = {(args[args.index("--image-id") + 1], args[args.index("--mode") + 1])
                for _, args in runs if args[0] == "caption"}
    assert captions == {(i, m) for i in cli_bits.IMAGE_IDS for m in cli_bits.MODES}


def test_epochs_replaces_the_config_line(cli_bits):
    text = (ROOT / "configs" / "benchmark.cfg").read_text()
    three = cli_bits.with_epochs(text, 3)
    assert three.count("\nepochs = 3\n") == 1 and "epochs = 50" not in three
    assert three.replace("epochs = 3", "epochs = 50") == text
    assert cli_bits.with_epochs("seed = 7\n", 2) == "seed = 7\nepochs = 2\n"
