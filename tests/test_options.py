"""Every option has a reader.

Each subcommand accepts only the flags it reads, and every ``RunConfig``
field is read by some module other than the one that defines it.
"""

import ast
import dataclasses
from pathlib import Path

import pytest

from novelcap.cli import build_parser, main
from novelcap.config import RunConfig

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "novelcap"

FLAGS = {
    "gen-data": {"--config", "--seed", "--out", "--world-config", "--n-images", "--held-out",
                 "--objects-per-image", "--ratios"},
    "train": {"--config", "--seed", "--n-det", "--checkpoint"},
    "caption": {"--config", "--seed", "--n-det", "--checkpoint", "--image-id", "--mode"},
    "eval": {"--config", "--seed", "--n-det", "--out", "--checkpoint", "--mode"},
    "sweep-ndet": {"--config", "--out", "--checkpoint", "--values"},
}


def subcommand_flags() -> dict[str, set[str]]:
    """The long option strings of each subcommand of the parser, without --help."""
    [subparsers] = [a for a in build_parser()._actions if a.dest == "command"]
    return {name: {s for a in p._actions for s in a.option_strings if s.startswith("--")} - {"--help"}
            for name, p in subparsers.choices.items()}


def test_each_subcommand_accepts_only_the_flags_it_reads():
    assert subcommand_flags() == FLAGS


@pytest.mark.parametrize("command, flag", [(["gen-data"], "--n-det"), (["train"], "--out"),
                                           (["caption", "--image-id", "x"], "--out"),
                                           (["sweep-ndet"], "--n-det"), (["sweep-ndet"], "--seed")],
                         ids=["gen-data-n-det", "train-out", "caption-out", "sweep-ndet-n-det", "sweep-ndet-seed"])
def test_a_flag_the_command_does_not_read_is_a_usage_error(command, flag, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # a command that did run would write its default paths here
    with pytest.raises(SystemExit) as exit_info:
        main(command + [flag, "1"])
    assert exit_info.value.code == 2
    assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err


def attributes_read(path: Path) -> set[str]:
    """Every attribute name the source file ``path`` loads (``x.name`` read, not assigned)."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def test_every_run_config_field_is_read_outside_config():
    read = set().union(*(attributes_read(path) for path in PACKAGE.glob("*.py") if path.name != "config.py"))
    unread = [f.name for f in dataclasses.fields(RunConfig) if f.name not in read]
    assert not unread, f"RunConfig fields no module outside config.py reads: {unread}"
