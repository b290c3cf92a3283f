"""Run configuration: defaults, the key-value config file, flag overrides.

Defaults follow the reference operating point where one exists (four
memory slots, 15 decode steps, Adam at 1e-3 with 5e-5 weight decay, 50
epochs) with desk-scale dimensions. A config file is plain ``key = value``
lines, each value converted to its field's type as its line is read;
command-line flags win over file values.
"""

import json
from dataclasses import dataclass, fields

from .errors import ConfigError, ParseError

TRAIN_MODES = ("dnoc", "no-placeholder")
BUFFER_BUDGET = 2 ** 30  # bytes of float64 a run's sizes may allocate at once: decode state, theta, world, corpus
MODEL_SIZES = ("hidden_size", "embed_size", "image_dim", "key_dim")  # read by train; a checkpoint states its own


@dataclass
class RunConfig:
    hidden_size: int = 64
    embed_size: int = 64
    image_dim: int = 32
    key_dim: int = 32
    n_det: int = 4
    max_steps: int = 15
    lr: float = 1e-3
    weight_decay: float = 5e-5
    epochs: int = 50
    batch_size: int = 16
    seed: int = 7
    train_mode: str = "dnoc"
    dataset: str = "data/dataset.jsonl"
    manifest: str = "data/split.json"
    world: str = ""
    checkpoint: str = "out/model.ckpt"
    report: str = "out/report.json"
    train_log: str = "out/train.log"


def text_lines(path, owner: str):
    """(line number, line) of each line of a UTF-8 text file (after any
    byte-order mark), read lazily in one pass; lines end at ``\\n``, ``\\r\\n``
    or ``\\r``, each read as ``\\n``. A line that holds a byte that is not UTF-8
    is a ParseError naming ``owner`` (the module) and that line, so a file is
    refused at its first faulty line whatever its size."""
    with open(path, encoding="utf-8-sig", errors="surrogateescape") as f:
        for line_no, line in enumerate(f, start=1):
            # surrogateescape reads such a byte as U+DC80..U+DCFF, which no UTF-8 text holds
            if not line.isascii() and any("\udc80" <= ch <= "\udcff" for ch in line):
                raise ParseError(f"{owner}: line {line_no}: not UTF-8 text")
            yield line_no, line


def read_json(path, owner: str):
    """The JSON document of a UTF-8 text file, or a ParseError naming ``owner`` and, where it can, the line."""
    try:
        return json.loads("".join(line for _, line in text_lines(path, owner)))
    except json.JSONDecodeError as e:
        raise ParseError(f"{owner}: line {e.lineno}: {e.msg}") from e
    except (ValueError, RecursionError) as e:  # an integer too long or nesting too deep
        raise ParseError(f"{owner}: {e}") from e


def read_key_values(path, parsers, owner: str) -> dict:
    """The values of a plain ``key = value`` file by key, each converted by
    its key's parser in ``parsers`` as its line is read; skips blank lines
    and ``#`` comments and reads ``-`` in a key as ``_``. A line without
    ``=``, with a key not in ``parsers``, with a key set on an earlier line
    or with a value its parser refuses (a ValueError) is a ParseError naming
    ``owner`` (the module) and the line number (both lines for a repeat)."""
    values, lines = {}, {}
    for line_no, line in text_lines(path, owner):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ParseError(f"{owner}: line {line_no}: expected 'key = value'")
        key, _, value = stripped.partition("=")
        key, value = key.strip().replace("-", "_"), value.strip()
        if key not in parsers:
            raise ParseError(f"{owner}: line {line_no}: unknown key {key!r}")
        if key in lines:
            raise ParseError(f"{owner}: line {line_no}: key {key!r} is set twice (first on line {lines[key]})")
        try:
            values[key], lines[key] = parsers[key](value), line_no
        except ValueError as e:
            raise ParseError(f"{owner}: line {line_no}: {key} = {value!r} does not parse ({e})") from e
    return values


def load_config(path) -> RunConfig:
    """Parse a key-value config file into a RunConfig."""
    return RunConfig(**read_key_values(path, {f.name: f.type for f in fields(RunConfig)}, "config"))


def within_budget(n_bytes: int, error: type, sizes: str, holding: str) -> None:
    """Raises ``error`` when ``n_bytes`` pass the budget, saying that ``sizes`` size ``holding`` at them."""
    if n_bytes > BUFFER_BUDGET:
        raise error(f"{sizes} size {holding} at {n_bytes} bytes, past the {BUFFER_BUDGET}-byte budget")


def decode_within_budget(max_steps: int, hidden_size: int) -> None:
    within_budget((2 * max_steps + 1) * hidden_size * 8, ConfigError,  # decode_greedy's h and c
                  f"config: max_steps {max_steps} and hidden_size {hidden_size}", "a greedy decode's buffers")


def validate_config(cfg: RunConfig, sizes: bool = True) -> RunConfig:
    """``cfg``, or a ConfigError naming its first key that no run can honour.
    With ``sizes`` false, for a command that loads a checkpoint, which states
    them, the ``MODEL_SIZES`` are read neither here nor by the decode budget."""
    for name in (MODEL_SIZES if sizes else ()) + ("n_det", "max_steps", "epochs", "batch_size"):
        if getattr(cfg, name) < 1:
            raise ConfigError(f"config: {name} must be >= 1, got {getattr(cfg, name)}")
    if sizes:
        decode_within_budget(cfg.max_steps, cfg.hidden_size)
    if cfg.seed < 0:
        raise ConfigError(f"config: seed must be >= 0, got {cfg.seed}")
    if not 0 < cfg.lr < float("inf"):
        raise ConfigError(f"config: lr must be finite and > 0, got {cfg.lr}")
    if not 0 <= cfg.weight_decay < float("inf"):
        raise ConfigError(f"config: weight_decay must be finite and >= 0, got {cfg.weight_decay}")
    if cfg.train_mode not in TRAIN_MODES:
        raise ConfigError(f"config: train_mode must be {' or '.join(TRAIN_MODES)}, got {cfg.train_mode!r}")
    return cfg
