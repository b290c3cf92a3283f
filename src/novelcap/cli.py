"""Command-line interface.

Commands: gen-data, train, caption, eval, sweep-ndet. Every command is
deterministic given the config seed; every error, a float fault included,
exits nonzero with one line naming the failing module. ``train`` alone
reads the model's sizes from the config, and stores the digest of the
training records' vocabulary in the checkpoint; the commands that load one
take the model's sizes from it and refuse any other vocabulary. ``eval``
writes a report that no command reads.
"""

import argparse
import contextlib
import dataclasses
import errno
import os
import sys
import traceback

import numpy as np

from . import checkpoint as ckpt
from . import data as datamod
from .config import MODEL_SIZES, RunConfig, at_least_one, load_config, validate_config
from .decoder import CaptionModel, decode_within_budget
from .errors import CheckpointError, ConfigError, CoverageError, DomainError, NovelcapError, SchemaError
from .evaluation import average_f1_over, evaluate_split, format_report_lines, write_report
from .pipeline import CAPTION_MODES, make_captioner, train_model
from .vocabulary import build_vocabulary, intersect_detectable


@contextlib.contextmanager
def _committed(*paths, inputs=()):
    """A temporary file beside each of ``paths``, made before the block runs
    and renamed onto its path with ``os.replace`` once the block returns.
    Every file a command writes goes through here: an output path that
    names a directory, runs through a file, names one of the command's
    ``inputs`` (empty entries are skipped) or another output fails before
    any directory or temporary file is made, and on any failure the
    temporary files go and ``paths`` stay as they were."""
    real = [os.path.realpath(path) for path in paths]
    read = {os.path.realpath(path): path for path in inputs if path}
    for i, path in enumerate(paths):
        if real[i] in real[:i]:
            raise ConfigError(f"cli: outputs {paths[real.index(real[i])]} and {path} name one file")
        if real[i] in read:
            raise ConfigError(f"cli: output {path} and input {read[real[i]]} name one file")
        if os.path.isdir(path):  # os.replace would refuse it only at the end
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
        parent = os.path.dirname(os.path.abspath(path))
        while not os.path.lexists(parent):  # where makedirs would start; a dangling link is no directory
            parent = os.path.dirname(parent)
        if not os.path.isdir(parent):
            raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), path)
    temps = []
    try:
        for path in paths:
            os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
            temp = f"{path}.{os.getpid()}.tmp"
            open(temp, "x").close()  # a file already at that name is not this run's to remove
            temps.append(temp)
        yield temps
        for temp, path in zip(temps, paths):
            os.replace(temp, path)
    finally:
        for temp in temps:
            with contextlib.suppress(FileNotFoundError):
                os.remove(temp)


def _list_flag(flag: str, raw: str, kind, count: int | None = None) -> list:
    """Comma-separated flag values, or a ConfigError naming the flag."""
    try:
        values = [kind(x) for x in raw.split(",")]
    except ValueError:
        values = None
    if values is None or count not in (None, len(values)):
        size = f"{count} " if count else ""
        raise ConfigError(f"cli: {flag} expects {size}comma-separated {kind.__name__} values, got {raw!r}")
    return values


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose list flags take a value that starts with ``-``.

    argparse reads ``--ratios -1,1,1`` as two options; ``--ratios=-1,1,1``
    reaches the check that names the value, so the value is joined to its flag
    (or to an abbreviation of it, which argparse then resolves).
    """

    list_flags = ("--held-out", "--objects-per-image", "--ratios", "--values")

    def parse_known_args(self, args=None, namespace=None):
        joined = []
        for arg in sys.argv[1:] if args is None else args:
            flag = joined[-1] if joined else ""
            if (len(flag) > 2 and any(f.startswith(flag) for f in self.list_flags)
                    and arg.startswith("-") and not arg.startswith("--")):
                joined[-1] += "=" + arg
            else:
                joined.append(arg)
        return super().parse_known_args(joined, namespace)


def _build_config(args) -> RunConfig:
    cfg = load_config(args.config) if args.config else RunConfig()
    # a flag's dest is the config key it overrides; a command has only the flags it reads
    overrides = {key: getattr(args, key, None) for key in ("seed", "n_det", "checkpoint", "world")}
    return validate_config(dataclasses.replace(cfg, **{k: v for k, v in overrides.items() if v is not None}))


def _training_vocabulary(split):  # a run's one vocabulary: the words of its training captions
    return build_vocabulary([ref for rec in split.train for ref in rec.references])


def _load_common(cfg, model=None):
    """The config's data, with the image and detection feature lengths
    checked against the image_dim and key_dim of ``model`` (a checkpoint's)
    or, with none, of the config, and its training vocabulary."""
    sized, owner = (model, "checkpoint") if model else (cfg, "config")
    records = datamod.load_dataset(cfg.dataset)
    # load_dataset holds every image feature to one length, and every detection feature
    image_len = next((len(rec.feature) for rec in records), None)
    key_len = next((rec.detections.features.shape[1] for rec in records if rec.detections), None)
    for kind, key, length in (("image", "image_dim", image_len), ("detection", "key_dim", key_len)):
        if length not in (None, getattr(sized, key)):
            raise SchemaError(f"cli: {kind} features in {cfg.dataset} have length {length}, "
                              f"not the {owner}'s {key} {getattr(sized, key)}")
    manifest = datamod.load_manifest(cfg.manifest)
    split = datamod.split_from_manifest(records, manifest)
    vocab = _training_vocabulary(split)
    det_map = intersect_detectable(vocab, manifest["class_names"])
    return records, vocab, manifest, split, det_map


def _load_trained(cfg):
    """The checkpoint's model, whose arrays state its sizes, then the config's
    data as ``_load_common`` gives it: before any decode, the model is held to
    the decode budget at its hidden_size, then to the data's feature lengths,
    then to the training vocabulary's digest and then its vocab_size."""
    params, vocab_ref = ckpt.load_checkpoint(cfg.checkpoint)
    model = CaptionModel.from_params(params)
    decode_within_budget(cfg.max_steps, model.hidden_size, "checkpoint")
    records, vocab, manifest, split, det_map = _load_common(cfg, model)
    digest = vocab.digest()
    if vocab_ref != digest:
        raise CheckpointError(f"cli: checkpoint {cfg.checkpoint} was not trained with the vocabulary of the "
                              f"training records of {cfg.manifest} (it holds {vocab_ref!r}, they give {digest!r})")
    if model.vocab_size != vocab.size:
        raise CheckpointError(f"cli: checkpoint {cfg.checkpoint} has vocab_size {model.vocab_size}, not the "
                              f"{vocab.size} words of the training records of {cfg.manifest}")
    return model, records, vocab, manifest, split, det_map


def cmd_gen_data(args) -> int:
    cfg = _build_config(args)
    if args.n_images < 1:
        raise ConfigError(f"cli: --n-images must be >= 1, got {args.n_images}")
    lo, hi = _list_flag("--objects-per-image", args.objects_per_image, int, count=2)
    ratios = tuple(_list_flag("--ratios", args.ratios, float, count=3))
    world = datamod.load_world_config(cfg.world) if cfg.world else datamod.make_world(seed=cfg.seed)
    held_out = tuple(args.held_out.split(",")) if args.held_out is not None else datamod.DEFAULT_HELD_OUT
    for w in held_out:
        if w not in world.names:
            raise CoverageError(f"cli: held-out word {w!r} is not in the object inventory")
    if args.out:
        cfg.dataset = os.path.join(args.out, "dataset.jsonl")
        cfg.manifest = os.path.join(args.out, "split.json")
    with _committed(cfg.dataset, cfg.manifest, inputs=(args.config, cfg.world)) as (dataset_temp, manifest_temp):
        records = datamod.generate_synthetic(world, args.n_images, (lo, hi))
        split = datamod.build_heldout_split(records, held_out, ratios, seed=cfg.seed)
        vocab = _training_vocabulary(split)
        datamod.save_dataset(records, dataset_temp)
        datamod.save_manifest(split, world.names, manifest_temp)
    counts = datamod.mentions([rec.references for rec in records], world.names).sum(axis=0)
    print(f"dataset={cfg.dataset} records={len(records)} "
          f"train={len(split.train)} val={len(split.val)} test={len(split.test)}")
    print(f"vocab_size={vocab.size}")
    print(f"manifest={cfg.manifest} held_out={','.join(held_out)}")
    for name, count in zip(world.names, counts):
        marker = " (held out)" if name in held_out else ""
        print(f"  {name}: {count} images{marker}")
    return 0


def cmd_train(args) -> int:
    cfg = _build_config(args)
    at_least_one(cfg, MODEL_SIZES)  # the one command that reads them, before any data
    decode_within_budget(cfg.max_steps, cfg.hidden_size, "config")
    _, vocab, _, split, det_map = _load_common(cfg)
    # only a finished run renames its outputs into place, so a failed one leaves the last run's whole
    read = (args.config, cfg.dataset, cfg.manifest)
    with _committed(cfg.train_log, cfg.checkpoint, inputs=read) as (log_temp, checkpoint_temp), \
            open(log_temp, "w", encoding="utf-8") as logf:
        def log_fn(line):
            print(line)
            logf.write(line + "\n")

        result = train_model(split, vocab, det_map, cfg, mode=cfg.train_mode, log_fn=log_fn)
        log_fn(f"best_epoch={result.best_epoch} best_val_f1={result.best_val_f1!r}")
        ckpt.save_checkpoint(checkpoint_temp, result.best_params, vocab_ref=vocab.digest())
    print(f"checkpoint={cfg.checkpoint}")
    return 0


def cmd_caption(args) -> int:
    cfg = _build_config(args)
    model, records, vocab, _, _, det_map = _load_trained(cfg)
    by_id = {r.image_id: r for r in records}
    if args.image_id not in by_id:
        raise CoverageError(f"cli: image id {args.image_id!r} not found in {cfg.dataset}")
    captioner = make_captioner(model, vocab, det_map, cfg, mode=args.mode)
    caption = captioner(by_id[args.image_id])
    print(" ".join(caption.tokens))
    return 0


def cmd_eval(args) -> int:
    cfg = _build_config(args)
    model, _, vocab, manifest, split, det_map = _load_trained(cfg)
    split_hash = datamod.manifest_hash(cfg.manifest)
    read = (args.config, cfg.dataset, cfg.manifest, cfg.checkpoint)
    with _committed(args.out or cfg.report, inputs=read) as (report_temp,):
        captioner = make_captioner(model, vocab, det_map, cfg, mode=args.mode, records=split.test)
        report = evaluate_split(split, captioner, known_words=manifest["known_words"], mode=args.mode,
                                split_hash=split_hash)
        write_report(report, report_temp)
    for line in format_report_lines(report):
        print(line)
    return 0


def cmd_sweep_ndet(args) -> int:
    cfg = _build_config(args)
    values = _list_flag("--values", args.values, int)
    if any(v < 1 for v in values):
        raise DomainError("cli: sweep values must all be >= 1")
    model, _, vocab, _, split, det_map = _load_trained(cfg)
    read = (args.config, cfg.dataset, cfg.manifest, cfg.checkpoint)
    with _committed(*filter(None, [args.out]), inputs=read) as temps:  # the table's file, if --out names one
        lines = ["n_det\taverage_f1"]
        for n_det in values:
            sweep_cfg = dataclasses.replace(cfg, n_det=n_det)
            captioner = make_captioner(model, vocab, det_map, sweep_cfg, mode="dnoc", records=split.test)
            f1 = average_f1_over(split.test, captioner, split.held_out_words)
            lines.append(f"{n_det}\t{f1!r}")
        for temp in temps:
            with open(temp, "w", encoding="utf-8") as f:
                f.write("\n".join(lines) + "\n")
    for line in lines:
        print(line)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="novelcap",
                     description="placeholder-based novel object captioning")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *flags):
        """--config, then the command's own of --seed, --n-det, --out and --checkpoint."""
        p.add_argument("--config", help="key-value config file; flags override it")
        for flag in flags:
            p.add_argument(flag, type=int if flag in ("--seed", "--n-det") else None)

    p = sub.add_parser("gen-data", help="generate a synthetic dataset and its split")
    common(p, "--seed", "--out")
    p.add_argument("--world-config", dest="world",
                   help="world definition file (plain key-value); overrides the config's world key")
    p.add_argument("--n-images", type=int, default=1300)
    p.add_argument("--held-out", help="comma-separated held-out object words")
    p.add_argument("--objects-per-image", default="1,2")
    p.add_argument("--ratios", default="0.8,0.1,0.1")
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train and save the best-validation checkpoint")
    common(p, "--seed", "--n-det", "--checkpoint")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("caption", help="caption a single dataset record")
    common(p, "--seed", "--n-det", "--checkpoint")
    p.add_argument("--image-id", required=True)
    p.add_argument("--mode", choices=CAPTION_MODES, default="dnoc")
    p.set_defaults(func=cmd_caption)

    p = sub.add_parser("eval", help="score the test split and write a report")
    common(p, "--seed", "--n-det", "--out", "--checkpoint")
    p.add_argument("--mode", choices=CAPTION_MODES, default="dnoc")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep-ndet", help="evaluate one checkpoint across memory capacities")
    common(p, "--out", "--checkpoint")
    p.add_argument("--values", default="1,2,3,4,5,6,7,8,9,10")
    p.set_defaults(func=cmd_sweep_ndet)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with np.errstate(divide="raise", over="raise", invalid="raise"):  # underflow stays ignored
            return args.func(args)
    except FloatingPointError as e:  # a fault no named check follows, refused in the module that made it
        package = os.path.dirname(os.path.abspath(__file__))
        where = next(frame.filename for frame in reversed(traceback.extract_tb(e.__traceback__))
                     if os.path.dirname(os.path.abspath(frame.filename)) == package)
        print(f"novelcap: NumericError: {os.path.basename(where)[:-3]}: {e}", file=sys.stderr)
        return 1
    except NovelcapError as e:
        print(f"novelcap: {type(e).__name__}: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"novelcap: io: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
