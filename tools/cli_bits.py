"""Every CLI output of two git revisions, compared byte for byte.

Run from the repository root; the revisions are read from the repository
that holds this script:

    python3 tools/cli_bits.py BASE HEAD [--epochs N]

Each revision is extracted with ``git archive`` into a temporary
directory by ``tools/git_trees.py``, as ``tools/pair_bench.py`` does. Each tree then runs its own CLI
in a fresh working directory that holds a copy of its ``configs/``, with
one BLAS thread, and with ``epochs`` in ``benchmark.cfg`` set to N when
``--epochs`` is given. The commands are the ``novelcap`` lines in the
header of ``configs/benchmark.cfg`` (gen-data, train and eval), then
``eval`` in all three modes, ``sweep-ndet --values 1..16``, and ``caption``
in all three modes for each of ``IMAGE_IDS``.

Every file in the two working directories and each command's stdout,
stderr and exit code are compared, one line per output. The exit code is
1 if any output differs or any command fails in either tree.
"""

import argparse
import os
import re
import shlex
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from git_trees import THREAD_VARS, extract, resolve

CONFIG = "configs/benchmark.cfg"
MODES = ("dnoc", "no-memory", "no-placeholder")
SWEEP_VALUES = ",".join(str(n) for n in range(1, 17))
# Records of the 1,050-image benchmark dataset: the first, one in every
# few hundred, and the last.
IMAGE_IDS = ("synth-00000", "synth-00001", "synth-00250", "synth-00500", "synth-00750", "synth-01049")
COMMAND_TIMEOUT_S = 3600


def fail(message):
    print(f"cli_bits: {message}", file=sys.stderr)
    raise SystemExit(2)


def header_commands(config_text):
    """The ``novelcap`` command lines in the leading comment of a config, as
    argument lists without the program name; a line that ends in a
    backslash continues on the next."""
    commands, joined = [], ""
    for line in config_text.splitlines():
        if not line.startswith("#"):
            break
        joined = f"{joined} {line[1:].strip()}".strip()
        if joined.endswith("\\"):
            joined = joined[:-1]
            continue
        if "novelcap " in joined:
            commands.append(shlex.split(joined[joined.index("novelcap "):])[1:])
        joined = ""
    return commands


def with_epochs(config_text, epochs):
    """The config with its ``epochs`` line set to ``epochs``."""
    text, n = re.subn(r"(?m)^epochs\s*=.*$", f"epochs = {epochs}", config_text)
    return text if n else f"{text.rstrip()}\nepochs = {epochs}\n"


def commands(config_text):
    """(label, arguments) of every command run, in order."""
    config = ["--config", CONFIG]
    runs = [(f"header-{args[0]}", args) for args in header_commands(config_text)]
    runs += [(f"eval-{mode}", ["eval", *config, "--mode", mode, "--out", f"out/benchmark/report-{mode}.json"])
             for mode in MODES]
    runs.append(("sweep-ndet", ["sweep-ndet", *config, "--values", SWEEP_VALUES, "--out", "out/benchmark/sweep.tsv"]))
    runs += [(f"caption-{image_id}-{mode}", ["caption", *config, "--image-id", image_id, "--mode", mode])
             for image_id in IMAGE_IDS for mode in MODES]
    return [(f"{i:02d}-{label}", args) for i, (label, args) in enumerate(runs)]


def run_tree(tree, out, epochs):
    """Run every command of ``tree`` in ``out/run``, a fresh directory with a
    copy of the tree's configs, and write each command's stdout, stderr and
    exit code to ``out/streams``. Returns the labels of the commands that
    failed."""
    run, streams = out / "run", out / "streams"
    shutil.copytree(tree / "configs", run / "configs")
    streams.mkdir(parents=True)
    config = run / CONFIG
    text = config.read_text()
    if epochs is not None:
        config.write_text(with_epochs(text, epochs))
    env = dict(os.environ, PYTHONPATH=str((tree / "src").resolve()), **{var: "1" for var in THREAD_VARS})
    failed = []
    for label, args in commands(text):
        proc = subprocess.run([sys.executable, "-m", "novelcap.cli", *args], cwd=run, env=env, capture_output=True,
                              timeout=COMMAND_TIMEOUT_S)
        (streams / f"{label}.stdout").write_bytes(proc.stdout)
        (streams / f"{label}.stderr").write_bytes(proc.stderr)
        (streams / f"{label}.exit").write_text(f"{proc.returncode}\n")
        if proc.returncode:
            failed.append(label)
    return failed


def compare_dirs(base, head):
    """(path, verdict) for every file under either directory, by relative
    path: "same", "differs", "only in base" or "only in head"."""
    def files(root):
        return {p.relative_to(root).as_posix(): p for p in root.rglob("*") if p.is_file()}

    a, b = files(Path(base)), files(Path(head))
    verdicts = []
    for path in sorted(a.keys() | b.keys()):
        if path not in b:
            verdicts.append((path, "only in base"))
        elif path not in a:
            verdicts.append((path, "only in head"))
        else:
            verdicts.append((path, "same" if a[path].read_bytes() == b[path].read_bytes() else "differs"))
    return verdicts


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("base", help="the revision compared against")
    p.add_argument("head", help="the revision compared")
    p.add_argument("--epochs", type=int, help="training epochs (default: the config's)")
    args = p.parse_args(argv)
    if args.epochs is not None and args.epochs < 1:
        p.error("--epochs must be >= 1")
    return args


def main(argv=None):
    args = parse_args(argv)
    shas = {"base": resolve(args.base, fail), "head": resolve(args.head, fail)}
    with tempfile.TemporaryDirectory() as tmp:
        failed = {}
        for label, sha in shas.items():
            tree, out = Path(tmp) / "trees" / label, Path(tmp) / "outputs" / label
            extract(sha, tree, fail)
            print(f"cli_bits: running {label} ({sha[:12]})", file=sys.stderr)
            failed[label] = run_tree(tree, out, args.epochs)
        verdicts = compare_dirs(Path(tmp) / "outputs" / "base", Path(tmp) / "outputs" / "head")
    for path, verdict in verdicts:
        print(f"{verdict:12s}  {path}")
    differences = sum(verdict != "same" for _, verdict in verdicts)
    for label, labels in failed.items():
        if labels:
            print(f"cli_bits: {label}: {len(labels)} commands failed: {', '.join(labels)}", file=sys.stderr)
    print(f"cli_bits: {differences} of {len(verdicts)} outputs differ", file=sys.stderr)
    return 1 if differences or any(failed.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
