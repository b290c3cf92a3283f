"""Two git revisions timed in one process, unit against unit.

Run from the repository root; the revisions are read from the repository
that holds this script:

    python3 tools/pair_bench.py BASE HEAD --workloads train caption sweep-crowded \
        --pairs 192 --seed 1 --out BENCH.json

Each revision is extracted with ``git archive`` into a temporary directory,
and that tree's own ``perfbench/workloads.py`` is loaded under a unique
module name, bound to that tree's ``novelcap``. Both trees then live side
by side in one process and see the same machine phases, which separate
processes do not (Kalibera & Jones 2013, "Rigorous benchmarking in
reasonable time"). The base revision is extracted and loaded a second time
for an A/A block: base against itself, with the same schedule, which
shows the spread a real difference must exceed.

Per workload, each tree is set up once: the head, then the base, then its
second copy. If a tree set up later runs faster (some runs suggested up
to ~1%), this order gives the edge to the base, never to the head, and
the A/A pairs show how large it is.
Each tree's quality figures (``heldout_f1``, ``known_f1``,
``train_loss``) are compared and any difference reported. Then N rounds
of untraced units follow. Round k runs
unit k of each tree once, every tree with ``inputs(seed, k)``, and its
pairs are the head's and the second copy's units against the base's.
The base runs before the head when k is even and after it when k is odd.
Over six rounds the three trees run in all six orders, so each takes
every position equally often and the A/A pairs are as balanced as the
head's; run a multiple of six rounds. A pair's ratio is the other side's
unit time over the base's; below 1 is faster. Medians and quartiles are
``statistics.quantiles(..., method="inclusive")``, as perfbench computes
its percentiles. ``peak_rss_mb`` is a per-process figure and cannot be
compared here; it stays with perfbench's process pairs.
"""

import argparse
import gc
import importlib.util
import json
import os
import platform
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from git_trees import THREAD_VARS, extract, resolve

SCHEMA = "pair_bench/1"
QUALITY = ("heldout_f1", "known_f1", "train_loss")
BLAS_THREADS = 1
MIN_PAIRS = 10
# Single units of one tree spread up to 2x on a shared 2-vCPU machine. An
# A/A median read 4% from 1 over 24 rounds, and 2.3% on one of three
# workloads over 96; over 192 rounds all three read within 1%.
DEFAULT_PAIRS = 192
# The order of the trees in round k is ORDERS[k % 6]: the six permutations,
# with the base before the head in even rounds.
ORDERS = (("base", "head", "base_again"), ("head", "base_again", "base"), ("base_again", "base", "head"),
          ("head", "base", "base_again"), ("base", "base_again", "head"), ("base_again", "head", "base"))


def fail(message):
    print(f"pair_bench: {message}", file=sys.stderr)
    raise SystemExit(2)


def drop_novelcap():
    for name in [m for m in sys.modules if m == "novelcap" or m.startswith("novelcap.")]:
        del sys.modules[name]


def load_workloads(tree, module_name):
    """``tree``'s ``perfbench/workloads.py`` as a module named ``module_name``,
    with every ``novelcap`` module it imports loaded from ``tree/src``."""
    src = (Path(tree) / "src").resolve()
    drop_novelcap()
    sys.path.insert(0, str(src))
    try:
        spec = importlib.util.spec_from_file_location(module_name, Path(tree) / "perfbench" / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[module_name] = module  # dataclasses look their class's module up by name
        spec.loader.exec_module(module)
        strays = [name for name, m in sys.modules.items() if name.split(".")[0] == "novelcap"
                  and src not in Path(m.__file__).resolve().parents]
    finally:
        sys.path.remove(str(src))
        sys.modules.pop(module_name, None)
        drop_novelcap()
    if strays:
        fail(f"{module_name}: novelcap modules {strays} were not loaded from {src}")
    return module


def run_round(k, timers):
    """Round k in the order ``ORDERS[k % 6]``: ``timers[label](k)`` runs unit
    k of a tree and returns its seconds. Returns the order and every time."""
    order = ORDERS[k % len(ORDERS)]
    seconds = {}
    for label in order:
        seconds[label] = timers[label](k)
    return {"k": k, "order": list(order), "seconds": seconds}


def block(rounds, label):
    """The pairs of ``label``'s units against the base's: every ratio, their
    median and [q1, q3], each side's median unit time, and how many pairs
    ``label`` won."""
    base, other = [r["seconds"]["base"] for r in rounds], [r["seconds"][label] for r in rounds]
    ratios = [b / a for a, b in zip(base, other)]
    q1, median, q3 = statistics.quantiles(ratios, n=4, method="inclusive")
    return {"n": len(rounds), "ratios": ratios, "median": median, "q1": q1, "q3": q3,
            "base_median_s": statistics.median(base), f"{label}_median_s": statistics.median(other),
            f"{label}_faster": sum(b < a for a, b in zip(base, other))}


def quality_differences(figures):
    """{figure: {side: value}} for each quality figure not equal on every side."""
    return {q: {side: f[q] for side, f in figures.items()} for q in QUALITY
            if len({f[q] for f in figures.values()}) > 1}


def environment():
    import numpy as np  # only after main has pinned the BLAS threads
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}", "machine": platform.machine(),
            "thread_env": {v: os.environ.get(v) for v in THREAD_VARS}, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0))}


class Side:
    """One tree's workload, set up once, with the outputs its quality reads."""

    def __init__(self, tree, module_name, workload_name, seed, workdir):
        module = load_workloads(tree, module_name)
        self.workload = module.WORKLOADS[workload_name]
        self.seed, self.checks, self.outputs = seed, module.Checks(), {}
        t0 = perf_counter()
        self.state = self.workload.setup(seed, workdir, self.checks)
        self.setup_s = perf_counter() - t0

    def unit(self, k):
        """Unit k's seconds. Its inputs are made and the previous unit's
        garbage collected before the clock starts."""
        inputs = self.workload.inputs(self.state, self.seed, k)
        gc.collect()
        t0 = perf_counter()
        out = self.workload.unit(self.state, inputs, self.checks)
        seconds = perf_counter() - t0
        if k < self.workload.quality_units:
            self.outputs[k] = out
        return seconds

    def quality(self):
        outputs = [self.outputs[k] for k in range(self.workload.quality_units)]
        figures = self.workload.quality(self.state, self.seed, outputs)
        return {q: figures[q] for q in QUALITY}


def workload_result(figures, failures, setup_s, rounds):
    """One workload's part of the report; each argument but the rounds is keyed by tree."""
    return {"quality": figures, "quality_differences": quality_differences(figures), "failures": failures,
            "setup_s": setup_s, "rounds": rounds, "head": block(rounds, "head"),
            "aa": block(rounds, "base_again")}


def bench_workload(trees, name, seed, n_pairs):
    """Set up each tree once, run ``n_pairs`` rounds and compare quality."""
    with tempfile.TemporaryDirectory() as tmp:
        sides = {}
        for label, tree in trees.items():
            workdir = Path(tmp) / label
            workdir.mkdir()
            print(f"pair_bench: {name}: setting up {label}", file=sys.stderr)
            sides[label] = Side(tree, f"pair_bench_{label}_workloads", name, seed, workdir)
        timers = {label: side.unit for label, side in sides.items()}
        rounds = [run_round(k, timers) for k in range(n_pairs)]
        return workload_result({label: side.quality() for label, side in sides.items()},
                               {label: side.checks.failures for label, side in sides.items()},
                               {label: side.setup_s for label, side in sides.items()}, rounds)


def write_report(path, env, base, head, seed, workloads):
    report = {"schema": SCHEMA, "environment": env, "base": base, "head": head, "seed": seed,
              "ratio": "head (or base_again) unit seconds / base unit seconds; below 1 is faster",
              "workloads": workloads}
    Path(path).write_text(json.dumps(report, indent=1) + "\n")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("base", help="the revision compared against (A)")
    p.add_argument("head", help="the revision compared (B)")
    p.add_argument("--workloads", nargs="+", default=["train", "caption", "sweep-crowded"])
    p.add_argument("--pairs", type=int, default=DEFAULT_PAIRS,
                   help="rounds, each giving one head pair and one A/A pair")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out", required=True, help="where to write the JSON report")
    args = p.parse_args(argv)
    if args.pairs < MIN_PAIRS or args.seed < 0:
        p.error(f"--pairs must be >= {MIN_PAIRS} and --seed >= 0")
    return args


def main(argv=None):
    args = parse_args(argv)
    if "numpy" in sys.modules:
        fail("numpy was imported before the BLAS threads were pinned")
    for var in THREAD_VARS:  # before numpy is first imported, or OpenBLAS ignores them
        os.environ[var] = str(min(BLAS_THREADS, os.cpu_count() or 1))
    base = {"rev": args.base, "sha": resolve(args.base, fail)}
    head = {"rev": args.head, "sha": resolve(args.head, fail)}
    results = {}
    with tempfile.TemporaryDirectory() as tmp:
        trees = {label: Path(tmp) / label for label in ("head", "base", "base_again")}
        for label, tree in trees.items():
            extract((head if label == "head" else base)["sha"], tree, fail)
        for name in args.workloads:
            results[name] = r = bench_workload(trees, name, args.seed, args.pairs)
            print(f"{name}: head/base median {r['head']['median']:.3f} [{r['head']['q1']:.3f}, "
                  f"{r['head']['q3']:.3f}], A/A median {r['aa']['median']:.3f} [{r['aa']['q1']:.3f}, "
                  f"{r['aa']['q3']:.3f}], quality differences {r['quality_differences'] or 'none'}")
    write_report(args.out, environment(), base, head, args.seed, results)
    return 1 if any(r["quality_differences"] or any(r["failures"].values()) for r in results.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
