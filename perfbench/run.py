"""Benchmark of novelcap: training, captioning and the n_det sweep.

Run from the repository root:

    python3 perfbench/run.py --workload caption --seed 1 --seconds 20 --trace 0

Workloads are ``train``, ``caption`` and ``sweep-crowded``; ``workloads.py``
says why each was chosen. With ``--trace 0`` a run sets up three times,
then repeats units of measured work for ``--seconds`` of busy time and
prints the end-to-end metrics. With ``--trace 1`` it sets up once, runs the
first unit untraced, traced and untraced again, and prints per-layer spans
and counters with the tracing overhead. The last line of stdout is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

The program is imported from the ``src/`` next to this directory and from
nowhere else; without it the run exits with status 2 and prints no result.
"""

import argparse
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# The matrices are small (H=64): one BLAS thread is the fastest and
# steadiest setting, and never more threads than cores.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
BLAS_THREADS = 1


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None):
    args = parse_args(argv)
    # set before numpy is first imported, or OpenBLAS ignores them
    for var in THREAD_VARS:
        os.environ[var] = str(min(BLAS_THREADS, os.cpu_count() or 1))
    if not (SRC / "novelcap" / "__init__.py").is_file():
        fail(f"no novelcap sources under {SRC}")
    sys.path[:0] = [str(SRC), str(HERE)]
    import novelcap
    if Path(novelcap.__file__).resolve().parent != SRC / "novelcap":
        fail(f"novelcap imported from {novelcap.__file__}, not {SRC}")
    import harness
    if args.workload not in harness.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {', '.join(harness.WORKLOADS)}")
    return harness.run(args.workload, args.seed, args.seconds, args.trace, THREAD_VARS)


if __name__ == "__main__":
    sys.exit(main())
