"""What the tools that run git revisions of this repository share: the
repository that holds them, the BLAS thread variables, and a revision's
tree.

The tools import it from beside themselves (``python3 tools/<tool>.py``
puts ``tools/`` first on the path). Each helper reports a failure through
the ``fail`` its tool passes, so the message keeps the tool's own prefix.
"""

import io
import subprocess
import tarfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
# The same variables and count as perfbench/run.py: one BLAS thread.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")


def resolve(rev, fail):
    """The commit sha of ``rev``."""
    out = subprocess.run(["git", "-C", str(REPO), "rev-parse", "--verify", f"{rev}^{{commit}}"],
                         capture_output=True, text=True, timeout=60)
    if out.returncode:
        fail(f"{rev!r} is not a commit: {out.stderr.strip()}")
    return out.stdout.strip()


def extract(sha, dest, fail):
    """Write the tree of commit ``sha`` into the directory ``dest``."""
    out = subprocess.run(["git", "-C", str(REPO), "archive", "--format=tar", sha], capture_output=True,
                         timeout=300)
    if out.returncode:
        fail(f"git archive {sha} failed: {out.stderr.decode(errors='replace').strip()}")
    with tarfile.open(fileobj=io.BytesIO(out.stdout)) as tar:
        tar.extractall(dest, filter="data")
