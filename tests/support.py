"""Helpers that several test modules share: loading the benchmark's script
files, and writing a world config."""

import importlib.util
from pathlib import Path

from novelcap.data import DEFAULT_TEMPLATES

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_perfbench(name):
    """A fresh module of ``perfbench/<name>.py``, which is a script
    directory, not a package."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_workloads():
    return load_perfbench("workloads")


def load_tracing():
    return load_perfbench("tracing")



def world_text(names, templates=DEFAULT_TEMPLATES, noise_scale=0.03, seed=7, dim=32, latent_rank=10,
               distractors=3, refs_per_image=2, present_score=(0.55, 1.0), distractor_score=(0.5, 0.85)) -> str:
    """The text of a world config that sets each of its ten keys once, in
    ``data._WORLD_KEYS`` order, to these ``make_world`` arguments (its
    defaults but for the names)."""
    return (f"inventory = {' '.join(names)}\ntemplates = {' | '.join(templates)}\nnoise_scale = {noise_scale}\n"
            f"seed = {seed}\ndim = {dim}\nlatent_rank = {latent_rank}\ndistractors = {distractors}\n"
            f"refs_per_image = {refs_per_image}\npresent_score = {' '.join(map(str, present_score))}\n"
            f"distractor_score = {' '.join(map(str, distractor_score))}\n")
