"""The two-tree pair runner's schedule, statistics and report, checked on
made-up unit times: no tree is extracted and no workload runs."""

import importlib.util
import json
import statistics
from collections import Counter
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "pair_bench.py"

SECONDS = {"base": [1.0, 2.0, 1.5, 1.2, 0.9, 1.1, 1.3, 1.0, 2.2, 1.7, 1.4, 1.6],
           "head": [1.1, 1.8, 1.5, 1.5, 0.8, 1.0, 1.9, 1.2, 2.0, 1.6, 1.3, 1.5],
           "base_again": [0.9, 2.1, 1.4, 1.2, 1.0, 1.2, 1.2, 0.9, 2.3, 1.8, 1.3, 1.7]}
N = len(SECONDS["base"])


@pytest.fixture(scope="module")
def pair_bench():
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(TOOL.parent))  # the tool imports git_trees from beside it, as a script does
        spec = importlib.util.spec_from_file_location("pair_bench_under_test", TOOL)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return module


def test_a_revision_that_is_not_a_commit_fails_with_the_tools_own_prefix(pair_bench, capsys):
    with pytest.raises(SystemExit) as caught:
        pair_bench.resolve("no-such-revision", pair_bench.fail)
    assert caught.value.code == 2
    assert capsys.readouterr().err.startswith("pair_bench: 'no-such-revision' is not a commit: ")


def rounds_of(pair_bench, calls):
    def timer(label):
        def time(k):
            calls.append((label, k))
            return SECONDS[label][k]
        return time
    return [pair_bench.run_round(k, {label: timer(label) for label in SECONDS}) for k in range(N)]


def test_round_k_runs_the_base_before_the_head_when_k_is_even(pair_bench):
    calls = []
    rounds = rounds_of(pair_bench, calls)
    assert [k for _, k in calls] == [k for k in range(N) for _ in range(3)]  # each tree once a round
    for k, r in enumerate(rounds):
        ran = [label for label, j in calls if j == k]
        assert ran == r["order"]
        assert (ran.index("base") < ran.index("head")) == (k % 2 == 0), (k, ran)
        assert r["seconds"] == {label: SECONDS[label][k] for label in SECONDS}
    # six rounds put every tree in every position twice, and the A/A pair either way round three times
    for start in range(0, N, 6):
        orders = [tuple(r["order"]) for r in rounds[start:start + 6]]
        assert Counter((i, label) for order in orders for i, label in enumerate(order)) == \
            {(i, label): 2 for i in range(3) for label in SECONDS}
        assert sum(o.index("base") < o.index("base_again") for o in orders) == 3


def test_ratios_and_quartiles_are_perfbenchs_inclusive_quantiles(pair_bench):
    rounds = rounds_of(pair_bench, [])
    for label in ("head", "base_again"):
        summary = pair_bench.block(rounds, label)
        ratios = [b / a for a, b in zip(SECONDS["base"], SECONDS[label])]
        assert summary["ratios"] == ratios
        quartiles = [summary["q1"], summary["median"], summary["q3"]]
        assert quartiles == statistics.quantiles(ratios, n=4, method="inclusive")
        # perfbench's harness reads its percentiles from the 100-quantiles
        percentiles = statistics.quantiles(ratios, n=100, method="inclusive")
        assert quartiles == pytest.approx([percentiles[24], percentiles[49], percentiles[74]], rel=1e-15)
        assert summary["median"] == statistics.median(ratios)
        assert summary[f"{label}_faster"] == sum(b < a for a, b in zip(SECONDS["base"], SECONDS[label]))


def test_the_report_holds_every_field(pair_bench, tmp_path):
    figures = {"base": {"heldout_f1": 0.5, "known_f1": 0.9, "train_loss": 2.0},
               "head": {"heldout_f1": 0.5, "known_f1": 0.9, "train_loss": 2.5},
               "base_again": {"heldout_f1": 0.5, "known_f1": 0.9, "train_loss": 2.0}}
    result = pair_bench.workload_result(figures, {label: [] for label in SECONDS},
                                        {label: 1.0 for label in SECONDS}, rounds_of(pair_bench, []))
    assert result["quality_differences"] == {"train_loss": {"base": 2.0, "head": 2.5, "base_again": 2.0}}
    out = tmp_path / "bench.json"
    pair_bench.write_report(out, pair_bench.environment(), {"rev": "A", "sha": "a" * 40},
                            {"rev": "B", "sha": "b" * 40}, 1, {"train": result})
    report = json.loads(out.read_text())
    assert report["schema"] == pair_bench.SCHEMA
    assert {"python", "numpy", "blas", "thread_env", "nproc", "affinity"} <= report["environment"].keys()
    assert (report["base"]["sha"], report["head"]["sha"]) == ("a" * 40, "b" * 40)
    workload = report["workloads"]["train"]
    assert workload["quality"] == figures and workload["quality_differences"]
    assert [r["seconds"] for r in workload["rounds"]] == [{label: SECONDS[label][k] for label in SECONDS}
                                                          for k in range(N)]
    for name, label in (("head", "head"), ("aa", "base_again")):
        summary = workload[name]
        assert summary["ratios"] == [b / a for a, b in zip(SECONDS["base"], SECONDS[label])]
        assert {"n", "median", "q1", "q3", "base_median_s", f"{label}_median_s"} <= summary.keys()
