"""Tiny versions of all four workloads, traced and untraced, in seconds."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from lqbench import workloads
from lqbench.stats import Tally

# the toy layers are smaller than the default budget's rank
pytestmark = pytest.mark.filterwarnings("ignore::loraq.RankCapWarning")

BENCH = Path(__file__).resolve().parents[1]
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def names(kind):
    return {m["name"] for m in SPEC[kind]}


def test_workloads_match_the_spec():
    assert set(workloads.WORKLOADS) == {w["name"] for w in SPEC["workloads"]}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_toy_run(name, tmp_path):
    wl = workloads.toy(workloads.WORKLOADS[name])
    outcomes = {}
    for trace in (False, True):
        tally = Tally()
        workdir = tmp_path / f"trace{int(trace)}"
        workdir.mkdir()
        outcomes[trace] = workloads.run(wl, 3, 0.2, trace, workdir, tally,
                                        spans_path=workdir / "spans.json")
        assert tally.failures == []
        assert tally.attempted > 0
    assert names("end_to_end") <= set(outcomes[False].metrics)
    assert names("per_layer") <= set(outcomes[True].metrics)
    assert all(v > 0 for k, v in outcomes[False].metrics.items())
    assert outcomes[False].fingerprint == outcomes[True].fingerprint
    assert json.loads((tmp_path / "trace1" / "spans.json").read_text())


def test_same_seed_same_bytes(tmp_path):
    wl = workloads.toy(workloads.WORKLOADS["quant-smooth"])
    prints = []
    for run in range(2):
        workdir = tmp_path / str(run)
        workdir.mkdir()
        prints.append(workloads.run(wl, 5, 0.0, False, workdir, Tally()).fingerprint)
    assert prints[0] == prints[1]


REFERENCE = {"seed": 0, "weight_err_rel": {"quant-int": [1e-9, 1e-9]},
             "weight_err_tolerance": 0.0}


def test_gate_failures_are_counted(tmp_path):
    wl = workloads.toy(workloads.WORKLOADS["quant-int"])
    tally = Tally()
    workloads.run(wl, 0, 0.0, False, tmp_path, tally, reference=REFERENCE)
    assert tally.failed == 2
    assert all("weight_err_rel" in f for f in tally.failures)


def test_reference_weight_errors_hold_for_their_seed_only(tmp_path):
    wl = workloads.toy(workloads.WORKLOADS["quant-int"])
    tally = Tally()
    workloads.run(wl, 1, 0.0, False, tmp_path, tally, reference=REFERENCE)
    assert tally.failures == []


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "quant-int", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def _children() -> list[str]:
    tasks = Path("/proc/self/task")
    return [pid for task in tasks.iterdir()
            for pid in (task / "children").read_text().split()]


@pytest.mark.skipif(not any(Path("/proc/self/task").glob("*/children")),
                    reason="needs /proc/<pid>/task/<tid>/children")
def test_serve_setup_leaves_no_process(tmp_path):
    before = _children()
    workloads.toy(workloads.WORKLOADS["serve"]).setup(3, tmp_path)
    assert _children() == before
