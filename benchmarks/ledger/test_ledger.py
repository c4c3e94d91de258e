"""Self-test of the ledger: a ``--quick`` smoke of all four workloads.

Not part of tier-1 (``conftest.py`` keeps it out of default collection):

    python3 -m pytest benchmarks/ledger/test_ledger.py

Each quick run makes one pass over the four measurements with the smallest
budget (about 12 s), and the tests share runs: seven in all, two minutes.
A run's orphans would come to this process, which is how one test finds them.
"""

from __future__ import annotations

import functools
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(Path(__file__).resolve().parent))
import hygiene  # noqa: E402
from compare import is_exact  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
#: run.py's four; ``BENCHMARK.json`` lists the two the driver runs.
WORKLOADS = ["rodinia_steady", "cold_start", "launch_stream", "service_mix"]
SEED = 11
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
#: per quick run, the processes that outlived it (orphans come to this process).
OUTLIVED = {}
hygiene.adopt_orphans()


@functools.lru_cache(maxsize=None)
def quick(workload: str, trace: int, *extra: str):
    """(exit code, result object, stdout) of one quick run; cached, so the
    tests below share runs."""
    done = subprocess.run(
        [*SPEC["command"], "--workload", workload, "--seed", str(SEED), "--seconds", "1",
         "--trace", str(trace), "--quick", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    OUTLIVED[workload, trace, extra] = hygiene.children()
    hygiene.reap_children()
    lines = done.stdout.splitlines()
    assert lines, done.stderr[-2000:]
    # failures are named on stderr: keep them next to the table for messages.
    return done.returncode, json.loads(lines[-1]), done.stdout + done.stderr[-2000:]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_are_printed_by_name_with_their_unit(workload):
    code, result, stdout = quick(workload, 0)
    assert code == 0 and result["correct"] and result["failed"] == 0, stdout[-2000:]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for spec in SPEC["end_to_end"]:
        metric = result["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"]
        assert metric["value"] > 0, spec["name"]
        assert re.search(rf"^{re.escape(spec['name'])}\s+\S+ {re.escape(spec['unit'])}$",
                         stdout, re.MULTILINE), spec["name"]


@pytest.mark.parametrize("workload", ["rodinia_steady", "service_mix"])
def test_per_layer_metrics_are_printed_by_name_with_their_unit(workload):
    code, result, stdout = quick(workload, 1)
    assert code == 0 and result["correct"], stdout[-2000:]
    assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    for spec in SPEC["per_layer"]:
        assert result["metrics"][spec["name"]]["unit"] == spec["unit"]
    assert (ROOT / "benchmarks/ledger/out" / f"trace-{workload}.json").is_file()


def test_names_and_units_fit_the_contract():
    listed = [w["name"] for w in SPEC["workloads"]]
    assert 2 <= len(listed) <= 8 and set(listed) <= set(WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]] + listed
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", metric["unit"]), metric
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in SPEC["end_to_end"])


def test_counts_are_identical_across_runs():
    """Counts made by the program repeat exactly: across workloads (same
    seed, different invocation) and across the traced runs."""
    speedups = {quick(workload, 0)[1]["metrics"]["sim_speedup_vs_omp"]["value"]
                for workload in WORKLOADS}
    assert len(speedups) == 1
    first, second = (quick(workload, 1)[1]["metrics"]
                     for workload in ("rodinia_steady", "service_mix"))
    exact = [name for name in first if is_exact(name)]
    assert len(exact) > 15
    assert {name: first[name]["value"] for name in exact} == \
           {name: second[name]["value"] for name in exact}


def test_a_corrupted_reference_fails_the_run():
    code, result, _ = quick("launch_stream", 0, "--corrupt-reference")
    assert code != 0
    assert not result["correct"]
    assert result["failed"] > 0
    assert result["failed"] / result["attempted"] > 0


def test_no_process_outlives_a_run():
    """Daemon, cold-start server, ``cc``, worker pools and the resource tracker
    of the multicore probe's shared memory (traced runs) are all waited for."""
    for workload in WORKLOADS:
        quick(workload, 0)
    quick("rodinia_steady", 1)
    assert not any(OUTLIVED.values()), OUTLIVED
