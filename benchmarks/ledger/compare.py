"""Compare two recorded sets of ledger runs.

    python3 benchmarks/ledger/compare.py A.jsonl B.jsonl

Each file is what ``run.py --record FILE`` appends to: one JSON document per
run.  One row is printed per (workload, metric) with both medians, both
interquartile ranges, the bound from ``BENCHMARK.json`` and a verdict:

* ``ok``         — B's median is no worse than A's by more than the bound;
* ``worse``      — it is worse by more than the bound (or an exact count differs);
* ``unresolved`` — the run-to-run spread of either set is wider than the bound,
  so the medians cannot tell (unless every run of B reads better than every
  run of A, which is ``ok``);
* ``info``       — a per-layer metric: no bound, the change is shown only.

With fewer than four runs of a workload in a set there are no quartiles: the
range of the runs stands in, and with one run per set the verdict rests on the
two values alone.  Exit code 1 when any row is ``worse``.
"""

from __future__ import annotations

import argparse
import fnmatch
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional, Tuple

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m for m in SPEC["per_layer"]}

#: counts made by the program: two runs of one commit on one seed must agree
#: exactly, and so must two commits unless the change meant to move them.
#: Sets are compared seed by seed and must share at least one.
EXACT = ("sim_speedup_vs_omp", "*.ir_ops*", "transforms.pass_changed.*", "native.*_regions")


def is_exact(name: str) -> bool:
    return any(fnmatch.fnmatchcase(name, pattern) for pattern in EXACT)


def load(path: Path) -> Dict[Tuple[str, str], List[Dict]]:
    """{(workload, metric): [metric documents, one per run]} from a JSON-lines
    record; a traced run contributes its per-layer metrics and the end-to-end
    metrics it carried along are ignored (they were measured with spans on)."""
    rows: Dict[Tuple[str, str], List[Dict]] = defaultdict(list)
    for line in path.read_text().splitlines():
        if not line.strip():
            continue
        document = json.loads(line)
        for name, metric in document["metrics"].items():
            rows[document["workload"], name].append({**metric, "seed": document["seed"]})
        rows[document["workload"], "failed_share"].append(
            {"value": document["failed"] / max(1, document["attempted"]), "unit": "ratio",
             "seed": document["seed"]})
    return rows


def by_seed(runs: List[Dict]) -> Dict[int, set]:
    values: Dict[int, set] = defaultdict(set)
    for run in runs:
        values[run["seed"]].add(run["value"])
    return values


def summary(runs: List[Dict]) -> Tuple[float, float, float]:
    """(q1, median, q3) of a metric over a set's runs; with fewer than four
    runs there are no quartiles and the range stands in."""
    values = [run["value"] for run in runs]
    median = statistics.median(values)
    if len(values) >= 4:
        q1, _, q3 = statistics.quantiles(values, n=4)
        return q1, median, q3
    return min(values), median, max(values)


def verdict(name: str, a: List[Dict], b: List[Dict]) -> Tuple[str, Optional[float]]:
    """(verdict, share by which B is worse than A — negative when better)."""
    values_a = [run["value"] for run in a]
    values_b = [run["value"] for run in b]
    if name == "failed_share":
        return ("ok" if max(values_b) == 0 else "worse"), None
    if is_exact(name):
        # a count may depend on the inputs, so on the seed; never on the run.
        seeds_a, seeds_b = by_seed(a), by_seed(b)
        shared = set(seeds_a) & set(seeds_b)
        same = all(len(seeds_a[seed]) == 1 and seeds_a[seed] == seeds_b[seed] for seed in shared)
        return ("ok" if shared and same else "worse"), None
    q1_a, median_a, q3_a = summary(a)
    q1_b, median_b, q3_b = summary(b)
    spec = END_TO_END.get(name) or PER_LAYER.get(name)
    if spec is None or median_a == 0:
        return "info", None
    lower_is_better = spec["better"] == "lower"
    worse_by = ((median_b - median_a) if lower_is_better else (median_a - median_b)) / abs(median_a)
    if name not in END_TO_END:
        return "info", worse_by
    bound = spec["bound"]
    spread = max((q3_a - q1_a) / abs(median_a), (q3_b - q1_b) / abs(median_b or median_a))
    if spread > bound:
        b_always_better = (max(values_b) < min(values_a) if lower_is_better
                           else min(values_b) > max(values_a))
        return ("ok" if b_always_better else "unresolved"), worse_by
    return ("worse" if worse_by > bound else "ok"), worse_by


def compare(path_a: Path, path_b: Path, out=sys.stdout) -> int:
    rows_a, rows_b = load(path_a), load(path_b)
    order = {w["name"]: i for i, w in enumerate(SPEC["workloads"])}
    names = list(END_TO_END) + ["failed_share"] + list(PER_LAYER)
    rank = {name: i for i, name in enumerate(names)}
    keys = sorted(set(rows_a) & set(rows_b),
                  key=lambda key: (order.get(key[0], 99), rank.get(key[1], len(rank)), key[1]))
    print(f"{'workload':15s} {'metric':38s} {'unit':6s} {'A median':>12s} {'A q1..q3':>25s} "
          f"{'B median':>12s} {'B q1..q3':>25s} {'B worse by':>10s} {'bound':>6s}  verdict",
          file=out)
    counts: Dict[str, int] = defaultdict(int)
    for workload, name in keys:
        a, b = rows_a[workload, name], rows_b[workload, name]
        result, worse_by = verdict(name, a, b)
        counts[result] += 1
        q1_a, median_a, q3_a = summary(a)
        q1_b, median_b, q3_b = summary(b)
        bound = END_TO_END.get(name, {}).get("bound")
        if is_exact(name) or name == "failed_share":
            limit = "exact"
        else:
            limit = "" if bound is None else f"{bound:.0%}"
        print(f"{workload:15s} {name:38s} {a[0]['unit']:6s} {median_a:12.6g} "
              f"{f'{q1_a:.5g}..{q3_a:.5g}':>25s} {median_b:12.6g} "
              f"{f'{q1_b:.5g}..{q3_b:.5g}':>25s} "
              f"{'' if worse_by is None else f'{worse_by:+.1%}':>10s} {limit:>6s}  {result}",
              file=out)
    for key in sorted(set(rows_a) ^ set(rows_b)):
        print(f"only in {'A' if key in rows_a else 'B'}: {key[0]} {key[1]}", file=out)
    print("  ".join(f"{result}: {count}" for result, count in sorted(counts.items())), file=out)
    return 1 if counts["worse"] else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=Path)
    parser.add_argument("b", type=Path)
    args = parser.parse_args(argv)
    return compare(args.a, args.b)


if __name__ == "__main__":
    raise SystemExit(main())
