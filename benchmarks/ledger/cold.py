"""``cold_start``: corpus kernels at scale 1 from source text to the first
verified result in a fresh process.  Frontend, transforms, ``runtime.cache``,
C emission and ``cc`` do all the work and the kernel almost none — the mirror
image of ``rodinia_steady``.  Three tiers per round, a child process per sample:

* ``empty``    — ``native``, every cache tier empty (populates the disk tiers);
* ``nocc``     — ``vectorized``, every tier empty: the cold path without ``cc``;
* ``diskwarm`` — ``native`` again on the directory ``empty`` filled: a restart.

A child is a fork of one ``cold_child.py --serve`` process that has imported
``repro`` and done nothing else — the point the timing starts from — so a
round pays the 0.4 s import once per run instead of three times per round.
"""

from __future__ import annotations

import json
import select
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

import corpus
from context import Context
from hygiene import LEDGER, ROOT, child_env
from measure import Metric, geomean_of_best

TIERS = (("empty", "native"), ("nocc", "vectorized"), ("diskwarm", "native"))
#: children per round: the tiers without ``cc`` on them cost a tenth of the
#: ``empty`` one, so they can afford the repeats a fastest-of needs.
CHILDREN = {"empty": 1, "nocc": 2, "diskwarm": 3}
METRIC_OF_TIER = {"empty": "cold_geomean_s", "nocc": "cold_nocc_geomean_s",
                  "diskwarm": "cold_diskwarm_geomean_s"}
CHILD_TIMEOUT_S = 150


class Zygote:
    """The ``--serve`` process and its line protocol."""

    def __init__(self) -> None:
        self.process = subprocess.Popen(
            [sys.executable, str(LEDGER / "cold_child.py"), "--serve"],
            env=child_env(None), cwd=ROOT, text=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE)

    def run(self, engine: str, kernels: List[str], seed: int, cache_dir: Path, *,
            trace: bool = False, steady_rounds: int = 0, **extra_env: str) -> Dict:
        """Fork a child for ``kernels`` on ``cache_dir``; its JSON document."""
        request = {"engine": engine, "kernels": kernels, "seed": seed, "trace": trace,
                   "steady_rounds": steady_rounds,
                   "env": {"REPRO_CACHE": "1", "REPRO_CACHE_DIR": str(cache_dir), **extra_env}}
        self.process.stdin.write(json.dumps(request) + "\n")
        self.process.stdin.flush()
        ready, _, _ = select.select([self.process.stdout], [], [], CHILD_TIMEOUT_S)
        if not ready:
            self.process.kill()
            raise RuntimeError(f"cold child gave no answer in {CHILD_TIMEOUT_S} s")
        document = json.loads(self.process.stdout.readline() or '{"error": "zygote died"}')
        if "error" in document:
            raise RuntimeError(document["error"])
        return document

    def close(self) -> None:
        try:
            self.process.stdin.write("\n")
            self.process.stdin.close()
        except OSError:
            pass  # already gone
        try:
            self.process.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        self.process.stdout.close()


class Cold:
    HEADLINE = "cold_geomean_s"

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.zygote: Optional[Zygote] = None
        #: per tier, the child documents of every round (the layer probes read
        #: probe time and first/second-run times from them).
        self.documents: Dict[str, List[Dict]] = {tier: [] for tier, _ in TIERS}
        self.reset()

    def reset(self) -> None:
        self.samples: Dict[str, Dict[str, List[float]]] = {
            tier: {name: [] for name in corpus.COLD_SET} for tier, _ in TIERS}

    def setup(self) -> None:
        self.zygote = Zygote()
        for name in corpus.COLD_SET:
            self.ctx.reference(name, 1)

    def close(self) -> None:
        if self.zygote is not None:
            self.zygote.close()
            self.zygote = None

    def measure(self, budget_s: float) -> None:
        trace = self.ctx.tracer.enabled
        began = time.perf_counter()
        rounds = 0
        # a round costs seconds (``cc``): start one only if most of it fits.
        while rounds < 1 or (time.perf_counter() - began) * (rounds + 0.5) / rounds < budget_s:
            # the same order every round: the first kernel of a child also pays
            # the lazy imports of the engine modules, as a one-kernel process
            # would, and must be the same kernel every time.
            order = corpus.COLD_SET
            disk = self.ctx.workdir.fresh("cold")
            for tier, engine in ((t, e) for t, e in TIERS for _ in range(CHILDREN[t])):
                cache_dir = disk if tier != "nocc" else self.ctx.workdir.fresh("cold-nocc")
                try:
                    document = self.zygote.run(engine, order, self.ctx.seed, cache_dir,
                                               trace=trace)
                except (RuntimeError, OSError, ValueError) as error:
                    for name in order:
                        self.ctx.checker.fail(f"cold {tier} {name}: {error}")
                    continue
                self.documents[tier].append(document)
                for name, result in document["kernels"].items():
                    self.ctx.checker.check(
                        self.ctx.reference(name, 1).matches(result["outputs"], result["report"])
                        and result["engine_used"] == engine,
                        f"cold {tier}: {name} differs from its reference")
                    self.samples[tier][name].append(result["total_s"])
                    self._record_spans(tier, name, result)
            rounds += 1

    def _record_spans(self, tier: str, name: str, result: Dict) -> None:
        tracer = self.ctx.tracer
        if not tracer.enabled or tier != "empty" or not result["spans"]:
            return
        origin = time.perf_counter()
        root = tracer.add("cold.op", "ledger", tracer.new_op(), origin,
                          origin + result["total_s"])
        added = {span["name"]: tracer.add(span["name"], span["layer"], root.op,
                                          origin + span["start"], origin + span["end"],
                                          parent=root)
                 for span in result["spans"]}
        # the kernel's own share of the first run is what a warm run costs.
        first = added["first_run"]
        tracer.add("kernel", "kernel", root.op, first.end - result["second_run_s"], first.end,
                   parent=first)

    def metrics(self) -> Dict[str, Metric]:
        return {METRIC_OF_TIER[tier]: geomean_of_best(self.samples[tier], "s")
                for tier, _ in TIERS}
