"""Performance ledger: one workload, every output verified, every metric named.

    python3 benchmarks/ledger/run.py --workload rodinia_steady --seed 7 \\
        --seconds 42 --trace 0

Every end-to-end metric is reported on every workload, so every run takes all
four measurements: each gets a base share of ``--seconds`` (``BASE_SHARE``,
sized so that its metrics come from a handful of rounds) and the named
workload's measurement gets the remaining 27% on top.  The measurements are
interleaved in ``CYCLES`` passes so that each samples the whole run, not one
slice of it.  An untraced run sets up ``SETUPS`` times (the repeats in
``--setup-only`` children) and reports the median as ``setup_s``.  ``BENCHMARK.json``
lists two of the four workloads for the driver (the README says why); all
four run the same way.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs
with spans on, adds the layer probes, prints the per-layer metrics and writes
``benchmarks/ledger/out/trace-<workload>.json`` (Chrome-trace format).  The
last line of stdout is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  The exit code is non-zero when any operation failed.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import hygiene  # noqa: E402

hygiene.bootstrap()

import repro  # noqa: E402,F401  (absent outside a full checkout: exit 1, no result)

import corpus  # noqa: E402
from cold import Cold  # noqa: E402
from context import Context  # noqa: E402
from launch import Launch  # noqa: E402
from measure import Metric, Tracer, quartiles  # noqa: E402
from service import Service  # noqa: E402
from steady import Steady  # noqa: E402

#: workload name -> the measurement that gets the extra share of the budget.
WORKLOADS = {"rodinia_steady": "steady", "cold_start": "cold",
             "launch_stream": "launch", "service_mix": "service"}
PHASES = {"steady": Steady, "cold": Cold, "launch": Launch, "service": Service}
#: share of ``--seconds`` every run gives each measurement; at 42 s about ten
#: rounds of the corpus on both engines, ten rounds of cold children (a round
#: is four ``cc`` runs), fifty launch bursts per kernel and 150 interleaved
#: groups, five request blocks per client.  The rest (27%) goes to the named
#: workload.
BASE_SHARE = {"steady": 0.12, "cold": 0.35, "launch": 0.11, "service": 0.15}
PRIMARY_EXTRA = 1.0 - sum(BASE_SHARE.values())
CYCLES = 4
#: set-ups per untraced run: this process' own and the rest in ``--setup-only``
#: children, one after the other; ``setup_s`` is their median.
SETUPS = 3
SETUP_TIMEOUT_S = 120
SPEC = json.loads((hygiene.ROOT / "BENCHMARK.json").read_text())


def budget(phase: str, primary: str, seconds: float) -> float:
    return seconds * (BASE_SHARE[phase] + (PRIMARY_EXTRA if phase == primary else 0.0))


def repeat_setup(args, checker) -> float:
    """One more set-up, in a fresh process that does nothing else: its time,
    with its verifications counted in this run's."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-only"],
        cwd=hygiene.ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
    child = json.loads(done.stdout.splitlines()[-1])
    checker.attempted += child["attempted"]
    checker.failed += child["failed"]
    checker.messages += child["failures"]
    return child["setup_s"]


def _terminated(signum, frame):
    raise SystemExit(128 + signum)  # unwinds through run()'s teardown


def run(args) -> int:
    os.chdir(hygiene.ROOT)
    signal.signal(signal.SIGTERM, _terminated)
    hygiene.adopt_orphans()
    removed_env = hygiene.scrub_env()
    build = hygiene.ensure_build()
    workdir = hygiene.Workdir()
    cache_dir = workdir.path / "cache"
    hygiene.seed_cache(build["dir"], cache_dir)
    os.environ.update(REPRO_CACHE="1", REPRO_CACHE_DIR=str(cache_dir),
                      TMPDIR=str(workdir.fresh("tmp")))

    tracer = Tracer(enabled=False)
    ctx = Context(seed=args.seed, tracer=tracer, workdir=workdir,
                  corrupt_reference=args.corrupt_reference)
    phases = {name: cls(ctx) for name, cls in PHASES.items()}
    primary = WORKLOADS[args.workload]
    cycles = 1 if args.quick else CYCLES
    document = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                "trace": args.trace, "host": hygiene.host_facts(),
                "removed_env": removed_env,
                "effective": {"engine": "native", "omp_threads": hygiene.omp_threads(),
                              "REPRO_CACHE": "1 (per-run directory seeded with the built .so)",
                              "service_clients": phases["service"].clients,
                              "cycles": cycles},
                "build": {"seconds": build["seconds"], "built": build["built"]}}
    metrics = {}
    try:
        for phase in phases.values():
            phase.setup()
        setups = [time.perf_counter() - _T0 - build["seconds"]]
        if args.setup_only:
            print(json.dumps({"setup_s": setups[0], "attempted": ctx.checker.attempted,
                              "failed": ctx.checker.failed,
                              "failures": ctx.checker.messages}))
            return 0
        for _ in range(0 if args.quick or args.trace else SETUPS - 1):
            try:
                setups.append(repeat_setup(args, ctx.checker))
            except (OSError, ValueError, IndexError, KeyError,
                    subprocess.TimeoutExpired) as error:
                ctx.checker.fail(f"set-up repeat: {error!r}")

        overhead = None

        def headline() -> float:
            return phases[primary].metrics()[phases[primary].HEADLINE].value

        for cycle in range(cycles):
            for name, phase in phases.items():
                # a traced run keeps spans off the named workload's first pass:
                # second pass ÷ first pass of its headline is the tracing cost.
                untraced_pass = name == primary and cycle == 0 and cycles > 1
                tracer.enabled = bool(args.trace) and not untraced_pass
                phase.measure(budget(name, primary, args.seconds) / cycles)
                tracer.enabled = False
            if args.trace and cycle == 0 and cycles > 1:
                untraced = headline()
                phases[primary].reset()
            elif args.trace and cycle == 1:
                overhead = headline() / untraced - 1.0
        for phase in phases.values():
            metrics.update(phase.metrics())

        q1, middle, q3 = quartiles(setups)
        metrics["setup_s"] = Metric(middle, "s", len(setups), q1, q3)
        if args.trace:
            from layers import probe_layers

            layer_metrics, tables = probe_layers(ctx, phases, build, overhead)
            document["layer_tables"] = tables
            document["end_to_end"] = {k: m.to_dict() for k, m in metrics.items()}
            metrics = layer_metrics
            tracer.write_chrome_trace(hygiene.OUT / f"trace-{args.workload}.json")
    finally:
        # every process the run started ends here, and is waited for, on
        # every path out: daemon, cold-start server, worker pools, the
        # resource tracker of their shared memory.  A SIGTERM from here on must
        # not cut the teardown short (its waits are bounded).
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        for phase in phases.values():
            try:
                phase.close()
            except Exception as error:  # noqa: BLE001 - the others still close
                print(f"teardown: {error!r}", file=sys.stderr)
        from repro.runtime import shutdown_worker_pools

        shutdown_worker_pools()
        document["leaked_shm_segments"] = hygiene.sweep_shm()
        hygiene.stop_resource_tracker()
        document["killed_at_teardown"] = hygiene.reap_children()
        workdir.close()

    checker = ctx.checker
    if not args.trace:
        metrics["peak_rss_mb"] = Metric(hygiene.peak_rss_mb(), "MB")

    wanted = [m["name"] for m in SPEC["per_layer" if args.trace else "end_to_end"]]
    missing = [name for name in wanted if name not in metrics]
    if missing:
        raise RuntimeError(f"metrics named in BENCHMARK.json were not measured: {missing}")
    document.update(attempted=checker.attempted, failed=checker.failed,
                    failures=checker.messages,
                    metrics={name: metrics[name].to_dict() for name in wanted})
    for name in wanted:
        print(f"{name:42s} {metrics[name].value:>16.6g} {metrics[name].unit}")
    print(f"failed_share {checker.failed / max(1, checker.attempted):.6g} ratio  "
          f"(attempted {checker.attempted}, failed {checker.failed})  "
          f"wall {time.perf_counter() - _T0:.1f} s")
    for message in checker.messages:
        print(f"FAILED: {message}", file=sys.stderr)
    if args.record:
        with open(args.record, "a") as sink:
            sink.write(json.dumps(document) + "\n")
    print(json.dumps({
        "correct": checker.failed == 0, "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": metrics[name].value, "unit": metrics[name].unit}
                    for name in wanted}}))
    return 0 if checker.failed == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=corpus.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="smoke run: one pass over the four measurements "
                             "(use with a small --seconds)")
    parser.add_argument("--record", type=Path, default=None,
                        help="append this run's full document (quartiles, sample "
                             "counts, host facts) to a JSON-lines file for compare.py")
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up time and stop (a run "
                             "repeats its set-up this way)")
    parser.add_argument("--corrupt-reference", action="store_true",
                        help="self-test: zero every reference digest, so every "
                             "verification must fail")
    try:
        return run(parser.parse_args(argv))
    finally:
        hygiene.reap_children()  # a build cut short never reaches run()'s teardown


if __name__ == "__main__":
    raise SystemExit(main())
