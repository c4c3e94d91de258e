"""Record everything the engines *emit* for a fixed module set, to diff two commits.

A refactor of an emitter must change where a form is written, not what is
emitted.  This script makes that checkable: for the 12 ledger-corpus kernels
(cpuified, ``PipelineOptions.all_optimizations()``), the 12 Rodinia
SIMT-oracle modules and — for op variety the Rodinia kernels lack — the
differential-fuzz corpus, it runs each module once per engine and records

* the generated Python source of every function the compiled engine
  finalises (one per function body, region phase and ``omp`` body since
  PR 15; one per block before) and every phase function the vectorized
  engine builds (captured at the ``exec`` call), and
* the assembled C source of every native unit with its ``native.unit_key``.

Only the 72 lowered modules emit C: barriers are lowered by cpuify, the
native engine compiles spans, and the 36 un-lowered modules (``oracle/*``,
``fuzz-oracle/*``) run on the closure tier under every engine — they stay
in the snapshot for their generated Python.

``--diff`` gives two verdicts, because the two kinds of output have
different contracts.  C sources and unit keys address the ``.so`` cache, so
any difference there in a lowered module is a changed artifact (and an
un-lowered module that emits C at all is a second barrier lowering come
back).  Generated Python is private to
one process: a slot or generated-name renumbering, a block that is simply
no longer compiled, or blocks now inlined into the function that runs them
change the text and nothing else.  Python differences are therefore
classified per module (``renumbered`` / ``fewer blocks`` / ``whole
functions`` / ``other``) and the first differing source pair is printed, so
the cause can be named rather than guessed.

``--c-digest`` is the C verdict without a parent checkout: one SHA-256 over
the assembled C sources of the 72 lowered modules in a fixed order (the sources,
not the unit keys, so that ``REPRO_CC`` does not enter), compared with the
committed ``benchmarks/emitted_c.sha256``.  It fails when the digest moved
while ``NATIVE_FORMAT`` did not — an emitter change that forgot it changes
every cached artifact's meaning — and skips where ``cc -fopenmp`` is
missing, because the sources are captured where native units seal.  It also
emits every module a second time under ``A64FX_CMG`` and fails if any
source differs from the default machine's: the C is machine-independent
(charges arrive through the ``K`` argument), so one ``.so`` serves both.

``--cc-time [flags…]`` is what the emitted C costs to build, the 80% of a
cold start: per lowered module its C bytes, how many copies of the span
loop each region function holds (two under a store-safety proof — the
pragma loop and the plain one — one without) and the ``cc`` wall time,
fastest of ``CC_REPEATS``, under the engine's own flags followed by each
given flag in turn (the last ``-O`` on a command line wins, so ``--cc-time
-O1 -O2 -O3`` is the table the engine's ``-O`` level was chosen from).
``--only corpus`` restricts it to the labels with that prefix.

Usage, from any checkout::

    python benchmarks/emitted_snapshot.py --out change.json
    python benchmarks/emitted_snapshot.py --root /path/to/parent --out parent.json
    python benchmarks/emitted_snapshot.py --diff parent.json change.json
    python benchmarks/emitted_snapshot.py --c-digest
    python benchmarks/emitted_snapshot.py --only corpus --cc-time -O1 -O2 -O3
"""

from __future__ import annotations

import argparse
import difflib
import hashlib
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from itertools import zip_longest
from pathlib import Path

FUZZ_SEEDS = 60
#: ``--cc-time`` reports the fastest of this many ``cc`` runs per unit.
CC_REPEATS = 5
#: the head of a span loop: one per copy of a region's body in its function.
SPAN_LOOP = "for (int64_t lin = 0; lin < total; ++lin) {"


def _unlowered(label: str) -> bool:
    """Whether ``label`` names a module compiled with ``cuda_lower=False``."""
    return label.split("/")[0] in ("oracle", "fuzz-oracle")


def _digest(texts) -> str:
    hasher = hashlib.sha256()
    for text in texts:
        hasher.update(text.encode())
        hasher.update(b"\x00")
    return hasher.hexdigest()


def _modules(root: Path):
    """``(label, build, entry, make_args)`` of the 108 modules (72 lowered,
    36 un-lowered), in a fixed order; puts ``root`` on ``sys.path`` first."""
    os.environ.pop("REPRO_CACHE", None)
    sys.path[:0] = [str(root / "src"), str(root), str(root / "benchmarks" / "ledger")]
    import corpus  # the ledger's frozen corpus (benchmarks/ledger/corpus)
    from repro.frontend import compile_cuda
    from repro.rodinia import BENCHMARKS
    from repro.transforms import PipelineOptions
    from tests.helpers import generate_fuzz_kernel

    modules = []
    options = PipelineOptions.all_optimizations()
    for name, kernel in corpus.KERNELS.items():
        modules.append((
            f"corpus/{name}",
            lambda kernel=kernel: compile_cuda(
                kernel.cuda_source, filename=kernel.name, cuda_lower=True,
                options=options, cache=False),
            kernel.entry,
            lambda name=name: corpus.make_inputs(name, 1, corpus.DEFAULT_SEED)))
    for name in sorted(BENCHMARKS):
        bench = BENCHMARKS[name]
        modules.append((
            f"oracle/{name}",
            lambda bench=bench: bench.compile_cuda(cuda_lower=False),
            bench.entry, lambda bench=bench: bench.make_inputs(1)))
    for seed in range(FUZZ_SEEDS):
        fuzz = generate_fuzz_kernel(seed)
        modules.append((
            f"fuzz/{seed}",
            lambda fuzz=fuzz: fuzz.compile(),
            fuzz.entry, lambda fuzz=fuzz: fuzz.make_args()))
        if fuzz.has_barrier:
            modules.append((
                f"fuzz-oracle/{seed}",
                lambda fuzz=fuzz: fuzz.compile(cuda_lower=False),
                fuzz.entry, lambda fuzz=fuzz: fuzz.make_args()))
    return modules


def _spy_units() -> list:
    """The ``(unit key, assembled C source)`` list native units append to
    as they seal."""
    from repro.runtime import native

    units = []
    real_unit_key = native.unit_key

    def spy_unit_key(source):
        key = real_unit_key(source)
        units.append((key, source))
        return key

    native.unit_key = spy_unit_key
    return units


def _emitted_c(units: list, build, entry, make_args, **executor_options) -> list:
    """The assembled C sources of one module's native units (``units`` is
    :func:`_spy_units`' list), sorted."""
    from repro.runtime import make_executor

    del units[:]
    make_executor(build(), engine="native", **executor_options).run(entry, make_args())
    return sorted(source for _, source in units)


def snapshot(root: Path) -> dict:
    modules = _modules(root)
    from repro.runtime import compiler, make_executor, vectorizer

    emitted = []

    def spy_exec(source, namespace):
        emitted.append(source)
        exec(source, namespace)  # noqa: S102 - forwards the engines' own codegen

    compiler.exec = spy_exec      # module globals shadow the builtin
    vectorizer.exec = spy_exec
    units = _spy_units()

    record = {}
    for label, build, entry, make_args in modules:
        row = {}
        for engine in ("compiled", "vectorized", "native"):
            del emitted[:]
            del units[:]
            executor = make_executor(build(), engine=engine)
            executor.run(entry, make_args())
            row[engine] = {"python": list(emitted)}
            if engine == "native":
                row[engine]["unit_keys"] = sorted(key for key, _ in units)
                row[engine]["c_sha"] = _digest(
                    source for _, source in sorted(units))
                row[engine]["c_bytes"] = sum(len(source) for _, source in units)
        record[label] = row
    return record


def c_digest(root: Path) -> int:
    """Print ``NATIVE_FORMAT=<n> sha256=<digest> modules=<count>`` and
    compare it with the committed line; check that the sources do not depend
    on the machine model (module docstring)."""
    modules = [module for module in _modules(root) if not _unlowered(module[0])]
    from repro.runtime import A64FX_CMG, XEON_8375C, native

    if not native.native_available():
        print("cc -fopenmp unavailable: no native unit seals here - "
              "emitted-C digest skipped")
        return 0
    units = _spy_units()
    sources = []
    machine_dependent = []
    for label, *module in modules:
        default = _emitted_c(units, *module, machine=XEON_8375C)
        sources.extend(default)
        if _emitted_c(units, *module, machine=A64FX_CMG) != default:
            machine_dependent.append(label)
    if machine_dependent:
        print(f"the emitted C depends on the machine model in "
              f"{len(machine_dependent)} of {len(modules)} modules "
              f"({', '.join(machine_dependent[:5])}, ...): a charge was printed "
              "as a literal instead of read from K", file=sys.stderr)
        return 1
    line = (f"NATIVE_FORMAT={native.NATIVE_FORMAT} sha256={_digest(sources)} "
            f"modules={len(modules)}")
    print(line)
    committed = (root / "benchmarks" / "emitted_c.sha256").read_text().strip()
    if line == committed:
        return 0
    if committed.split()[0] == line.split()[0]:
        print(f"committed: {committed}\nthe emitted C changed but NATIVE_FORMAT "
              "did not: bump it in src/repro/runtime/native.py, then commit the "
              "line above as benchmarks/emitted_c.sha256", file=sys.stderr)
    else:
        print(f"committed: {committed}\nNATIVE_FORMAT moved: commit the line "
              "above as benchmarks/emitted_c.sha256", file=sys.stderr)
    return 1


def body_copies(source: str) -> list:
    """Per region function of one assembled unit, how many span loops — copies
    of the region's body — it holds."""
    return [function.count(SPAN_LOOP) for function in source.split("\nvoid ")[1:]]


def cc_time(root: Path, flags, only: str) -> int:
    """Print the ``--cc-time`` table (module docstring)."""
    modules = [module for module in _modules(root)
               if not _unlowered(module[0]) and module[0].startswith(only)]
    import corpus
    from repro.runtime import native

    if not native.native_available():
        print("cc -fopenmp unavailable: no native unit seals here - cc timing skipped")
        return 0
    units = _spy_units()
    base = [*native.compiler_command(), *native.compiler_flags()]
    columns = [[flag] for flag in flags] or [[]]
    print(f"{' '.join(base)}  (fastest of {CC_REPEATS}, seconds)")
    print(f"{'module':32s} {'C bytes':>8s}  " + "  ".join(
        f"{' '.join(column) or 'as built':>8s}" for column in columns) + "  body copies")
    groups = {}
    with tempfile.TemporaryDirectory(prefix="repro-cc-time-") as temp:
        source_path, output = os.path.join(temp, "unit.c"), os.path.join(temp, "unit.so")

        def build(column) -> float:
            began = time.perf_counter()
            subprocess.run([*base, *column, source_path, "-o", output], check=True)
            return time.perf_counter() - began

        for label, *module in modules:
            sources = _emitted_c(units, *module)
            seconds = [0.0] * len(columns)
            for source in sources:
                Path(source_path).write_text(source)
                for index, column in enumerate(columns):
                    seconds[index] += min(build(column) for _ in range(CC_REPEATS))
            copies = [count for source in sources for count in body_copies(source)]
            print(f"{label:32s} {sum(map(len, sources)):8d}  "
                  + "  ".join(f"{value:8.3f}" for value in seconds)
                  + "  " + " ".join(map(str, copies)))
            group, _, name = label.partition("/")
            groups.setdefault(group, []).append(seconds)
            if name in corpus.COLD_SET:
                groups.setdefault("cold set", []).append(seconds)
    for key, rows in groups.items():
        print(f"{f'geomean ms, {key} ({len(rows)})':41s}  " + "  ".join(
            f"{1e3 * statistics.geometric_mean(column):8.1f}" for column in zip(*rows)))
    return 0


#: a slot reference or a generated name (``_f12``, ``_vphase3``, ``_t7``).
_NUMBERED = re.compile(r"regs\[\d+\]|\b_[a-z]+\d+\b")


def _shape(source: str) -> str:
    """``source`` with every slot index and generated-name suffix blanked."""
    return _NUMBERED.sub(lambda match: re.sub(r"\d+", "#", match.group()), source)


def _assignments(sources) -> Counter:
    """The register-assignment lines of ``sources`` with numbering and
    indentation blanked: what the ops compute, whichever function holds them."""
    return Counter(line.strip() for source in sources
                   for line in _shape(source).splitlines()
                   if line.lstrip().startswith("regs[#]"))


def _python_cause(parent_sources, change_sources) -> str:
    """Why two lists of generated sources differ, as far as text can tell."""
    before = Counter(map(_shape, parent_sources))
    after = Counter(map(_shape, change_sources))
    if before == after:
        return "renumbered"
    if not after - before:
        return "fewer blocks"  # the same sources up to numbering, minus some
    if (len(change_sources) <= len(parent_sources)
            and not _assignments(parent_sources) - _assignments(change_sources)):
        # no more sources, holding every assignment the parent's held: blocks
        # inlined into the function that runs them, under its one prologue
        return "whole functions"
    return "other"


def diff(parent_path: str, change_path: str) -> int:
    parent = json.loads(Path(parent_path).read_text())
    change = json.loads(Path(change_path).read_text())
    labels = sorted(set(parent) | set(change))
    groups = {}
    for label, row in change.items():
        group = groups.setdefault(label.split("/")[0], [0, 0, set()])
        group[0] += 1
        group[1] += sum(len(entry["python"]) for entry in row.values())
        group[2].update(row["native"]["unit_keys"])
    for name, (count, blocks, keys) in groups.items():
        print(f"{name}: {count} modules, {blocks} generated Python sources, "
              f"{len(keys)} native unit keys")

    def native(record, label):
        entry = record.get(label, {}).get("native", {})
        return entry.get("unit_keys"), entry.get("c_sha")

    def python(record, label, engine):
        return record.get(label, {}).get(engine, {}).get("python", [])

    lowered = [label for label in labels if not _unlowered(label)]
    c_differing = [label for label in lowered
                   if native(parent, label) != native(change, label)]
    print(f"lowered: C sources / native unit keys differing "
          f"{len(c_differing)} of {len(lowered)}")
    for label in c_differing:
        print(f"  DIFFERS (C) {label}")

    def c_bytes(record):
        return sum(record.get(label, {}).get("native", {}).get("c_bytes", 0)
                   for label in lowered)

    print(f"lowered: C bytes parent -> change {c_bytes(parent)} -> {c_bytes(change)}")
    unlowered = [label for label in labels if _unlowered(label)]
    emitting = [label for label in unlowered if native(change, label)[0]]
    gone = [label for label in unlowered
            if native(parent, label)[0] and not native(change, label)[0]]
    print(f"un-lowered: {len(emitting)} of {len(unlowered)} emit C"
          + (f"; native units gone in {len(gone)}, expected (barriers are "
             "lowered by cpuify, not by the emitter)" if gone else ""))
    for label in emitting:
        print(f"  EMITS C (un-lowered) {label}")
    c_differing += emitting

    causes = Counter()
    lowered_differing = 0
    first = None
    for label in labels:
        for engine in ("compiled", "vectorized", "native"):
            before = python(parent, label, engine)
            after = python(change, label, engine)
            if before == after:
                continue
            cause = _python_cause(before, after)
            causes[cause] += 1
            lowered_differing += not _unlowered(label)
            print(f"  DIFFERS (Python, {engine}) {label}: {cause}; "
                  f"{len(before)} -> {len(after)} sources")
            if first is None:
                first = (label, engine, before, after)
    differing = sum(causes.values())
    print(f"(module, engine) pairs whose generated Python differs: {differing}"
          f" of {3 * len(change)} ({lowered_differing} in lowered modules)"
          + "".join(f"; {cause}: {count}" for cause, count in sorted(causes.items())))
    if first is not None and not c_differing:
        label, engine, before, after = first
        surplus = Counter(map(_shape, before)) - Counter(map(_shape, after))
        dropped = next((source for source in before if surplus[_shape(source)]), None)
        if dropped is not None:
            print(f"first source compiled at the parent only ({label}, {engine}):")
            print(dropped)
        else:
            a, b = next(pair for pair in zip_longest(before, after, fillvalue="")
                        if pair[0] != pair[1])
            print(f"first differing source pair ({label}, {engine}):")
            print("\n".join(difflib.unified_diff(
                a.splitlines(), b.splitlines(), "parent", "change", lineterm="")))
    return (1 if c_differing else 0) | (2 if differing else 0)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", default=str(Path(__file__).resolve().parents[1]))
    parser.add_argument("--out")
    parser.add_argument("--diff", nargs=2, metavar=("PARENT", "CHANGE"))
    parser.add_argument("--c-digest", action="store_true",
                        help="check the emitted C against benchmarks/emitted_c.sha256")
    parser.add_argument("--only", default="", metavar="PREFIX",
                        help="--cc-time: only the modules whose label starts with PREFIX")
    parser.add_argument("--cc-time", nargs=argparse.REMAINDER, metavar="FLAG",
                        help="time cc on the emitted C, once per FLAG appended to the "
                             "engine's flags (must come last on the command line)")
    args = parser.parse_args()
    if args.diff:
        return diff(*args.diff)
    if args.c_digest:
        return c_digest(Path(args.root).resolve())
    if args.cc_time is not None:
        return cc_time(Path(args.root).resolve(), args.cc_time, args.only)
    record = snapshot(Path(args.root).resolve())
    Path(args.out).write_text(json.dumps(record, indent=1, sort_keys=True))
    print(f"{len(record)} modules -> {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
