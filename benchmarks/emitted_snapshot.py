"""Record everything the engines *emit* for a fixed module set, to diff two commits.

A refactor of the scalar-op emitters must change where a form is written,
not what is emitted.  This script makes that checkable: for the 12
ledger-corpus kernels (cpuified, ``PipelineOptions.all_optimizations()``),
the 12 Rodinia SIMT-oracle modules and — for op variety the Rodinia kernels
lack — the differential-fuzz corpus, it runs each module once per engine and
records

* the generated Python source of every block runner the compiled engine
  builds and every phase function the vectorized engine builds (captured at
  the ``exec`` call), and
* the assembled C source of every native unit with its ``native.unit_key``.

Usage, from any checkout::

    python benchmarks/emitted_snapshot.py --out change.json
    python benchmarks/emitted_snapshot.py --root /path/to/parent --out parent.json
    python benchmarks/emitted_snapshot.py --diff parent.json change.json
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path

FUZZ_SEEDS = 60


def _digest(texts) -> str:
    hasher = hashlib.sha256()
    for text in texts:
        hasher.update(text.encode())
        hasher.update(b"\x00")
    return hasher.hexdigest()


def snapshot(root: Path) -> dict:
    os.environ.pop("REPRO_CACHE", None)
    sys.path[:0] = [str(root / "src"), str(root), str(root / "benchmarks" / "ledger")]
    import corpus  # the ledger's frozen corpus (benchmarks/ledger/corpus)
    from repro.frontend import compile_cuda
    from repro.rodinia import BENCHMARKS
    from repro.runtime import compiler, make_executor, native, vectorizer
    from repro.transforms import PipelineOptions
    from tests.helpers import generate_fuzz_kernel

    emitted = []

    def spy_exec(source, namespace):
        emitted.append(source)
        exec(source, namespace)  # noqa: S102 - forwards the engines' own codegen

    compiler.exec = spy_exec      # module globals shadow the builtin
    vectorizer.exec = spy_exec
    units = []
    real_unit_key = native.unit_key

    def spy_unit_key(source):
        key = real_unit_key(source)
        units.append((key, source))
        return key

    native.unit_key = spy_unit_key

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

    record = {}
    for label, build, entry, make_args in modules:
        row = {}
        for engine in ("compiled", "vectorized", "native"):
            del emitted[:]
            del units[:]
            executor = make_executor(build(), engine=engine)
            executor.run(entry, make_args())
            row[engine] = {"python_blocks": len(emitted),
                           "python_sha": _digest(emitted)}
            if engine == "native":
                row[engine]["unit_keys"] = sorted(key for key, _ in units)
                row[engine]["c_sha"] = _digest(
                    source for _, source in sorted(units))
        record[label] = row
    return record


def diff(parent_path: str, change_path: str) -> int:
    parent = json.loads(Path(parent_path).read_text())
    change = json.loads(Path(change_path).read_text())
    differing = [label for label in sorted(set(parent) | set(change))
                 if parent.get(label) != change.get(label)]
    groups = {}
    for label, row in change.items():
        group = groups.setdefault(label.split("/")[0], [0, 0, set()])
        group[0] += 1
        group[1] += sum(entry["python_blocks"] for entry in row.values())
        group[2].update(row["native"]["unit_keys"])
    for name, (count, blocks, keys) in groups.items():
        print(f"{name}: {count} modules, {blocks} generated Python sources, "
              f"{len(keys)} native unit keys")
    print(f"modules whose emitted Python / C / unit keys differ: {len(differing)}"
          f" of {len(change)}")
    for label in differing:
        print(f"  DIFFERS {label}")
    return 1 if differing else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", default=str(Path(__file__).resolve().parents[1]))
    parser.add_argument("--out")
    parser.add_argument("--diff", nargs=2, metavar=("PARENT", "CHANGE"))
    args = parser.parse_args()
    if args.diff:
        return diff(*args.diff)
    record = snapshot(Path(args.root).resolve())
    Path(args.out).write_text(json.dumps(record, indent=1, sort_keys=True))
    print(f"{len(record)} modules -> {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
