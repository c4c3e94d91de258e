"""The ledger's frozen corpus: 12 Rodinia-style kernels, their OpenMP
references, per-kernel steady scales and seeded input generators.

The sources next to this file are copies of ``repro.rodinia.kernels`` at the
commit named in ``table.json``; they are read from disk so that a later edit
of ``src/`` cannot silently change what the benchmark measures.  The program
under test only ever receives what :func:`make_inputs` generates from the
run's ``--seed``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

_HERE = Path(__file__).resolve().parent
TABLE = json.loads((_HERE / "table.json").read_text())
DEFAULT_SEED: int = TABLE["default_seed"]


@dataclass(frozen=True)
class Kernel:
    name: str
    index: int
    cuda_source: str
    omp_source: str
    entry: str
    outputs: Tuple[int, ...]
    steady_scale: int
    barrier: bool


def _load() -> Dict[str, Kernel]:
    kernels = {}
    for index, row in enumerate(TABLE["kernels"]):
        kernels[row["name"]] = Kernel(
            name=row["name"], index=index,
            cuda_source=(_HERE / row["cuda"]).read_text(),
            omp_source=(_HERE / row["omp"]).read_text(),
            entry=row["entry"], outputs=tuple(row["outputs"]),
            steady_scale=row["steady_scale"], barrier=row["barrier"])
    return kernels


KERNELS: Dict[str, Kernel] = _load()
COLD_SET: List[str] = TABLE["cold_set"]
LAUNCH_SET: List[str] = TABLE["launch_set"]
AUTO_SET: List[str] = TABLE["auto_set"]
SERVICE_SET: List[str] = TABLE["service_set"]
SERVICE_SCALE: int = TABLE["service_scale"]
SERVICE_LARGE: Tuple[str, int] = (TABLE["service_large"]["kernel"],
                                  TABLE["service_large"]["scale"])
SERVICE_COLD_KERNEL: str = TABLE["service_cold"]["kernel"]
_COLD_LITERAL: str = TABLE["service_cold"]["literal"]


# ---------------------------------------------------------------------------
# Seeded input generators (shapes follow repro.rodinia.suite at the frozen
# commit; the values come from the run's seed instead of a fixed one).
# ---------------------------------------------------------------------------
def _f32(rng, n, offset=0.1):
    return rng.random(n, dtype=np.float64).astype(np.float32) + np.float32(offset)


def _matmul(rng, scale):
    n = 16 * scale
    return [_f32(rng, n * n), _f32(rng, n * n), np.zeros(n * n, dtype=np.float32), n]


def _backprop_layerforward(rng, scale):
    in_size, hid = 16 * scale, 1
    return [_f32(rng, in_size), _f32(rng, in_size * hid + 16),
            np.zeros(in_size, dtype=np.float32),
            np.zeros(in_size // 16, dtype=np.float32), in_size, hid]


def _backprop_adjust_weights(rng, scale):
    n = 64 * scale
    return [_f32(rng, n), _f32(rng, n), _f32(rng, n), n, 0.3, 0.2]


def _bfs(rng, scale):
    n, degree = 32 * scale, 4
    row_offsets = np.arange(0, (n + 1) * degree, degree, dtype=np.int64)
    columns = rng.integers(0, n, size=n * degree, dtype=np.int64)
    # one frontier vertex, as in the suite: two frontier vertices sharing a
    # neighbour would race on cost[] and make the CostReport order-dependent.
    start = int(rng.integers(0, n))
    frontier = np.zeros(n, dtype=np.int64)
    frontier[start] = 1
    cost = -np.ones(n, dtype=np.int64)
    cost[start] = 0
    return [row_offsets, columns, frontier, np.zeros(n, dtype=np.int64), cost, n, 0]


def _hotspot(rng, scale):
    n = 32 * scale
    return [_f32(rng, n), np.zeros(n, dtype=np.float32), _f32(rng, n), n, 0.5, 0.1]


def _lud(rng, scale):
    n = max(32, 16 * scale + 1)
    return [_f32(rng, n * n, offset=1.1), n, 0]


def _nw(rng, scale):
    n = 32
    score = np.zeros((n + 1) * (n + 1), dtype=np.int64)
    score[: n + 1] = -np.arange(n + 1)
    reference = rng.integers(-2, 3, size=n * n).astype(np.int64)
    return [score, reference, n, min(8 * scale, n), 1]


def _pathfinder(rng, scale):
    cols, rows = 32 * scale, 4
    return [rng.integers(0, 10, size=rows * cols).astype(np.int64),
            rng.integers(0, 10, size=cols).astype(np.int64),
            np.zeros(cols, dtype=np.int64), cols, 1]


def _srad_v1(rng, scale):
    n = 32 * scale
    zeros = [np.zeros(n, dtype=np.float32) for _ in range(3)]
    return [_f32(rng, n, offset=0.6), *zeros, n, 0.5]


def _particlefilter(rng, scale):
    n = 32 * scale
    return [_f32(rng, n, offset=0.2), np.zeros(n // 32, dtype=np.float32), n]


def _streamcluster(rng, scale):
    n, k, dim = 32 * scale, 4, 4
    return [_f32(rng, n * dim), _f32(rng, k * dim), np.zeros(n, dtype=np.float32),
            np.zeros(n, dtype=np.int64), n, k, dim]


def _myocyte(rng, scale):
    n = 16 * scale
    return [_f32(rng, n), _f32(rng, n), n, 8, 0.05]


_GENERATORS = {
    "matmul": _matmul, "backprop_layerforward": _backprop_layerforward,
    "backprop_adjust_weights": _backprop_adjust_weights, "bfs": _bfs,
    "hotspot": _hotspot, "lud": _lud, "nw": _nw, "pathfinder": _pathfinder,
    "srad_v1": _srad_v1, "particlefilter": _particlefilter,
    "streamcluster": _streamcluster, "myocyte": _myocyte,
}


def make_inputs(name: str, scale: int, seed: int) -> List:
    """The argument list for ``name`` at ``scale``, a pure function of ``seed``."""
    rng = np.random.default_rng([seed, KERNELS[name].index, scale])
    return _GENERATORS[name](rng, scale)


def copy_args(arguments: List) -> List:
    """Fresh writable buffers for one run (engines store into their arguments)."""
    return [a.copy() if isinstance(a, np.ndarray) else a for a in arguments]


def cold_variant(seed: int, serial: int) -> str:
    """A never-seen source: the service-cold kernel with one float literal
    replaced by a value unique to (seed, serial), so its content key — and the
    C it lowers to — differs from every other request of the run.  Six
    significant digits, so distinct serials stay distinct as float32."""
    if not 0 <= serial < 10000:
        raise ValueError(f"cold variant serial {serial} out of range")
    literal = f"0.1{seed % 9 + 1}{serial:04d}f"  # never 0.100000f: that is the original
    source = KERNELS[SERVICE_COLD_KERNEL].cuda_source
    if source.count(_COLD_LITERAL) != 1:
        raise ValueError(f"expected exactly one {_COLD_LITERAL!r} in {SERVICE_COLD_KERNEL}")
    return source.replace(_COLD_LITERAL, literal)
