"""Kernel compile-cache conformance: keying, tiers, corruption, parity.

Covers the contract of :mod:`repro.runtime.cache`:

* hit/miss keying — changing the source, the pipeline options, the lowering
  mode or the noalias assumption must miss; an identical request must hit;
* the disk tier round-trips a module whose execution is bit-identical to a
  fresh compile, across a simulated process restart (memory tier cleared);
* corrupt, truncated, foreign and stale disk entries silently fall back to
  a recompile (and are replaced);
* the Rodinia parity matrix holds with the cache on, including through the
  disk tier (``REPRO_CACHE=1``);
* the one disk store behind the three tiers (``TestStoreContract``): every
  case takes the tier — pickle, ``.so``, JSON — as a parameter.
"""

import json
import os
import pickle
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.frontend import compile_cuda
from repro.rodinia import BENCHMARKS
from repro.runtime import reset_faults, resilience, shutdown_worker_pools
from repro.runtime.cache import (
    CACHE_FORMAT,
    PUBLISH_TIMEOUT_S,
    TUNING_FORMAT,
    KernelCache,
    NativeArtifactCache,
    TuningCache,
    clear_global_cache,
    global_cache,
    kernel_key,
    pipeline_fingerprint,
)
from repro.transforms import PipelineOptions
from tests.helpers import run_engine_matrix

SOURCE = BENCHMARKS["matmul"].cuda_source
ALT_SOURCE = BENCHMARKS["bfs"].cuda_source


@pytest.fixture(autouse=True)
def _fresh_global_cache(monkeypatch):
    """Isolate each test from cache state accumulated by other suites — and
    from an ambient ``REPRO_CACHE=1`` (the CI disk-tier matrix sets it
    process-wide); tests that want the disk tier use ``disk_cache``."""
    monkeypatch.delenv("REPRO_CACHE", raising=False)
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    clear_global_cache()
    yield
    clear_global_cache()


@pytest.fixture()
def disk_cache(tmp_path, monkeypatch):
    """A global cache with the disk tier active in a temp directory."""
    monkeypatch.setenv("REPRO_CACHE", "1")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    clear_global_cache()
    yield tmp_path
    clear_global_cache()


class TestKeying:
    def test_identical_request_hits(self):
        module1 = compile_cuda(SOURCE, cuda_lower=True)
        module2 = compile_cuda(SOURCE, cuda_lower=True)
        stats = global_cache().stats
        assert stats.memory_hits == 1 and stats.misses == 1
        assert module1 is not module2  # default mode hands out private copies

    def test_shared_mode_returns_canonical_object(self):
        module1 = compile_cuda(SOURCE, cuda_lower=True, cache="shared")
        module2 = compile_cuda(SOURCE, cuda_lower=True, cache="shared")
        assert module1 is module2

    def test_source_change_misses(self):
        compile_cuda(SOURCE, cuda_lower=True)
        compile_cuda(ALT_SOURCE, cuda_lower=True)
        assert global_cache().stats.misses == 2

    def test_options_change_misses(self):
        compile_cuda(SOURCE, cuda_lower=True,
                     options=PipelineOptions.all_optimizations())
        compile_cuda(SOURCE, cuda_lower=True,
                     options=PipelineOptions.opt_disabled())
        assert global_cache().stats.misses == 2

    def test_lowering_mode_misses(self):
        compile_cuda(SOURCE, cuda_lower=True)
        compile_cuda(SOURCE, cuda_lower=False)
        assert global_cache().stats.misses == 2

    def test_key_ignores_filename(self):
        assert (kernel_key(SOURCE, cuda_lower=True)
                == kernel_key(SOURCE, cuda_lower=True))
        compile_cuda(SOURCE, filename="one.cu", cuda_lower=True)
        compile_cuda(SOURCE, filename="two.cu", cuda_lower=True)
        assert global_cache().stats.memory_hits == 1

    def test_key_covers_noalias(self):
        assert (kernel_key(SOURCE, cuda_lower=True, noalias=True)
                != kernel_key(SOURCE, cuda_lower=True, noalias=False))

    def test_flag_string_and_options_key_identically(self):
        flags = "mincut,openmpopt"
        compile_cuda(SOURCE, cuda_lower=True, cpuify_options=flags)
        compile_cuda(SOURCE, cuda_lower=True,
                     options=PipelineOptions.from_flags(flags))
        stats = global_cache().stats
        assert stats.memory_hits == 1 and stats.misses == 1

    def test_pipeline_fingerprint_distinguishes_options(self):
        assert (pipeline_fingerprint(PipelineOptions.all_optimizations())
                != pipeline_fingerprint(PipelineOptions.opt_disabled()))

    def test_cache_false_bypasses(self):
        compile_cuda(SOURCE, cuda_lower=True, cache=False)
        compile_cuda(SOURCE, cuda_lower=True, cache=False)
        stats = global_cache().stats
        assert stats.hits == 0 and stats.stores == 0

    def test_copy_hits_are_independent_modules(self):
        """Mutating a cache-copy must not leak into later hits."""
        bench = BENCHMARKS["matmul"]
        module1 = compile_cuda(SOURCE, cuda_lower=True)
        function_count = len(list(module1.functions))
        module1.functions.clear()  # caller-side mutation of the private copy
        module2 = compile_cuda(SOURCE, cuda_lower=True)
        assert len(list(module2.functions)) == function_count
        args = bench.make_inputs(1)
        from repro.runtime import make_executor
        make_executor(module2).run(bench.entry, args)  # still executable


class TestLRU:
    def test_capacity_evicts_oldest(self):
        cache = KernelCache(capacity=2, disk_dir=False)
        for index, payload in enumerate(["one", "two", "three"]):
            cache.insert(f"key{index}", payload)
        assert len(cache) == 2
        assert cache.lookup("key0") is None
        assert cache.lookup("key2") == "three"

    def test_lookup_refreshes_recency(self):
        cache = KernelCache(capacity=2, disk_dir=False)
        cache.insert("key0", "one")
        cache.insert("key1", "two")
        assert cache.lookup("key0") == "one"  # key0 becomes most recent
        cache.insert("key2", "three")
        assert cache.lookup("key1") is None
        assert cache.lookup("key0") == "one"


class TestDiskTier:
    def test_round_trip_bit_identical(self, disk_cache):
        bench = BENCHMARKS["hotspot"]
        fresh = bench.compile_cuda(cache=False)
        bench.compile_cuda()  # populates both tiers
        assert global_cache().stats.disk_stores == 1
        assert list(disk_cache.glob("*.pkl"))

        # simulate a new process: memory tier gone, disk tier remains.
        global_cache().clear(disk=False)
        global_cache().reset_stats()
        restored = bench.compile_cuda()
        assert global_cache().stats.disk_hits == 1

        fresh_args = bench.make_inputs(1)
        restored_args = bench.make_inputs(1)
        from repro.runtime import make_executor
        fresh_engine = make_executor(fresh)
        restored_engine = make_executor(restored)
        fresh_engine.run(bench.entry, fresh_args)
        restored_engine.run(bench.entry, restored_args)
        for index in bench.output_indices:
            np.testing.assert_array_equal(np.asarray(fresh_args[index]),
                                          np.asarray(restored_args[index]))
        assert fresh_engine.report.cycles == restored_engine.report.cycles

    def test_corrupt_entry_falls_back_to_recompile(self, disk_cache):
        bench = BENCHMARKS["lud"]
        bench.compile_cuda()
        entry_path = next(disk_cache.glob("*.pkl"))
        entry_path.write_bytes(b"\x00garbage that is not a pickle")
        global_cache().clear(disk=False)
        global_cache().reset_stats()
        module = bench.compile_cuda()
        stats = global_cache().stats
        assert stats.disk_errors >= 1 and stats.misses == 1 and stats.stores == 1
        args = bench.make_inputs(1)
        from repro.runtime import make_executor
        make_executor(module).run(bench.entry, args)  # recompile is sound

    def test_stale_format_entry_falls_back(self, disk_cache):
        bench = BENCHMARKS["lud"]
        bench.compile_cuda()
        entry_path = next(disk_cache.glob("*.pkl"))
        payload = pickle.loads(entry_path.read_bytes())
        payload["format"] = CACHE_FORMAT + 1  # written by a "newer" build
        entry_path.write_bytes(pickle.dumps(payload))
        global_cache().clear(disk=False)
        global_cache().reset_stats()
        bench.compile_cuda()
        stats = global_cache().stats
        assert stats.disk_hits == 0 and stats.disk_errors >= 1
        # the stale file was replaced with a fresh entry.
        assert global_cache().stats.disk_stores == 1

    def test_foreign_key_entry_rejected(self, disk_cache):
        """An entry renamed onto another key (hash mismatch) is stale."""
        bench = BENCHMARKS["lud"]
        bench.compile_cuda()
        entry_path = next(disk_cache.glob("*.pkl"))
        other_key = kernel_key(ALT_SOURCE, cuda_lower=True)
        entry_path.rename(disk_cache / f"{other_key}.pkl")
        global_cache().clear(disk=False)
        global_cache().reset_stats()
        compile_cuda(ALT_SOURCE, cuda_lower=True)
        assert global_cache().stats.disk_hits == 0

    def test_disk_disabled_without_env(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        clear_global_cache()
        BENCHMARKS["lud"].compile_cuda()
        assert not list(tmp_path.glob("*.pkl"))


class TestCachedParity:
    """The engine-parity contract must survive both cache tiers."""

    NAMES = ["matmul", "backprop layerforward", "bfs", "nw"]

    def teardown_class(cls):
        shutdown_worker_pools()

    @pytest.mark.parametrize("name", NAMES)
    def test_rodinia_parity_through_disk_tier(self, name, disk_cache):
        bench = BENCHMARKS[name]
        bench.compile_cuda()  # populate both tiers
        global_cache().clear(disk=False)  # force the next hit through disk
        module = bench.compile_cuda()
        assert global_cache().stats.disk_hits >= 1
        run_engine_matrix(module, bench.entry, lambda: bench.make_inputs(1),
                          bench.output_indices, workers=2,
                          label=f"{name} via disk cache")

    @pytest.mark.parametrize("name", NAMES)
    def test_rodinia_parity_memory_hit_vs_fresh(self, name):
        bench = BENCHMARKS[name]
        bench.compile_cuda()
        hit = bench.compile_cuda()
        assert global_cache().stats.memory_hits >= 1
        fresh = bench.compile_cuda(cache=False)
        for module, label in ((hit, "cache hit"), (fresh, "fresh")):
            run_engine_matrix(module, bench.entry, lambda: bench.make_inputs(1),
                              bench.output_indices, workers=2,
                              label=f"{name} {label}")


class TestConcurrentColdCompiles:
    """Crash-safe publishing under racing writers (tempfile + os.replace):
    two processes cold-compiling the same key must converge on exactly one
    valid disk entry with no torn ``.tmp-`` files left behind."""

    def test_two_processes_race_to_one_valid_entry(self, disk_cache):
        # imports come before the ready flag so both compiles start together;
        # a process that still loses the race by a whole compile reads the
        # winner's entry instead of publishing its own — equally converged.
        child = (
            "import os, sys, time\n"
            "from repro.rodinia import BENCHMARKS\n"
            "from repro.runtime import global_cache\n"
            "ready = sys.argv[1]\n"
            "go = sys.argv[2]\n"
            "open(ready, 'w').close()\n"
            "deadline = time.monotonic() + 30\n"
            "while not os.path.exists(go):\n"
            "    if time.monotonic() > deadline:\n"
            "        sys.exit(2)\n"
            "    time.sleep(0.001)\n"
            "BENCHMARKS['lud'].compile_cuda()\n"
            "stats = global_cache().stats\n"
            "assert stats.disk_stores + stats.disk_hits == 1, stats\n"
            "assert stats.disk_errors == 0, stats\n"
        )
        environment = dict(os.environ)
        environment["PYTHONPATH"] = os.path.join(os.getcwd(), "src")
        environment["REPRO_CACHE"] = "1"
        environment["REPRO_CACHE_DIR"] = str(disk_cache)
        go = disk_cache / "go"
        processes = []
        for index in range(2):
            ready = disk_cache / f"ready-{index}"
            processes.append((ready, subprocess.Popen(
                [sys.executable, "-c", child, str(ready), str(go)],
                env=environment, stderr=subprocess.PIPE)))
        deadline = time.monotonic() + 60
        while not all(ready.exists() for ready, _ in processes):
            assert time.monotonic() < deadline, "children never became ready"
            time.sleep(0.01)
        go.touch()  # release both compiles at once
        for _, process in processes:
            _, stderr = process.communicate(timeout=300)
            assert process.returncode == 0, stderr.decode()

        entries = list(disk_cache.glob("*.pkl"))
        assert len(entries) == 1
        payload = pickle.loads(entries[0].read_bytes())
        assert payload["format"] == CACHE_FORMAT
        assert payload["key"] == entries[0].stem
        assert not list(disk_cache.glob(".tmp-*"))  # no torn temp files
        # the surviving entry is actually loadable through the disk tier.
        clear_global_cache()
        global_cache().reset_stats()
        BENCHMARKS["lud"].compile_cuda()
        assert global_cache().stats.disk_hits == 1


class TestTuningCacheConcurrency:
    """The tuning tier under racing clients — the service shares one
    :class:`TuningCache` across every tenant, so two clients racing a cold
    tune of the same content key must converge on exactly one entry, in
    memory and on disk, with no torn ``.tmp-`` files."""

    @staticmethod
    def _record(tag):
        return {"config": {"engine": "native", "workers": None},
                "host": {"cpus": 4}, "seconds": 0.001, "tag": tag}

    def test_threads_hammer_mixed_operations(self, tmp_path):
        cache = TuningCache(disk_dir=tmp_path)
        keys = ["k0", "k1", "k2"]
        barrier = threading.Barrier(6)
        errors = []

        def worker(index):
            try:
                barrier.wait(timeout=10)
                for step in range(40):
                    key = keys[(index + step) % len(keys)]
                    if step % 7 == 3:
                        cache.invalidate(key)
                    elif step % 2:
                        cache.insert(key, self._record(f"{index}.{step}"))
                    else:
                        record = cache.lookup(key)
                        assert record is None or "config" in record
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(index,))
                   for index in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors
        assert not list(tmp_path.glob(".tmp-*"))
        # every surviving disk record is whole and well-formed.
        for path in tmp_path.glob("*.json"):
            payload = json.loads(path.read_text())
            assert payload["format"] == TUNING_FORMAT
            assert payload["key"] == path.stem
            assert isinstance(payload["record"], dict)
        # the generation counter saw every mutation (inserts+invalidate
        # calls: 6 threads x (20 inserts + ~6 invalidations)).
        assert cache.generation >= 6 * 20

    def test_two_processes_race_to_one_valid_record(self, tmp_path):
        child = (
            "import os, sys, time\n"
            "ready = sys.argv[1]\n"
            "go = sys.argv[2]\n"
            "open(ready, 'w').close()\n"
            "deadline = time.monotonic() + 30\n"
            "while not os.path.exists(go):\n"
            "    if time.monotonic() > deadline:\n"
            "        sys.exit(2)\n"
            "    time.sleep(0.001)\n"
            "from repro.runtime.cache import TuningCache\n"
            "cache = TuningCache(disk_dir=sys.argv[3])\n"
            "cache.insert('samekey', {'config': {'engine': 'interp',"
            " 'workers': None}, 'pid': os.getpid()})\n"
            "assert cache.stats.disk_stores == 1\n"
        )
        environment = dict(os.environ)
        environment["PYTHONPATH"] = os.path.join(os.getcwd(), "src")
        go = tmp_path / "go"
        records_dir = tmp_path / "tuning"
        processes = []
        for index in range(2):
            ready = tmp_path / f"ready-{index}"
            processes.append((ready, subprocess.Popen(
                [sys.executable, "-c", child, str(ready), str(go),
                 str(records_dir)],
                env=environment, stderr=subprocess.PIPE)))
        deadline = time.monotonic() + 60
        while not all(ready.exists() for ready, _ in processes):
            assert time.monotonic() < deadline, "children never became ready"
            time.sleep(0.01)
        go.touch()  # release both inserts at once
        for _, process in processes:
            _, stderr = process.communicate(timeout=120)
            assert process.returncode == 0, stderr.decode()

        entries = list(records_dir.glob("*.json"))
        assert len(entries) == 1
        payload = json.loads(entries[0].read_bytes())
        assert payload["key"] == "samekey"
        assert payload["record"]["config"]["engine"] == "interp"
        assert not list(records_dir.glob(".tmp-*"))  # no torn temp files
        # loadable through a fresh cache (disk tier hit).
        fresh = TuningCache(disk_dir=records_dir)
        assert fresh.lookup("samekey") is not None
        assert fresh.stats.disk_hits == 1


class TestNativeArtifactTier:
    """The native engine's ``.so`` tier shares the cache's disk placement,
    capacity knob and eviction discipline (engine-level corruption fallback
    and warm-hit behaviour live in ``tests/runtime/test_native.py``)."""

    def test_artifacts_live_under_the_disk_tier(self, disk_cache):
        cache = NativeArtifactCache()
        assert cache.directory() == disk_cache / "native"

    def test_temp_directory_without_disk_tier(self):
        cache = NativeArtifactCache()
        directory = cache.directory()
        assert directory.is_dir()
        assert "repro-native-" in directory.name

    def test_capacity_is_a_constructor_argument(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_CAPACITY", "3")  # deleted in PR 15: not read
        assert NativeArtifactCache().capacity == 256
        assert NativeArtifactCache(capacity=3).capacity == 3

    def test_store_publishes_atomically_and_evicts(self, tmp_path):
        cache = NativeArtifactCache(capacity=2, directory=tmp_path)
        for index, key in enumerate(["k1", "k2", "k3"]):
            path = cache.store(key, lambda temp: temp.write_bytes(b"so"))
            os.utime(path, (1000 + index, 1000 + index))
        cache.evict()
        remaining = sorted(entry.stem for entry in tmp_path.glob("*.so"))
        assert remaining == ["k2", "k3"]
        assert not list(tmp_path.glob(".tmp-*"))  # no torn temp files


# ---------------------------------------------------------------------------
# The one disk store behind the three tiers
# ---------------------------------------------------------------------------
TIERS = ("pickle", "so", "json")
#: the tiers whose payload describes itself (format + key inside the file);
#: a damaged ``.so`` is caught by the engine's dlopen (``test_native.py``).
ENVELOPED = ("pickle", "json")

_TAGGED_CUDA = """
__global__ void fill(float* a) {{ a[threadIdx.x] = 1.0f; }}
void launch{tag}(float* a) {{ fill<<<1, 4>>>(a); }}
"""


class _Tier:
    """Uniform put/get over one tier, so each store case is written once.

    ``directory=None`` leaves the location to the environment.  Values are
    tagged ``"A"`` / ``"B"`` so a reader can tell which writer won.
    """

    #: spelled out, not read off the cache classes: the benchmark runner
    #: copies files into exactly this layout.
    SUFFIX = {"pickle": ".pkl", "so": ".so", "json": ".json"}
    SUBDIR = {"pickle": "", "so": "native", "json": "tuning"}

    def __init__(self, kind, directory=None):
        self.kind = kind
        self.directory = directory

    def open(self, capacity=None):
        """A cache with an empty memory tier — what a fresh process sees."""
        if self.kind == "pickle":
            return KernelCache(disk_dir=self.directory)
        if self.kind == "so":
            return NativeArtifactCache(capacity=capacity,
                                       directory=self.directory)
        return TuningCache(disk_dir=self.directory)

    def value(self, tag):
        if self.kind == "pickle":
            return compile_cuda(_TAGGED_CUDA.format(tag=tag), cache=False)
        if self.kind == "so":
            return tag.encode() * 64
        return {"config": {"engine": "interp", "workers": None}, "tag": tag}

    def put(self, cache, key, value):
        if self.kind == "so":
            cache.store(key, lambda temp: temp.write_bytes(value))
        else:
            cache.insert(key, value)

    def get(self, cache, key):
        """The tag of the value stored under ``key``, or ``None``."""
        found = cache.lookup(key)
        if found is None:
            return None
        if self.kind == "pickle":
            return next(fn.sym_name for fn in found.functions)[-1]
        if self.kind == "so":
            return found.read_bytes()[:1].decode()
        return found["tag"]

    def entry(self, key):
        return Path(self.directory) / f"{key}{self.SUFFIX[self.kind]}"

    def maintain(self):
        """What another process's eviction and clearing do to the directory."""
        if self.kind == "so":
            cache = self.open(capacity=1)
            self.put(cache, "otherkey", self.value("B"))  # store() evicts
            cache.evict()
            cache.clear()
        else:
            self.open().clear(disk=True)

    def files(self, in_flight):
        return [path for path in Path(self.directory).iterdir()
                if path.name.startswith(".tmp-") == in_flight]


#: a writer process publishing ("samekey", "A"); ``hold`` parks it between
#: build and rename until released, ``kill`` kills it there.
_WRITER = """
import os, sys, time
kind, directory, mode, built, go = sys.argv[1:6]
from tests.runtime.test_cache import _Tier

def park():
    open(built, "w").close()
    deadline = time.monotonic() + 60
    while not os.path.exists(go):
        if time.monotonic() > deadline:
            os._exit(2)
        time.sleep(0.001)

real_fsync = os.fsync
if mode == "kill":
    os.replace = lambda source, target: os._exit(9)
else:
    os.fsync = lambda fd: (real_fsync(fd), park())
tier = _Tier(kind, directory)
cache = tier.open()
tier.put(cache, "samekey", tier.value("A"))
assert cache.stats.disk_stores == 1, cache.stats
"""


def _spawn_writer(tier, mode, flags):
    environment = dict(os.environ)
    environment["PYTHONPATH"] = os.pathsep.join(["src", os.getcwd()])
    environment.pop("REPRO_FAULTS", None)
    return subprocess.Popen(
        [sys.executable, "-c", _WRITER, tier.kind, str(tier.directory), mode,
         str(flags / "built"), str(flags / "go")],
        env=environment, stderr=subprocess.PIPE)


every_tier = pytest.mark.parametrize("kind", TIERS)


class TestStoreContract:
    """Where, publish, read and enumerate — pinned once for pickle, ``.so``
    and JSON payloads."""

    @pytest.fixture(autouse=True)
    def _no_faults(self):
        reset_faults()
        resilience.global_log().clear()
        yield
        reset_faults()

    @pytest.fixture()
    def tier(self, kind, tmp_path):
        directory = tmp_path / "store"
        directory.mkdir()
        return _Tier(kind, directory)

    @every_tier
    def test_round_trip_through_a_fresh_process_view(self, tier):
        writer = tier.open()
        tier.put(writer, "samekey", tier.value("A"))
        assert writer.stats.disk_stores == 1
        assert tier.entry("samekey").is_file()
        assert not tier.files(in_flight=True)
        reader = tier.open()
        assert tier.get(reader, "samekey") == "A"
        assert reader.stats.disk_hits == 1 and reader.stats.disk_errors == 0
        assert tier.get(reader, "absent") is None
        assert reader.stats.misses == 1 and reader.stats.disk_errors == 0

    @every_tier
    def test_environment_is_read_on_every_operation(self, kind, tmp_path,
                                                    monkeypatch):
        """The benchmark sets ``REPRO_CACHE`` / ``REPRO_CACHE_DIR`` after
        ``import repro``: nothing may snapshot them at construction."""
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        tier = _Tier(kind)
        cache = tier.open()  # built while the disk tier is off
        for name in ("first", "second"):
            root = tmp_path / name
            monkeypatch.setenv("REPRO_CACHE", "1")
            monkeypatch.setenv("REPRO_CACHE_DIR", str(root))
            tier.put(cache, name, tier.value("A"))
            published = root / tier.SUBDIR[kind] / f"{name}{tier.SUFFIX[kind]}"
            assert published.is_file()
            assert cache.path_for(name) == published

    @pytest.mark.parametrize("damage", ["corrupt", "truncated", "stale-format",
                                        "foreign-key"])
    @pytest.mark.parametrize("kind", ENVELOPED)
    def test_damaged_entry_is_dropped_and_rebuilt(self, kind, tier, damage):
        tier.put(tier.open(), "samekey", tier.value("A"))
        entry, key = tier.entry("samekey"), "samekey"
        loads, dumps = ((pickle.loads, pickle.dumps) if kind == "pickle" else
                        (json.loads, lambda payload: json.dumps(payload).encode()))
        if damage == "corrupt":
            entry.write_bytes(b"\x00garbage that is no payload")
        elif damage == "truncated":
            entry.write_bytes(entry.read_bytes()[:20])
        elif damage == "stale-format":
            payload = loads(entry.read_bytes())
            payload["format"] += 1  # written by a "newer" build
            entry.write_bytes(dumps(payload))
        else:  # renamed onto another key: the embedded key disagrees
            key = "otherkey"
            entry.rename(tier.entry(key))
        reader = tier.open()
        assert tier.get(reader, key) is None
        assert reader.stats.disk_errors == 1 and reader.stats.misses == 1
        assert resilience.global_log().events(op="cache.read", action="fallback")
        assert not tier.entry(key).exists()  # dropped, not left to fail again
        tier.put(reader, key, tier.value("B"))  # the rebuild repairs the tier
        assert tier.get(tier.open(), key) == "B"

    @every_tier
    def test_read_fault_site_drops_the_entry(self, tier, monkeypatch):
        tier.put(tier.open(), "samekey", tier.value("A"))
        monkeypatch.setenv("REPRO_FAULTS", "cache.read:*")
        reset_faults()
        reader = tier.open()
        assert tier.get(reader, "samekey") is None
        assert reader.stats.disk_errors == 1
        assert resilience.global_log().events(op="cache.read", action="fallback")
        assert not tier.entry("samekey").exists()

    @every_tier
    def test_write_fault_site_publishes_nothing(self, kind, tier, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "cache.write:*")
        reset_faults()
        cache = tier.open()
        if kind == "so":
            # no memory tier to serve: the error reaches the engine, which
            # builds an unpublished temp .so instead (test_chaos.py).
            with pytest.raises(OSError):
                tier.put(cache, "samekey", tier.value("A"))
        else:
            tier.put(cache, "samekey", tier.value("A"))
            assert tier.get(cache, "samekey") == "A"  # memory tier serves
            assert cache.stats.disk_errors == 1
            assert resilience.global_log().events(op="cache.write",
                                                  action="fallback")
        assert cache.stats.disk_stores == 0
        assert not list(Path(tier.directory).iterdir())

    @every_tier
    def test_threads_race_to_one_valid_entry(self, kind, tier, monkeypatch):
        cache = tier.open()
        values = {tag: tier.value(tag) for tag in ("A", "B")}
        barrier = threading.Barrier(2)
        errors = []
        # collide the publishes too: each writer parks between its write and
        # its rename until the other has written (best effort — a writer that
        # found the other's finished entry never publishes).
        in_publish = threading.Barrier(2)
        real_fsync = os.fsync

        def fsync_then_meet(fd):
            real_fsync(fd)
            try:
                in_publish.wait(timeout=1)
            except threading.BrokenBarrierError:
                pass

        monkeypatch.setattr(os, "fsync", fsync_then_meet)

        def write(tag):
            try:
                barrier.wait(timeout=10)
                if tier.get(cache, "samekey") is None:  # both see a cold miss
                    tier.put(cache, "samekey", values[tag])
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=write, args=(tag,))
                   for tag in values]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert tier.files(in_flight=False) == [tier.entry("samekey")]
        assert not tier.files(in_flight=True)  # no torn temp files
        if kind in ENVELOPED:
            assert len(cache) == 1  # one converged memory entry
        # the surviving entry is one writer's, untorn, and loadable by a
        # fresh process (memory tier empty).
        fresh = tier.open()
        assert tier.get(fresh, "samekey") in values
        assert fresh.stats.disk_hits == 1

    @every_tier
    def test_in_flight_publish_survives_evict_and_clear(self, tier, tmp_path):
        """``glob("*.so")`` matches another process's ``.tmp-*.so``: evicting
        or clearing it used to fail that writer's ``os.replace``."""
        writer = _spawn_writer(tier, "hold", tmp_path)
        try:
            deadline = time.monotonic() + 60
            while not (tmp_path / "built").exists():
                assert writer.poll() is None, writer.stderr.read().decode()
                assert time.monotonic() < deadline, "writer never built"
                time.sleep(0.01)
            assert len(tier.files(in_flight=True)) == 1
            tier.maintain()
            assert len(tier.files(in_flight=True)) == 1
        finally:
            (tmp_path / "go").touch()
            _, stderr = writer.communicate(timeout=120)
        assert writer.returncode == 0, stderr.decode()
        assert tier.get(tier.open(), "samekey") == "A"
        assert not tier.files(in_flight=True)

    @every_tier
    def test_killed_writer_leaves_no_visible_entry(self, tier, tmp_path):
        writer = _spawn_writer(tier, "kill", tmp_path)
        _, stderr = writer.communicate(timeout=120)
        assert writer.returncode == 9, stderr.decode()
        assert tier.get(tier.open(), "samekey") is None
        assert not tier.files(in_flight=False)
        orphan, = tier.files(in_flight=True)
        tier.maintain()
        assert orphan.exists()  # could still be a live writer's
        stale = time.time() - PUBLISH_TIMEOUT_S - 60
        os.utime(orphan, (stale, stale))
        tier.maintain()
        assert not orphan.exists()  # older than any live publish: an orphan
