"""The autotuner (``engine="auto"``): search, cache tiers, dispatch.

Covers the tuning pipeline end to end: registry integration, cold-tune
parity against the interpreter reference, warm dispatch with zero
measurements (same instance, fresh instance, and a fresh *process* through
the ``REPRO_CACHE=1`` disk tier), staleness handling (corrupt records,
foreign format versions, host-fingerprint mismatches, unregistered
winners), degraded-winner invalidation under ``REPRO_FAULTS``, and
tuned-winner parity over the differential fuzzer's generated kernels
(``REPRO_FUZZ_COUNT`` scales the corpus).
"""

import json
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.frontend import compile_cuda
from repro.runtime import (
    A64FX_CMG,
    clear_global_tuning_cache,
    engine_names,
    global_tuning_cache,
    make_executor,
    resilience,
    reset_faults,
    shutdown_worker_pools,
)
from repro.runtime import autotune
from repro.runtime.autotune import (
    AutoEngine,
    TuningConfig,
    argument_signature,
    candidate_configs,
    host_fingerprint,
    tune_module,
    tuning_key,
)
from repro.runtime.cache import TUNING_FORMAT
from tests.helpers import generate_fuzz_kernel, report_fields

SAXPY_CUDA = """
__global__ void saxpy(float* out, float* x, float* y, float a, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) {
        out[i] = a * x[i] + y[i];
    }
}

void launch(float* d_out, float* d_x, float* d_y, float a, int n) {
    saxpy<<<(n + 31) / 32, 32>>>(d_out, d_x, d_y, a, n);
}
"""

N = 64

FUZZ_COUNT = max(1, int(os.environ.get("REPRO_FUZZ_COUNT", "6")))
FUZZ_SEED = int(os.environ.get("REPRO_FUZZ_SEED", "0"))


def make_args(n: int = N):
    rng = np.random.default_rng(7)
    x = rng.random(n).astype(np.float32)
    y = rng.random(n).astype(np.float32)
    out = np.zeros(n, dtype=np.float32)
    return [out, x, y, np.float32(2.0), n]


def compile_saxpy():
    return compile_cuda(SAXPY_CUDA, cuda_lower=True)


@pytest.fixture(scope="module", autouse=True)
def _teardown_pools():
    yield
    shutdown_worker_pools()


@pytest.fixture(autouse=True)
def _fresh_tuning_state(monkeypatch):
    """Isolate every test: no ambient disk tier, fast single-repeat tuning,
    an empty tuning cache and an empty resolved-config memo."""
    monkeypatch.delenv("REPRO_CACHE", raising=False)
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    monkeypatch.setenv("REPRO_TUNE_REPEATS", "1")
    monkeypatch.setenv("REPRO_TUNE_WARMUP", "0")
    clear_global_tuning_cache()
    autotune._RESOLVED_MEMO.clear()
    reset_faults()
    resilience.global_log().clear()
    yield
    clear_global_tuning_cache()
    autotune._RESOLVED_MEMO.clear()
    reset_faults()
    resilience.global_log().clear()


def run_interp_reference(module, entry="launch", args_factory=make_args):
    arguments = args_factory()
    reference = make_executor(module, engine="interp")
    reference.run(entry, arguments)
    return arguments, reference.report


# ---------------------------------------------------------------------------
# Registry + search space
# ---------------------------------------------------------------------------
class TestRegistration:
    def test_auto_listed_last(self):
        names = engine_names()
        assert "auto" in names
        assert names[-1] == "auto"

    def test_make_executor_accepts_auto(self):
        executor = make_executor(compile_saxpy(), engine="auto")
        assert isinstance(executor, AutoEngine)

    def test_candidates_exclude_auto_and_interp(self):
        names = [config.engine for config in candidate_configs()]
        assert "auto" not in names
        assert "interp" not in names
        # one candidate per engine; only multicore fans out, from width 2
        # (width 1 attaches no shard context: it *is* the compiled engine).
        single = [name for name in names if name != "multicore"]
        assert len(single) == len(set(single))
        assert all(config.workers >= 2 for config in candidate_configs()
                   if config.engine == "multicore")

    def test_explicit_workers_pins_multicore_width(self):
        widths = [config.workers for config in candidate_configs(workers=2)
                  if config.engine == "multicore"]
        assert widths in ([], [2])  # empty only where fork is unavailable
        assert "multicore" not in {config.engine
                                   for config in candidate_configs(workers=1)}

    def test_config_label_and_round_trip(self):
        config = TuningConfig("multicore", workers=4)
        assert config.label == "multicore[w=4]"
        assert TuningConfig.from_dict(config.to_dict()) == config
        assert TuningConfig("native").label == "native"


class TestKeys:
    def test_signature_discriminates_shapes_and_scalars(self):
        a = argument_signature(make_args(64))
        assert a == argument_signature(make_args(64))
        assert a != argument_signature(make_args(128))
        bigger = make_args(64)
        bigger[4] = 65  # scalar n sizes the iteration space
        assert a != argument_signature(bigger)

    def test_tuning_key_tracks_module_and_params(self):
        module = compile_saxpy()
        key = tuning_key(module, "launch", make_args())
        assert key == tuning_key(module, "launch", make_args())
        assert key != tuning_key(module, "launch", make_args(128))
        assert key != tuning_key(module, "other", make_args())
        assert key != tuning_key(module, "launch", make_args(), threads=32)
        assert key != tuning_key(module, "launch", make_args(), workers=2)

    def test_keys_are_byte_identical_to_tuning_format_2(self):
        """Records on disk stay valid: these two keys were recorded at
        663d6e5, before the key builder and the argument facts were unified
        (numpy scalars are left out: their repr depends on the numpy major)."""
        module = types.SimpleNamespace(_content_key="ir:pinned")
        readonly = np.arange(6, dtype=np.int64).reshape(2, 3)
        readonly.flags.writeable = False
        arguments = [np.zeros((4, 8), dtype=np.float32), readonly, 7, -0.0, True,
                     "text", np.zeros((), dtype=np.float64)]
        assert argument_signature(arguments) == (
            "nd[<f4:4x8:w],nd[<i8:2x3:r],int:7,float:-0.0,bool:True,str,nd[<f8::w]")
        assert tuning_key(module, "launch", arguments) == (
            "3b721b06713d22947f0a1b08ba8c49b6d79e2b236c3227d0b4d5ce7d0e7111fb")
        assert tuning_key(module, "launch", arguments, machine=A64FX_CMG, threads=4,
                          collect_cost=False, max_dynamic_ops=1000, workers=2) == (
            "c37fd9714bfba88cccde1cf2c371d7e6b3c3dc4c107c74e500887d3f6bccc41c")

    def test_steady_state_compares_what_the_key_hashes(self):
        """``0.0 == -0.0`` but their keys differ: the fast path must not
        dispatch one with the executor resolved for the other."""
        assert autotune._argument_facts([0.0]) != autotune._argument_facts([-0.0])
        assert argument_signature([0.0]) != argument_signature([-0.0])

    def test_host_fingerprint_fields(self):
        fingerprint = host_fingerprint()
        assert set(fingerprint) == {"cpus", "toolchain", "multicore",
                                    "python", "numpy"}


# ---------------------------------------------------------------------------
# Cold tuning
# ---------------------------------------------------------------------------
class TestColdTune:
    def test_tune_module_winner_is_bit_identical(self):
        module = compile_saxpy()
        arguments = make_args()
        result = tune_module(module, "launch", arguments)
        assert result.config.engine in engine_names()
        assert "interp" in result.measurements
        assert result.measurements[result.config.label] == result.seconds
        # tuning is invisible to the caller's buffers: every writable array
        # is restored to its pristine pre-tuning contents.
        np.testing.assert_array_equal(arguments[0],
                                      np.zeros(N, dtype=np.float32))

    def test_auto_run_matches_interp_outputs_and_report(self):
        module = compile_saxpy()
        reference_args, reference_report = run_interp_reference(module)
        arguments = make_args()
        engine = AutoEngine(module)
        engine.run("launch", arguments)
        np.testing.assert_array_equal(arguments[0], reference_args[0])
        assert report_fields(engine.report) == report_fields(reference_report)
        assert engine.auto_stats["tuned"] == 1
        assert engine.auto_stats["cache_hits"] == 0
        assert engine.auto_stats["winner"] in engine.auto_stats["measurements"]

    def test_report_accumulates_across_runs(self):
        module = compile_saxpy()
        engine = AutoEngine(module)
        engine.run("launch", make_args())
        single = report_fields(engine.report)
        engine.run("launch", make_args())
        engine.run("launch", make_args())
        assert report_fields(engine.report) == tuple(3 * field
                                                     for field in single)


# ---------------------------------------------------------------------------
# Warm dispatch
# ---------------------------------------------------------------------------
class TestWarmDispatch:
    def test_same_instance_second_run_measures_nothing(self):
        engine = AutoEngine(compile_saxpy())
        engine.run("launch", make_args())
        engine.run("launch", make_args())
        assert engine.auto_stats == {
            **engine.auto_stats, "runs": 2, "tuned": 1, "cache_hits": 1,
            "measurements": {}}

    def test_fresh_instance_hits_the_cache(self):
        module = compile_saxpy()
        cold = AutoEngine(module)
        cold.run("launch", make_args())
        warm = AutoEngine(module)
        arguments = make_args()
        warm.run("launch", arguments)
        assert warm.auto_stats["tuned"] == 0
        assert warm.auto_stats["cache_hits"] == 1
        assert warm.auto_stats["winner"] == cold.auto_stats["winner"]

    def test_new_shape_retunes(self):
        engine = AutoEngine(compile_saxpy())
        engine.run("launch", make_args(64))
        engine.run("launch", make_args(128))
        assert engine.auto_stats["tuned"] == 2


# ---------------------------------------------------------------------------
# Disk tier: persistence, corruption, staleness
# ---------------------------------------------------------------------------
@pytest.fixture
def disk_tier(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE", "1")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    yield tmp_path / "tuning"


class TestDiskTier:
    def _tune_once(self):
        module = compile_saxpy()
        engine = AutoEngine(module)
        engine.run("launch", make_args())
        assert engine.auto_stats["tuned"] == 1
        return module

    def _forget_in_process_state(self):
        # drop the memory tier + memo, keep the disk records: the next
        # lookup must go through the disk round trip.
        global_tuning_cache().clear(disk=False)
        autotune._RESOLVED_MEMO.clear()

    def test_records_published_crash_safe(self, disk_tier):
        self._tune_once()
        records = list(disk_tier.glob("*.json"))
        assert records
        assert not list(disk_tier.glob(".tmp-*"))
        payload = json.loads(records[0].read_text())
        assert payload["format"] == TUNING_FORMAT
        assert payload["record"]["host"] == host_fingerprint()

    def test_disk_round_trip_skips_measurement(self, disk_tier):
        module = self._tune_once()
        self._forget_in_process_state()
        warm = AutoEngine(module)
        warm.run("launch", make_args())
        assert warm.auto_stats["tuned"] == 0
        assert global_tuning_cache().stats.disk_hits >= 1

    def test_corrupt_record_retunes_and_repairs(self, disk_tier):
        module = self._tune_once()
        self._forget_in_process_state()
        record_path = next(disk_tier.glob("*.json"))
        record_path.write_text("{truncated garbage")
        engine = AutoEngine(module)
        engine.run("launch", make_args())
        assert engine.auto_stats["tuned"] == 1
        assert global_tuning_cache().stats.disk_errors >= 1
        # the re-tune rewrote a loadable record in place.
        assert json.loads(record_path.read_text())["format"] == TUNING_FORMAT

    def test_stale_format_version_retunes(self, disk_tier):
        module = self._tune_once()
        self._forget_in_process_state()
        record_path = next(disk_tier.glob("*.json"))
        payload = json.loads(record_path.read_text())
        payload["format"] = TUNING_FORMAT + 1
        record_path.write_text(json.dumps(payload))
        engine = AutoEngine(module)
        engine.run("launch", make_args())
        assert engine.auto_stats["tuned"] == 1

    def test_cross_process_round_trip(self, disk_tier, tmp_path):
        script = (
            "import json, numpy as np\n"
            "from repro.frontend import compile_cuda\n"
            "from repro.runtime.autotune import AutoEngine\n"
            f"module = compile_cuda({SAXPY_CUDA!r}, cuda_lower=True)\n"
            "rng = np.random.default_rng(7)\n"
            "x = rng.random(64).astype(np.float32)\n"
            "y = rng.random(64).astype(np.float32)\n"
            "engine = AutoEngine(module)\n"
            "engine.run('launch', [np.zeros(64, dtype=np.float32), x, y,"
            " np.float32(2.0), 64])\n"
            "print(json.dumps({'tuned': engine.auto_stats['tuned'],"
            " 'winner': engine.auto_stats['winner']}))\n"
        )
        environment = dict(os.environ)
        environment["REPRO_CACHE"] = "1"
        environment["REPRO_CACHE_DIR"] = str(tmp_path)
        environment["REPRO_TUNE_REPEATS"] = "1"
        environment["REPRO_TUNE_WARMUP"] = "0"
        environment["PYTHONPATH"] = str(Path(repro.__file__).parents[1])
        stats = []
        for _ in range(2):
            completed = subprocess.run(
                [sys.executable, "-c", script], env=environment,
                capture_output=True, text=True, timeout=300)
            assert completed.returncode == 0, completed.stderr
            stats.append(json.loads(completed.stdout.strip().splitlines()[-1]))
        assert stats[0]["tuned"] == 1   # cold process measured
        assert stats[1]["tuned"] == 0   # warm process read the disk record
        assert stats[1]["winner"] == stats[0]["winner"]


# ---------------------------------------------------------------------------
# Staleness of in-memory records
# ---------------------------------------------------------------------------
class TestStaleRecords:
    def _plant(self, module, config: TuningConfig, host=None):
        arguments = make_args()
        key = tuning_key(module, "launch", arguments)
        global_tuning_cache().insert(key, {
            "config": config.to_dict(),
            "host": host if host is not None else host_fingerprint(),
            "function": "launch",
            "signature": argument_signature(arguments),
            "seconds": 1e-6,
            "measurements": {config.label: 1e-6},
            "rejected": {},
        })
        return key

    def test_planted_record_is_dispatched(self):
        module = compile_saxpy()
        self._plant(module, TuningConfig("compiled"))
        engine = AutoEngine(module)
        engine.run("launch", make_args())
        assert engine.auto_stats["tuned"] == 0
        assert engine.auto_stats["winner"] == "compiled"

    def test_host_fingerprint_mismatch_retunes(self):
        module = compile_saxpy()
        foreign = dict(host_fingerprint(), cpus=4096)
        self._plant(module, TuningConfig("compiled"), host=foreign)
        engine = AutoEngine(module)
        engine.run("launch", make_args())
        assert engine.auto_stats["tuned"] == 1
        assert resilience.global_log().events(op="autotune.lookup",
                                              action="fallback")

    def test_unregistered_winner_retunes(self):
        module = compile_saxpy()
        self._plant(module, TuningConfig("hexagon-dsp"))
        engine = AutoEngine(module)
        engine.run("launch", make_args())
        assert engine.auto_stats["tuned"] == 1

    def test_malformed_record_retunes(self):
        module = compile_saxpy()
        key = tuning_key(module, "launch", make_args())
        global_tuning_cache().insert(key, {"host": host_fingerprint()})
        engine = AutoEngine(module)
        engine.run("launch", make_args())
        assert engine.auto_stats["tuned"] == 1


# ---------------------------------------------------------------------------
# Resilience composition
# ---------------------------------------------------------------------------
class TestDegradedWinner:
    # a private source text: the native artifact cache is content-addressed,
    # so a unique constant guarantees the cc step actually runs (and can be
    # fault-injected) instead of reusing a shared object from another test.
    DEGRADE_CUDA = SAXPY_CUDA.replace("a * x[i] + y[i]",
                                      "a * x[i] + y[i] + 0.03125f")

    def test_degraded_winner_invalidates_its_record(self, monkeypatch):
        from repro.runtime.native import native_available

        if not native_available():
            pytest.skip("needs the cc -fopenmp toolchain")
        module = compile_cuda(self.DEGRADE_CUDA, cuda_lower=True)
        arguments = make_args()
        key = tuning_key(module, "launch", arguments)
        global_tuning_cache().insert(key, {
            "config": {"engine": "native", "workers": None},
            "host": host_fingerprint(),
            "function": "launch",
            "signature": argument_signature(arguments),
            "seconds": 1e-6, "measurements": {}, "rejected": {},
        })
        expected = np.zeros(N, dtype=np.float32)
        reference_args = make_args()
        reference_args[0] = expected
        make_executor(module, engine="compiled").run("launch", reference_args)

        monkeypatch.setenv("REPRO_FAULTS", "native.cc:*")
        monkeypatch.setenv("REPRO_BACKOFF_S", "0")
        reset_faults()
        engine = AutoEngine(module)
        engine.run("launch", arguments)
        # the tuned winner degraded down the fallback chain bit-identically,
        # and its now-stale record was dropped.
        np.testing.assert_array_equal(arguments[0], expected)
        assert engine.auto_stats["invalidated"] == 1
        assert global_tuning_cache().lookup(key) is None
        assert resilience.global_log().events(op="autotune.dispatch",
                                              action="degrade")


# ---------------------------------------------------------------------------
# Generated-kernel coverage (the differential fuzzer's grammar)
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(FUZZ_SEED, FUZZ_SEED + FUZZ_COUNT))
def test_fuzz_tuned_winner_parity(seed):
    kernel = generate_fuzz_kernel(seed)
    module = kernel.compile(cuda_lower=True)

    reference_args = kernel.make_args()
    reference = make_executor(module, engine="interp")
    reference.run(kernel.entry, reference_args)

    arguments = kernel.make_args()
    cold = AutoEngine(module)
    cold.run(kernel.entry, arguments)
    np.testing.assert_array_equal(
        arguments[2], reference_args[2],
        err_msg=f"{kernel.description}: auto output diverged from interp")
    assert report_fields(cold.report) == report_fields(reference.report), (
        kernel.description)
    assert cold.auto_stats["tuned"] == 1

    warm_args = kernel.make_args()
    warm = AutoEngine(module)
    warm.run(kernel.entry, warm_args)
    np.testing.assert_array_equal(warm_args[2], reference_args[2])
    assert warm.auto_stats["tuned"] == 0, kernel.description
    assert warm.auto_stats["winner"] == cold.auto_stats["winner"]
