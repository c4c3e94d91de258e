"""Knob census: the option surface is a pinned, documented list.

Every environment variable is one more configuration the test matrix, the
fuzz suites and the performance ledger have to cover.  A new variable fails
tier-1 here until it is added to :data:`KNOBS` (counted) and named in
README.md (documented); a deleted one fails until it is dropped from both.

The same holds for the keyword parameters of the entry points that build
and run engines (:data:`SURFACES`): an option added to one fails here until
it is counted.
"""

import inspect
import re
from importlib import import_module
from pathlib import Path

from repro.frontend import compile_cuda
from repro.runtime import engine
from repro.transforms import PassManager

ROOT = Path(__file__).resolve().parents[1]
TOKEN = re.compile(r"REPRO_[A-Z0-9_]+")

KNOBS = {
    # engine selection and sizing
    "REPRO_ENGINE", "REPRO_WORKERS", "REPRO_CC",
    # cache tiers
    "REPRO_CACHE", "REPRO_CACHE_DIR",
    # autotuner measurement loop
    "REPRO_TUNE_REPEATS", "REPRO_TUNE_WARMUP",
    # resilience layer
    "REPRO_FAULTS", "REPRO_TIMEOUT_S",
}

#: what an engine is built from, for every engine class of the table.
ENGINE_PARAMETERS = ("module", "machine", "threads")

SURFACES = {
    "make_executor": ("module", "engine", "machine", "threads", "workers"),
    "build_engine": ("name", "module", "machine", "threads", "workers"),
    "execute": ("module", "function_name", "arguments", "engine", "machine",
                "threads", "workers"),
    "compile_cuda": ("source", "filename", "cuda_lower", "cpuify_options",
                     "options", "noalias", "cache"),
    "PassManager": ("passes", "verbose"),
}


def _tokens(directory, skip=()):
    found = set()
    for path in (ROOT / directory).rglob("*.py"):
        if path not in skip:
            found.update(TOKEN.findall(path.read_text()))
    return found


def _parameters(callable_):
    return tuple(inspect.signature(callable_).parameters)


def test_source_knobs_equal_the_pinned_list():
    assert len(KNOBS) == 9
    assert _tokens("src") == KNOBS


def test_every_knob_is_named_in_the_readme():
    documented = set(TOKEN.findall((ROOT / "README.md").read_text()))
    assert KNOBS <= documented, sorted(KNOBS - documented)


def test_every_variable_the_readme_names_is_read():
    """The converse: a variable README still documents after its reader was
    deleted fails here (this file's own mentions do not count)."""
    documented = set(TOKEN.findall((ROOT / "README.md").read_text()))
    read = _tokens("src") | _tokens("tests", skip={Path(__file__).resolve()})
    assert documented <= read, sorted(documented - read)


def test_entry_point_parameters_are_pinned():
    entry_points = {"make_executor": engine.make_executor,
                    "build_engine": engine.build_engine,
                    "execute": engine.execute,
                    "compile_cuda": compile_cuda,
                    "PassManager": PassManager}
    assert {name: _parameters(entry) for name, entry in entry_points.items()} \
        == SURFACES


def test_every_engine_is_built_from_the_same_parameters():
    for name, (module_name, class_name, takes_workers) in engine._TABLE.items():
        engine_class = getattr(import_module(f"repro.runtime.{module_name}"),
                               class_name)
        expected = ENGINE_PARAMETERS + (("workers",) if takes_workers else ())
        assert _parameters(engine_class) == expected, name
