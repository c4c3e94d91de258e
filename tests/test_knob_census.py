"""Knob census: the ``REPRO_*`` option surface is a pinned, documented list.

Every environment variable is one more configuration the test matrix, the
fuzz suites and the performance ledger have to cover.  A new variable fails
tier-1 here until it is added to :data:`KNOBS` (counted) and named in
README.md (documented); a deleted one fails until it is dropped from both.
"""

import re
from pathlib import Path

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
    "REPRO_FAULTS", "REPRO_RETRIES", "REPRO_TIMEOUT_S", "REPRO_BACKOFF_S",
}


def _source_tokens():
    found = set()
    for path in (ROOT / "src").rglob("*.py"):
        found.update(TOKEN.findall(path.read_text()))
    return found


def test_source_knobs_equal_the_pinned_list():
    assert len(KNOBS) == 11
    assert _source_tokens() == KNOBS


def test_every_knob_is_named_in_the_readme():
    documented = set(TOKEN.findall((ROOT / "README.md").read_text()))
    assert KNOBS <= documented, sorted(KNOBS - documented)
