"""Run hygiene: paths, a scrubbed environment, a per-run work directory, host
facts, peak RSS and the one-time build of the corpus' native artifacts.

Everything the benchmark writes lives under ``benchmarks/ledger/out/`` (git
ignores it), so a run reads and writes only inside its checkout.
"""

from __future__ import annotations

import hashlib
import os
import platform
import resource
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

LEDGER = Path(__file__).resolve().parent
ROOT = LEDGER.parents[1]
SRC = ROOT / "src"
OUT = LEDGER / "out"


def bootstrap() -> None:
    """Make ``repro`` importable from this checkout's ``src/`` — and fail (an
    ImportError, exit code 1) in a directory that holds only the benchmark."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def scrub_env() -> List[str]:
    """Drop inherited ``REPRO_*`` variables so the run measures the program's
    defaults; returns the names removed (recorded in the result)."""
    removed = sorted(name for name in os.environ if name.startswith("REPRO_"))
    for name in removed:
        del os.environ[name]
    return removed


def child_env(cache_dir: Optional[Path]) -> Dict[str, str]:
    """Environment for a child (cold-start server, build, daemon): this
    checkout's ``src`` on the path, the disk cache tiers at ``cache_dir`` or off."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    if cache_dir is not None:
        env["REPRO_CACHE"] = "1"
        env["REPRO_CACHE_DIR"] = str(cache_dir)
    return env


def omp_threads() -> int:
    """The OpenMP team size generated code gets: ``OMP_NUM_THREADS`` if the
    caller set it, else every CPU this process may run on."""
    configured = os.environ.get("OMP_NUM_THREADS", "").split(",")[0].strip()
    return int(configured) if configured.isdigit() else nproc()


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def host_facts() -> Dict:
    import numpy

    try:
        cc = subprocess.run(["cc", "--version"], capture_output=True, text=True,
                            timeout=30).stdout.splitlines()[0]
    except (OSError, IndexError, subprocess.TimeoutExpired):
        cc = "unavailable"
    return {"nproc": nproc(), "affinity": sorted(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(), "omp_threads": omp_threads(), "cc": cc,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "machine": platform.machine(), "system": platform.release()}


def peak_rss_mb() -> float:
    """Largest resident set of this process or of any child it has waited for
    (daemon, cold-start processes, ``cc``), in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


class Workdir:
    """``out/run-<pid>/``: the run's cache dir, cold-start dirs and socket."""

    def __init__(self) -> None:
        self.path = OUT / f"run-{os.getpid()}"
        shutil.rmtree(self.path, ignore_errors=True)
        self.path.mkdir(parents=True)
        self._serial = 0

    def fresh(self, stem: str) -> Path:
        self._serial += 1
        path = self.path / f"{stem}-{self._serial}"
        path.mkdir()
        return path

    def relative(self, path: Path) -> str:
        """Path relative to the checkout root (AF_UNIX paths are capped at
        ~108 bytes; the run's cwd is the root)."""
        return os.path.relpath(path, ROOT)

    def disk_bytes(self, path: Path) -> int:
        return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())

    def close(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)


def sweep_shm() -> int:
    """Unlink shared-memory segments this process' engines left behind;
    returns how many there were (0 after a clean teardown)."""
    leaked = list(Path("/dev/shm").glob(f"repro-{os.getpid()}-*"))
    for segment in leaked:
        try:
            segment.unlink()
        except OSError:
            pass
    return len(leaked)


def stop_resource_tracker(timeout_s: float = 5.0) -> None:
    """End ``multiprocessing``'s resource tracker and wait for it.

    The multicore engine's shared memory starts one; it ends only once it sees
    this process' end of its pipe closed — left alone, after this process has
    gone, so it would outlive the run."""
    from multiprocessing import resource_tracker

    tracker = getattr(resource_tracker, "_resource_tracker", None)
    pid, fd = getattr(tracker, "_pid", None), getattr(tracker, "_fd", None)
    if pid is None:
        return
    if fd is not None:
        os.close(fd)
    tracker._fd = tracker._pid = None
    deadline = time.monotonic() + timeout_s
    try:
        while os.waitpid(pid, os.WNOHANG) == (0, 0):
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                break
            time.sleep(0.01)
    except (ChildProcessError, ProcessLookupError):
        pass  # already reaped


def _prctl(option: int, value: int) -> None:
    try:
        import ctypes

        ctypes.CDLL(None, use_errno=True).prctl(option, value, 0, 0, 0)
    except (OSError, AttributeError):
        pass  # not Linux: the teardown of each phase has to do


def adopt_orphans() -> None:
    """Linux: processes orphaned below this one (``cc1`` when its ``cc`` is
    killed, a daemon's helpers) become its children, where
    :func:`reap_children` finds them."""
    _prctl(36, 1)  # PR_SET_CHILD_SUBREAPER


def children() -> List[int]:
    """Pids of this process' children (read from ``/proc``; none elsewhere)."""
    found = []
    for entry in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = entry.read_text().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue  # gone since the listing
        if int(fields[1]) == os.getpid():
            found.append(int(entry.parent.name))
    return found


def reap_children() -> int:
    """Kill and wait for every child this process still has, and whatever is
    orphaned to it by that; returns how many there were (0 after a clean
    teardown, which has waited for each child by name)."""
    reaped = 0
    for _ in range(100):  # each pass ends a generation of orphans
        remaining = children()
        if not remaining:
            break
        for pid in remaining:
            try:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            except (ProcessLookupError, ChildProcessError):
                pass
            reaped += 1
    return reaped


def die_with_parent() -> None:
    """Linux: have the kernel kill this process when its parent ends, so a
    killed run cannot leave its children behind (call in the child)."""
    _prctl(1, int(signal.SIGKILL))  # PR_SET_PDEATHSIG


# ---------------------------------------------------------------------------
# Build: the corpus' shared objects, compiled once per checkout state
# ---------------------------------------------------------------------------
def _build_key() -> str:
    """Content hash of everything a cached ``.so`` depends on: the program's
    sources, the corpus, the C compiler and the interpreter."""
    digest = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *(LEDGER / "corpus").iterdir(),
                        LEDGER / "cold_child.py"]):
        if path.is_file() and path.suffix in (".py", ".cu", ".c", ".json"):
            digest.update(path.name.encode() + b"\0" + path.read_bytes())
    facts = host_facts()
    digest.update(repr([facts[k] for k in ("cc", "python", "numpy", "machine")]).encode())
    return digest.hexdigest()[:16]


def ensure_build() -> Dict:
    """Return ``{"dir", "seconds", "built"}`` for this checkout's build.

    The warm-path phases (steady, launch, service) start from the corpus'
    native artifacts so that no run spends ~10 s of set-up in ``cc``; the
    artifacts are content-addressed by the program itself and the directory by
    :func:`_build_key`, so an edit to ``src/`` builds afresh.  ``cold_start``
    never reads this directory.
    """
    target = OUT / f"build-{_build_key()}"
    if (target / "DONE").is_file():
        return {"dir": target, "seconds": 0.0, "built": False}
    for stale in OUT.glob("build-*"):
        shutil.rmtree(stale, ignore_errors=True)
    staging = OUT / f"build-staging-{os.getpid()}"
    shutil.rmtree(staging, ignore_errors=True)
    staging.mkdir(parents=True)
    began = time.perf_counter()
    try:
        subprocess.run(
            [sys.executable, str(LEDGER / "cold_child.py"), "--engine", "native", "--seed", "0"],
            env=child_env(staging), cwd=ROOT, check=True, timeout=840,
            stdout=subprocess.DEVNULL)
        (staging / "DONE").write_text("ok\n")
        staging.rename(target)
    finally:
        shutil.rmtree(staging, ignore_errors=True)
    return {"dir": target, "seconds": time.perf_counter() - began, "built": True}


def seed_cache(build_dir: Path, cache_dir: Path) -> None:
    """Copy the built shared objects (not the kernel pickles: set-up runs the
    real pass pipeline) into a run's empty cache directory."""
    native = cache_dir / "native"
    native.mkdir(parents=True, exist_ok=True)
    for artifact in (build_dir / "native").glob("*.so"):
        shutil.copy2(artifact, native / artifact.name)
