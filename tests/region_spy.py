"""A region-ABI shim for tests that watch what the native dispatcher hands C.

The dispatcher (``repro.runtime._dispatch``) calls a region's function by
its address in ``unit.functions``.  :meth:`RegionSpy.wrap` points each of a
unit's symbols at a C trampoline of this shim, which records the call's
``total``, ``mode`` and ``width`` and the first buffer addresses of ``LP``,
then calls the real function — with ``mode`` 0 and ``width`` 1, the
sequential plain path, while :attr:`RegionSpy.plain` is set.  The shim is
built once per process with the engine's C compiler.  :meth:`RegionSpy.fail`
makes one symbol's calls report an error code after the real call's stores.
"""

from __future__ import annotations

import ctypes
import os
import subprocess
import tempfile
from typing import List, Optional, Tuple

#: trampolines, calls recorded and buffer addresses recorded per call.
SLOTS, CALLS, POINTERS = 64, 4096, 8

_ABI = ("const int64_t* LI, const double* LF, const int64_t* K, void* const* LP, "
        "const int64_t* LS, const int64_t* RLB, const int64_t* RST, const int64_t* RLEN, "
        "int64_t total, int64_t mode, int64_t width, double* outf, int64_t* outi")

_SOURCE = f"""
#include <stdint.h>
typedef void (*region_fn)({_ABI});
region_fn spy_target[{SLOTS}];
int64_t spy_buffers[{SLOTS}], spy_error[{SLOTS}];
int64_t spy_plain, spy_count;
int64_t spy_calls[{CALLS}][4];
uintptr_t spy_pointers[{CALLS}][{POINTERS}];

static void record(int64_t slot, {_ABI})
{{
    int64_t call = __atomic_fetch_add(&spy_count, 1, __ATOMIC_SEQ_CST);
    if (call < {CALLS}) {{
        spy_calls[call][0] = slot;
        spy_calls[call][1] = total;
        spy_calls[call][2] = mode;
        spy_calls[call][3] = width;
        for (int64_t i = 0; i < spy_buffers[slot] && i < {POINTERS}; ++i)
            spy_pointers[call][i] = (uintptr_t)LP[i];
    }}
    if (spy_plain) {{
        mode = 0;
        width = 1;
    }}
    spy_target[slot](LI, LF, K, LP, LS, RLB, RST, RLEN, total, mode, width, outf, outi);
    if (spy_error[slot])
        outi[1] = spy_error[slot];
}}
""" + "".join(
    f"void spy{slot}({_ABI}) {{ record({slot}, LI, LF, K, LP, LS, RLB, RST, RLEN, "
    f"total, mode, width, outf, outi); }}\n" for slot in range(SLOTS))

_LIBRARY: Optional[ctypes.CDLL] = None
#: trampolines handed out so far: a unit wrapped once keeps its trampoline
#: for the life of the process, so none is handed out twice.
_WRAPPED = [0]


def _library() -> ctypes.CDLL:
    global _LIBRARY
    if _LIBRARY is None:
        from repro.runtime import native

        directory = tempfile.mkdtemp(prefix="repro-region-spy-")
        source, output = (os.path.join(directory, name) for name in ("spy.c", "spy.so"))
        with open(source, "w") as handle:
            handle.write(_SOURCE)
        subprocess.run([*native.compiler_command(), "-O1", "-fPIC", "-shared", source,
                        "-o", output], check=True, capture_output=True)
        _LIBRARY = ctypes.CDLL(output)
    return _LIBRARY


class RegionSpy:
    """The shim's recorded calls, and :meth:`wrap` to route units through it.
    One spy per process at a time: the shim's call log is global."""

    def __init__(self) -> None:
        self.library = _library()
        self._state("spy_count").value = 0
        self.plain = False
        #: symbol -> the trampoline slot it was routed through.
        self.slots = {}

    def _state(self, name: str, ctype=ctypes.c_int64):
        return ctype.in_dll(self.library, name)

    def wrap(self, unit, buffers: int = 0) -> None:
        """Route every function of ``unit`` through a trampoline recording
        the first ``buffers`` addresses of ``LP``."""
        targets = self._state("spy_target", ctypes.c_void_p * SLOTS)
        counts = self._state("spy_buffers", ctypes.c_int64 * SLOTS)
        for symbol, address in list(unit.functions.items()):
            slot = _WRAPPED[0]
            _WRAPPED[0] += 1
            assert slot < SLOTS, "region spy out of trampolines"
            targets[slot], counts[slot] = address, buffers
            self._state("spy_error", ctypes.c_int64 * SLOTS)[slot] = 0
            self.slots[symbol] = slot
            trampoline = getattr(self.library, f"spy{slot}")
            unit.functions[symbol] = ctypes.cast(trampoline, ctypes.c_void_p).value

    def fail(self, symbol: str, code: int) -> None:
        """Make every later call of the wrapped ``symbol`` return the error
        ``code`` (0: none) after the real call ran."""
        self._state("spy_error", ctypes.c_int64 * SLOTS)[self.slots[symbol]] = code

    @property
    def plain(self) -> bool:
        return bool(self._state("spy_plain").value)

    @plain.setter
    def plain(self, value: bool) -> None:
        self._state("spy_plain").value = int(value)

    def _count(self) -> int:
        count = self._state("spy_count").value
        assert count <= CALLS, "region spy overflowed its call log"
        return count

    @property
    def calls(self) -> List[Tuple[int, bool, int]]:
        """``(total, mode, width)`` of every call so far, as C received it."""
        log = self._state("spy_calls", (ctypes.c_int64 * 4) * CALLS)
        return [(log[call][1], bool(log[call][2]), log[call][3])
                for call in range(self._count())]

    @property
    def pointers(self) -> List[List[int]]:
        """The recorded buffer addresses of every call so far."""
        log = self._state("spy_pointers", (ctypes.c_uint64 * POINTERS) * CALLS)
        counts = self._state("spy_buffers", ctypes.c_int64 * SLOTS)
        calls = self._state("spy_calls", (ctypes.c_int64 * 4) * CALLS)
        return [list(log[call][:min(POINTERS, counts[calls[call][0]])])
                for call in range(self._count())]
