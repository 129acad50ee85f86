"""Spans around the public functions of every ``stehbein`` module, from outside.

``Tracer.install`` replaces each public function at every ``stehbein.*``
module binding of it: modules that import a function by name hold their
own binding, and patching only the defining module would miss those calls.
Functions imported inside a function body are looked up on the defining
module at call time, so that binding covers them.

Spans are kept in memory as tuples (op, id, parent, name, start, end, note)
and written out by the caller when the run ends.  ``note`` is 0 except for
the functions in ``NOTES``: computed bytes for the kernels that move
arrays, and the order for ``build_jn``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import time
from collections import defaultdict

import numpy as np

import stehbein


def _field_bytes(args, kwargs, result) -> int:
    """apply_central_at(t, m, pos): field in, central tensor in, field out."""
    t, m = args[0], args[1]
    return t.coeffs.nbytes + np.asarray(m).nbytes + result.coeffs.nbytes


def _word_bytes(args, kwargs, result) -> int:
    """word_tensor(s, strands, letters): every letter reads and writes the
    rank-2*strands composite once, plus one read of s per letter."""
    s, letters = np.asarray(args[0]), tuple(args[2])
    return len(letters) * (2 * result.nbytes + s.nbytes)


def _jn_order(args, kwargs, result) -> int:
    return args[1] if len(args) > 1 else kwargs["n"]


# span name -> (kind, note of one call); "bytes" notes are computed from
# array sizes, not measured, and summed; "key" notes are counted distinct
NOTES = {
    "frametensor.apply_central_at": ("bytes", _field_bytes),
    "frametensor.word_tensor": ("bytes", _word_bytes),
    "involution.build_jn": ("key", _jn_order),
}


def stehbein_modules() -> list:
    mods = [stehbein]
    for info in pkgutil.iter_modules(stehbein.__path__):
        mods.append(importlib.import_module(f"stehbein.{info.name}"))
    return mods


def public_functions(mods) -> dict:
    """id -> (span name, function) for every public function a module defines."""
    out = {}
    for mod in mods:
        for attr, obj in vars(mod).items():
            if (inspect.isfunction(obj) and not attr.startswith("_")
                    and obj.__module__ == mod.__name__):
                short = mod.__name__.rsplit(".", 1)[-1]
                out[id(obj)] = (f"{short}.{obj.__name__}", obj)
    return out


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.op = -1
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def _wrap(self, name: str, fn):
        note_of = NOTES.get(name, (None, None))[1]
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)  # reserve the id; filled in on exit
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
            note = note_of(args, kwargs, result) if note_of else 0
            spans[sid] = (self.op, sid, parent, name, start, end, note)
            return result

        return traced

    def install(self) -> None:
        """Wrap every public function at every module binding."""
        mods = stehbein_modules()
        wrappers = {key: self._wrap(name, fn)
                    for key, (name, fn) in public_functions(mods).items()}
        for mod in mods:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and inspect.isfunction(obj):
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[id(obj)])

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._restore):
            setattr(mod, attr, obj)
        self._restore.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()


def aggregate(spans, op: int) -> dict:
    """Per span name over one operation: calls, self seconds, summed bytes
    and the number of distinct keys (see ``NOTES``).

    Self time is a span's duration minus the durations of its direct
    children.  A span whose call raised is absent, and so is its time.
    """
    mine = [s for s in spans if s is not None and s[0] == op]
    child = defaultdict(float)
    for _, _, parent, _, start, end, _ in mine:
        if parent >= 0:
            child[parent] += end - start
    out = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "bytes": 0, "keys": set()})
    for _, sid, _, name, start, end, note in mine:
        row = out[name]
        row["calls"] += 1
        row["self_s"] += (end - start) - child[sid]
        kind = NOTES.get(name, (None,))[0]
        if kind == "bytes":
            row["bytes"] += note
        elif kind == "key":
            row["keys"].add(note)
    return dict(out)
