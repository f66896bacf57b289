"""Outside-in tracing of freemono's public functions, and the statistics
the benchmark reports.

``Tracer.install`` rebinds each function named in ``LAYERS`` to a wrapper
that records one span per call: the function's name, the recording
thread, start and end in ``perf_counter_ns`` units, and an outcome flag.
Source modules import public functions by name (``from .kernels import
op_norm``), so the wrapper replaces the function in every ``freemono``
module namespace that holds it, not only in its home module.  Methods
(``Rng.split``, ``CommutingPath.point``) are replaced on their class.

Spans stay in memory, in one buffer per thread, until ``summary`` reduces
them.  A span's self time is its duration minus the part of it that
spans nested in it on the same thread cover.  Worker threads do not
inherit the caller's span, so time a caller spends waiting on a thread
pool counts as the caller's own.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import threading
import time
from array import array
from collections import defaultdict

# layer -> public functions traced in that layer ("Class.method" for methods)
LAYERS = {
    "kernels": ("op_norm", "is_hermitian", "principal_sqrt", "safe_inv", "scaled_min_eig",
                "min_eig_h", "herm_eig", "func_calc", "Rng.split", "Rng.generator",
                "matrix_to_json", "matrix_from_json"),
    "opsys": ("realize", "decode", "in_domain", "sample_point", "sample_ordered_pair",
              "sample_halfplane", "direct_sum", "conjugate", "point_to_json",
              "point_from_json"),
    "freeexpr": ("eval_function", "catalog", "parse"),
    "verifiers": ("check_monotone", "check_halfplane", "check_local_monotone",
                  "check_free_axioms", "check_boundary_continuity",
                  "check_schur_im_identity", "pair_margin", "halfplane_margin"),
    "paths": ("sample_path", "CommutingPath.point"),
    "loewner1d": ("cross_check", "loewner_matrix", "pick_matrix"),
    "report": ("document", "dumps"),
    "cli": ("main",),
}

# spans whose exceptions are reported as "<name>.raised"
RAISING = ("kernels.principal_sqrt", "kernels.safe_inv", "opsys.decode",
           "freeexpr.eval_function")

SPAN_NAMES = tuple(f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns)

OK, RAISED, TRUE = 0, 1, 2  # outcome flags: returned, raised, returned ``True``


class _Buffer:
    """Spans recorded by one thread, in columns."""

    def __init__(self, tid: int):
        self.tid = tid
        self.names = array("H")
        self.starts = array("q")
        self.ends = array("q")
        self.flags = array("B")

    def add(self, name: int, start: int, end: int, flag: int):
        self.names.append(name)
        self.starts.append(start)
        self.ends.append(end)
        self.flags.append(flag)


class Tracer:
    """Records spans around freemono's public functions while installed."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._buffers: list[_Buffer] = []
        self._undo: list[tuple] = []

    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            with self._lock:
                buf = _Buffer(len(self._buffers))
                self._buffers.append(buf)
            self._local.buf = buf
        return buf

    def wrap(self, name: str, fn):
        index = SPAN_NAMES.index(name)
        buffer, clock = self._buffer, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            buf = buffer()
            start = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                buf.add(index, start, clock(), RAISED)
                raise
            buf.add(index, start, clock(), TRUE if out is True else OK)
            return out

        return traced

    def install(self):
        """Wrap every function in ``LAYERS``; ``freemono`` must be importable."""
        if self._undo:
            raise RuntimeError("tracer is already installed")
        for layer, fns in LAYERS.items():
            module = importlib.import_module(f"freemono.{layer}")
            for fn in fns:
                if "." in fn:
                    cls_name, attr = fn.split(".")
                    cls = getattr(module, cls_name)
                    self._rebind(cls, attr, self.wrap(f"{layer}.{fn}", getattr(cls, attr)))
                    continue
                original = getattr(module, fn)
                wrapped = self.wrap(f"{layer}.{fn}", original)
                for mod in _freemono_modules():
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._rebind(mod, attr, wrapped)

    def _rebind(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def summary(self) -> dict:
        """Per span name: calls, self time in seconds, raised and true counts."""
        out = {name: {"calls": 0, "self_s": 0.0, "raised": 0, "true": 0}
               for name in SPAN_NAMES}
        for buf in self._buffers:  # one thread at a time bounds the memory used
            names = [SPAN_NAMES[i] for i in buf.names]
            for name, flag in zip(names, buf.flags):
                entry = out[name]
                entry["calls"] += 1
                entry["raised"] += flag == RAISED
                entry["true"] += flag == TRUE
            spans = zip(names, (buf.tid,) * len(names), buf.starts, buf.ends)
            for name, ns in self_times(spans).items():
                out[name]["self_s"] += ns / 1e9
        return out


def _freemono_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "freemono" or name.startswith("freemono."))]


def self_times(spans) -> dict:
    """Total self time per name from ``(name, tid, start, end)`` spans.

    Spans on one thread nest like the calls that made them.  A span's self
    time is its duration minus the time its direct children cover, clipped
    to the span; spans on other threads never count as children.  Of two
    spans with the same interval, the one recorded later is the parent,
    because a wrapper records its span when the call returns.
    """
    by_tid = defaultdict(list)
    for seq, (name, tid, start, end) in enumerate(spans):
        by_tid[tid].append((start, -end, -seq, name, end))
    totals: dict = defaultdict(int)
    for items in by_tid.values():
        items.sort()
        stack: list = []  # open spans: [name, start, end, covered by children]

        def close(span):
            totals[span[0]] += (span[2] - span[1]) - span[3]

        for start, _, _, name, end in items:
            while stack and stack[-1][2] <= start:
                close(stack.pop())
            if stack:
                parent = stack[-1]
                parent[3] += min(end, parent[2]) - start
            stack.append([name, start, end, 0])
        while stack:
            close(stack.pop())
    return dict(totals)


def percentile(samples, q: float, beyond: int = 10) -> float:
    """Nearest-rank ``q``-th percentile, with at least ``beyond`` samples above it.

    Raises ``ValueError`` when the samples are too few for that rule.
    """
    xs = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(xs)))
    if len(xs) - rank < beyond:
        raise ValueError(f"p{q:g} of {len(xs)} samples leaves fewer than {beyond} beyond it")
    return xs[rank - 1]
