"""Span tracing for the traced benchmark run, installed from outside.

``Tracer`` wraps every public function of the six modules, and every
public method of the classes they define, wherever the package's
namespaces hold a reference to it (so ``aq.is_dominant``, imported from
``weyl``, is wrapped too).  ``install`` puts the wrappers on a loaded program and
``remove`` takes them off again; spans collect across installs, so the
benchmark can re-import the program mid-run.  Each call records a span (id, parent id,
name, start, end) in memory; the parent is the innermost open span of
the calling thread, or, for a worker thread with none open, the
innermost open span of the thread that entered the tracer.  A few
wrappers also read counts off the returned report.  Leaving the
``with`` block restores every original function.

A layer's self time is the time its spans cover minus the part covered
by their child spans.  A wrapped function that returns a generator gets
a span for creating it only; the iteration counts toward the consumer.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import os
import threading
import time
from array import array
from collections import defaultdict

from workloads import MODULES


def _count_hooks(counters: defaultdict, lock: threading.Lock) -> dict:
    def add(**kv):
        with lock:
            for k, v in kv.items():
                counters[k] += v

    return {
        "torus.uniqueness_check": lambda r, dt: add(
            rearrangements=r.rearrangements, matches=len(r.matches)
        ),
        "aq.filtration_vanishing": lambda r, dt: add(
            states=r.enumerated, dominant=r.dominant_count, truncated=int(r.truncated),
            sweeps=1, filtration_s=dt,
        ),
        "aq.range_check": lambda r, dt: add(range_checks=1, range_check_s=dt),
        "aq.packet_data": lambda r, dt: add(packet_entries=len(r.entries)),
        "aq.translate_packet": lambda r, dt: add(
            vanishing=len(r.vanishing), translated=len(r.packet.entries) + len(r.vanishing)
        ),
        "twisted.verify_transfer_identity": lambda r, dt: add(weights=1),
    }


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        # one column per span field; a row is appended when the span ends
        self.sid, self.parent = array("q"), array("q")
        self.name, self.cross = array("i"), array("b")
        self.start, self.end = array("d"), array("d")
        self.counters: defaultdict = defaultdict(int)
        self._lock = threading.Lock()
        self._hooks = _count_hooks(self.counters, self._lock)
        self._ids = itertools.count()
        self._local = threading.local()
        self._home: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._t0 = 0.0

    def __len__(self) -> int:
        return len(self.sid)

    # -- installing and removing the wrappers

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name: str):
        name_idx = len(self.names)
        self.names.append(name)
        hook = self._hooks.get(name)
        ids, home, lock = self._ids, self._home, self._lock
        cols = (self.sid, self.parent, self.name, self.cross, self.start, self.end)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            cross = not stack and stack is not home and bool(home)
            parent = stack[-1] if stack else (home[-1] if cross else -1)
            sid = next(ids)
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                with lock:
                    for col, v in zip(cols, (sid, parent, name_idx, cross, start, end)):
                        col.append(v)
            if hook is not None:
                hook(result, end - start)
            return result

        return wrapper

    def __enter__(self):
        self._local.stack = self._home
        self._t0 = time.perf_counter()
        return self

    def install(self, prog) -> None:
        wrappers = {}
        namespaces = [vars(getattr(prog, m)) for m in MODULES]
        for m in MODULES:
            mod = getattr(prog, m)
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[obj] = self._wrap(obj, f"{m}.{attr}")
                elif inspect.isclass(obj):
                    for meth, fn in vars(obj).items():
                        if inspect.isfunction(fn) and not meth.startswith("_"):
                            self._patch(obj, meth, self._wrap(fn, f"{m}.{attr}.{meth}"))
        pkg = __import__(prog.cli.__package__)
        for ns in namespaces + [vars(pkg)]:
            for attr, obj in list(ns.items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch_ns(ns, attr, wrappers[obj])

    def _patch(self, cls, attr, new) -> None:
        self._patches.append((cls, attr, vars(cls)[attr]))
        setattr(cls, attr, new)

    def _patch_ns(self, ns: dict, attr: str, new) -> None:
        self._patches.append((ns, attr, ns[attr]))
        ns[attr] = new

    def remove(self) -> None:
        for target, attr, old in reversed(self._patches):
            if isinstance(target, dict):
                target[attr] = old
            else:
                setattr(target, attr, old)
        self._patches.clear()

    def __exit__(self, *exc) -> None:
        self.remove()

    # -- results

    def rows(self):
        return zip(self.sid, self.parent, self.name, self.cross, self.start, self.end)

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tname\tstart_s\tend_s\n")
            t0, names = self._t0, self.names
            for sid, parent, ni, _cross, start, end in self.rows():
                fh.write(f"{sid}\t{parent}\t{names[ni]}\t{start - t0:.9f}\t{end - t0:.9f}\n")

    def self_times(self) -> dict[str, float]:
        """Self time per layer: span time not covered by child spans.

        Children on the parent's own thread are nested, so their times
        add up; children on worker threads may overlap one another, so
        the union of their intervals is taken.
        """
        covered = array("d", bytes(8 * len(self)))
        threaded = defaultdict(list)
        for _sid, parent, _ni, cross, start, end in self.rows():
            if cross:
                threaded[parent].append((start, end))
            elif parent >= 0:
                covered[parent] += end - start
        for parent, intervals in threaded.items():
            lo = float("-inf")
            for start, end in sorted(intervals):
                start = max(start, lo)
                if end > start:
                    covered[parent] += end - start
                    lo = end
        out: dict[str, float] = defaultdict(float)
        layer = [n.split(".")[0] for n in self.names]
        for sid, _parent, ni, _cross, start, end in self.rows():
            out[layer[ni]] += (end - start) - covered[sid]
        return out

    def summary(self) -> dict[str, tuple[float, str]]:
        calls: dict[str, int] = defaultdict(int)
        for ni in self.name:
            calls[self.names[ni].split(".")[0]] += 1
        selfs = self.self_times()
        c = self.counters

        def ratio(a, b):
            return c[a] / c[b] if c[b] else 0.0

        out: dict[str, tuple[float, str]] = {}
        for m in MODULES:
            out[f"{m}.calls"] = (calls[m], "count")
            out[f"{m}.self_s"] = (selfs[m], "s")
        out.update(
            {
                "torus.rearrangements": (c["rearrangements"], "count"),
                "torus.match_ratio": (ratio("matches", "rearrangements"), "ratio"),
                "aq.filtration_s": (float(c["filtration_s"]), "s"),
                "aq.states": (c["states"], "count"),
                "aq.dominant_ratio": (ratio("dominant", "states"), "ratio"),
                "aq.truncated_frac": (ratio("truncated", "sweeps"), "ratio"),
                "aq.range_check_s": (float(c["range_check_s"]), "s"),
                "aq.range_checks": (c["range_checks"], "count"),
                "aq.packet_entries": (c["packet_entries"], "count"),
                "aq.vanishing_frac": (ratio("vanishing", "translated"), "ratio"),
                "twisted.weights": (c["weights"], "count"),
            }
        )
        return out
