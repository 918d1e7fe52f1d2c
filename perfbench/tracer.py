"""In-memory span tracer that wraps library functions from outside.

A span is (name, start, end, parent, job).  ``Tracer.wrap`` returns a
wrapper that records one span per call; ``Tracer.patch`` installs it under
the name a caller looks up (a module global or a class attribute) and
``restore`` puts the originals back.  Spans stay in compact arrays until the
run ends; ``self_times`` then subtracts from each span the time its child
spans cover.  Functions too hot for a span (``as_state``) get a counting
wrapper instead.
"""
from __future__ import annotations

import functools
from array import array
from time import perf_counter

import numpy as np


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts = {}
        self.current_job = -1
        self._stack = [-1]
        self._patched = []

    def name_id(self, name) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name) -> int:
        idx = len(self.start)
        self.name.append(self.name_id(name))
        self.parent.append(self._stack[-1])
        self.job.append(self.current_job)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx):
        self.end[idx] = perf_counter()
        self._stack.pop()

    def wrap(self, name, fn, on_return=None):
        """A wrapper of ``fn`` that records a span per call.

        ``on_return(idx, args, result)`` runs after span ``idx`` closes and
        may accumulate per-layer counters.
        """
        nid = self.name_id(name)
        stack, current = self._stack, self
        name_append, parent_append, job_append = self.name.append, self.parent.append, self.job.append
        start, end = self.start, self.end
        start_append, end_append = start.append, end.append

        # ``open``/``close`` inlined with pre-bound methods: this runs on every
        # call of a wrapped function, some of them millions of times a run.
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            name_append(nid)
            parent_append(stack[-1])
            job_append(current.current_job)
            end_append(0.0)
            stack.append(idx)
            start_append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if on_return is not None:
                on_return(idx, args, result)
            return result

        return wrapper

    def counter(self, name, fn):
        """A wrapper of ``fn`` that only counts calls (no span)."""
        cell = self.counts.setdefault(name, [0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def patch(self, owner, attr, wrapper):
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def restore(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def arrays(self):
        """Copies of the spans: name ids, parent indices, job ids, start, end."""
        return (np.array(self.name, dtype=np.int32), np.array(self.parent, dtype=np.int32),
                np.array(self.job, dtype=np.int32), np.array(self.start, dtype=np.float64),
                np.array(self.end, dtype=np.float64))

    def save(self, path):
        name, parent, job, start, end = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), name=name, parent=parent,
                            job=job, start=start, end=end)


def self_times(parent, start, end):
    """Each span's duration minus the time covered by its direct children.

    Spans of one thread nest, so the children of a span never overlap and
    their durations add up.  ``parent`` is -1 for a root span.
    """
    parent = np.asarray(parent)
    duration = np.asarray(end, dtype=float) - np.asarray(start, dtype=float)
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=duration[has_parent],
                          minlength=duration.size)
    return duration - covered


def summarize(names, name, parent, start, end, mask=None):
    """Per span name: calls, self time and inclusive time, over ``mask``."""
    self_s = self_times(parent, start, end)
    duration = np.asarray(end) - np.asarray(start)
    if mask is None:
        mask = np.ones(len(name), dtype=bool)
    n = len(names)
    sel = np.asarray(name)[mask]
    calls = np.bincount(sel, minlength=n)
    selfs = np.bincount(sel, weights=self_s[mask], minlength=n)
    total = np.bincount(sel, weights=duration[mask], minlength=n)
    return {nm: {"calls": int(calls[i]), "self_s": float(selfs[i]), "total_s": float(total[i])}
            for i, nm in enumerate(names)}
