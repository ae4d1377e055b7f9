"""Outside-in tracing for the benchmark's traced run.

Public functions of the library are wrapped by rebinding the name where
their caller looks it up (a module attribute, or a class attribute for
methods), for the duration of one ``with Tracer(...)`` block.  Nothing in
the library is edited.

Two kinds of wrapper exist:

* span wrappers record one span per call: ``[name, start, end, parent,
  op, child_s]``.  ``parent`` is the index of the enclosing span (-1 for a
  root), ``op`` the id of the benchmark op the call belongs to, and
  ``child_s`` the time covered by direct children.  A span's self time is
  ``end - start - child_s``.
* leaf wrappers are for calls made thousands of times per op
  (``ChoiceOracle.choice``, ``reconstruct_min_chain_walk``).  They keep only
  a call count and total time per name, and add their time to the enclosing
  span's ``child_s`` so that self times stay exact.

Spans stay in memory and are written once, by :func:`write_spans`.
"""
from __future__ import annotations

import contextlib
import functools
import json
from collections import defaultdict
from time import perf_counter

START, END, PARENT, OP, CHILD = 1, 2, 3, 4, 5

SPANS_FORMAT = "rumorwalks-bench-spans-v1"


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.leaves: dict = defaultdict(lambda: [0, 0.0])
        self.counts: dict = defaultdict(int)
        self.distinct: dict = defaultdict(set)
        self.op = None
        self._stack: list = []
        self._patches: list = []

    # -- recording ---------------------------------------------------------

    def begin(self, name: str) -> list:
        rec = [name, perf_counter(), None,
               self._stack[-1] if self._stack else -1, self.op, 0.0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def end(self, rec: list) -> None:
        rec[END] = perf_counter()
        self._stack.pop()
        if rec[PARENT] >= 0:
            self.spans[rec[PARENT]][CHILD] += rec[END] - rec[START]

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around the benchmark's own code."""
        rec = self.begin(name)
        try:
            yield rec
        finally:
            self.end(rec)

    # -- wrapping ----------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, leaf: bool = False,
             note=None) -> None:
        """Rebind ``owner.attr`` to a timed wrapper until the block exits.

        ``note(args, result)`` runs after each call, outside the timed
        interval, to take counts at the boundary.
        """
        orig = vars(owner)[attr]
        is_cm = isinstance(orig, classmethod)
        fn = orig.__func__ if is_cm else orig
        if leaf:
            acc = self.leaves[name]
            stack, spans = self._stack, self.spans

            def wrapper(*args, **kwargs):
                t0 = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = perf_counter() - t0
                    acc[0] += 1
                    acc[1] += dt
                    if stack:
                        spans[stack[-1]][CHILD] += dt
        else:
            def wrapper(*args, **kwargs):
                rec = self.begin(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self.end(rec)
                if note is not None:
                    note(args, result)
                return result
        functools.update_wrapper(wrapper, fn)
        setattr(owner, attr, classmethod(wrapper) if is_cm else wrapper)
        self._patches.append((owner, attr, orig))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()
        return False

    # -- summaries ---------------------------------------------------------

    def by_name(self) -> dict:
        """name -> {"calls", "total_s", "self_s", "durations"}; leaves have
        no durations and their self time equals their total."""
        out: dict = {}
        for rec in self.spans:
            dur = rec[END] - rec[START]
            row = out.setdefault(rec[0], {"calls": 0, "total_s": 0.0,
                                          "self_s": 0.0, "durations": []})
            row["calls"] += 1
            row["total_s"] += dur
            row["self_s"] += dur - rec[CHILD]
            row["durations"].append(dur)
        for name, (calls, total) in self.leaves.items():
            out[name] = {"calls": calls, "total_s": total, "self_s": total,
                         "durations": []}
        return out


def write_spans(path, header: dict, tracer: Tracer, metrics: dict) -> None:
    """Write the traced run as JSON Lines (format ``SPANS_FORMAT``):

    1. one ``{"kind": "header", ...}`` line (workload, seed, manifest);
    2. one ``{"kind": "span", "name", "start", "end", "parent", "op"}`` line
       per span, ``parent`` being the 0-based index of the enclosing span
       line (-1 for a root) and times in seconds from the first span;
    3. one ``{"kind": "layer", "name", "calls", "total_s", "self_s"}`` line
       per span or leaf name;
    4. one ``{"kind": "metrics", "metrics": {...}}`` line with the per-layer
       metrics the run printed.
    """
    t0 = tracer.spans[0][START] if tracer.spans else 0.0
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"kind": "header", "format": SPANS_FORMAT,
                             **header}) + "\n")
        for rec in tracer.spans:
            fh.write(json.dumps({"kind": "span", "name": rec[0],
                                 "start": rec[START] - t0,
                                 "end": rec[END] - t0,
                                 "parent": rec[PARENT], "op": rec[OP]}) + "\n")
        for name, row in sorted(tracer.by_name().items()):
            fh.write(json.dumps({"kind": "layer", "name": name,
                                 "calls": row["calls"],
                                 "total_s": row["total_s"],
                                 "self_s": row["self_s"]}) + "\n")
        fh.write(json.dumps({"kind": "metrics", "metrics": metrics}) + "\n")
