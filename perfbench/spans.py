"""In-memory span tracer that wraps functions at the sites their callers use.

A span is one call of a wrapped function: its name, start and end on the
``perf_counter`` clock, the span that was open when it began (its parent)
and a replicate key. Spans are appended to flat arrays while the workload
runs and analysed or written out only afterwards, so recording a span costs
two clock reads and a few appends.

Only the process that created the tracer records spans. A worker forked
from it inherits the wrappers, which then call straight through.
"""

from __future__ import annotations

import csv
import functools
import gzip
import importlib
import os
import time
from array import array
from collections import defaultdict
from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 for a root span
    key: object = None  # replicate key, inherited from the parent when unset


def resolve(module: str, attr: str):
    """Return ``(owner, name)`` for a dotted attribute such as
    ``TrialDataset.drop_arm1_period2`` inside ``module``; ``None`` when the
    site does not exist."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not callable(getattr(owner, name, None)):
        return None
    return owner, name


class Tracer:
    """Records spans around wrapped callables until :meth:`restore`."""

    def __init__(self):
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._keys: list[object] = [None]
        self._key_ids: dict[object, int] = {None: 0}
        self._name = array("i")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("i")
        self._key = array("i")
        self._open: list[int] = []
        self._pid = os.getpid()
        self._patches: list[tuple[object, str, object, object]] = []

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def __len__(self) -> int:
        return len(self._start)

    def _intern(self, table: list, ids: dict, value) -> int:
        index = ids.get(value)
        if index is None:
            index = ids[value] = len(table)
            table.append(value)
        return index

    def wrap(self, owner, attr: str, name: str, key_fn=None) -> None:
        """Replace ``owner.attr`` by a recording wrapper named ``name``.

        ``key_fn(*args, **kwargs)`` gives the replicate key of the call;
        without one, the call inherits the key of the enclosing span.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        name_id = self._intern(self._names, self._name_ids, name)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if os.getpid() != self._pid:
                return original(*args, **kwargs)
            parent = self._open[-1] if self._open else -1
            if key_fn is not None:
                key = self._intern(self._keys, self._key_ids, key_fn(*args, **kwargs))
            else:
                key = self._key[parent] if parent >= 0 else 0
            index = len(self._start)
            self._name.append(name_id)
            self._parent.append(parent)
            self._key.append(key)
            self._end.append(0.0)
            self._open.append(index)
            self._start.append(time.perf_counter())
            try:
                return original(*args, **kwargs)
            finally:
                self._end[index] = time.perf_counter()
                self._open.pop()

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original, wrapper))

    def restore(self) -> None:
        """Put every original object back, newest patch first, and check it."""
        while self._patches:
            owner, attr, original, _ = self._patches.pop()
            setattr(owner, attr, original)
            current = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            if current is not original:
                raise RuntimeError(f"could not restore {owner!r}.{attr}")

    def spans(self) -> list[Span]:
        return [
            Span(
                self._names[self._name[i]],
                self._start[i],
                self._end[i],
                self._parent[i],
                self._keys[self._key[i]],
            )
            for i in range(len(self._start))
        ]


def union_length(intervals) -> float:
    """Total length covered by a collection of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    out = []
    for i, span in enumerate(spans):
        clipped = [
            (max(s, span.start), min(e, span.end))
            for s, e in children.get(i, ())
            if e > span.start and s < span.end
        ]
        out.append(span.end - span.start - union_length(clipped))
    return out


def write_csv(spans: list[Span], path) -> None:
    """Write spans as gzip-compressed CSV, times in microseconds from the first."""
    origin = spans[0].start if spans else 0.0
    with gzip.open(path, "wt", newline="", compresslevel=1) as handle:
        writer = csv.writer(handle)
        writer.writerow(("span", "name", "start_us", "end_us", "parent", "key"))
        for i, s in enumerate(spans):
            writer.writerow((
                i, s.name, f"{(s.start - origin) * 1e6:.3f}",
                f"{(s.end - origin) * 1e6:.3f}", s.parent,
                "" if s.key is None else "/".join(map(str, s.key)),
            ))
