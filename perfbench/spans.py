"""Spans around the program's functions, recorded from outside the program.

`Tracer.wrap` replaces a function of the `contention` package with a
wrapper, in every loaded `contention` module that holds it: `train.py` and
`cli.py` import `forward` by name, so patching `contention.model` alone
would miss their calls. Each call appends one span (name, start, end,
parent, windows) to an in-memory list; nothing is written until `dump`.
A span's self time is its duration minus the durations of its children.

A target that no longer exists is recorded in `absent` instead of raising,
so the benchmark keeps running when a refactor removes a function.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter


@dataclass
class LayerStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    windows: int = 0


def _program_modules():
    return [
        m for name, m in list(sys.modules.items())
        if m is not None and (name == "contention" or name.startswith("contention."))
    ]


def _resolve(module: str, attr: str):
    """(owner, name, value) for `attr` in `module`; a dotted attr names a method."""
    owner = sys.modules.get(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
    if owner is None:
        return None, name, None
    if isinstance(owner, type):
        return owner, name, owner.__dict__.get(name)
    return owner, name, getattr(owner, name, None)


class Tracer:
    """Records spans when `timing` is on; always keeps captured return values."""

    def __init__(self, timing: bool):
        self.timing = timing
        self.spans: list[list] = []  # [name, start, end, parent index, windows]
        self._stack = [-1]
        self.counts: dict[str, int] = {}
        self.nbytes: dict[str, int] = {}
        self.returned: dict[str, object] = {}
        self.absent: list[str] = []
        self._undo: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str, windows: int = 0):
        if not self.timing:
            yield
            return
        rec = [name, perf_counter(), 0.0, self._stack[-1], windows]
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            self._stack.pop()
            rec[2] = perf_counter()

    # -- installing wrappers -------------------------------------------------

    def _replace(self, module: str, attr: str, label: str, make) -> None:
        owner, name, orig = _resolve(module, attr)
        if orig is None:
            self.absent.append(label)
            return
        if isinstance(owner, type):
            raw = orig.__func__ if isinstance(orig, (classmethod, staticmethod)) else orig
            new = make(raw)
            if isinstance(orig, (classmethod, staticmethod)):
                new = type(orig)(new)
            self._undo.append((owner, name, orig))
            setattr(owner, name, new)
            return
        new = make(orig)
        for mod in _program_modules():
            for key, value in list(vars(mod).items()):
                if value is orig:
                    self._undo.append((mod, key, orig))
                    setattr(mod, key, new)

    def wrap(self, module: str, attr: str, label: str, windows=None, nbytes=None) -> None:
        """Time every call as a span.

        `windows(args)` gives the call's window count (default 1);
        `nbytes(args)`, read after the call returns, the bytes it moved.
        """
        spans, stack, moved = self.spans, self._stack, self.nbytes
        if nbytes is not None:
            moved.setdefault(label, 0)

        def make(fn):
            def traced(*args, **kwargs):
                rec = [label, 0.0, 0.0, stack[-1], windows(args) if windows else 1]
                spans.append(rec)
                stack.append(len(spans) - 1)
                rec[1] = perf_counter()
                try:
                    out = fn(*args, **kwargs)
                finally:
                    rec[2] = perf_counter()
                    stack.pop()
                if nbytes is not None:
                    moved[label] += nbytes(args)
                return out
            return traced

        self._replace(module, attr, label, make)

    def count(self, module: str, attr: str, label: str) -> None:
        """Count calls without a span, so their time stays in the caller's self time."""
        self.counts.setdefault(label, 0)
        counts = self.counts

        def make(fn):
            def counted(*args, **kwargs):
                counts[label] += 1
                return fn(*args, **kwargs)
            return counted

        self._replace(module, attr, label, make)

    def capture(self, module: str, attr: str, label: str) -> None:
        """Keep the latest return value, for correctness checks; records no time."""
        returned = self.returned

        def make(fn):
            def captured(*args, **kwargs):
                out = fn(*args, **kwargs)
                returned[label] = out
                return out
            return captured

        self._replace(module, attr, label, make)

    def restore(self) -> None:
        for owner, name, orig in reversed(self._undo):
            setattr(owner, name, orig)
        self._undo.clear()

    # -- results -------------------------------------------------------------

    def _self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[i] for i, (_, start, end, _, _) in enumerate(self.spans)]

    def layers(self) -> dict[str, LayerStats]:
        out: dict[str, LayerStats] = {}
        for (name, start, end, _, windows), own in zip(self.spans, self._self_times()):
            st = out.setdefault(name, LayerStats())
            st.calls += 1
            st.total_s += end - start
            st.self_s += own
            st.windows += windows
        return out

    def self_within(self, root: str) -> float:
        """Sum of self times of every span under (and including) spans named `root`."""
        inside = [False] * len(self.spans)
        total = 0.0
        for i, ((name, _, _, parent, _), own) in enumerate(zip(self.spans, self._self_times())):
            inside[i] = name == root or (parent >= 0 and inside[parent])
            if inside[i]:
                total += own
        return total

    def dump(self, path: Path) -> None:
        with path.open("w") as fh:
            fh.write("index,name,start_s,end_s,parent,windows\n")
            for i, (name, start, end, parent, windows) in enumerate(self.spans):
                fh.write(f"{i},{name},{start!r},{end!r},{parent},{windows}\n")
