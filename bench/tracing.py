"""In-memory spans around calls into the package's layers.

The package binds layer functions at import time (``from .detect import
detect``), so a hook replaces a name where its caller looks it up, for
example ``fasttog.engine:detect``; methods are replaced on their class
(``fasttog.community:Community.from_members``). A target that no longer
exists is reported as absent instead of failing the run.

Each thread keeps its own span stack and buffer, so spans of parallel
evaluation workers nest correctly. A span holds a name, start, end, parent
span and question id; its self time is its duration minus the durations of
its children, which within one thread never overlap.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from array import array
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable


class _Buffer:
    """Spans of one thread, in start order; ``parent`` indexes this buffer."""

    def __init__(self):
        self.name: list[str] = []
        self.qid: list[str | None] = []
        self.t0 = array("d")
        self.t1 = array("d")
        self.parent = array("i")
        self.stack: list[int] = []
        self.notes: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.current_qid: str | None = None


@dataclass
class LayerTotals:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    question_self_s: float = 0.0  # self time of spans inside a question
    callers: dict = field(default_factory=lambda: defaultdict(int))
    durations: list = field(default_factory=list)


class Recorder:
    """Collects spans from wrapped functions across threads."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        self._local = threading.local()
        self._buffers: list[_Buffer] = []
        self._lock = threading.Lock()

    def _buf(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = _Buffer()
            self._local.buf = buf
            with self._lock:
                self._buffers.append(buf)
        return buf

    def wrap(self, fn, name: str, note=None, qid_of=None):
        """Return ``fn`` recording one span per call.

        ``note(args, kwargs, result, seconds)`` returns numbers added to the
        span name's totals; ``qid_of(args, kwargs)`` names the question the call
        works on, for it and every span inside it.
        """
        clock = self._clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            buf = self._buf()
            outer_qid = buf.current_qid
            if qid_of is not None:
                buf.current_qid = qid_of(args, kwargs)
            idx = len(buf.name)
            buf.name.append(name)
            buf.qid.append(buf.current_qid)
            buf.parent.append(buf.stack[-1] if buf.stack else -1)
            buf.t1.append(0.0)
            buf.stack.append(idx)
            buf.t0.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                buf.t1[idx] = clock()
                buf.stack.pop()
                buf.current_qid = outer_qid
            if note is not None:
                totals = buf.notes[name]
                seconds = buf.t1[idx] - buf.t0[idx]
                for key, value in note(args, kwargs, result, seconds).items():
                    totals[key] += value
            return result

        return wrapper

    def summary(self, keep_durations=frozenset()) -> dict[str, "LayerTotals"]:
        """Per span name: calls, total and self seconds, callers.

        Durations of each call are kept only for names in ``keep_durations``;
        the hottest spans run into the millions.
        """
        out: dict[str, LayerTotals] = defaultdict(LayerTotals)
        with self._lock:
            buffers = list(self._buffers)
        for buf in buffers:
            n = len(buf.name)
            child = [0.0] * n
            for i in range(n):
                p = buf.parent[i]
                if p >= 0:
                    child[p] += buf.t1[i] - buf.t0[i]
            for i in range(n):
                name = buf.name[i]
                seconds = buf.t1[i] - buf.t0[i]
                totals = out[name]
                totals.calls += 1
                totals.total_s += seconds
                totals.self_s += seconds - child[i]
                if buf.qid[i] is not None:
                    totals.question_self_s += seconds - child[i]
                p = buf.parent[i]
                totals.callers[buf.name[p] if p >= 0 else None] += 1
                if name in keep_durations:
                    totals.durations.append(seconds)
        return out

    def notes(self) -> dict[str, dict[str, float]]:
        merged: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        with self._lock:
            buffers = list(self._buffers)
        for buf in buffers:
            for name, totals in buf.notes.items():
                for key, value in totals.items():
                    merged[name][key] += value
        return merged


@dataclass(frozen=True)
class Hook:
    target: str  # "module:attr" or "module:Class.attr"
    name: str
    note: Callable | None = None
    qid_of: Callable | None = None


class Hooks:
    """Installs hooks on their targets and restores the originals."""

    def __init__(self, recorder: Recorder):
        self.recorder = recorder
        self.absent: list[str] = []
        self._undo: list[tuple[object, str, object]] = []

    def install(self, hooks) -> "Hooks":
        for hook in hooks:
            try:
                owner, attr = _resolve(hook.target)
                raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            except (ImportError, AttributeError, KeyError):
                self.absent.append(hook.target)
                continue
            if isinstance(raw, classmethod):
                wrapped = classmethod(
                    self.recorder.wrap(raw.__func__, hook.name, hook.note, hook.qid_of)
                )
            else:
                wrapped = self.recorder.wrap(raw, hook.name, hook.note, hook.qid_of)
            setattr(owner, attr, wrapped)
            self._undo.append((owner, attr, raw))
        return self

    def remove(self) -> None:
        for owner, attr, raw in reversed(self._undo):
            setattr(owner, attr, raw)
        self._undo.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.remove()


def _resolve(target: str):
    # import_module returns the submodule even where a package attribute of
    # the same name shadows it (fasttog.evaluate is also a function)
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    if not isinstance(owner, type) and not hasattr(owner, attr):
        raise AttributeError(attr)
    return owner, attr
