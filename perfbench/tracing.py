"""Run-time tracing of the melworld package from outside.

``Tracer.install`` replaces every public function and public method (plus
``__call__``) of the traced modules with a wrapper that records a span:
(span id, parent span id, function, tag, start, end). Names that other
melworld modules imported with ``from .x import y`` are rebound too, so a
call is traced whichever module makes it. The trivial calls in
``COUNT_ONLY`` are counted per tag, not spanned. ``Tensor.__init__`` is
counted too, each count charged to the innermost open span. ``remove``
restores every original object. Spans stay in memory until ``write``.

The tag is set by the benchmark around each operation (``train.dat``,
``eval.cfg``, ...), so per-layer figures can be divided by the work that
operation did.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import time
from collections import defaultdict

LAYERS = ("autodiff", "world", "stylegen", "diffusion", "training", "metrics",
          "checkpoint", "config", "cli", "verify")
# validation and schedule look-ups made once per row, step or parameter;
# spanned, they made up most of the span log (a 1,000-chain exact CG step
# checks 1,000 emotion ids one call at a time)
COUNT_ONLY = frozenset({
    "world.World.check_speaker", "world.World.check_emotion", "world.World.check_tokens",
    "autodiff.Tensor.zero_grad",
    *(f"diffusion.NoiseSchedule.{m}" for m in ("beta", "B", "rho", "var")),
})


class Tracer:
    def __init__(self):
        self.modules = [importlib.import_module(f"melworld.{name}") for name in LAYERS]
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self._index: dict[str, int] = {}
        self.spans: list[tuple] = []
        self.tensors: dict[int, int] = defaultdict(int)
        self.counted: dict[tuple, int] = defaultdict(int)
        self.tag: str | None = None
        self._stack: list[int] = []
        self._next_id = 0
        self._undo: list[tuple] = []

    # -- installing ---------------------------------------------------------

    def _wrap(self, fn, qualname: str, layer: str):
        if qualname in COUNT_ONLY:
            counted = self.counted

            @functools.wraps(fn)
            def count(*args, **kwargs):
                counted[(self.tag, qualname)] += 1
                return fn(*args, **kwargs)

            return count
        if qualname in self._index:
            index = self._index[qualname]
        else:
            index = self._index[qualname] = len(self.names)
            self.names.append(qualname)
            self.layer_of.append(layer)
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, index, self.tag, start, end))

        return traced

    def _set(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                           else getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> "Tracer":
        if self._undo:
            raise RuntimeError("tracer already installed")
        replaced = {}
        for module in self.modules:
            layer = module.__name__.rsplit(".", 1)[1]
            for name, obj in list(vars(module).items()):
                if name.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    wrapper = self._wrap(obj, f"{layer}.{name}", layer)
                    replaced[id(obj)] = (obj, wrapper)
                    self._set(module, name, wrapper)
                elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                    self._install_class(obj, layer)
        # rebind names imported into other modules and into the package
        package = importlib.import_module("melworld")
        for module in [package, *self.modules]:
            for name, obj in list(vars(module).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(module, name, hit[1])
        self._install_tensor_counter()
        return self

    def _install_class(self, cls, layer: str) -> None:
        for name, raw in list(vars(cls).items()):
            if name.startswith("_") and name != "__call__":
                continue
            qualname = f"{layer}.{cls.__name__}.{name}"
            if isinstance(raw, classmethod):
                self._set(cls, name, classmethod(self._wrap(raw.__func__, qualname, layer)))
            elif isinstance(raw, staticmethod):
                self._set(cls, name, staticmethod(self._wrap(raw.__func__, qualname, layer)))
            elif inspect.isfunction(raw):
                self._set(cls, name, self._wrap(raw, qualname, layer))

    def _install_tensor_counter(self) -> None:
        tensor_cls = importlib.import_module("melworld.autodiff").Tensor
        original = tensor_cls.__dict__["__init__"]
        counts = self.tensors
        stack = self._stack

        @functools.wraps(original)
        def counted_init(obj, *args, **kwargs):
            counts[stack[-1] if stack else -1] += 1
            original(obj, *args, **kwargs)

        self._set(tensor_cls, "__init__", counted_init)

    def remove(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.remove()

    # -- output -------------------------------------------------------------

    def mark(self) -> tuple[int, int]:
        """A point to ``truncate`` back to; take it with no span open."""
        return len(self.spans), self._next_id

    def truncate(self, mark: tuple[int, int]) -> None:
        """Forget the spans opened since ``mark`` and their tensor counts."""
        n_spans, first_dropped = mark
        del self.spans[n_spans:]
        for sid in [sid for sid in self.tensors if sid >= first_dropped]:
            del self.tensors[sid]

    def write(self, path) -> None:
        """All spans as gzip-compressed JSON lines, one span per line, then
        one line per count-only function and tag."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for sid, parent, index, tag, start, end in self.spans:
                fh.write(json.dumps({
                    "id": sid, "parent": parent, "name": self.names[index],
                    "layer": self.layer_of[index], "tag": tag,
                    "start": start, "end": end,
                    "tensors": self.tensors.get(sid, 0),
                }, separators=(",", ":")) + "\n")
            for (tag, name), calls in sorted(self.counted.items(), key=str):
                fh.write(json.dumps({"name": name, "tag": tag, "calls": calls},
                                    separators=(",", ":")) + "\n")

    def summary(self) -> "SpanSummary":
        return SpanSummary(self)


class SpanSummary:
    """Per-span derived figures: self time, inclusive tensor count, and
    queries over spans selected by tag and function name."""

    def __init__(self, tracer: Tracer):
        self.names = tracer.names
        self.layer_of = tracer.layer_of
        child_time: dict[int, float] = defaultdict(float)
        tensors: dict[int, int] = defaultdict(int)
        by_tag: dict[str | None, list] = defaultdict(list)
        # spans are appended as they close, so children precede parents
        for span in tracer.spans:
            sid, parent, _index, tag, start, end = span
            tensors[sid] += tracer.tensors.get(sid, 0)
            child_time[parent] += end - start
            tensors[parent] += tensors[sid]
            by_tag[tag].append(span)
        self.child_time = child_time
        self.incl_tensors = tensors
        self.by_tag = by_tag
        self.parent = {span[0]: span[1] for span in tracer.spans}

    def select(self, tags, names=None, layers=None):
        tags = [tags] if isinstance(tags, str) else list(tags)
        if isinstance(names, str):
            names = (names,)
        for span in (s for tag in tags for s in self.by_tag.get(tag, ())):
            name = self.names[span[2]]
            if names is not None and name not in names:
                continue
            if layers is not None and self.layer_of[span[2]] not in layers:
                continue
            yield span

    def calls(self, tags, names) -> int:
        return sum(1 for _ in self.select(tags, names))

    def incl_ms(self, tags, names=None, layers=None) -> float:
        """Wall time inside the selected spans; a span nested in another
        selected span is not counted twice."""
        chosen = list(self.select(tags, names, layers))
        ids = {span[0] for span in chosen}
        total = 0.0
        for span in chosen:
            if self._has_ancestor_in(span[0], ids):
                continue
            total += span[5] - span[4]
        return 1000.0 * total

    def self_ms(self, tags, names) -> float:
        total = 0.0
        for span in self.select(tags, names):
            total += (span[5] - span[4]) - self.child_time.get(span[0], 0.0)
        return 1000.0 * total

    def tensors_in(self, tags, names) -> int:
        return sum(self.incl_tensors[span[0]] for span in self.select(tags, names))

    def children_ms(self, tags, parent_names) -> float:
        """Wall time of the direct children of the selected spans."""
        parents = {span[0] for span in self.select(tags, parent_names)}
        total = 0.0
        for span in self.select(tags):
            if span[1] in parents:
                total += span[5] - span[4]
        return 1000.0 * total

    def layer_self_ms(self, tags) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for span in self.select(tags):
            out[self.layer_of[span[2]]] += 1000.0 * (
                (span[5] - span[4]) - self.child_time.get(span[0], 0.0))
        return dict(out)

    def _has_ancestor_in(self, sid: int, ids: set) -> bool:
        parent = self.parent.get(sid, -1)
        while parent != -1:
            if parent in ids:
                return True
            parent = self.parent.get(parent, -1)
        return False
