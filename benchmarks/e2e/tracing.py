"""The benchmark's own tracer: in-memory spans around calls into each layer.

Everything here observes the program from outside, through its public
hooks and functions; no file under ``src/`` knows it exists:

* ``Module.register_forward_pre_hook``/``register_forward_hook`` open and
  close one span per module call (root first, so the spans nest the way
  the forward pass does);
* ``add_op_forward_hook``/``add_op_backward_hook`` charge every autodiff
  op's time to the unit of work running on that thread;
* public functions (``Tensor.backward``, ``Adam.step``,
  ``MicroBatcher.submit``) are wrapped in spans for the run;
* the benchmark opens *unit* spans itself (one training step); a model
  forward with nothing open on its thread (a serving batch) is a unit of
  its own.

A span is ``name, start, end, parent, trace id``; spans stay in memory and
are written out once, when the run ends.  A layer's self time is its
span's duration minus the part its child spans cover.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Dict, Iterable, List, Optional

#: Units whose module and op times the per-layer metrics are normalised by
#: (``EVAL``, the evaluation batches, are timed but never traced).
STEP = "train.step"
EVAL = "eval.batch"
FORWARD = "forward"

#: Ops broken out by name; every other op is summed into ``other``.
NAMED_OPS = ("conv2d", "gelu", "pad", "getitem", "matmul", "cwt_amplitude",
             "iwt")

#: Partition of a model forward into layers (see ``layer_of``).
LAYERS = ("spectral.tf_cwt", "core.tf_block.backbone",
          "core.tf_block.collapse", "core.tf_block.merge",
          "decomposition.trend", "decomposition.sgd", "nn.embedding",
          "core.heads", "core.ts3net.self", "model.other")

class Span:
    __slots__ = ("id", "name", "cls", "start", "end", "parent", "trace",
                 "unit", "attrs")

    def __init__(self, id, name, cls, start, parent, trace, unit, attrs):
        self.id = id
        self.name = name
        self.cls = cls
        self.start = start
        self.end = None
        self.parent = parent
        self.trace = trace
        self.unit = unit
        self.attrs = attrs

    @property
    def dur(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans and per-op times for one run."""

    def __init__(self):
        self.spans: List[Span] = []
        self.op_fwd: Dict[tuple, List[float]] = {}
        self.op_bwd: Dict[tuple, List[float]] = {}
        self.live_saved_bytes = 0
        self.peak_saved_bytes = 0
        self._ids = itertools.count(1)
        self._traces = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: list = []

    # -- span stack ------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, *, cls: Optional[str] = None,
             unit: Optional[str] = None, start: Optional[float] = None,
             attrs: Optional[Dict] = None) -> Span:
        """Open a span on this thread; ``unit`` makes it a unit of work."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        if unit is None and parent is None and cls is not None:
            unit = FORWARD                  # a forward nothing else opened
        if unit is not None:
            trace, kind = next(self._traces), unit
        else:
            trace = parent.trace if parent else next(self._traces)
            kind = parent.unit if parent else None
        span = Span(next(self._ids), name, cls,
                    time.perf_counter() if start is None else start,
                    parent.id if parent else None, trace, kind, attrs)
        stack.append(span)
        return span

    def close(self, end: Optional[float] = None) -> None:
        span = self._stack().pop()
        span.end = time.perf_counter() if end is None else end
        self.spans.append(span)

    def add(self, name: str, start: float, end: float) -> None:
        """Record an already-finished child of this thread's open span."""
        self.open(name, start=start)
        self.close(end)

    def unit_kind(self) -> Optional[str]:
        stack = self._stack()
        return stack[-1].unit if stack else None

    # -- hooks -----------------------------------------------------------
    def watch_model(self, model):
        """One span per module call, for every module of ``model``.

        Returns a function that removes these hooks again.
        """
        handles = []
        for path, module in model.named_modules():
            cls = type(module).__name__

            def pre(mod, args, _path=path, _cls=cls):
                attrs = None
                if not _path and args and hasattr(args[0], "shape"):
                    attrs = {"rows": int(args[0].shape[0])}
                self.open(_path, cls=_cls, attrs=attrs)

            def post(mod, args, out):
                self.close()

            handles.append(module.register_forward_pre_hook(pre))
            handles.append(module.register_forward_hook(post))

        def unwatch():
            for handle in handles:
                handle.remove()

        self._undo.append(unwatch)
        return unwatch

    def watch_ops(self) -> None:
        from repro.autodiff.graph import add_op_backward_hook, add_op_forward_hook

        def on_forward(name, seconds, nbytes):
            key = (self.unit_kind(), name)
            with self._lock:
                acc = self.op_fwd.setdefault(key, [0, 0.0])
                acc[0] += 1
                acc[1] += seconds
                self.live_saved_bytes += nbytes
                if self.live_saved_bytes > self.peak_saved_bytes:
                    self.peak_saved_bytes = self.live_saved_bytes

        def on_backward(name, seconds, freed):
            key = (self.unit_kind(), name)
            with self._lock:
                acc = self.op_bwd.setdefault(key, [0, 0.0])
                acc[0] += 1
                acc[1] += seconds
                self.live_saved_bytes -= freed

        self._undo.append(add_op_forward_hook(on_forward).remove)
        self._undo.append(add_op_backward_hook(on_backward).remove)

    def wrap(self, owner, attr: str, name: str,
             unit: Optional[str] = None) -> None:
        """Replace ``owner.attr`` by a wrapper that spans every call."""
        original = getattr(owner, attr)
        recorder = self

        def wrapper(*args, **kwargs):
            recorder.open(name, unit=unit)
            try:
                return original(*args, **kwargs)
            finally:
                recorder.close()

        setattr(owner, attr, wrapper)
        self._undo.append(lambda: setattr(owner, attr, original))

    def watch_training(self) -> None:
        from repro.autodiff import Tensor
        from repro.optim.optimizers import Adam
        self.watch_ops()
        self.wrap(Tensor, "backward", "autodiff.backward")
        self.wrap(Adam, "step", "optim.adam")

    def remove(self) -> None:
        """Undo every hook and wrapper, newest first."""
        while self._undo:
            self._undo.pop()()

    # -- output ----------------------------------------------------------
    def write(self, path: str) -> None:
        """All spans as rows of ``Span.__slots__`` (``cls`` is the module
        class for module spans; ``unit`` the enclosing unit's kind)."""
        with open(path, "w") as fh:
            json.dump({"fields": Span.__slots__,
                       "spans": [[getattr(s, f) for f in Span.__slots__]
                                 for s in self.spans]}, fh)


class TimedLoader:
    """A loader whose iteration times each batch the trainer takes.

    Step ``i`` runs from the request for batch ``i`` to the request for
    batch ``i + 1`` (the fetch included); ``steps`` holds ``(seconds,
    rows, traced)`` per finished step.  While ``recorder`` is set, each
    batch is also a unit span with a ``data.loader`` child for the fetch.
    ``on_fetch(i)`` is called before batch ``i`` (counted across passes)
    is requested, between two steps and outside both, so it may set or
    clear ``recorder``; it is called twice with one ``i`` when a pass
    ends, once at its end and once at the start of the next.
    """

    def __init__(self, loader, kind: str, on_fetch=None):
        self.loader = loader
        self.kind = kind
        self.recorder: Optional[Recorder] = None
        self.on_fetch = on_fetch
        self.fetched = 0
        self.steps: List[tuple] = []

    def __len__(self) -> int:
        return len(self.loader)

    def __iter__(self):
        it = iter(self.loader)
        running = None                      # (start, rows, traced)
        while True:
            if running is not None:
                end = time.perf_counter()
                start, rows, traced = running
                self.steps.append((end - start, rows, traced))
                if traced:
                    self.recorder.close(end)
            if self.on_fetch is not None:
                self.on_fetch(self.fetched)
            t0 = time.perf_counter()
            try:
                batch = next(it)
            except StopIteration:
                return
            t1 = time.perf_counter()
            self.fetched += 1
            rec = self.recorder
            running = (t0, len(batch[0] if isinstance(batch, tuple)
                                else batch), rec is not None)
            if rec is not None:
                rec.open(self.kind, unit=self.kind, start=t0)
                rec.add("data.loader", t0, t1)
            yield batch

    def durations(self, traced: bool = False) -> List[float]:
        """Seconds of each finished step run with (or without) tracing."""
        return [s for s, _, on in self.steps if on == traced]

    def rows(self, traced: bool = False) -> int:
        return sum(n for _, n, on in self.steps if on == traced)


# ----------------------------------------------------------------------
# Attribution
# ----------------------------------------------------------------------
def layer_of(span: Span, parent: Optional[Span]) -> tuple:
    """``(layer, inclusive)`` for one module span.

    An inclusive layer takes the span's whole duration (its children are
    not visited); otherwise the span's self time goes to the layer and
    its children are attributed one by one.
    """
    cls, attr = span.cls, span.name.rsplit(".", 1)[-1]
    parent_cls = parent.cls if parent is not None else None
    if cls == "SeriesDecomposition":
        return "decomposition.trend", True
    if cls == "SpectrumGradientDecomposition":
        return "decomposition.sgd", True
    if cls.endswith("Embedding"):
        return "nn.embedding", True
    if cls in ("PredictionHead", "AutoregressionHead"):
        return "core.heads", True
    if parent_cls == "TFBranch" and attr == "backbone":
        return "core.tf_block.backbone", True
    if parent_cls == "TFBranch" and attr in ("scale_collapse", "ff"):
        return "core.tf_block.collapse", True
    if parent_cls == "TFBlock" and attr in ("merge", "norm"):
        return "core.tf_block.merge", True
    if cls == "TFBlock":
        return "core.tf_block.merge", False
    if cls == "TFBranch":
        return "spectral.tf_cwt", False
    if cls == "TS3Net":
        return "core.ts3net.self", False
    return "model.other", False


def _children(spans: Iterable[Span]) -> Dict[int, List[Span]]:
    kids: Dict[int, List[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            kids[span.parent].append(span)
    return kids


def model_forwards(spans: List[Span], unit: str) -> List[Span]:
    """Root-module spans (whole model forwards) run inside ``unit`` units."""
    return [s for s in spans if s.cls is not None and s.name == ""
            and s.unit == unit]


def module_layers(spans: List[Span], unit: str) -> Dict[str, float]:
    """Per-forward layer times (seconds) over the model forwards of ``unit``.

    Returns every layer of :data:`LAYERS`, plus ``model`` (the whole
    forward), ``inception`` (time inside ``InceptionBlock2d`` calls,
    which cuts across layers) and ``forwards`` (how many were averaged).
    """
    kids = _children(spans)
    roots = model_forwards(spans, unit)
    totals = dict.fromkeys(LAYERS, 0.0)

    def visit(span: Span, parent: Optional[Span]) -> None:
        layer, inclusive = layer_of(span, parent)
        children = [] if inclusive else kids.get(span.id, [])
        totals[layer] += span.dur - sum(c.dur for c in children)
        for child in children:
            visit(child, span)

    for root in roots:
        visit(root, None)
    n = max(len(roots), 1)
    out = {k: v / n for k, v in totals.items()}
    out["model"] = sum(r.dur for r in roots) / n
    out["inception"] = sum(_inclusive_time(r, kids, "InceptionBlock2d")
                           for r in roots) / n
    out["forwards"] = len(roots)
    return out


def _inclusive_time(span: Span, kids: Dict[int, List[Span]], cls: str) -> float:
    """Time inside the outermost ``cls`` spans below ``span``."""
    total = 0.0
    for child in kids.get(span.id, []):
        if child.cls == cls:
            total += child.dur
        else:
            total += _inclusive_time(child, kids, cls)
    return total


def op_times(recorder: Recorder, unit: str, count: int) -> Dict[str, float]:
    """Per-unit op seconds: ``<op>.fwd``/``<op>.bwd`` for the named ops,
    ``other.*`` for the rest, and forward op calls per unit."""
    out: Dict[str, float] = {}
    calls = 0
    n = max(count, 1)
    for table, suffix in ((recorder.op_fwd, "fwd"), (recorder.op_bwd, "bwd")):
        for (kind, op), (ncalls, seconds) in table.items():
            if kind != unit:
                continue
            name = op if op in NAMED_OPS else "other"
            key = f"{name}.{suffix}"
            out[key] = out.get(key, 0.0) + seconds / n
            if suffix == "fwd":
                calls += ncalls
    for op in NAMED_OPS + ("other",):
        out.setdefault(f"{op}.fwd", 0.0)
        out.setdefault(f"{op}.bwd", 0.0)
    out["calls"] = calls / n
    return out


def step_phases(spans: List[Span]) -> Dict[str, float]:
    """Per-step seconds of each training phase, from the step's children.

    ``fwd`` runs from the model forward's start to the backward's start
    (the loss included), ``bwd`` is the backward call.
    """
    kids = _children(spans)
    steps = [s for s in spans if s.name == STEP and s.cls is None]
    sums = dict.fromkeys(("step", "loader", "fwd", "bwd", "adam"), 0.0)
    for step in steps:
        children = kids.get(step.id, [])
        sums["step"] += step.dur
        root = next((c for c in children if c.cls is not None), None)
        bwd = next((c for c in children if c.name == "autodiff.backward"),
                   None)
        for child in children:
            if child.name == "data.loader":
                sums["loader"] += child.dur
            elif child.name == "optim.adam":
                sums["adam"] += child.dur
        if root is not None and bwd is not None:
            sums["fwd"] += bwd.start - root.start
            sums["bwd"] += bwd.dur
    n = max(len(steps), 1)
    out = {k: v / n for k, v in sums.items()}
    out["steps"] = len(steps)
    return out
