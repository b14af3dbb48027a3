"""Span tracer that wraps brolip's public functions from outside the package.

`Tracer.active()` replaces every binding of each target function that the
program resolves at call time: the module attribute itself, names other
brolip modules imported with `from`, module-level tables of function
references (such as `train.LOSS_KINDS`), and class attributes (plain
methods and staticmethods). Leaving the context restores every binding.

A target that no longer exists is reported in `Tracer.absent` and skipped,
so the benchmark keeps running when a later change deletes or renames a
function it used to trace.

Each call records one span `[target, layer, start, end, parent, counts,
counted, raised]`. A span's call is counted only when no span of the same
target encloses it (recursion guard), and computed kernel work (flops and
bytes derived from argument shapes, never measured) only when no other
work-counting span of the same layer encloses it, so `cholesky`'s inner
`solve_lower` adds no flops of its own. Computing that work is the
benchmark's own bookkeeping: it runs in a `<target>.work` span of layer
`other`, just before the target's span, so no brolip layer is billed for it.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

PACKAGE = "brolip"
LAYERS = ("tensor", "fft", "linalg", "tape", "ortho", "models", "losses",
          "certify", "train", "data", "checkpoint")

# Span fields.
NAME, LAYER, START, END, PARENT, COUNTS, COUNTED, RAISED = range(8)


def _fft_work(a, *_, **__):
    a = np.asarray(a)
    points = a.shape[-1] * a.shape[-2]
    transforms = a.size // points if points else 0
    return {"elements": a.size,
            "flop": 5.0 * points * math.log2(points) * transforms if points > 1 else 0.0,
            "byte": 2.0 * a.size * 16}


def _cholesky_work(a, *_, **__):
    a = np.asarray(a)
    n = a.shape[-1]
    matrices = a.size // (n * n) if n else 0
    scale = 4.0 if np.iscomplexobj(a) else 1.0
    return {"matrices": matrices,
            "flop": scale * matrices * n ** 3 / 3.0,
            "byte": 2.0 * a.size * a.itemsize}


def _triangular_work(l, b, *_, **__):
    l, b = np.asarray(l), np.asarray(b)
    n, k = l.shape[-1], b.shape[-1]
    batch = int(np.prod(np.broadcast_shapes(l.shape[:-2], b.shape[:-2])))
    complex_ = np.iscomplexobj(l) or np.iscomplexobj(b)
    item = 16 if complex_ else 8
    return {"flop": (4.0 if complex_ else 1.0) * batch * n * n * k,
            "byte": batch * item * (n * n / 2.0 + 2.0 * n * k)}


def _report_work(logits, labels, *_, **__):
    return {"samples": int(np.asarray(labels).size)}


def vjp_usefulness(nodes, out_idx: int) -> tuple[int, int]:
    """(VJPs a reverse sweep from `out_idx` evaluates, those that reach a
    grad-requiring leaf), from the tape's node list."""
    reaches = [False] * (out_idx + 1)
    for i in range(out_idx + 1):
        node = nodes[i]
        if node.vjp is None:
            reaches[i] = bool(node.requires_grad)
        else:
            reaches[i] = any(reaches[j] for j in node.inputs)
    needed = [False] * (out_idx + 1)
    needed[out_idx] = True
    evaluated = useful = 0
    for i in range(out_idx, -1, -1):
        node = nodes[i]
        if not needed[i] or node.vjp is None:
            continue
        evaluated += 1
        useful += reaches[i]
        for j in node.inputs:
            needed[j] = True
    return evaluated, useful


def _backward_work(tape, out, *_, **__):
    nodes = tape.nodes
    evaluated, useful = vjp_usefulness(nodes, out.idx)
    return {"nodes": len(nodes), "vjp_evaluated": evaluated, "vjp_useful": useful}


# (layer, attribute path, work function). Tape recording primitives are
# discovered at install time: every module-level `t_*` function of `tape`.
TARGETS = (
    ("tensor", "as_real_array", None),
    ("tensor", "as_complex_array", None),
    ("fft", "fft2", _fft_work),
    ("fft", "ifft2", None),
    ("linalg", "cholesky", _cholesky_work),
    ("linalg", "solve_lower", _triangular_work),
    ("linalg", "solve_upper_conj", _triangular_work),
    ("linalg", "solve_hpd", None),
    ("tape", "Tape.backward", _backward_work),
    ("ortho", "conv_apply", None),
    ("ortho", "bro_conv_forward", None),
    ("models", "Network.forward", None),
    ("models", "Network.forward_tape", None),
    ("models", "build_model", None),
    ("losses", "la_loss_mean", None),
    ("losses", "ce_loss_mean", None),
    ("losses", "ce_cr_loss_mean", None),
    ("certify", "build_report", _report_work),
    ("certify", "lln_certified_radius", None),
    ("certify", "margin", None),
    ("certify", "accuracy_radius_curve", None),
    ("train", "train", None),
    ("train", "evaluate", None),
    ("train", "pgd_attack", None),
    ("data", "toy_dataset", None),
    ("checkpoint", "save_checkpoint", None),
    ("checkpoint", "load_checkpoint", None),
)


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] is not None:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def _resolve(layer: str, path: str):
    """The target's underlying function, or None when it is absent."""
    try:
        owner = importlib.import_module(f"{PACKAGE}.{layer}")
    except ImportError:
        return None
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    raw = vars(owner).get(attr)
    fn = raw.__func__ if isinstance(raw, staticmethod) else raw
    return fn if callable(fn) else None


class Tracer:
    """Records spans around brolip calls while `active()` is entered."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[list] = []
        self.parent: int | None = None
        self.absent: list[str] = []
        self._open_targets: dict[str, int] = {}
        self._open_work: dict[str, int] = {}
        self._restore: list[tuple] = []

    # -- recording ----------------------------------------------------------
    def _enter(self, name, layer, counts):
        counted = not self._open_targets.get(name)
        if counts is not None and self._open_work.get(layer):
            counts = None
        span = [name, layer, time.perf_counter(), 0.0, self.parent, counts, counted, None]
        self.spans.append(span)
        idx = len(self.spans) - 1
        prev = self.parent
        self.parent = idx
        self._open_targets[name] = self._open_targets.get(name, 0) + 1
        if counts is not None:
            self._open_work[layer] = self._open_work.get(layer, 0) + 1
        return span, prev

    def _exit(self, span, prev):
        span[END] = time.perf_counter()
        self.parent = prev
        self._open_targets[span[NAME]] -= 1
        if span[COUNTS] is not None:
            self._open_work[span[LAYER]] -= 1

    @contextmanager
    def span(self, name: str, layer: str = "other"):
        """A span opened by the benchmark itself, e.g. one operation."""
        span, prev = self._enter(name, layer, None)
        try:
            yield span
        finally:
            self._exit(span, prev)

    def _wrap(self, fn, name, layer, work):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            counts = None
            if work is not None:
                with tracer.span(name + ".work"):  # bookkeeping, billed to `other`
                    counts = work(*args, **kwargs)
            span, prev = tracer._enter(name, layer, counts)
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                span[RAISED] = type(exc).__name__
                raise
            finally:
                tracer._exit(span, prev)

        return traced

    # -- installation -------------------------------------------------------
    def _plan(self) -> dict[int, tuple]:
        """id(original) -> (original, wrapper), for every target present."""
        plan: dict[int, tuple] = {}
        targets = list(self.targets)
        tape = sys.modules.get(f"{PACKAGE}.tape")
        if tape is not None:
            targets += [("tape", name, None) for name, val in vars(tape).items()
                        if name.startswith("t_") and callable(val)
                        and getattr(val, "__module__", None) == tape.__name__]
        self.absent = []
        for layer, path, work in targets:
            fn = _resolve(layer, path)
            if fn is None:
                self.absent.append(f"{layer}.{path}")
                continue
            plan[id(fn)] = (fn, self._wrap(fn, f"{layer}.{path}", layer, work))
        return plan

    def _bind(self, plan) -> None:
        """Point every binding of a planned original at its wrapper."""
        prefix = PACKAGE + "."
        mods = [m for n, m in list(sys.modules.items())
                if m is not None and (n == PACKAGE or n.startswith(prefix))]
        for mod in mods:
            for key, val in list(vars(mod).items()):
                if key.startswith("__"):
                    continue
                hit = plan.get(id(val))
                if hit is not None and hit[0] is val:
                    self._restore.append((setattr, mod, key, val))
                    setattr(mod, key, hit[1])
                elif isinstance(val, dict):
                    for k, v in list(val.items()):
                        hit = plan.get(id(v))
                        if hit is not None and hit[0] is v:
                            self._restore.append((dict.__setitem__, val, k, v))
                            val[k] = hit[1]
                elif isinstance(val, type) and val.__module__ == mod.__name__:
                    for k, v in list(vars(val).items()):
                        fn = v.__func__ if isinstance(v, staticmethod) else v
                        hit = plan.get(id(fn))
                        if hit is None or hit[0] is not fn:
                            continue
                        new = staticmethod(hit[1]) if isinstance(v, staticmethod) else hit[1]
                        self._restore.append((setattr, val, k, v))
                        setattr(val, k, new)

    @contextmanager
    def active(self):
        """Install the wrappers for the duration of the block."""
        try:
            self._bind(self._plan())
            yield self
        finally:
            while self._restore:
                setter, owner, key, val = self._restore.pop()
                setter(owner, key, val)


def _has_ancestor(spans, span, name: str) -> bool:
    parent = span[PARENT]
    while parent is not None:
        if spans[parent][NAME] == name:
            return True
        parent = spans[parent][PARENT]
    return False


class Totals:
    """Span aggregates: per target, per layer and per computed counter.

    `seconds` and `calls` cover counted (outermost) calls, `self_seconds`
    and `layer_self` every span, `work_seconds` and `counts` the spans that
    carry computed work.
    """

    def __init__(self):
        self.calls: Counter = Counter()
        self.seconds: Counter = Counter()
        self.self_seconds: Counter = Counter()
        self.work_seconds: Counter = Counter()
        self.counts: defaultdict = defaultdict(Counter)
        self.raised: Counter = Counter()
        self.layer_self: Counter = Counter()
        self.evaluate_in_train = 0.0

    def add(self, spans) -> None:
        for span, own in zip(spans, self_times(spans)):
            name = span[NAME]
            took = span[END] - span[START]
            self.layer_self[span[LAYER]] += own
            self.self_seconds[name] += own
            if span[COUNTED]:
                self.calls[name] += 1
                self.seconds[name] += took
                if span[RAISED]:
                    self.raised[(name, span[RAISED])] += 1
                if name == "train.evaluate" and _has_ancestor(spans, span, "train.train"):
                    self.evaluate_in_train += took
            if span[COUNTS]:
                self.work_seconds[name] += took
                self.counts[name].update(span[COUNTS])
