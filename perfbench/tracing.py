"""Outside-in layer trace of the uplink_noma package.

The tracer wraps every public module-level function of each package module,
plus the CLI's render and emit helpers, in every namespace that holds it
(`sim.sample_rayleigh_gains`, `cli.run_sweep`, `pairing.noma_rates`, ...),
and the `__post_init__` of every value object. A layer is the module a
function is defined in, except that every `__post_init__` belongs to the
`validate` layer. Each wrapped call is a span; a layer's self time is the
time its spans cover minus the time their child spans cover, so the self
times of all layers add up to the outermost span. Methods, properties and
private helpers are not wrapped: their time counts toward their caller.
"""

from __future__ import annotations

import functools
import inspect
import logging
import time
from collections import Counter

LAYERS = ("channel", "validate", "allocation", "model", "pairing", "sim", "cli")
RENDER = ("cli._render_csv", "cli._render_json")
EMIT = "cli._emit"


def _share_vectors(args, result):
    return {"allocation.vectors": result.size // result.shape[-1]}


def _weak_shares(args, result):
    return {"allocation.vectors": getattr(result, "size", 1)}  # a float for scalar input


def _sweep_size(args, result):
    points = int(result.snr_db.size)
    return {"sim.points": points, "sim.trials": points * int(result.trials)}


# function -> (counts of one call from its arguments and result, whether only
# calls entering the layer count: nested calls would count the same work twice)
_COUNTERS = {
    "channel.sample_rayleigh_gains": (lambda a, r: {"channel.gains": r.m}, False),
    "allocation.weak_user_share": (_weak_shares, True),
    "allocation.m_user_shares": (_share_vectors, True),
    "allocation.optimal_two_user": (lambda a, r: {"allocation.vectors": 1}, True),
    "allocation.optimal_m_user": (lambda a, r: {"allocation.vectors": 1}, True),
    "allocation.downlink_two_user": (lambda a, r: {"allocation.vectors": 1}, True),
    "sim.run_sweep": (_sweep_size, True),
    "sim.sweep_two_user": (_sweep_size, True),
    "sim.sweep_four_user_cases": (_sweep_size, True),
    "sim.sweep_m_user": (_sweep_size, True),
    "cli._render_csv": (lambda a, r: {"cli.rows_out": len(a[1])}, False),
    "cli._render_json": (lambda a, r: {"cli.rows_out": len(a[1])}, False),
    "cli._emit": (lambda a, r: {"cli.bytes_out": len(a[0].encode("utf-8"))}, False),
}
# generator function -> counts per item it yields
_ITEM_COUNTERS = {"pairing.enumerate_matchings": "pairing.matchings"}


class _RenormCounter(logging.Handler):
    def __init__(self, tracer):
        super().__init__(logging.WARNING)
        self.tracer = tracer

    def emit(self, record):
        if record.funcName == "m_user_shares":
            self.tracer.counts["allocation.renormalized"] += 1


class LayerTracer:
    """Context manager that traces calls into the package's layers.

    `take()` returns what was recorded since the last `take()` and starts
    over, so each operation can be read on its own.
    """

    def __init__(self, package, modules):
        self.package, self.modules = package, modules
        self._stack = []
        self._restore = []
        self._handler = _RenormCounter(self)
        self._reset()

    def _reset(self):
        self.counts = Counter()  # per-layer entries and the _COUNTERS metrics
        self.fn_self = Counter()  # "layer:module.qualname" -> self seconds
        self.fn_calls = Counter()

    def take(self) -> dict:
        """Per-layer calls, counts and self times since the last take()."""
        out = {f"{layer}.calls": self.counts[f"{layer}.calls"] for layer in LAYERS}
        out.update(self.counts)
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(
                s for key, s in self.fn_self.items() if key.startswith(layer + ":")
            )
        out["cli.render_s"] = sum(self.fn_self[f"cli:{name}"] for name in RENDER)
        out["cli.emit_s"] = self.fn_self[f"cli:{EMIT}"]
        functions = {
            key: {"calls": self.fn_calls[key], "self_s": self.fn_self[key]} for key in self.fn_calls
        }
        self._reset()
        return {"layers": out, "functions": functions}

    # spans -------------------------------------------------------------

    def _push(self, layer, key):
        entering = not self._stack or self._stack[-1][0] != layer
        if entering:
            self.counts[f"{layer}.calls"] += 1
        # layer, key, entering, child seconds, start
        frame = [layer, key, entering, 0.0, time.perf_counter()]
        self._stack.append(frame)
        return frame

    def _pop(self, frame):
        span = time.perf_counter() - frame[4]
        self._stack.pop()
        self.fn_self[frame[1]] += span - frame[3]
        self.fn_calls[frame[1]] += 1
        if self._stack:
            self._stack[-1][3] += span

    def _count(self, counter, frame, args, result):
        count, entering_only = counter
        if frame[2] or not entering_only:
            self.counts.update(count(args, result))

    # wrappers ----------------------------------------------------------

    def _wrap(self, fn, layer, name):
        key = f"{layer}:{name}"
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(fn, layer, key, _ITEM_COUNTERS.get(name))
        counter = _COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self._push(layer, key)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._pop(frame)
            if counter is not None:
                self._count(counter, frame, args, result)
            return result

        return traced

    def _wrap_generator(self, fn, layer, key, item_metric):
        """Time the generator's iteration, not only the call that creates it."""
        done = object()

        def iterate(inner):
            while True:
                frame = self._push(layer, key)
                try:
                    item = next(inner, done)
                finally:
                    self._pop(frame)
                if item is done:
                    return
                if item_metric:
                    self.counts[item_metric] += 1
                yield item

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self._push(layer, key)
            try:
                inner = fn(*args, **kwargs)
            finally:
                self._pop(frame)
            return iterate(inner)

        return traced

    def _targets(self):
        """(original, layer, name) for every function and __post_init__ to trace."""
        for module in self.modules:
            layer = module.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(module).items():
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    name = f"{layer}.{attr}"
                    if not attr.startswith("_") or name in RENDER or name == EMIT:
                        yield obj, layer, name
                elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                    if "__post_init__" in vars(obj):
                        yield obj, "validate", f"{layer}.{attr}.__post_init__"

    def __enter__(self):
        wrapped = {}
        for obj, layer, name in self._targets():
            if inspect.isclass(obj):
                original = vars(obj)["__post_init__"]
                self._restore.append((obj, "__post_init__", original))
                setattr(obj, "__post_init__", self._wrap(original, layer, name))
            else:
                wrapped[obj] = self._wrap(obj, layer, name)
        for namespace in (self.package, *self.modules):
            for attr, obj in list(vars(namespace).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._restore.append((namespace, attr, obj))
                    setattr(namespace, attr, wrapped[obj])
        logging.getLogger(f"{self.package.__name__}.allocation").addHandler(self._handler)
        return self

    def __exit__(self, *exc):
        logging.getLogger(f"{self.package.__name__}.allocation").removeHandler(self._handler)
        for namespace, attr, original in reversed(self._restore):
            setattr(namespace, attr, original)
        self._restore.clear()
        self._stack.clear()
        return False
