"""Span tracing of mfd's layers from outside the package.

``Tracer.install`` wraps the public functions of every layer module and
rebinds each wrapper wherever a module of the package holds the original
function object: in its defining module, in modules that imported it by
name (``mfd.tower.solve_lp`` as well as ``mfd.lp.solve_lp``) and in the
package namespace.  Calls between layers therefore nest as child spans.
Spans stay in memory; self time is a span's duration minus its children's.
"""

import inspect
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("core", "distortion", "tower", "markov", "morita", "linear", "lp",
          "loopbasis", "numbers", "cli")

# Per-scalar helpers run millions of times per case; a span around each
# would measure the tracer instead of the layer.  cli.ser recurses through
# every report value for the same reason.
UNTRACED = {
    "numbers": {"is_exact", "to_float", "as_fraction", "div", "close",
                "close_all", "format_scalar", "format_matrix", "format_vector"},
    "cli": {"ser", "dm_rows"},
}


class Tracer:
    def __init__(self, observers=None):
        self.spans = []  # [name, start, end, parent index or -1, case id]
        self.case_id = None
        self.errors = Counter()  # "<layer>.errors", "errors.<Type>"
        self.observers = observers or {}
        self._stack = []
        self._seen_exc = []  # held, so ids are not reused
        self._patched = []  # (namespace, attribute, original)

    # -- installation ------------------------------------------------------

    def _targets(self):
        for layer in LAYERS:
            mod = sys.modules[f"mfd.{layer}"]
            skip = UNTRACED.get(layer, set())
            for name, fn in vars(mod).items():
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not name.startswith("_") and name not in skip):
                    yield layer, name, fn

    def install(self):
        import mfd.cli  # noqa: F401 - imports every layer, cli included
        wrappers = {id(fn): self._wrap(layer, name, fn)
                    for layer, name, fn in self._targets()}
        namespaces = [vars(m) for n, m in sys.modules.items()
                      if n == "mfd" or n.startswith("mfd.")]
        for ns in namespaces:
            for attr, value in list(ns.items()):
                w = wrappers.get(id(value))
                if w is not None:
                    self._patched.append((ns, attr, value))
                    ns[attr] = w

    def uninstall(self):
        for ns, attr, original in reversed(self._patched):
            ns[attr] = original
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- recording ---------------------------------------------------------

    def _wrap(self, layer, name, fn):
        span_name = f"{layer}.{name}"
        spans, stack = self.spans, self._stack
        observer = self.observers.get(span_name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            span = [span_name, 0.0, 0.0, parent, self.case_id]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                span[2] = clock()
                self._record_error(layer, parent, exc)
                raise
            finally:
                stack.pop()
            span[2] = clock()
            if observer is not None:
                observer(out)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        return traced

    def _record_error(self, layer, parent, exc):
        caller = self.spans[parent][0].split(".", 1)[0] if parent >= 0 else None
        if caller != layer:
            self.errors[f"{layer}.errors"] += 1
        if not any(e is exc for e in self._seen_exc):
            self._seen_exc.append(exc)
            self.errors[f"errors.{type(exc).__name__}"] += 1

    # -- summaries ---------------------------------------------------------

    def aggregate(self):
        """{span name: {"calls", "self_ms", "total_ms"}} over all spans."""
        child_time = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {}
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            rec = out.setdefault(name, {"calls": 0, "self_ms": 0.0, "total_ms": 0.0})
            rec["calls"] += 1
            rec["total_ms"] += (end - start) * 1e3
            rec["self_ms"] += (end - start - child_time[idx]) * 1e3
        return out
