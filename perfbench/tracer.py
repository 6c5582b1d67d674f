"""Per-layer tracing from outside the program.

:class:`Tracer` wraps the public functions of each labpoly module (the layers)
at every labpoly module binding that holds them, because ``from .lattice
import solve_rational`` copies the name into the importing module.  Each call
adds to a per-function aggregate (calls, inclusive time, self time) instead of
recording a span of its own, and to a count of (caller, callee) edges; the
benchmark turns one job's aggregates into one span.  ``uninstall`` puts the
original functions back.

Tiny helpers whose cost per call is close to the wrapper's own (vector
arithmetic, coercion, number formatting) are not wrapped: their time counts
as self time of the function that calls them.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("polytope", "lattice", "local_model", "delzant", "fan", "morse")

UNWRAPPED = frozenset({
    "dot", "vec_add", "vec_sub", "vec_scale", "vec_neg", "mat_vec", "mat_mul",
    "transpose", "identity", "matrix", "format_rational", "parse_rational",
    "format_point",
})


def _max_bits(decomposition) -> int:
    """Largest bit length of an entry of a Smith or Hermite decomposition."""
    return max((abs(e).bit_length() for m in decomposition for row in m for e in row),
               default=0)


# Extra measurements taken from a function's return value.
_OBSERVERS = {
    "lattice.smith_normal_form": lambda t, r: t.observe_max("lattice.max_bits", _max_bits(r)),
    "lattice.hermite_normal_form": lambda t, r: t.observe_max("lattice.max_bits", _max_bits(r)),
    "polytope.validate": lambda t, r: t.add("polytope.vertices", len(r.vertices)),
}


class Tracer:
    """Aggregated call counts and times of the wrapped labpoly functions."""

    def __init__(self):
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])   # key -> calls, total, self
        self.edges = Counter()                           # (caller, callee) -> calls
        self.values = Counter()                          # observed sums and maxima
        self.top_level = 0.0     # time in wrapped calls made directly by the CLI
        self._stack = []
        self._patched = []

    def reset(self):
        self.stats.clear()
        self.edges.clear()
        self.values.clear()
        self.top_level = 0.0

    def add(self, key, amount):
        self.values[key] += amount

    def observe_max(self, key, value):
        self.values[key] = max(self.values[key], value)

    def _wrap(self, key, fn):
        observer = _OBSERVERS.get(key)
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [key, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                st = self.stats[key]
                st[0] += 1
                st[1] += dt
                st[2] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
                    self.edges[(stack[-1][0], key)] += 1
                else:
                    self.top_level += dt
            if observer is not None:
                observer(self, result)
            return result

        return wrapper

    def install(self):
        """Wrap every public layer function at every labpoly binding."""
        import labpoly.cli  # noqa: F401  (loads every layer)

        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"labpoly.{layer}"]
            for name, fn in vars(module).items():
                if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                        and not name.startswith("_") and name not in UNWRAPPED):
                    wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{name}", fn))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "labpoly" and not mod_name.startswith("labpoly."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)][1])

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def calls(self, key) -> int:
        return self.stats[key][0] if key in self.stats else 0

    def total(self, key) -> float:
        return self.stats[key][1] if key in self.stats else 0.0

    def self_time(self, key) -> float:
        return self.stats[key][2] if key in self.stats else 0.0
