"""Per-function spans and counters for gwseries, installed from outside.

`Tracer.install()` wraps the public functions of every layer module, the
public methods of the classes those modules define, and their arithmetic
operators.  Each wrapper records a span (calls, total and self time) and,
for a few functions, counters computed from the call's arguments and result.
The package source is never edited: a wrapped function is replaced by
identity in every `gwseries` module namespace, because `from .modular import
eta_expand` binds the same object under another module's name.
`Tracer.restore()` puts every original back.

Spans are folded into per-function totals as they close, so memory stays
bounded however many calls a request makes; nothing is written until the
caller asks for `summary()` at the end.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from time import perf_counter

PACKAGE = "gwseries"
LAYERS = ("exact_arith", "qseries", "modular", "d4", "e6", "frobenius", "reporting", "cli")
OPERATORS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__pow__", "__neg__",
)
# Series kernels whose results feed qseries.coeff_bits_max.
KERNELS = ("__mul__", "inv", "log_unit", "exp_positive", "pow_rational", "nth_root")
# Artifact builders whose repeated arguments are wasted work (unique_ratio).
BUILDERS = (
    "e6.e6_h_analytic", "e6.e6_build_fi", "d4.d4_analytic", "d4.d4_eta_forms",
    "modular.eta_expand",
)


class Stat:
    """Running totals for one wrapped function."""

    __slots__ = ("calls", "total_s", "self_s", "depth", "counters", "keys")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.depth = 0
        self.counters: dict[str, int] = {}
        self.keys: set | None = None

    def add(self, name: str, amount: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def peak(self, name: str, value: int) -> None:
        if value > self.counters.get(name, 0):
            self.counters[name] = value


def _arg(args, kwargs, index: int, name: str):
    return kwargs[name] if name in kwargs else args[index]


def _call_key(args, kwargs):
    parts = [a if isinstance(a, (int, str)) else str(a) for a in args]
    return tuple(parts) + tuple(sorted((k, str(v)) for k, v in kwargs.items()))


def _coeff_bits(series) -> int:
    best = 0
    for c in getattr(series, "coeffs", ()):
        nums = getattr(c, "nums", None)
        if nums is not None:
            parts = (*nums, c.den)
        else:
            parts = (c.numerator, c.denominator)
        for v in parts:
            b = v.bit_length()
            if b > best:
                best = b
    return best


def _mul_products(a, b) -> int:
    """Coefficient products a schoolbook product of a and b needs: nonzero
    pairs whose exponent lies below the product's truncation."""
    if not hasattr(b, "coeffs"):
        return sum(1 for c in a.coeffs if c)
    if not a.coeffs or not b.coeffs:
        return 0
    t = min(a.truncation + b.valuation, b.truncation + a.valuation)
    prefix = [0]
    for c in b.coeffs:
        prefix.append(prefix[-1] + (1 if c else 0))
    total = 0
    for i, c in enumerate(a.coeffs):
        if c:
            jmax = min(len(b.coeffs), t - a.valuation - i - b.valuation)
            if jmax > 0:
                total += prefix[jmax]
    return total


class Tracer:
    """Wraps gwseries from outside; see the module docstring."""

    def __init__(self, layers=LAYERS):
        self.layers = layers
        self.stats: dict[str, Stat] = {}
        self.missing_layers: list[str] = []
        self.counter_errors = 0
        self.coeff_bits_max = 0
        self._stack: list[list[float]] = []
        self._patches: list[tuple[object, str, object]] = []
        self._sigma_seen: set = set()

    # -- installation ---------------------------------------------------------------

    def install(self) -> "Tracer":
        wrapped: dict[int, tuple[object, object]] = {}  # id -> (original, wrapper)
        for layer in self.layers:
            try:
                module = importlib.import_module(f"{PACKAGE}.{layer}")
            except ImportError:
                self.missing_layers.append(layer)
                continue
            for name, value in list(vars(module).items()):
                if name.startswith("_"):
                    continue
                if inspect.isfunction(value) and value.__module__ == module.__name__:
                    if not inspect.isgeneratorfunction(value):
                        wrapper = self._wrap(f"{layer}.{value.__qualname__}", value)
                        wrapped[id(value)] = (value, wrapper)
                elif inspect.isclass(value) and value.__module__ == module.__name__:
                    self._wrap_class(layer, value)
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for name, value in list(vars(module).items()):
                original, wrapper = wrapped.get(id(value), (None, None))
                if original is value:
                    self._patch(module, name, wrapper)
        return self

    def _wrap_class(self, layer: str, cls) -> None:
        for name, raw in list(vars(cls).items()):
            if name.startswith("_") and name not in OPERATORS:
                continue
            key = f"{layer}.{cls.__qualname__}.{name}"
            if isinstance(raw, (classmethod, staticmethod)):
                fn = raw.__func__
                if inspect.isfunction(fn) and not inspect.isgeneratorfunction(fn):
                    self._patch(cls, name, type(raw)(self._wrap(key, fn)))
            elif inspect.isfunction(raw) and not inspect.isgeneratorfunction(raw):
                # `__rmul__ = __mul__` aliases share one function object; the
                # alias gets its own span name so both directions are visible.
                self._patch(cls, name, self._wrap(key, raw))

    def _patch(self, owner, name: str, replacement) -> None:
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, replacement)

    def restore(self) -> None:
        """Put back every attribute `install()` replaced, newest first."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # -- the span wrapper ---------------------------------------------------------------

    def _wrap(self, key: str, fn):
        stat = self.stats.setdefault(key, Stat())
        if key in BUILDERS:
            stat.keys = set()
        counter = self._counter_for(key)
        stack = self._stack
        clock = perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            stat.depth += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                stat.depth -= 1
                stat.calls += 1
                stat.self_s += duration - frame[0]
                if stat.depth == 0:
                    stat.total_s += duration
                if stack:
                    stack[-1][0] += duration
            if counter is not None:
                begin = clock()
                try:
                    counter(stat, args, kwargs, result)
                except Exception:  # a later signature change must not crash the run
                    self.counter_errors += 1
                if stack:
                    # bookkeeping is tracing overhead, not the caller's self time
                    stack[-1][0] += clock() - begin
            return result

        return wrapper

    def _counter_for(self, key: str):
        layer, _, rest = key.partition(".")
        method = rest.rpartition(".")[2]
        counters = []
        if key in BUILDERS:
            counters.append(lambda stat, a, kw, r: stat.keys.add(_call_key(a, kw)))
        if key == "e6.e6_schwarzian_solve":
            counters.append(lambda stat, a, kw, r: stat.add("steps", _arg(a, kw, 0, "order")))
        if key == "frobenius.wdvv_residual":
            counters.append(lambda stat, a, kw, r: stat.add("order", _arg(a, kw, 1, "truncation")))
        if key in ("reporting.series_match", "reporting.puiseux_match"):
            counters.append(lambda stat, a, kw, r: stat.add("terms", r.order_certified))
        if key == "modular.sigma":
            counters.append(self._count_sigma)
        if key == "qseries.QSeries.__mul__":
            counters.append(self._count_mul)
        if layer == "qseries" and rest.startswith("QSeries.") and method in KERNELS:
            counters.append(self._count_bits)
        if not counters:
            return None
        if len(counters) == 1:
            return counters[0]

        def combined(stat, a, kw, r):
            for c in counters:
                c(stat, a, kw, r)

        return combined

    def _count_sigma(self, stat, args, kwargs, result) -> None:
        key = _call_key(args, kwargs)
        if key in self._sigma_seen:
            stat.add("hits", 1)
        else:
            self._sigma_seen.add(key)

    def _count_mul(self, stat, args, kwargs, result) -> None:
        if result is NotImplemented:
            return
        a, b = args[0], args[1]
        stat.add("coeff_mults", _mul_products(a, b))
        stat.peak("max_len", max(len(a.coeffs), len(getattr(b, "coeffs", ()))))

    def _count_bits(self, stat, args, kwargs, result) -> None:
        bits = _coeff_bits(result)
        if bits > self.coeff_bits_max:
            self.coeff_bits_max = bits

    # -- output ---------------------------------------------------------------------------

    def summary(self) -> dict:
        """Everything recorded, as plain JSON-ready data."""
        functions = {}
        for key, stat in self.stats.items():
            entry = {"calls": stat.calls, "total_s": stat.total_s, "self_s": stat.self_s}
            entry.update(stat.counters)
            if stat.keys is not None:
                entry["distinct"] = len(stat.keys)
            functions[key] = entry
        return {
            "functions": functions,
            "coeff_bits_max": self.coeff_bits_max,
            "missing_layers": self.missing_layers,
            "counter_errors": self.counter_errors,
        }
