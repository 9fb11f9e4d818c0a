"""Layer spans recorded from outside qrl.

While ``installed`` is active, each public qrl function named in ``LAYERS`` is
replaced, in every qrl module namespace that binds it, by a wrapper that
records a span: layer, start, end, parent span and op.  The sweep generators
are wrapped so that each ``next()`` is one span.  Spans stay in memory;
``LayerTotals`` derives self time (duration minus direct children) and the
per-layer counts from them after the run, and ``write_spans`` writes them out.
"""

from __future__ import annotations

import functools
import inspect
import sys
from contextlib import contextmanager
from time import perf_counter

# (defining module, function) -> layer.  Sweeps are the two generators.
LAYERS = {
    ("qrl.cli", "main"): "cli",
    ("qrl.ratio", "find_min_n"): "search",
    ("qrl.ratio", "phi_match_report"): "search",
    ("qrl.ratio", "iter_ratio_records"): "ratio.sweep",
    ("qrl.ratio", "sqrt5_via_ratio"): "ratio.point",
    ("qrl.ratio", "ratio_diff"): "ratio.point",
    ("qrl.ratio", "ratio_record"): "ratio.point",
    ("qrl.ratio", "term_ratio_mu"): "ratio.point",
    ("qrl.ratio", "term_ratio_nu"): "ratio.point",
    ("qrl.series", "iter_partial_sums"): "series.sweep",
    ("qrl.series", "sqrt5_series_partial"): "series.point",
    ("qrl.series", "binomial_coefficient_term"): "series.point",
    ("qrl.exact", "sqrt5_reference"): "exact.reference",
    ("qrl.exact", "sqrt5_reference_fraction"): "exact.reference",
    ("qrl.exact", "rational_to_decimal"): "exact.render",
    ("qrl.exact", "correct_digits"): "exact.correct_digits",
    ("qrl.sequences", "minimal_super"): "sequences.gen",
    ("qrl.sequences", "minimal_super_fast"): "sequences.gen",
    ("qrl.sequences", "minimal_extra_super"): "sequences.gen",
    ("qrl.sequences", "minimal_extra_super_fast"): "sequences.gen",
    ("qrl.sequences", "read_sequence_file"): "sequences.check",
    ("qrl.sequences", "is_super_increasing"): "sequences.check",
    ("qrl.sequences", "is_extra_super_increasing"): "sequences.check",
    ("qrl.golden", "phi_continued_fraction"): "golden",
    ("qrl.golden", "phi_series_partial"): "golden",
    ("qrl.golden", "phi_oracle"): "golden",
    ("qrl.golden", "phi_conjugate"): "golden",
    ("qrl.golden", "quadratic_residual"): "golden",
    ("qrl.golden", "sqrt5_from_phi_conjugate"): "golden",
    ("qrl.analysis", "build_comparison"): "analysis.build",
    ("qrl.analysis", "_rate_estimate"): "analysis.rate_fit",
    ("qrl.analysis", "emit_report"): "analysis.emit",
}
SWEEPS = {"ratio.sweep", "series.sweep"}


def _bits(value) -> int:
    """Largest operand bit length in a rational result, a record or an (n, value) pair."""
    value = getattr(value, "sqrt5_approx", value)
    if isinstance(value, tuple):
        value = value[-1]
    num = getattr(value, "numerator", None)
    if not isinstance(num, int):
        return 0
    return max(abs(num).bit_length(), value.denominator.bit_length())


def _render_digits(args, kwargs, result) -> int:
    return args[1] if len(args) > 1 else kwargs.get("digits", 0)


# layer -> size recorded on each span: answers, bits, digits, terms or bytes
_SIZE = {
    "search": lambda a, k, r: 2 if hasattr(r, "prefix_n") else 1,
    "ratio.point": lambda a, k, r: _bits(r),
    "series.point": lambda a, k, r: _bits(r),
    "exact.render": _render_digits,
    "sequences.gen": lambda a, k, r: len(r),
    "analysis.emit": lambda a, k, r: len(r),
}


class Tracer:
    """In-memory span log: rows of [layer, start, end, parent, op, size]."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []

    def open_span(self, layer: str) -> list:
        row = [layer, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op, 0]
        self._stack.append(len(self.spans))
        self.spans.append(row)
        row[1] = perf_counter()
        return row

    def close_span(self, row: list) -> None:
        row[2] = perf_counter()
        self._stack.pop()

    def wrap(self, layer: str, fn):
        if layer in SWEEPS:

            @functools.wraps(fn)
            def sweep(*args, **kwargs):
                return _Sweep(self, layer, fn(*args, **kwargs))

            return sweep
        size = _SIZE.get(layer)

        @functools.wraps(fn)
        def call(*args, **kwargs):
            row = self.open_span(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close_span(row)
            if size is not None:
                row[5] = size(args, kwargs, result)
            return result

        return call


class _Sweep:
    """Iterator proxy that records one span per ``next()``."""

    def __init__(self, tracer: Tracer, layer: str, iterator):
        self._tracer = tracer
        self._layer = layer
        self._iterator = iterator

    def __iter__(self):
        return self

    def __next__(self):
        row = self._tracer.open_span(self._layer)
        try:
            item = next(self._iterator)
        finally:
            self._tracer.close_span(row)
        row[5] = _bits(item)
        return item


@contextmanager
def installed(tracer: Tracer):
    """Wrap every traced function in every loaded qrl module; restore on exit."""
    saved = []
    modules = [m for name, m in sys.modules.items() if name == "qrl" or name.startswith("qrl.")]
    try:
        for module in modules:
            for name, obj in list(vars(module).items()):
                if not inspect.isfunction(obj):
                    continue
                layer = LAYERS.get((obj.__module__, obj.__name__))
                if layer is not None:
                    saved.append((module, name, obj))
                    setattr(module, name, tracer.wrap(layer, obj))
        yield tracer
    finally:
        for module, name, obj in saved:
            setattr(module, name, obj)


class LayerTotals:
    """Per-layer counts and self times derived from a span log."""

    def __init__(self, spans: list[list]):
        children = [0.0] * len(spans)
        for layer, start, end, parent, _, _ in spans:
            if parent >= 0:
                children[parent] += end - start
        self.self_time = [end - start - children[i] for i, (_, start, end, *_) in enumerate(spans)]
        self.entries: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.size: dict[str, int] = {}
        self.max_size: dict[str, int] = {}
        self.op_self: dict[int, float] = {}
        self.search_steps = 0
        in_search = [False] * len(spans)
        for i, (layer, _, _, parent, op, size) in enumerate(spans):
            parent_layer = spans[parent][0] if parent >= 0 else None
            if parent_layer != layer:  # an entry into the layer, not a nested call
                self.entries[layer] = self.entries.get(layer, 0) + 1
                self.size[layer] = self.size.get(layer, 0) + size
            self.self_s[layer] = self.self_s.get(layer, 0.0) + self.self_time[i]
            self.max_size[layer] = max(self.max_size.get(layer, 0), size)
            self.op_self[op] = self.op_self.get(op, 0.0) + self.self_time[i]
            in_search[i] = parent >= 0 and (parent_layer == "search" or in_search[parent])
            if in_search[i] and layer in SWEEPS:
                self.search_steps += 1

    def count(self, layer: str) -> int:
        return self.entries.get(layer, 0)

    def seconds(self, layer: str) -> float:
        return self.self_s.get(layer, 0.0)


def write_spans(path, spans: list[list], self_time: list[float]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("span\top\tparent\tlayer\tstart_s\tend_s\tself_s\tsize\n")
        for i, (layer, start, end, parent, op, size) in enumerate(spans):
            handle.write(
                f"{i}\t{op}\t{parent}\t{layer}\t{start:.9f}\t{end:.9f}\t{self_time[i]:.9f}\t{size}\n"
            )
