"""Per-layer tracing of one in-process ``distlab`` run.

``Tracer`` swaps wrappers in for chosen public functions and methods in
every ``distlab.*`` namespace that binds them, records one span per call
(name, start, end, parent span) and restores the original objects when
the ``with`` block ends. Spans stay in memory; ``metrics()`` folds them
into ``<module>.<function>.<stat>`` figures.

Run as a script it traces one CLI invocation in this process, so every
``lru_cache`` starts cold exactly as in an untraced run:

    PYTHONPATH=src python3 perfbench/tracer.py cohomology --m-list 12,15 --format json

and prints one JSON object: the report text the CLI wrote, its exit code,
the per-layer metrics and the traced wall time.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import io
import json
import sys
import time
from fractions import Fraction

import numpy as np

# (module, qualified name) of every wrapped callable. A class listed
# without a method is traced through its __init__.
TIMED = [
    ("exact_linalg", "snf_with_inverses"),
    ("exact_linalg", "invariant_factors"),
    ("exact_linalg", "hnf"),
    ("exact_linalg", "kernel_basis"),
    ("exact_linalg", "solve_exact"),
    ("exact_linalg", "rank_exact"),
    ("exact_linalg", "det_exact"),
    ("exact_linalg", "to_int"),
    ("exact_linalg", "integral_preimage"),
    ("exact_linalg", "Lattice"),
    ("exact_linalg", "lattice_index"),
    ("exact_linalg", "lattice_intersect"),
    ("abgroup", "ZQuotient"),
    ("abgroup", "subquotient_group"),
    ("abgroup", "tate_group"),
    ("abgroup", "BoundedComplex.cohomology_data"),
    ("abgroup", "i_invariant"),
    ("spectral", "DoubleComplex.e_term"),
    ("spectral", "DoubleComplex.total_cohomology"),
]
# Checks and builders: only their self time is reported.
BUILDERS = [
    ("lcomplex", "build_jcomplex"),
    ("lcomplex", "homotopy_check"),
    ("cyclotomic", "h_minus"),
    ("cyclotomic", "bernoulli1"),
    ("cyclotomic", "l_value_crosscheck"),
    ("distribution", "universal_distribution"),
    ("stickelberger", "stickelberger_ideal"),
    ("stickelberger", "group_stability_check"),
    ("cli", "render_json"),
]
# Matrix arguments of these are measured: cells and entry bit length.
SHAPED = {"kernel_basis", "solve_exact", "hnf", "snf_with_inverses", "det_exact"}
# lru_cache'd functions whose cache_info() gives a hit ratio.
CACHED = [
    ("arith", "factorize"),
    ("cyclotomic", "cyclotomic_poly"),
    ("cyclotomic", "unit_group"),
    ("lcomplex", "symbol_basis"),
    ("spectral", "build_double"),
]
# Methods whose distinct call keys give a hit ratio (memoised in the object).
KEYED = {"DoubleComplex.e_term"}


def _bits(x) -> int:
    if isinstance(x, Fraction):
        return max(abs(x.numerator).bit_length(), x.denominator.bit_length())
    return abs(int(x)).bit_length()


def _shape_stats(args) -> tuple[int, int]:
    cells = bits = 0
    for a in args:
        if isinstance(a, np.ndarray) and a.size:
            cells = max(cells, a.size)
            bits = max(bits, max(_bits(x) for x in a.flat))
    return cells, bits


class Tracer:
    """Context manager that wraps the traced callables and records spans.

    Each span is ``[name, start, end, parent_index, own_s]``, where
    ``own_s`` is the tracer's own work on that call (argument scan, key
    record). Self time is a span's duration minus the durations of its
    direct children and minus its ``own_s``, so neither the call nor its
    parent is charged for the tracer.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.keys: dict[str, set] = {}
        self.shapes: dict[str, list[int]] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        short = name.split(".", 1)[1]
        keys = self.keys.setdefault(name, set()) if short in KEYED else None
        shapes = self.shapes.setdefault(name, [0, 0]) if short in SHAPED else None

        def wrapper(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, 0.0]
            if keys is not None:
                keys.add((id(args[0]),) + args[1:])
            if shapes is not None:
                cells, bits = _shape_stats(args)
                shapes[0] = max(shapes[0], cells)
                shapes[1] = max(shapes[1], bits)
            stack.append(len(spans))
            spans.append(span)
            span[4] = clock() - span[1]
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return functools.wraps(fn)(wrapper)

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def __enter__(self):
        targets = [(importlib.import_module(f"distlab.{m}"), m, q) for m, q in TIMED + BUILDERS]
        modules = [
            m for n, m in sorted(sys.modules.items())
            if n == "distlab" or n.startswith("distlab.")
        ]
        for mod, modname, qual in targets:
            name = f"{modname}.{qual}"
            if "." in qual:
                cls_name, meth = qual.split(".")
                cls = getattr(mod, cls_name)
                self._patch(cls, meth, self._wrap(name, cls.__dict__[meth]))
                continue
            orig = getattr(mod, qual)
            if isinstance(orig, type):
                self._patch(orig, "__init__", self._wrap(name, orig.__init__))
                continue
            wrapper = self._wrap(name, orig)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is orig:
                        self._patch(m, attr, wrapper)
        return self

    def __exit__(self, *exc):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)
        return False

    def metrics(self) -> dict:
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for (name, start, end, _, own), c in zip(self.spans, child):
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (end - start - c - own)
        out = {}
        for modname, qual in TIMED:
            name = f"{modname}.{qual}"
            out[f"{name}.calls"] = (calls.get(name, 0), "count")
            out[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
            if name in self.shapes:
                cells, bits = self.shapes[name]
                out[f"{name}.max_cells"] = (cells, "count")
                out[f"{name}.max_bits"] = (bits, "bit")
            if name in self.keys:
                n = calls.get(name, 0)
                out[f"{name}.hit_ratio"] = (1 - len(self.keys[name]) / n if n else 0.0, "ratio")
        for modname, qual in BUILDERS:
            name = f"{modname}.{qual}"
            out[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
        for modname, qual in CACHED:
            info = getattr(importlib.import_module(f"distlab.{modname}"), qual).cache_info()
            total = info.hits + info.misses
            out[f"{modname}.{qual}.hit_ratio"] = (info.hits / total if total else 0.0, "ratio")
        return out


def traced_main(argv: list[str]) -> dict:
    """Run ``distlab.cli.main(argv)`` under a Tracer in this process."""
    import distlab.cli

    buf = io.StringIO()
    t0 = time.perf_counter()
    with Tracer() as tracer, contextlib.redirect_stdout(buf):
        code = distlab.cli.main(argv)
    wall = time.perf_counter() - t0
    return {
        "code": code,
        "report": buf.getvalue(),
        "wall_s": wall,
        "spans": len(tracer.spans),
        "metrics": tracer.metrics(),
    }


if __name__ == "__main__":
    print(json.dumps(traced_main(sys.argv[1:])))
