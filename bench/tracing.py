"""Span tracing of starwalk's layers from outside the library.

Each public function of a traced module is replaced, in every starwalk
module namespace that bound it by name, with a wrapper that records a span
(id, parent id, name, start, end). `cli` and `verify` import
`closed_walk_counts` by name, so patching `starwalk.walks` alone would miss
their calls. Spans stay in memory; `Tracer.dump` writes them out at the end.

A layer's self time is the summed duration of its spans minus the part of
each span that its child spans cover. Counters (walk-kernel work, bit sizes,
Sturm chain lengths, sign tests, reports) are taken at the same boundaries.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict
from typing import Callable, Iterable, Optional

# layer -> (module, functions). None means every public function the module
# defines. spectra's poly_gcd, variations_at and count_roots_in stay unwrapped:
# they are steps of the bisection, so their time is bisect self time.
LAYERS: dict[str, tuple[str, Optional[tuple[str, ...]]]] = {
    "walks": ("starwalk.walks", None),
    "spectra.charpoly": (
        "starwalk.spectra",
        ("charpoly", "path_charpoly", "starlike_charpoly_factored"),
    ),
    "spectra.sturm": ("starwalk.spectra", ("sturm_chain",)),
    "spectra.bisect": (
        "starwalk.spectra",
        ("compare_spectral_radii_exact", "spectral_radius"),
    ),
    "spectra.float": ("starwalk.spectra", ("eigenvalues", "estrada_index")),
    "ordering": ("starwalk.ordering", None),
    "trees": ("starwalk.trees", None),
    "partitions": ("starwalk.partitions", None),
    "verify": ("starwalk.verify", None),
    "cli": ("starwalk.cli", ("main",)),
}

# counters per layer, beyond the calls and self_s every layer has
COUNTERS: dict[str, tuple[str, ...]] = {
    "walks": ("vertex_steps", "max_bits"),
    "spectra.charpoly": ("max_coeff_bits",),
    "spectra.sturm": ("chain_len",),
    "spectra.bisect": ("sign_tests",),
    "verify": ("reports",),
    "cli": ("output_bytes",),
}


def layer_metric_names() -> list[str]:
    names = []
    for layer in LAYERS:
        names += [f"{layer}.calls", f"{layer}.self_s"]
        names += [f"{layer}.{c}" for c in COUNTERS.get(layer, ())]
    return names


def _public_functions(module) -> list[str]:
    return [
        name
        for name, value in vars(module).items()
        if not name.startswith("_")
        and inspect.isfunction(value)
        and value.__module__ == module.__name__
    ]


def _poly_bits(result) -> int:
    polys = result if isinstance(result, tuple) else (result,)
    return max(
        (abs(c).bit_length() for p in polys if hasattr(p, "coeffs") for c in p.coeffs),
        default=0,
    )


class Tracer:
    """Records spans and counters while installed; restores everything on exit."""

    def __init__(self):
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.counters: dict[str, int] = defaultdict(int)
        self._names: list[str] = []
        self._stack: list[int] = []
        self._layer_of: dict[str, str] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def begin(self, name: str) -> int:
        sid = len(self._names)
        self._names.append(name)
        self._stack.append(sid)
        return sid

    def end(self, sid: int, start: float, end: float) -> None:
        self._stack.pop()
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((sid, parent, self._names[sid], start, end))

    def count(self, key: str, value: int = 1) -> None:
        self.counters[key] += value

    def maximum(self, key: str, value: int) -> None:
        if value > self.counters[key]:
            self.counters[key] = value

    def _wrap(self, layer: str, name: str, fn: Callable, on_result) -> Callable:
        self._layer_of[name] = layer

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self.begin(name)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(sid, start, time.perf_counter())
            if on_result is not None:
                on_result(args, result)
            return result

        return traced

    def _hooks(self) -> dict[str, Callable]:
        def walks(args, result):
            values = getattr(result, "values", None)
            if values is None:
                return
            self.count("walks.vertex_steps", args[0].n * (len(values) - 1))
            self.maximum("walks.max_bits", max(v.bit_length() for v in values))

        def charpoly(args, result):
            self.maximum("spectra.charpoly.max_coeff_bits", _poly_bits(result))

        def sturm(args, result):
            self.maximum("spectra.sturm.chain_len", len(result))

        def verify(args, result):
            # count reports once, at the outermost verify call
            if not any(self._layer_of.get(self._names[s]) == "verify" for s in self._stack):
                self.count("verify.reports", len(result) if isinstance(result, list) else 1)

        return {
            "walks": walks,
            "spectra.charpoly": charpoly,
            "spectra.sturm": sturm,
            "verify": verify,
        }

    # -- installing --------------------------------------------------------

    def install(self) -> "Tracer":
        hooks = self._hooks()
        wrappers: dict[int, Callable] = {}
        for layer, (modname, names) in LAYERS.items():
            module = importlib.import_module(modname)
            for name in names or _public_functions(module):
                fn = getattr(module, name)
                wrappers[id(fn)] = self._wrap(layer, f"{modname}.{name}", fn, hooks.get(layer))
        for modname, module in list(sys.modules.items()):
            if modname != "starwalk" and not modname.startswith("starwalk."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patch(module, attr, wrapper)
        spectra = importlib.import_module("starwalk.spectra")
        sign_at = spectra.IntPolynomial.sign_at

        @functools.wraps(sign_at)
        def counted_sign_at(poly, x):
            self.counters["spectra.bisect.sign_tests"] += 1
            return sign_at(poly, x)

        self._patch(spectra.IntPolynomial, "sign_at", counted_sign_at)
        return self

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results -----------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        layer_spans = [
            (sid, parent, self._layer_of.get(name, name), start, end)
            for sid, parent, name, start, end in self.spans
        ]
        return layer_metrics(layer_spans, self.counters)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "parent", "name", "start", "end"],
                       "spans": self.spans}, fh)


def self_times(spans: Iterable[tuple]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, parent, _, start, end in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = {}
    for sid, _, _, start, end in spans:
        covered = 0.0
        reach = start
        for c0, c1 in sorted(children.get(sid, ())):
            c0, c1 = max(c0, reach), min(c1, end)
            if c1 > c0:
                covered += c1 - c0
                reach = c1
        out[sid] = (end - start) - covered
    return out


def layer_metrics(spans: list[tuple], counters: dict[str, int]) -> dict[str, float]:
    """Per-layer calls, self time and counters from spans named by layer."""
    own = self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    for sid, _, layer, _, _ in spans:
        calls[layer] += 1
        self_s[layer] += own[sid]
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = calls[layer]
        out[f"{layer}.self_s"] = self_s[layer]
        for c in COUNTERS.get(layer, ()):
            out[f"{layer}.{c}"] = counters.get(f"{layer}.{c}", 0)
    return out
