"""Spans around calls into spherebraid's layers, recorded from outside the program.

`Recorder.install` replaces each public function in TRACED by a wrapper
that records a span (name, parent span, request id, start, end) and the
sizes in SIZES.  The wrapper is put in place of the function at every
site where it can be looked up: its home module and every other
spherebraid module that holds the same object, which covers the names
`theorems` and `cli` pull in with `from ... import` (todd_coxeter,
acts_trivially, eq_mod_center, square_rule, torsion_order, to_json).

A span's self time is its duration minus the durations of its direct
children.  Private helpers are not wrapped, so their time counts as
self time of the nearest wrapped caller: garside's slide
(`_normalize_factors`) is `garside.normal_form` self time, and the
disk action that `sphere_endo` runs through the private
`freegroup._artin_images` is `sphere.sphere_endo` self time, not
freegroup time.  Spans stay in memory until `write`.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

TRACED = {
    "garside": ("normal_form", "equal_Bn"),
    "freegroup": ("eq_Bn",),
    "sphere": (
        "sphere_endo",
        "acts_trivially",
        "inner_conjugator",
        "eq_mod_center",
        "square_rule",
        "relator_trivializes",
        "torsion_order",
    ),
    "presentations": ("todd_coxeter", "derived_subgroup"),
    "theorems": ("verify_q8", "verify_dicyclic", "verify_torsion_table", "verify_background"),
    "certificates": ("to_json",),
    "cli": ("run",),
    "words": ("permutation", "xi", "named_element"),
}

# size name -> function of (args, result); summed over the calls of a function
SIZES = {
    "garside.normal_form": {
        "letters_in": lambda args, out: len(args[0].letters),
        "factors_out": lambda args, out: len(out.factors),
    },
    "freegroup.eq_Bn": {
        "letters_in": lambda args, out: len(args[0].letters) + len(args[1].letters),
    },
    "sphere.sphere_endo": {
        "image_letters_out": lambda args, out: sum(len(img.letters) for img in out.images),
    },
    "presentations.todd_coxeter": {
        "order_out": lambda args, out: getattr(out, "order", 0),
    },
    "certificates.to_json": {
        "bytes_out": lambda args, out: len(out.encode()),
    },
}

SIZE_UNITS = {
    "letters_in": "letters",
    "factors_out": "factors",
    "image_letters_out": "letters",
    "order_out": "elements",
    "bytes_out": "bytes",
}


def function_names() -> list[str]:
    return [f"{layer}.{fn}" for layer, fns in TRACED.items() for fn in fns]


class Recorder:
    """In-memory spans of one traced pass."""

    def __init__(self):
        self.spans: list[list] = []  # [name, parent index, request, start, end]
        self.sizes: dict[str, float] = defaultdict(float)
        self.request = 0
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        spans, stack, sizes = self.spans, self._stack, self.sizes
        measures = SIZES.get(name, {})

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, stack[-1] if stack else -1, self.request, 0.0, 0.0]
            spans.append(span)
            stack.append(index)
            span[3] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                stack.pop()
            for size, measure in measures.items():
                sizes[f"{name}.{size}"] += measure(args, out)
            return out

        return traced

    def install(self) -> None:
        """Wrap every function in TRACED wherever spherebraid holds a reference to it."""
        modules = [
            module
            for key, module in sys.modules.items()
            if key == "spherebraid" or key.startswith("spherebraid.")
        ]
        for layer, fns in TRACED.items():
            home = sys.modules[f"spherebraid.{layer}"]
            for fn in fns:
                original = getattr(home, fn)
                wrapper = self._wrap(f"{layer}.{fn}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)

    def self_times(self) -> list[float]:
        """Self time of every span, in span order."""
        own = [span[4] - span[3] for span in self.spans]
        for span in self.spans:
            if span[1] >= 0:
                own[span[1]] -= span[4] - span[3]
        return own

    def summary(self) -> dict:
        """calls, self_s and sizes per function; self_s per layer, and per request and layer."""
        calls: dict[str, int] = dict.fromkeys(function_names(), 0)
        self_s: dict[str, float] = dict.fromkeys(function_names(), 0.0)
        by_request: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for span, own in zip(self.spans, self.self_times()):
            name = span[0]
            calls[name] += 1
            self_s[name] += own
            by_request[span[2]][name.split(".", 1)[0]] += own
        layers: dict[str, float] = dict.fromkeys(TRACED, 0.0)
        for name, seconds in self_s.items():
            layers[name.split(".", 1)[0]] += seconds
        return {
            "calls": calls,
            "self_s": self_s,
            "sizes": dict(self.sizes),
            "layer_self_s": layers,
            "request_layer_self_s": {str(r): dict(v) for r, v in by_request.items()},
        }

    def write(self, path) -> None:
        """One JSON line per span, with its self time."""
        with open(path, "w") as out:
            for index, (span, own) in enumerate(zip(self.spans, self.self_times())):
                name, parent, request, start, end = span
                out.write(
                    json.dumps(
                        {
                            "id": index,
                            "parent": parent,
                            "request": request,
                            "name": name,
                            "start": start,
                            "end": end,
                            "self_s": own,
                        }
                    )
                    + "\n"
                )
