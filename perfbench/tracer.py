"""Layer tracing of johnson_p2c from outside the package.

``Tracer.install()`` rebinds public functions of the package in every
``johnson_p2c.*`` module namespace that binds them.  ``from .x import f``
copies the name into the importing module, so patching only the defining
module would miss most calls.  Functions in ``SPANS`` get a span per call
(name, start, end, parent; the op id is the child process's); the
per-vertex functions in ``COUNTS`` and ``ElementSet.__init__`` only get a
counter, because a span per vertex would dominate the run.  A hooked
function that the package no longer has is listed as missing and its
counts and times read 0; the op itself is not failed for it.

Spans stay in memory and ``dump()`` writes them once, with marshal, when
the op ends.  The parent process merges the dumps and derives the layer
metrics.
"""

from __future__ import annotations

import marshal
import sys
import time

# (layer, defining module, public function) timed with a span per call.
SPANS = [
    ("cli", "johnson_p2c.cli", "run"),
    ("p2c_johnson", "johnson_p2c.p2c_johnson", "p2c_johnson"),
    ("p2c_johnson", "johnson_p2c.p2c_johnson", "p2c_complete"),
    ("p2c_qj", "johnson_p2c.p2c_qj", "p2c_qj"),
    ("p2c_qj", "johnson_p2c.p2c_qj", "absorb_apex"),
    ("p2c_qj", "johnson_p2c.p2c_qj", "ep2c_expand"),
    ("p2c_qj", "johnson_p2c.p2c_qj", "pick_one_avoiding"),
    ("p2c_qj", "johnson_p2c.p2c_qj", "pick_two_avoiding"),
    ("verify", "johnson_p2c.verify", "sweep"),
    ("verify", "johnson_p2c.verify", "check_p2c"),
    ("verify", "johnson_p2c.verify", "check_hamilton"),
    ("verify", "johnson_p2c.verify", "p2c_bruteforce"),
    ("hamilton", "johnson_p2c.hamilton", "hamilton_johnson"),
    ("hamilton", "johnson_p2c.hamilton", "hamilton_qj"),
    ("hamilton", "johnson_p2c.hamilton", "hamilton_complete"),
    ("hamilton", "johnson_p2c.hamilton", "hamilton_bruteforce"),
    ("graphs", "johnson_p2c.graphs", "to_generic"),
    ("subsets", "johnson_p2c.subsets", "same_level_neighbors"),
    ("subsets", "johnson_p2c.subsets", "up_neighbors"),
    ("subsets", "johnson_p2c.subsets", "down_neighbors"),
]

# Per-vertex functions: counted, not timed.
COUNTS = [
    ("johnson_p2c.subsets", "complement"),
    ("johnson_p2c.subsets", "apply_relabeling"),
]


def _oracle_key(g, q, *args, **kwargs):
    return (g.key(), q.vertices())


def _bruteforce_key(g, s, t, *args, **kwargs):
    return (g.key(), s, t)


# Calls whose distinct-argument share tells how much work a cache could save.
DISTINCT_KEYS = {
    "p2c_bruteforce": _oracle_key,
    "hamilton_bruteforce": _bruteforce_key,
}


class Tracer:
    def __init__(self, op_id: int):
        self.op_id = op_id
        self.names: list[str] = []
        self.layers: list[str] = []
        self.spans: list = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.distinct: dict[str, set] = {}
        self.missing: list[str] = []

    def install(self) -> None:
        import johnson_p2c.cli  # noqa: F401  (loads every package module)

        for layer, module, name in SPANS:
            self._rebind(module, name, self._span_wrapper(layer, name))
        for module, name in COUNTS:
            self._rebind(module, name, self._count_wrapper(name))
        element_set = getattr(sys.modules.get("johnson_p2c.subsets"), "ElementSet", None)
        if element_set is None:
            self.missing.append("johnson_p2c.subsets.ElementSet")
        else:
            element_set.__init__ = self._count_wrapper("ElementSet")(element_set.__init__)

    @staticmethod
    def _modules():
        return [
            m
            for key, m in list(sys.modules.items())
            if m is not None and (key == "johnson_p2c" or key.startswith("johnson_p2c."))
        ]

    def _rebind(self, module_name, name, make_wrapper) -> None:
        """Wrap ``module_name.name`` wherever the package binds it.  A hook
        whose function no longer exists is listed in ``missing`` and counts
        as never called, so a renamed function does not fail the op."""
        original = getattr(sys.modules.get(module_name), name, None)
        if original is None:
            self.missing.append(f"{module_name}.{name}")
            return
        wrapper = make_wrapper(original)
        for module in self._modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)

    def _count_wrapper(self, name):
        counts = self.counts
        counts[name] = 0

        def make(fn):
            def counted(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return counted

        return make

    def _span_wrapper(self, layer, name):
        index = len(self.names)
        self.names.append(name)
        self.layers.append(layer)
        spans, stack = self.spans, self.stack
        key_fn = DISTINCT_KEYS.get(name)
        seen = self.distinct.setdefault(name, set()) if key_fn else None
        clock = time.perf_counter

        def make(fn):
            def spanned(*args, **kwargs):
                if seen is not None:
                    seen.add(key_fn(*args, **kwargs))
                slot = len(spans)
                spans.append(None)
                parent = stack[-1] if stack else -1
                stack.append(slot)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    spans[slot] = (index, start, clock(), parent)
                    stack.pop()

            return spanned

        return make

    def dump(self, path: str, extra: dict) -> None:
        record = {
            "op": self.op_id,
            "names": self.names,
            "layers": self.layers,
            "spans": self.spans,
            "counts": self.counts,
            "distinct": {k: len(v) for k, v in self.distinct.items()},
            "missing": self.missing,
            **extra,
        }
        with open(path, "wb") as fh:
            marshal.dump(record, fh)
