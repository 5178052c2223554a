"""Spans and counts around the library's public calls, installed from outside.

The tracer replaces, while it is installed, every binding of a layer's
public functions in every poscones module (the modules import each
other's functions by name), and patches the FieldElem, DElem and MatD
operators on their classes so that calls from inside the library are seen
too.  Field and DElem operators are only counted; every other wrapped call
records a span (id, parent, name, start, end).  A span's self time is its
duration minus the time covered by its child spans.
"""

from __future__ import annotations

import inspect
import json
from collections import Counter, defaultdict
from time import perf_counter

# module -> extra private functions that get spans as well
SPAN_MODULES = {
    "forms": ("_verify_diagonalization",),
    "morita": (),
    "orders": (),
    "signature": (),
    "cones": (),
    "serde": (),
    "cli": (),
    "sampling": (),
}

FIELD_OPS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__neg__", "inverse",
)
DELEM_OPS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__neg__", "inverse",
)


def _category(key: str) -> str:
    """Spans of one category nested in each other count once toward its time."""
    if key.startswith("serde."):
        return "serde.encode" if key.endswith(("_to_json", "_name")) else "serde.decode"
    if key.startswith("sampling."):
        return "sampling"
    return key


class Tracer:
    def __init__(self, pc) -> None:
        self.pc = pc
        self.patches: list[tuple[object, str, object, object]] = []
        self.stack: list[list] = []
        self.spans: list[tuple] = []
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.outer_s: defaultdict = defaultdict(float)
        self.side_sum = 0
        self._next_id = 0
        self._build()

    def reset(self) -> None:
        """Forget what was recorded; the wrappers keep their references."""
        self.calls.clear()
        self.self_s.clear()
        self.outer_s.clear()
        self.spans.clear()
        self.side_sum = 0
        self._next_id = 0

    # -- wrappers ---------------------------------------------------------------

    def _span(self, key: str, fn):
        stack, calls = self.stack, self.calls
        self_s, outer_s = self.self_s, self.outer_s
        cat = _category(key)
        tracer = self

        def wrapper(*args, **kwargs):
            tracer._next_id += 1
            frame = [key, tracer._next_id, 0.0, perf_counter()]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - frame[3]
                calls[key] += 1
                self_s[key] += dur - frame[2]
                parent = stack[-1] if stack else None
                if parent is None or _category(parent[0]) != cat:
                    outer_s[cat] += dur
                if parent is not None:
                    parent[2] += dur
                tracer.spans.append(
                    (frame[1], parent[1] if parent else 0, key, frame[3], end)
                )

        return wrapper

    def _count(self, key: str, fn):
        calls = self.calls

        def wrapper(*args):
            calls[key] += 1
            return fn(*args)

        return wrapper

    def _diagonalize(self, fn):
        span = self._span("forms.diagonalize", fn)
        tracer = self

        def wrapper(h, *args, **kwargs):
            tracer.side_sum += h.rows
            return span(h, *args, **kwargs)

        return wrapper

    def _build(self) -> None:
        pc = self.pc
        replace: dict[int, object] = {}
        for modname, extra in SPAN_MODULES.items():
            mod = getattr(pc, modname)
            names = [
                n for n in getattr(mod, "__all__", ())
                if inspect.isfunction(getattr(mod, n))
                and getattr(mod, n).__module__ == mod.__name__
            ] + list(extra)
            for n in names:
                fn = getattr(mod, n)
                key = f"{modname}.{n}"
                replace[id(fn)] = (
                    self._diagonalize(fn) if key == "forms.diagonalize" else self._span(key, fn)
                )
        for mod in pc.all_modules:
            for n, obj in list(vars(mod).items()):
                if id(obj) in replace and inspect.isfunction(obj):
                    self.patches.append((mod, n, obj, replace[id(obj)]))
        cls_patches = [
            (pc.field.FieldElem, FIELD_OPS, "field.ops", self._count),
            (pc.field.FieldElem, ("sign_at",), "field.sign_at", self._count),
            (pc.algebra.DElem, DELEM_OPS, "algebra.delem_ops", self._count),
            (pc.algebra.MatD, ("__mul__",), "algebra.matmul", self._span),
            (pc.algebra.MatD, ("inverse",), "algebra.inverse", self._span),
        ]
        for cls, names, key, make in cls_patches:
            for n in names:
                fn = cls.__dict__[n]
                self.patches.append((cls, n, fn, make(key, fn)))

    # -- installation -------------------------------------------------------------

    def install(self) -> None:
        for owner, name, _orig, repl in self.patches:
            setattr(owner, name, repl)

    def uninstall(self) -> None:
        for owner, name, orig, _repl in reversed(self.patches):
            setattr(owner, name, orig)

    def question(self, ask):
        """Run one question under a root span, with the wrappers installed."""
        self.install()
        span = self._span("bench.question", ask)
        try:
            start = perf_counter()
            answer = span()
            elapsed = perf_counter() - start
        finally:
            self.uninstall()
        return answer, elapsed

    # -- results ---------------------------------------------------------------

    def layer_self(self, layer: str) -> float:
        return sum(v for k, v in self.self_s.items() if k.startswith(layer + "."))

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, key, start, end in self.spans:
                fh.write(
                    json.dumps({"id": sid, "parent": parent, "name": key,
                                "start": start, "end": end})
                    + "\n"
                )
