"""Outside-in tracer: spans around every public omlkit function and method.

Nothing in omlkit changes.  ``Tracer.install`` replaces each public function
and method, in every omlkit module that refers to it (a ``from .x import y``
copy as well as ``x.y``), by a wrapper that records a span: name, start,
end and parent.  A generator function gets one span per ``next``.  Spans
and counts stay in memory and are written out at the end; ``uninstall``
puts every original object back.

A layer's self time is its spans' duration minus the time of their child
spans.  The per-layer metrics of the benchmark are derived from those
aggregates by ``layer_metrics``.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import gzip
import importlib
import inspect
import json
import time
import types
from collections import Counter

MODULES = ("omlkit", "omlkit.lattice_core", "omlkit.subalgebra_posets",
           "omlkit.sachs_boolean", "omlkit.reconstruction", "omlkit.iso_lifting",
           "omlkit.functorial", "omlkit.fileio", "omlkit.cli", "omlkit.selftest")

# Constant-time helpers called millions of times from inner loops: a span
# there would time the tracer, not a layer.  Their cost stays in the caller's
# self time.
SKIP = frozenset({
    "lattice_core.bits", "lattice_core.mask_of",
    "lattice_core.FiniteOrtholattice.leq", "lattice_core.FiniteOrtholattice.meet",
    "lattice_core.FiniteOrtholattice.join", "lattice_core.FiniteOrtholattice.ocomp",
    "lattice_core.FiniteOrtholattice.commutes", "subalgebra_posets.AbstractPoset.leq",
})

CLOSURE = "lattice_core.FiniteOrtholattice.closure_mask"
ENUMERATE = "subalgebra_posets.enumerate_subalgebras"
IS_BOOLEAN = "lattice_core.FiniteOrtholattice.is_boolean"
LATTICE_INIT = "lattice_core.FiniteOrtholattice.__init__"
POSET_INIT = "subalgebra_posets.AbstractPoset.__init__"
ORTHOCLOSED = "reconstruction.orthoclosed_lattice"
RECOGNIZE = "iso_lifting.recognize_boolean_node"
POSET_ISOS = "subalgebra_posets.poset_isomorphisms"
LATTICE_ISOS = "lattice_core.isomorphisms"
HOMS = "functorial.enumerate_homs"
PARSERS = ("fileio.parse_lattice", "fileio.parse_poset", "fileio.parse_morphism",
           "fileio.parse_node_map")
DUMPERS = ("fileio.dump_lattice", "fileio.dump_poset", "fileio.dump_morphism",
           "fileio.dump_morphisms", "fileio.dump_node_map_labels", "fileio.poset_to_dot")


def _count_accepted(extra, args, kwargs, result):
    extra["accepted"] += bool(result)


def _count_nodes(extra, args, kwargs, result):
    extra["nodes"] += result.size


def _count_homs(extra, args, kwargs, result):
    extra["homs"] += len(result)


def _count_scan(extra, args, kwargs, result):
    frame = args[0] if args else kwargs["frame"]
    extra["scanned"] += 1 << frame.size
    extra["closed"] += result.n


def _count_bytes_in(extra, args, kwargs, result):
    extra["bytes"] += len(args[0])


def _count_bytes_out(extra, args, kwargs, result):
    extra["bytes"] += len(result)


# Work counts read off arguments and results, outside the span.
EXTRAS = {
    IS_BOOLEAN: _count_accepted, RECOGNIZE: _count_accepted, ENUMERATE: _count_nodes,
    HOMS: _count_homs, ORTHOCLOSED: _count_scan,
    **{key: _count_bytes_in for key in PARSERS},
    **{key: _count_bytes_out for key in DUMPERS},
}


def span_key(fn) -> str:
    module = fn.__module__.removeprefix("omlkit.")
    return f"{module}.{fn.__qualname__}"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []     # [key, start, end, parent span index]
        self.stats: dict[str, list] = {}   # key -> [calls, total_s, self_s]
        self.extras: dict[str, Counter] = {}
        self._stack: list[int] = []
        self._child_s: list[float] = []
        self._patches: list[tuple] = []
        self._wrappers: dict[int, object] = {}

    # -- spans ------------------------------------------------------------------

    def _enter(self, key: str) -> int:
        index = len(self.spans)
        self.spans.append([key, time.perf_counter(), 0.0,
                           self._stack[-1] if self._stack else -1])
        self._stack.append(index)
        self._child_s.append(0.0)
        return index

    def _exit(self, index: int):
        end = time.perf_counter()
        span = self.spans[index]
        span[2] = end
        self._stack.pop()
        child = self._child_s.pop()
        duration = end - span[1]
        stat = self.stats.get(span[0])
        if stat is None:
            stat = self.stats[span[0]] = [0, 0.0, 0.0]
        stat[0] += 1
        stat[1] += duration
        stat[2] += duration - child
        if self._child_s:
            self._child_s[-1] += duration

    def _wrap(self, fn):
        if id(fn) in self._wrappers:
            return self._wrappers[id(fn)]
        key = span_key(fn)
        if key in SKIP:
            wrapper = fn
        elif inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return self._traced_generator(key, fn(*args, **kwargs))
        else:
            hook = EXTRAS.get(key)

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                index = self._enter(key)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self._exit(index)
                if hook is not None:
                    hook(self.extras.setdefault(key, Counter()), args, kwargs, result)
                return result
        self._wrappers[id(fn)] = wrapper
        return wrapper

    def _traced_generator(self, key, gen):
        try:
            while True:
                index = self._enter(key)
                try:
                    value = next(gen)
                except StopIteration:
                    return
                finally:
                    self._exit(index)
                yield value
        finally:
            gen.close()

    # -- install / uninstall ------------------------------------------------------

    def _patch(self, owner, name: str, new):
        original = vars(owner)[name]
        if new is not original:
            self._patches.append((owner, name, original))
            setattr(owner, name, new)

    def _patch_class(self, cls):
        wrap_init = not (dataclasses.is_dataclass(cls) or issubclass(cls, (BaseException, enum.Enum)))
        for name, value in list(vars(cls).items()):
            if name.startswith("_") and not (name == "__init__" and wrap_init):
                continue
            if isinstance(value, types.FunctionType):
                self._patch(cls, name, self._wrap(value))
            elif isinstance(value, (classmethod, staticmethod)):
                inner = self._wrap(value.__func__)
                if inner is not value.__func__:
                    self._patch(cls, name, type(value)(inner))

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        seen_classes = set()
        for module_name in MODULES:
            module = importlib.import_module(module_name)
            for name, value in list(vars(module).items()):
                if name.startswith("_") or not getattr(value, "__module__", "").startswith("omlkit"):
                    continue
                if isinstance(value, types.FunctionType):
                    self._patch(module, name, self._wrap(value))
                elif isinstance(value, type) and value not in seen_classes:
                    seen_classes.add(value)
                    self._patch_class(value)

    def uninstall(self):
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # -- output -----------------------------------------------------------------------

    def aggregate(self) -> dict:
        """Per-key calls, total and self seconds, extra counts, and the number
        of spans per (parent key, child key) edge."""
        out = {key: {"calls": c, "total_s": t, "self_s": s, **self.extras.get(key, {})}
               for key, (c, t, s) in self.stats.items()}
        edges = Counter()
        for key, _, _, parent in self.spans:
            if parent >= 0:
                edges[self.spans[parent][0] + ">" + key] += 1
        return {"keys": out, "edges": dict(edges)}

    def write_spans(self, path: str):
        names = sorted({span[0] for span in self.spans})
        ids = {name: i for i, name in enumerate(names)}
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({"names": names,
                       "spans": [[ids[k], s, e, p] for k, s, e, p in self.spans]}, fh)


def merge(aggregates) -> dict:
    """Sum several ``Tracer.aggregate`` results (one per CLI process)."""
    keys: dict = {}
    edges = Counter()
    for agg in aggregates:
        for key, fields in agg["keys"].items():
            into = keys.setdefault(key, Counter())
            into.update(fields)
        edges.update(agg["edges"])
    return {"keys": {k: dict(v) for k, v in keys.items()}, "edges": dict(edges)}


def _field(agg, key, field):
    return agg["keys"].get(key, {}).get(field, 0)


def _sum(agg, keys, field):
    return sum(_field(agg, key, field) for key in keys)


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(agg: dict, scale: float) -> dict:
    """The benchmark's per-layer metrics from one traced pass.

    Seconds are multiplied by ``scale`` (the pass's probe normalization), so
    they are reference seconds like the end-to-end timings.  Counts are exact
    and repeat between runs with the same seed.
    """
    def calls(key):
        return _field(agg, key, "calls")

    def self_s(*keys):
        return _sum(agg, keys, "self_s") * scale

    closures_in_enum = agg["edges"].get(ENUMERATE + ">" + CLOSURE, 0)
    nodes = _field(agg, ENUMERATE, "nodes")
    return {
        "lattice_core.closure_mask.calls": calls(CLOSURE),
        "lattice_core.closure_mask.self_s": self_s(CLOSURE),
        "subalgebra_posets.enumerate_subalgebras.calls": calls(ENUMERATE),
        "subalgebra_posets.enumerate_subalgebras.self_s": self_s(ENUMERATE),
        "subalgebra_posets.enumerate_subalgebras.nodes": nodes,
        "subalgebra_posets.enumerate_subalgebras.nodes_per_closure": _ratio(nodes, closures_in_enum),
        "lattice_core.is_boolean.calls": calls(IS_BOOLEAN),
        "lattice_core.is_boolean.accept_ratio": _ratio(_field(agg, IS_BOOLEAN, "accepted"), calls(IS_BOOLEAN)),
        "subalgebra_posets.poset_validate.self_s": self_s(POSET_INIT),
        "lattice_core.validate.calls": calls(LATTICE_INIT),
        "lattice_core.validate.self_s": self_s(LATTICE_INIT),
        "reconstruction.orthoclosed_lattice.self_s": self_s(ORTHOCLOSED),
        "reconstruction.orthoclosed_lattice.subsets_scanned": _field(agg, ORTHOCLOSED, "scanned"),
        "reconstruction.orthoclosed_lattice.closed_per_scanned": _ratio(
            _field(agg, ORTHOCLOSED, "closed"), _field(agg, ORTHOCLOSED, "scanned")),
        "reconstruction.classify_atoms.self_s": self_s("reconstruction.classify_atoms"),
        "reconstruction.build_frame.self_s": self_s("reconstruction.build_frame"),
        "iso_lifting.recognize_boolean_node.calls": calls(RECOGNIZE),
        "iso_lifting.recognize_boolean_node.self_s": self_s(RECOGNIZE),
        "iso_lifting.recognize_boolean_node.accept_ratio": _ratio(_field(agg, RECOGNIZE, "accepted"), calls(RECOGNIZE)),
        "subalgebra_posets.poset_isomorphisms.steps": calls(POSET_ISOS),
        "subalgebra_posets.poset_isomorphisms.self_s": self_s(POSET_ISOS),
        "sachs_boolean.partition_lattice.calls": calls("sachs_boolean.partition_lattice"),
        "sachs_boolean.partition_lattice.self_s": self_s("sachs_boolean.partition_lattice"),
        "sachs_boolean.lift_boolean_iso.calls": calls("sachs_boolean.lift_boolean_iso"),
        "sachs_boolean.lift_boolean_iso.self_s": self_s("sachs_boolean.lift_boolean_iso"),
        "iso_lifting.lift_sub_iso.self_s": self_s("iso_lifting.lift_sub_iso"),
        "iso_lifting.lift_bsub_iso.self_s": self_s("iso_lifting.lift_bsub_iso"),
        "lattice_core.isomorphisms.steps": calls(LATTICE_ISOS),
        "lattice_core.isomorphisms.self_s": self_s(LATTICE_ISOS),
        "functorial.enumerate_homs.calls": calls(HOMS),
        "functorial.enumerate_homs.homs": _field(agg, HOMS, "homs"),
        "functorial.enumerate_homs.self_s": self_s(HOMS),
        "functorial.preimage_functor.calls": calls("functorial.preimage_functor"),
        "functorial.preimage_functor.self_s": self_s("functorial.preimage_functor"),
        "lattice_core.blocks.self_s": self_s("lattice_core.FiniteOrtholattice.blocks"),
        "fileio.parse.self_s": self_s(*PARSERS),
        "fileio.parse.bytes": _sum(agg, PARSERS, "bytes"),
        "fileio.dump.self_s": self_s(*DUMPERS),
        "fileio.dump.bytes": _sum(agg, DUMPERS, "bytes"),
        "cli.main_s": _field(agg, "cli.main", "total_s") * scale,
    }
