"""Span tracer for the traced benchmark run.

The tracer wraps public meshcide functions from outside the library: each
wrapped call (or, for a generator, each resumption) is a span.  Spans are
aggregated in memory as they close, per function group and per
(parent group, group) edge, and written out once the run ends; nothing is
written while the workload runs.

Self time is a span's duration minus the time covered by its child spans.
A group's inclusive time counts only its outermost spans, so a group whose
functions call each other (``apply_symmetry_mesh`` -> ``apply_symmetry_mask``)
is not counted twice.  Small helpers that are not wrapped (``has_square``,
``mask_to_squares``, ...) are charged to the nearest wrapped caller.
"""

from __future__ import annotations

import functools
import inspect
import time
from dataclasses import dataclass, field


@dataclass(eq=False)
class Group:
    layer: str
    name: str
    calls: int = 0
    items: int = 0
    self_s: float = 0.0
    covered_s: float = 0.0
    active: int = 0
    extra: dict = field(default_factory=dict)
    # parent group (None at the top) -> [spans, total_s, self_s]
    parents: dict = field(default_factory=dict)


class Tracer:
    def __init__(self) -> None:
        self.groups: dict[str, Group] = {}
        self.counts: dict[str, int] = {}
        # Open spans as [start, time covered by children, group]; the root
        # frame stands for the caller outside every span and is never closed.
        self._stack: list[list] = [[0.0, 0.0, None]]
        self._patches: list[tuple[object, str, object]] = []

    def group(self, layer: str, name: str) -> Group:
        key = f"{layer}.{name}"
        if key not in self.groups:
            self.groups[key] = Group(layer, name)
        return self.groups[key]

    # -- span bookkeeping ----------------------------------------------------

    def _close(self, frame: list, end: float) -> None:
        start, child, grp = frame
        dur = end - start
        own = dur - child
        grp.self_s += own
        grp.active -= 1
        if not grp.active:
            grp.covered_s += dur
        parent = self._stack[-1]
        parent[1] += dur
        edge = grp.parents.get(parent[2])
        if edge is None:
            grp.parents[parent[2]] = [1, dur, own]
        else:
            edge[0] += 1
            edge[1] += dur
            edge[2] += own

    def wrap(self, fn, grp: Group, counter=None):
        """Span per call; ``counter(grp, args, result)`` records work counts."""
        stack, clock, close = self._stack, time.perf_counter, self._close

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            grp.calls += 1
            grp.active += 1
            frame = [0.0, 0.0, grp]
            stack.append(frame)
            frame[0] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                close(frame, end)
            if counter is not None:
                counter(grp, args, result)
            return result

        return wrapper

    def wrap_generator(self, fn, grp: Group):
        """Span per resumption; ``items`` counts the values yielded."""
        stack, clock, close = self._stack, time.perf_counter, self._close

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            grp.calls += 1
            gen = fn(*args, **kwargs)
            while True:
                grp.active += 1
                frame = [0.0, 0.0, grp]
                stack.append(frame)
                frame[0] = clock()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    end = clock()
                    stack.pop()
                    close(frame, end)
                grp.items += 1
                yield item

        return wrapper

    def count_calls(self, fn, key: str):
        """Counter without a span, for constructors too hot to time."""
        counts = self.counts
        counts.setdefault(key, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching ------------------------------------------------------------

    def patch_function(self, modules, original, wrapper) -> int:
        """Rebind ``original`` to ``wrapper`` in every module namespace that
        holds it, including names re-bound through ``from .x import y``."""
        hits = 0
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, name, value))
                    setattr(mod, name, wrapper)
                    hits += 1
        if hits == 0:
            raise LookupError(f"{original!r} is bound in no module")
        return hits

    def patch_attribute(self, owner, name: str, wrapper) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, value in reversed(self._patches):
            setattr(owner, name, value)
        self._patches.clear()

    def self_total(self) -> float:
        return sum(g.self_s for g in self.groups.values())

    def dump(self) -> dict:
        return {
            "groups": {
                key: {
                    "calls": g.calls,
                    "items": g.items,
                    "self_s": g.self_s,
                    "inclusive_s": g.covered_s,
                    **g.extra,
                }
                for key, g in sorted(self.groups.items())
            },
            "edges": [
                {
                    "parent": f"{p.layer}.{p.name}" if p else None,
                    "span": key,
                    "spans": n,
                    "total_s": t,
                    "self_s": own,
                }
                for key, g in sorted(self.groups.items())
                for p, (n, t, own) in g.parents.items()
            ],
            "counts": dict(sorted(self.counts.items())),
        }


def _count_len(grp: Group, args, result) -> None:
    grp.items += len(result)


def _count_closure(grp: Group, args, result) -> None:
    grp.items += sum(len(c.meshes) for c in result.classes)
    if not result.complete:
        grp.extra["incomplete"] = grp.extra.get("incomplete", 0) + 1


def _count_trace_steps(grp: Group, args, result) -> None:
    grp.items += len(args[0].steps)


def _count_verdict(grp: Group, args, result) -> None:
    key = f"verdict.{result.status}"
    grp.extra[key] = grp.extra.get(key, 0) + 1


GENERATOR = "generator"

# (module, function, layer, group, work counter).  These are the boundaries
# of the six modules; MeshPattern construction is counted without a span.
PLAN = (
    ("perm", "iter_classical_occurrences", "perm", "occurrence", GENERATOR),
    ("mesh", "iter_mesh_occurrences", "mesh", "accepted", GENERATOR),
    ("mesh", "occurrence_region_mask", "mesh", "region_scan", None),
    ("mesh", "contains", "mesh", "contains", None),
    ("mesh", "host_region_masks", "mesh", "host_table", _count_len),
    ("mesh", "fingerprints_many", "mesh", "fingerprint", None),
    ("diagonals", "apply_symmetry_mask", "diagonals", "symmetry", None),
    ("diagonals", "apply_symmetry_mesh", "diagonals", "symmetry", None),
    ("diagonals", "enclosed_diagonals", "diagonals", "enc", None),
    ("diagonals", "enc_witness", "diagonals", "witness", None),
    ("shading", "shadeable_singles", "shading", "shadeable", None),
    ("shading", "shadeable_pairs", "shading", "shadeable", None),
    ("shading", "ssl_moves", "shading", "ssl_moves", _count_len),
    ("shading", "ssl_closure", "shading", "closure", _count_closure),
    ("coincidence", "containment_signatures", "coincidence", "signature", None),
    ("coincidence", "containment_signatures_parallel", "coincidence", "signature", None),
    ("coincidence", "partition_meshes", "coincidence", "partition", None),
    ("coincidence", "classify_family", "coincidence", "classify", None),
    ("coincidence", "verify_trace", "coincidence", "verify", _count_trace_steps),
    ("coincidence", "decide_coincidence", "coincidence", "decide", _count_verdict),
    ("coincidence", "partition_records", "coincidence", "records", None),
    ("coincidence", "load_partition_cache", "coincidence", "cache_load", None),
    ("coincidence", "write_partition_cache", "coincidence", "cache_write", None),
    ("cli", "main", "cli", "main", None),
)


def install(tracer: Tracer, meshcide) -> None:
    """Wrap every function in PLAN wherever a meshcide module binds it."""
    import importlib

    names = ("perm", "mesh", "diagonals", "shading", "coincidence", "cli")
    mods = {n: importlib.import_module(f"meshcide.{n}") for n in names}
    namespaces = (meshcide, *mods.values())
    for module, name, layer, group, counter in PLAN:
        original = getattr(mods[module], name)
        grp = tracer.group(layer, group)
        if counter == GENERATOR:
            if not inspect.isgeneratorfunction(original):
                raise TypeError(f"meshcide.{module}.{name} is no longer a generator")
            wrapper = tracer.wrap_generator(original, grp)
        else:
            wrapper = tracer.wrap(original, grp, counter)
        tracer.patch_function(namespaces, original, wrapper)
    pattern = mods["mesh"].MeshPattern
    tracer.patch_attribute(
        pattern,
        "__post_init__",
        tracer.count_calls(pattern.__post_init__, "mesh.pattern_builds"),
    )
