"""Machine-checkable proofs of coincidence: the step and trace records, their
JSON, the union-find that joins their meshes, the classical and gamma rules,
and ``verify_trace``, which replays a trace step by step.

The prover (``shading``, ``coincidence``) imports from here, and this module
reaches back into it for one thing only: an SSL step is licensed by
``shading.shadeable_assignments``, looked up through the module at call time
because ``shading`` imports this one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

from .perm import SYMMETRIES, Perm, apply_symmetry_perm, make_perm
from .mesh import (
    MeshPattern,
    check_mask,
    mask_to_squares,
    mesh_pattern_to_json,
    squares_to_mask,
)
from .diagonals import apply_symmetry_mesh, _enclosed


class TraceStep(NamedTuple):
    """One re-checkable inference.  ``before``/``after`` are mesh masks over
    ``perm``'s grid; the pair is asserted coincident by ``rule``."""

    rule: str  # SSL | CLOSURE | GAMMA | CLASSICAL
    perm: Perm
    before: int
    after: int
    detail: tuple = ()


@dataclass(frozen=True)
class ProofTrace:
    perm: Perm
    source: int
    target: int
    steps: tuple[TraceStep, ...]


def trace_to_json(trace: ProofTrace) -> list[dict]:
    """One object per step: its ``rule``, then for SSL the mesh it grows
    (``from``), the squares it ``added`` and its ``assignments``; for CLOSURE
    the ``mesh`` joined and the two meshes it lies ``between``; for GAMMA and
    CLASSICAL the ``pair`` it relates, and a GAMMA step's ``detail``."""
    steps = []
    for step in trace.steps:
        k = len(step.perm)
        sq = lambda mask: [[a, b] for a, b in mask_to_squares(k, mask)]
        obj: dict = {"rule": step.rule}
        if step.rule == "SSL":
            obj["from"] = mesh_pattern_to_json(MeshPattern(step.perm, step.before))
            obj["added"] = sq(step.after & ~step.before)
            obj["assignments"] = [
                {
                    "point": list(a.point),
                    "shape": a.kind,
                    "dir": a.direction,
                    "squares": [[x, y] for x, y in a.squares],
                }
                for a in step.detail
            ]
        elif step.rule == "CLOSURE":
            lo, hi = step.detail
            obj["mesh"] = sq(step.after)
            obj["between"] = [sq(lo), sq(hi)]
        else:  # GAMMA / CLASSICAL relate a pair directly
            obj["pair"] = [sq(step.before), sq(step.after)]
            if step.detail:
                obj["detail"] = list(step.detail)
        steps.append(obj)
    return steps


class UnionFind:
    """Dict-backed union-find over comparable hashable items, rooted at each
    class's least item.  A root whose class has two or more items also keeps
    their list in ``members``; a singleton has none, so it costs nothing
    until it first merges."""

    def __init__(self) -> None:
        self.parent: dict = {}
        self.members: dict = {}

    def find(self, x):
        parent = self.parent
        root = parent.setdefault(x, x)
        if root == x:
            return x
        up = parent[root]
        while up != root:
            root, up = up, parent[up]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def link(self, rx, ry):
        """Merge the classes of two distinct roots; returns the new root."""
        if ry < rx:  # keep the smaller representative, for determinism
            rx, ry = ry, rx
        self.parent[ry] = rx
        members = self.members
        kept = members.pop(rx, None) or [rx]
        merged = members.pop(ry, None) or [ry]
        if len(kept) < len(merged):
            kept, merged = merged, kept
        kept += merged  # the shorter list moves into the longer
        members[rx] = kept
        return rx


# ---------------------------------------------------------------------------
# Pairwise proof rules.  Each returns trace steps or None; None never means
# "not coincident", only "this rule does not apply".

GAMMA_1 = MeshPattern((1, 2), squares_to_mask(2, ((0, 1), (0, 2), (1, 1), (1, 2), (2, 0))))
GAMMA_2 = MeshPattern((1, 2), squares_to_mask(2, ((0, 2), (1, 0), (1, 1), (2, 0), (2, 1))))


def classical_rule(pi: MeshPattern, pi2: MeshPattern) -> list[TraceStep] | None:
    """Both meshes entirely superfluous: each pattern equals its classical core."""
    if pi.perm != pi2.perm:
        return None
    if _enclosed(pi.perm, pi.mask) or _enclosed(pi.perm, pi2.mask):
        return None
    return [TraceStep("CLASSICAL", pi.perm, pi.mask, pi2.mask)]


@lru_cache(maxsize=64)
def gamma_steps(p: Perm) -> tuple[TraceStep, ...]:
    """The gamma pairs over ``p``, one step per symmetric orientation in
    ``SYMMETRIES`` order, with the symmetry as its detail: the pair whose
    containment means sum-decomposability, the one length-2 coincidence
    beyond shading."""
    steps = []
    for sym in SYMMETRIES:
        if apply_symmetry_perm(sym, GAMMA_1.perm) == p:
            g1, g2 = (apply_symmetry_mesh(sym, g) for g in (GAMMA_1, GAMMA_2))
            steps.append(TraceStep("GAMMA", p, g1.mask, g2.mask, (sym,)))
    return tuple(steps)


def gamma_rule(pi: MeshPattern, pi2: MeshPattern) -> list[TraceStep] | None:
    """The gamma step for the pair, in its first orientation that fits."""
    pair = {pi.mask, pi2.mask}
    for step in gamma_steps(pi.perm) if pi.perm == pi2.perm else ():
        if {step.before, step.after} == pair:
            return [TraceStep("GAMMA", pi.perm, pi.mask, pi2.mask, step.detail)]
    return None


# ---------------------------------------------------------------------------
# Trace verification: replay every step, rechecking its precondition.

def _well_formed(perm, *masks) -> bool:
    """Is ``perm`` a permutation tuple, and is every mask one over its grid?"""
    try:
        make_perm(perm)
        check_mask(len(perm), *masks)
    except (TypeError, ValueError):
        return False
    return isinstance(perm, tuple)


def verify_trace(trace: ProofTrace) -> bool:
    """Recheck every step of a proof trace and its final connectivity.  A
    malformed trace or step (not a ``ProofTrace``, steps that are not
    ``TraceStep``s, no permutation or not the trace's, a mesh outside the
    grid, or a detail of the wrong shape) fails like any unsound one."""
    from . import shading  # imports this module, so it is reached at call time

    if not isinstance(trace, ProofTrace) or not _well_formed(
        trace.perm, trace.source, trace.target
    ):
        return False
    p = trace.perm
    try:
        steps = iter(trace.steps)
    except TypeError:  # no steps at all, not even an empty tuple
        return False
    uf = UnionFind()
    # the assignments each mesh licenses, with their masks, probed once
    licensed: dict[int, dict] = {}

    for step in steps:
        # a plain tuple compares equal to a TraceStep but has no fields
        if not isinstance(step, TraceStep):
            return False
        if step.perm != p or not _well_formed(step.perm, step.before, step.after):
            return False
        if step.rule == "SSL":
            if not isinstance(step.detail, tuple):
                return False
            # every assignment must be one the mesh licenses, whole
            if step.before not in licensed:
                licensed[step.before] = dict(shading.shadeable_assignments(p, step.before))
            valid = licensed[step.before]
            union = 0
            points = set()
            for a in step.detail:
                try:
                    bits = valid.get(a)
                except TypeError:  # an unhashable look-alike
                    return False
                if bits is None or a.point in points:
                    return False
                points.add(a.point)
                union |= bits
            if union != step.after & ~step.before or step.after != step.before | union:
                return False
        elif step.rule == "CLOSURE":
            detail = step.detail
            if not (isinstance(detail, tuple) and len(detail) == 2):
                return False
            if not _well_formed(p, *detail):
                return False
            lo, hi = detail
            if lo & step.after != lo or step.after & hi != step.after:
                return False
            if uf.find(lo) != uf.find(hi):
                return False
        elif step.rule == "CLASSICAL":
            pair = MeshPattern(p, step.before), MeshPattern(p, step.after)
            if [step] != classical_rule(*pair):
                return False
        elif step.rule == "GAMMA":
            # the partition logs the pair once per orientation, so any of
            # them is a valid detail
            pair = {step.before, step.after}
            if not any(
                g.detail == step.detail and {g.before, g.after} == pair
                for g in gamma_steps(p)
            ):
                return False
        else:
            return False
        root, other = uf.find(step.before), uf.find(step.after)
        if root != other:
            uf.link(root, other)
    return uf.find(trace.source) == uf.find(trace.target)
