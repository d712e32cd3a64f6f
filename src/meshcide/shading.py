"""Shading moves: single squares, adjacent pairs, simultaneous combinations,
the constructive occurrence-repair walk, and closure of meshes under all of
these.

Adding a square next to a graph point keeps the avoidance set unchanged when
the mesh around that point is permissive enough.  Only the northeast
single-square conditions and the east pair conditions are spelled out; the
other directions are obtained by conjugating the pattern with the grid
symmetry that maps the direction onto the spelled one.  That is both shorter
and safer than transcribing four condition tables by hand.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

from .perm import (
    Occurrence,
    Perm,
    apply_symmetry_perm,
    apply_symmetry_point,
    inverse_symmetry,
    is_occurrence,
    make_perm,
)
from .mesh import (
    MeshPattern,
    Square,
    occurrence_region_mask,
    square_bit,
    squares_to_mask,
)
from .diagonals import map_mask, symmetry_tables

SINGLE_DIRECTIONS = ("NE", "NW", "SE", "SW")
PAIR_DIRECTIONS = ("E", "N", "W", "S")

# Symmetry conjugating each direction onto the one with explicit conditions.
_SINGLE_TO_NE = {"NE": "id", "NW": "r", "SE": "c", "SW": "rc"}
_PAIR_TO_E = {"E": "id", "W": "r", "N": "i", "S": "ci"}


def single_candidate(point: tuple[int, int], direction: str) -> Square:
    """The square incident to a graph point on the given corner."""
    i, v = point
    return {
        "NE": (i, v),
        "NW": (i - 1, v),
        "SE": (i, v - 1),
        "SW": (i - 1, v - 1),
    }[direction]


def pair_candidate(point: tuple[int, int], direction: str) -> tuple[Square, Square]:
    """The two squares incident to a graph point on the given side."""
    i, v = point
    return {
        "E": ((i, v), (i, v - 1)),
        "W": ((i - 1, v), (i - 1, v - 1)),
        "N": ((i - 1, v), (i, v)),
        "S": ((i - 1, v - 1), (i, v - 1)),
    }[direction]


@dataclass(frozen=True)
class Assignment:
    """One chosen shadeable square or pair at one graph point."""

    point: tuple[int, int]
    kind: str  # "single" | "pair"
    direction: str
    squares: tuple[Square, ...]


@dataclass(frozen=True)
class ShadeMove:
    """A simultaneous choice: at most one assignment per graph point."""

    assignments: tuple[Assignment, ...]
    added: int  # union of all assigned squares, as a mask

    def added_squares(self, k: int) -> tuple[Square, ...]:
        from .mesh import mask_to_squares

        return mask_to_squares(k, self.added)


@lru_cache(maxsize=None)
def _ne_single_masks(k: int, i: int, v: int) -> tuple[int, int, int, int]:
    """The northeast conditions at the point (i, v) as masks: the candidate
    and the square opposite it, the two flanking squares, the squares of row
    v-1 outside columns i-1 and i, and the squares of column i-1 outside rows
    v-1 and v."""
    bit = lambda a, b: square_bit(k, a, b)
    blocked = bit(i, v) | bit(i - 1, v - 1)
    flanks = bit(i, v - 1) | bit(i - 1, v)
    row = sum(bit(x, v - 1) for x in range(k + 1) if x not in (i - 1, i))
    column = sum(bit(i - 1, y) for y in range(k + 1) if y not in (v - 1, v))
    return blocked, flanks, row, column


def _ne_single_ok(q: Perm, mask: int, i: int) -> bool:
    """Northeast single-square conditions at the graph point (i, q(i)) of the
    mesh ``mask`` over ``q``.

    Neither the candidate nor the square opposite it is shaded, the two
    flanks are not both shaded, a shaded square of row v-1 has its upper
    neighbour shaded, and a shaded square of column i-1 has its right
    neighbour shaded (outside the four squares around the point).  Square
    (a, b) sits at bit a(k+1) + b, so the upper neighbour of every square is
    one bit up and the right neighbour k+1 bits up.
    """
    k = len(q)
    blocked, flanks, row, column = _ne_single_masks(k, i, q[i - 1])
    return not (
        mask & blocked
        or mask & flanks == flanks
        or mask & row & ~(mask >> 1)
        or mask & column & ~(mask >> (k + 1))
    )


@lru_cache(maxsize=None)
def _e_pair_masks(k: int, i: int, v: int) -> tuple[int, int, int]:
    """The east pair conditions at the point (i, v) as masks: the four
    squares around the point, row v-1, and column i-1."""
    bit = lambda a, b: square_bit(k, a, b)
    around = bit(i, v) | bit(i - 1, v) | bit(i, v - 1) | bit(i - 1, v - 1)
    row = sum(bit(x, v - 1) for x in range(k + 1))
    column = sum(bit(i - 1, y) for y in range(k + 1))
    return around, row, column


def _e_pair_ok(q: Perm, mask: int, i: int) -> bool:
    """East pair conditions at the graph point (i, q(i)) of the mesh ``mask``
    over ``q``: no square around the point is shaded, rows v-1 and v agree,
    and a shaded square of column i-1 has its right neighbour shaded."""
    k = len(q)
    around, row, column = _e_pair_masks(k, i, q[i - 1])
    return not (
        mask & around
        or (mask ^ (mask >> 1)) & row
        or mask & column & ~(mask >> (k + 1))
    )


@lru_cache(maxsize=64)
def _probe_table(p: Perm, pairs: bool) -> tuple[tuple, tuple]:
    """Everything about ``p`` that the shading conditions need, computed once.

    For each direction: the byte tables and the image of ``p`` under the
    symmetry conjugating it onto the spelled-out direction.  Then, in output
    order (by graph point, then direction), one probe per direction and
    graph point: the direction's index, the point's index in the image, and
    the assignment the probe licenses together with its mask.
    """
    k = len(p)
    if pairs:
        directions, to_spelled, kind = PAIR_DIRECTIONS, _PAIR_TO_E, "pair"
    else:
        directions, to_spelled, kind = SINGLE_DIRECTIONS, _SINGLE_TO_NE, "single"
    images = []
    probes = []
    for d, direction in enumerate(directions):
        sym = to_spelled[direction]
        q = apply_symmetry_perm(sym, p)
        images.append((symmetry_tables(sym, k), q))
        back = inverse_symmetry(sym)
        for j in range(1, k + 1):
            point = apply_symmetry_point(back, k, (j, q[j - 1]))
            if pairs:
                squares = pair_candidate(point, direction)
            else:
                squares = (single_candidate(point, direction),)
            assignment = Assignment(point, kind, direction, squares)
            probes.append((point, d, j, assignment, squares_to_mask(k, squares)))
    probes.sort(key=lambda t: t[:2])
    return tuple(images), tuple(t[1:] for t in probes)


def _shadeable(p: Perm, mask: int, pairs: bool) -> list[tuple[Assignment, int]]:
    """Assignments (with their masks) addable to the mesh ``mask`` over ``p``
    without changing the avoidance set: every direction is checked against
    the spelled-out conditions in the image of its conjugating symmetry."""
    images, probes = _probe_table(p, pairs)
    ok = _e_pair_ok if pairs else _ne_single_ok
    meshes = [(q, map_mask(tables, mask)) for tables, q in images]
    return [(a, bits) for d, j, a, bits in probes if ok(*meshes[d], j)]


def shadeable_singles(pi: MeshPattern) -> list[tuple[tuple[int, int], Square, str]]:
    """(point, square, direction) for every single square addable to the mesh
    without changing the avoidance set."""
    return [
        (a.point, a.squares[0], a.direction)
        for a, _ in _shadeable(pi.perm, pi.mask, False)
    ]


def shadeable_pairs(
    pi: MeshPattern,
) -> list[tuple[tuple[int, int], tuple[Square, Square], str]]:
    """(point, square pair, direction) for every addable adjacent pair."""
    return [
        (a.point, a.squares, a.direction)
        for a, _ in _shadeable(pi.perm, pi.mask, True)
    ]


def ssl_moves(pi: MeshPattern) -> list[ShadeMove]:
    """Every simultaneous-shading move of the pattern.

    Choice functions assign to each graph point at most one of its shadeable
    singles or pairs; distinct choices adding the same square set collapse
    to one move, since only the union matters downstream.
    """
    options: list[list] = [[None] for _ in pi.perm]
    for pairs in (False, True):
        for a, bits in _shadeable(pi.perm, pi.mask, pairs):
            options[a.point[0] - 1].append((a, bits))
    seen: dict[int, ShadeMove] = {}
    for combo in itertools.product(*options):
        chosen = [c for c in combo if c is not None]
        if not chosen:
            continue
        added = 0
        for _, bits in chosen:
            added |= bits
        if added not in seen:
            assert added & pi.mask == 0
            seen[added] = ShadeMove(tuple(a for a, _ in chosen), added)
    return sorted(seen.values(), key=lambda m: (m.added.bit_count(), m.added))


# ---------------------------------------------------------------------------
# The occurrence-repair walk.

def _region_points(
    w: Perm, positions: Sequence[int], squares: frozenset[Square]
) -> list[tuple[int, int]]:
    """Host points currently inside the regions of the given squares."""
    occ = tuple(positions)
    vals = sorted(w[i - 1] for i in occ)
    width = len(occ) + 1
    pts = []
    for x in range(1, len(w) + 1):
        if x in positions:
            continue
        cell = (bisect_right(occ, x), bisect_right(vals, w[x - 1]))
        if cell in squares:
            pts.append((x, w[x - 1]))
    return pts


# For a single square the two squares flanking the candidate may not both be
# shaded, but one may be.  Taking the vertical extreme sweeps the leftover
# region points into the flank vertically adjacent to the candidate; taking
# the horizontal extreme sweeps them into the horizontally adjacent one.  The
# walk must therefore pick the extreme whose receiving flank is unshaded.
_VERTICAL_FLANK = {
    "NE": lambda i, v: (i, v - 1),
    "NW": lambda i, v: (i - 1, v - 1),
    "SE": lambda i, v: (i, v),
    "SW": lambda i, v: (i - 1, v),
}


def _pick_replacement(
    pi: MeshPattern, assignment: Assignment, pts: list[tuple[int, int]]
) -> int:
    """Extreme candidate in the move's direction; pts is x-sorted."""
    direction = assignment.direction
    if assignment.kind == "pair":
        if direction in ("E", "W"):
            return pts[-1][0] if direction == "E" else pts[0][0]
        chooser = max if direction == "N" else min
        return chooser(pts, key=lambda t: t[1])[0]
    vertical_ok = not pi.has_square(*_VERTICAL_FLANK[direction](*assignment.point))
    if vertical_ok:
        chooser = max if direction in ("NE", "NW") else min
        return chooser(pts, key=lambda t: t[1])[0]
    return pts[-1][0] if direction in ("NE", "SE") else pts[0][0]


def ssl_repair_occurrence(
    pi: MeshPattern, move: ShadeMove, w: Perm, occ: Occurrence
) -> Occurrence:
    """Convert a mesh occurrence of ``pi`` into one of the enlarged pattern.

    Walk: take the lowest-index graph point whose assigned region still holds
    host points and slide the occurrence point there to the extreme candidate
    in the move's direction; every step pushes a horizontal or vertical
    boundary line monotonically, so at most 2kn steps happen.
    """
    p = pi.perm
    k = pi.k
    n = len(w)
    occ = tuple(occ)
    if not is_occurrence(p, w, occ) or occurrence_region_mask(w, occ) & pi.mask:
        raise ValueError(f"{occ} is not a mesh occurrence of {pi} in {w}")
    plan = [
        (a, frozenset(a.squares))
        for a in sorted(move.assignments, key=lambda a: a.point[0])
    ]
    positions = list(occ)
    for _ in range(2 * k * n + 1):
        busy = None
        for assignment, squares in plan:
            pts = _region_points(w, positions, squares)
            if pts:
                busy = (assignment, pts)
                break
        if busy is None:
            break
        assignment, pts = busy
        positions[assignment.point[0] - 1] = _pick_replacement(pi, assignment, pts)
        assert positions == sorted(positions)
    else:
        raise RuntimeError("repair walk exceeded its 2kn step bound")
    result = tuple(positions)
    enlarged = pi.mask | move.added
    if not is_occurrence(p, w, result) or occurrence_region_mask(w, result) & enlarged:
        raise RuntimeError("repair walk produced an invalid occurrence")
    return result


# ---------------------------------------------------------------------------
# Machine-checkable proof steps.

@dataclass(frozen=True)
class TraceStep:
    """One re-checkable inference.  ``before``/``after`` are mesh masks over
    ``perm``'s grid; the pair is asserted coincident by ``rule``."""

    rule: str  # SL | SSL | CLOSURE | GAMMA | SYMMETRY | VINCULAR | ISOLATING | CLASSICAL
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


def trace_step_to_json(step: TraceStep) -> dict:
    from .mesh import mask_to_squares, mesh_pattern_to_json

    k = len(step.perm)
    sq = lambda mask: [[a, b] for a, b in mask_to_squares(k, mask)]
    obj: dict = {"rule": step.rule}
    if step.rule in ("SL", "SSL"):
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
    elif step.rule == "SYMMETRY":
        sym, src_perm, src_before, src_after = step.detail
        obj["symmetry"] = sym
        obj["of"] = {
            "perm": list(src_perm),
            "pair": [
                [[a, b] for a, b in mask_to_squares(len(src_perm), src_before)],
                [[a, b] for a, b in mask_to_squares(len(src_perm), src_after)],
            ],
        }
        obj["pair"] = [sq(step.before), sq(step.after)]
    else:  # GAMMA / VINCULAR / ISOLATING / CLASSICAL relate a pair directly
        obj["pair"] = [sq(step.before), sq(step.after)]
        if step.detail:
            obj["detail"] = list(step.detail)
    return obj


def trace_to_json(trace: ProofTrace) -> list[dict]:
    return [trace_step_to_json(s) for s in trace.steps]


# ---------------------------------------------------------------------------
# Closure of a set of meshes under simultaneous shading and sandwiching.

class UnionFind:
    """Plain dict-backed union-find over hashable items."""

    def __init__(self) -> None:
        self.parent: dict = {}

    def find(self, x):
        parent = self.parent
        if x not in parent:
            parent[x] = x
            return x
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(self, x, y) -> bool:
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return False
        if ry < rx:  # keep the smaller representative, for determinism
            rx, ry = ry, rx
        self.parent[ry] = rx
        return True


@dataclass(frozen=True)
class ClosureClass:
    meshes: tuple[int, ...]
    steps: tuple[TraceStep, ...]


@dataclass(frozen=True)
class ClosureResult:
    perm: Perm
    classes: tuple[ClosureClass, ...]
    complete: bool

    def class_of(self, mask: int) -> ClosureClass | None:
        for cls in self.classes:
            if mask in cls.meshes:
                return cls
        return None


def _as_mask(k: int, mesh) -> int:
    if isinstance(mesh, int):
        if not 0 <= mesh < 1 << (k + 1) ** 2:
            raise ValueError(f"mesh mask {mesh} out of range for grid size {k}")
        return mesh
    return squares_to_mask(k, mesh)


def ssl_closure(
    p: Perm, seeds: Iterable, budget: int | None = None
) -> ClosureResult:
    """Partition every mesh reachable from the seeds into proven-coincident
    groups.

    Two kinds of inference alternate until neither moves: every
    simultaneous-shading move joins a mesh with its enlargement, and any
    mesh sandwiched between two meshes already in one group joins that group.
    Groups merged by sandwiching can enable new shading edges, so newly seen
    meshes re-enter the expansion queue.  ``budget`` caps the number of
    meshes expanded; exceeding it returns the partial partition flagged
    incomplete.
    """
    p = make_perm(p)
    k = len(p)
    known = {_as_mask(k, s) for s in seeds}
    if not known:
        raise ValueError("at least one seed mesh is required")
    uf = UnionFind()
    for m in known:
        uf.find(m)
    steps: list[TraceStep] = []
    frontier = deque(sorted(known))
    expanded: set[int] = set()
    spent = 0
    complete = True

    def expand_all() -> None:
        nonlocal spent, complete
        while frontier:
            mesh = frontier.popleft()
            if mesh in expanded:
                continue
            if budget is not None and spent >= budget:
                complete = False
                frontier.clear()
                return
            spent += 1
            expanded.add(mesh)
            for move in ssl_moves(MeshPattern(p, mesh)):
                grown = mesh | move.added
                if uf.union(mesh, grown):
                    steps.append(TraceStep("SSL", p, mesh, grown, move.assignments))
                if grown not in known:
                    known.add(grown)
                    frontier.append(grown)

    def sandwich_pass() -> bool:
        changed = False
        components: dict[int, list[int]] = {}
        for m in known:
            components.setdefault(uf.find(m), []).append(m)
        for root in sorted(components):
            members = sorted(components[root])
            for lo, hi in itertools.combinations(members, 2):
                if lo & hi != lo:
                    continue
                diff = hi & ~lo
                sub = diff
                while True:
                    mid = lo | sub
                    if mid not in known or uf.find(mid) != uf.find(lo):
                        steps.append(TraceStep("CLOSURE", p, lo, mid, (lo, hi)))
                        uf.union(mid, lo)
                        if mid not in known:
                            known.add(mid)
                            frontier.append(mid)
                        changed = True
                    if sub == 0:
                        break
                    sub = (sub - 1) & diff
        return changed

    while True:
        expand_all()
        if not complete:
            break
        if not sandwich_pass() and not frontier:
            break

    groups: dict[int, list[int]] = {}
    for m in known:
        groups.setdefault(uf.find(m), []).append(m)
    classes = []
    for root in sorted(groups):
        meshes = tuple(sorted(groups[root]))
        mesh_set = set(meshes)
        relevant = tuple(
            s for s in steps if s.before in mesh_set or s.after in mesh_set
        )
        classes.append(ClosureClass(meshes, relevant))
    return ClosureResult(p, tuple(classes), complete)
