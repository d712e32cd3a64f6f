"""Shading moves: single squares, adjacent pairs, simultaneous combinations,
the constructive occurrence-repair walk, and closure of meshes under all of
these.

Adding a square next to a graph point keeps the avoidance set unchanged when
the mesh around that point is permissive enough.  Only the northeast
single-square conditions and the east pair conditions are spelled out; the
other directions are obtained by conjugating the pattern with the grid
symmetry that maps the direction onto the spelled one.  That is both shorter
and safer than transcribing four condition tables by hand.  Conjugation
happens once per pattern, when its probes are compiled: every condition is
pulled back into the pattern's own grid, where it is a few masks.  A mesh's
moves depend only on which probes pass, so a closure memoises them on that
vector, and it tests the probes for a whole frontier of meshes at once on
bit-slices, one big integer per grid square.
"""

from __future__ import annotations

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
    squares_to_mask,
)
from .diagonals import apply_symmetry_square

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


# ---------------------------------------------------------------------------
# Compiled probes.  A probe is one direction at one graph point.  Its
# conditions say that some squares are unshaded (``blocked``), that some are
# not all shaded (``flanks``), and that every shaded square of a line has its
# neighbour at one fixed offset shaded.  Square (a, b) sits at bit a(k+1) + b,
# so a neighbour offset is a shift of the mask, and the lines of all four
# offsets fit beside the blocked squares in one mask over a five-grid "state":
# grid 0 is the mesh, and grid g holds the shaded squares whose neighbour at
# offset _offsets(k)[g - 1] is unshaded.


def _offsets(k: int) -> tuple[int, int, int, int]:
    """Bit offsets of the upper, lower, right and left neighbours."""
    return (1, -1, k + 1, -(k + 1))


def _ne_single_conditions(k: int, i: int, v: int) -> tuple:
    """The northeast single-square conditions at the point (i, v), square by
    square: neither the candidate nor the square opposite it is shaded, the
    two flanks are not both shaded, a shaded square of row v-1 has its upper
    neighbour shaded, and a shaded square of column i-1 has its right
    neighbour shaded (outside the four squares around the point)."""
    blocked = [(i, v), (i - 1, v - 1)]
    flanks = [(i, v - 1), (i - 1, v)]
    row = [(x, v - 1) for x in range(k + 1) if x not in (i - 1, i)]
    column = [(i - 1, y) for y in range(k + 1) if y not in (v - 1, v)]
    return blocked, flanks, ((row, (0, 1)), (column, (1, 0)))


def _e_pair_conditions(k: int, i: int, v: int) -> tuple:
    """The east pair conditions at the point (i, v): no square around the
    point is shaded, rows v-1 and v agree (a shaded square of either has its
    neighbour in the other shaded), and a shaded square of column i-1 has
    its right neighbour shaded."""
    blocked = [(i, v), (i - 1, v), (i, v - 1), (i - 1, v - 1)]
    lower = [(x, v - 1) for x in range(k + 1)]
    upper = [(x, v) for x in range(k + 1)]
    column = [(i - 1, y) for y in range(k + 1)]
    return blocked, [], ((lower, (0, 1)), (upper, (0, -1)), (column, (1, 0)))


def _pull_back(k: int, back: str, line: list[Square], offset: Square) -> int:
    """A line of the spelled-out grid with its neighbour offset, mapped into
    the pattern's grid by ``back``: the line's bits, placed in the state grid
    of the offset its squares' neighbours have there.  The symmetries are
    affine, so that offset is the same for every square; anything else is an
    ``AssertionError``."""
    if not line:
        return 0
    width = k + 1

    def index(square: Square) -> int:
        a, b = apply_symmetry_square(back, k, square)
        return a * width + b

    da, db = offset
    shifts = {index((a + da, b + db)) - index((a, b)) for a, b in line}
    if len(shifts) != 1 or not shifts <= set(_offsets(k)):
        raise AssertionError(
            f"symmetry {back!r} maps the neighbour offset {offset} onto the "
            f"bit shifts {sorted(shifts)}, not onto one neighbour offset"
        )
    grid = _offsets(k).index(shifts.pop()) + 1
    return sum(1 << index(square) for square in line) << grid * width * width


def _bit_indices(mask: int) -> tuple[int, ...]:
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


@lru_cache(maxsize=64)
def _compiled(p: Perm) -> tuple[tuple, ...]:
    """Every probe of ``p`` in output order (by graph point; singles, then
    pairs; by direction), with its conditions pulled back from the
    spelled-out direction into ``p``'s own grid.

    A probe is ``(assignment, added, forbid, flanks, forbid_at,
    flanks_at)``: the assignment it licenses and its mask, the state bits
    that must all be clear, the flanks (0 for a pair, which has none), and
    the bit indices of ``forbid`` and of ``flanks``, for the batch engine.
    """
    k = len(p)
    keyed = []
    for rank, (kind, directions, to_spelled, conditions) in enumerate(
        (
            ("single", SINGLE_DIRECTIONS, _SINGLE_TO_NE, _ne_single_conditions),
            ("pair", PAIR_DIRECTIONS, _PAIR_TO_E, _e_pair_conditions),
        )
    ):
        for d, direction in enumerate(directions):
            sym = to_spelled[direction]
            back = inverse_symmetry(sym)
            pull = lambda squares: squares_to_mask(
                k, [apply_symmetry_square(back, k, s) for s in squares]
            )
            for j, v in enumerate(apply_symmetry_perm(sym, p), 1):
                point = apply_symmetry_point(back, k, (j, v))
                if kind == "pair":
                    squares = pair_candidate(point, direction)
                else:
                    squares = (single_candidate(point, direction),)
                blocked, flanks, lines = conditions(k, j, v)
                forbid = pull(blocked)
                for line, offset in lines:
                    forbid |= _pull_back(k, back, line, offset)
                flank_mask = pull(flanks)
                indices = (_bit_indices(forbid), _bit_indices(flank_mask))
                assignment = Assignment(point, kind, direction, squares)
                probe = (assignment, squares_to_mask(k, squares), forbid, flank_mask, *indices)
                keyed.append(((point, rank, d), probe))
    keyed.sort(key=lambda t: t[0])
    return tuple(probe for _, probe in keyed)


def _option_vector(p: Perm, mask: int) -> bytes:
    """Byte j is 1 when probe j of ``p`` passes on the mesh ``mask``."""
    k = len(p)
    size = (k + 1) ** 2
    state = mask
    for grid, offset in enumerate(_offsets(k), 1):
        neighbours = mask >> offset if offset > 0 else mask << -offset
        state |= (mask & ~neighbours) << grid * size
    return bytes(
        not (state & forbid or flanks and mask & flanks == flanks)
        for _, _, forbid, flanks, _, _ in _compiled(p)
    )


_PASSED = bytes.maketrans(b"01", b"\1\0")


def _batch_vectors(p: Perm, batch: Sequence[int]) -> bytes:
    """The option vectors of a batch of meshes, concatenated in batch order.

    The batch is bit-sliced: one big integer per grid square, whose bit t
    says whether mesh t shades that square, so each probe is tested on the
    whole batch with one OR per forbidden state bit.
    """
    k = len(p)
    size = (k + 1) ** 2
    text = "".join(format(mesh, f"0{size}b") for mesh in batch)
    squares = [int(text[size - 1 - s :: size][::-1], 2) for s in range(size)]
    del text
    state = list(squares)
    for offset in _offsets(k):
        state += [
            squares[s] & ~squares[s + offset] if 0 <= s + offset < size else 0
            for s in range(size)
        ]
    probes = _compiled(p)
    count = len(probes)
    failed = bytearray(len(batch) * count)
    spec = f"0{len(batch)}b"
    for j, (_, _, _, _, forbid_at, flanks_at) in enumerate(probes):
        fail = 0
        for i in forbid_at:
            fail |= state[i]
        if flanks_at:
            both = -1
            for i in flanks_at:
                both &= squares[i]
            fail |= both
        failed[j::count] = format(fail, spec)[::-1].encode()
    return bytes(failed).translate(_PASSED)


def _moves(p: Perm, vector: bytes) -> tuple[ShadeMove, ...]:
    """The moves of :func:`ssl_moves` for a mesh whose probes pass as
    ``vector`` says; they depend on nothing else."""
    options: list[list] = [[] for _ in p]
    for (assignment, bits, *_), passed in zip(_compiled(p), vector):
        if passed:
            options[assignment.point[0] - 1].append((assignment, bits))
    # Choices grow point by point in product order, no assignment first, and
    # only the first choice of each union is kept: a later choice with the
    # same union, extended by any suffix, comes after the first one
    # extended by that suffix.
    first: dict[int, tuple[Assignment, ...]] = {0: ()}
    for point_options in options:
        grown: dict[int, tuple[Assignment, ...]] = {}
        for added, chosen in first.items():
            grown.setdefault(added, chosen)
            for assignment, bits in point_options:
                if added | bits not in grown:
                    grown[added | bits] = chosen + (assignment,)
        first = grown
    del first[0]
    moves = (ShadeMove(chosen, added) for added, chosen in first.items())
    return tuple(sorted(moves, key=lambda m: (m.added.bit_count(), m.added)))


def _disjoint(p: Perm, mask: int, moves: tuple[ShadeMove, ...]) -> tuple[ShadeMove, ...]:
    """The moves of the mesh ``mask``, checked to add only unshaded squares."""
    for move in moves:
        if move.added & mask:
            raise AssertionError(
                f"a shading move adds shaded squares to mesh {mask} over {p}"
            )
    return moves


# Below this many meshes, probing each mesh on its own beats slicing the
# batch: a bit-sliced batch of 24-40 probes costs about 60-170 us whatever
# its size, against about 8 us per mesh probed alone, at k = 3 to 5.
_SLICED_BATCH_MIN = 12


def _frontier_moves(
    p: Perm, batch: Sequence[int], memo: dict[bytes, tuple[ShadeMove, ...]]
) -> list[tuple[ShadeMove, ...]]:
    """The moves of every mesh of a batch, in batch order.  ``memo`` maps
    the option vectors seen so far to their moves."""
    if len(batch) < _SLICED_BATCH_MIN:
        vectors = b"".join(_option_vector(p, mask) for mask in batch)
    else:
        vectors = _batch_vectors(p, batch)
    count = len(_compiled(p))
    found = []
    for t, mask in enumerate(batch):
        vector = vectors[t * count : (t + 1) * count]
        moves = memo.get(vector)
        if moves is None:
            moves = memo[vector] = _moves(p, vector)
        found.append(_disjoint(p, mask, moves))
    return found


def shadeable_assignments(p: Perm, mask: int) -> list[tuple[Assignment, int]]:
    """Assignments (with their masks) addable to the mesh ``mask`` over ``p``
    without changing the avoidance set, singles and pairs, in probe order."""
    return [
        (assignment, bits)
        for (assignment, bits, *_), passed in zip(_compiled(p), _option_vector(p, mask))
        if passed
    ]


def shadeable_singles(pi: MeshPattern) -> list[tuple[tuple[int, int], Square, str]]:
    """(point, square, direction) for every single square addable to the mesh
    without changing the avoidance set."""
    return [
        (a.point, a.squares[0], a.direction)
        for a, _ in shadeable_assignments(pi.perm, pi.mask)
        if a.kind == "single"
    ]


def shadeable_pairs(
    pi: MeshPattern,
) -> list[tuple[tuple[int, int], tuple[Square, Square], str]]:
    """(point, square pair, direction) for every addable adjacent pair."""
    return [
        (a.point, a.squares, a.direction)
        for a, _ in shadeable_assignments(pi.perm, pi.mask)
        if a.kind == "pair"
    ]


def ssl_moves(pi: MeshPattern) -> list[ShadeMove]:
    """Every simultaneous-shading move of the pattern, smallest first.

    Choice functions assign to each graph point at most one of its shadeable
    singles or pairs; distinct choices adding the same square set collapse
    to one move, since only the union matters downstream.
    """
    return list(_disjoint(pi.perm, pi.mask, _moves(pi.perm, _option_vector(pi.perm, pi.mask))))


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

@dataclass(frozen=True, slots=True)
class TraceStep:
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


def trace_step_to_json(step: TraceStep) -> dict:
    from .mesh import mask_to_squares, mesh_pattern_to_json

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
    return obj


def trace_to_json(trace: ProofTrace) -> list[dict]:
    return [trace_step_to_json(s) for s in trace.steps]


# ---------------------------------------------------------------------------
# Closure of a set of meshes under simultaneous shading and sandwiching.

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

    def union(self, x, y) -> bool:
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return False
        self.link(rx, ry)
        return True

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


@dataclass(frozen=True, slots=True)
class ClosureClass:
    meshes: tuple[int, ...]
    steps: tuple[TraceStep, ...]


@dataclass(frozen=True)
class ClosureResult:
    perm: Perm
    classes: tuple[ClosureClass, ...]
    complete: bool
    expanded: int  # meshes whose shading moves were taken

    @property
    def size(self) -> int:
        return sum(len(cls.meshes) for cls in self.classes)

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


def _extremes(members: list[int]) -> list[tuple[int, int]]:
    """Every pair (minimal member, maximal member above it) of a set of
    meshes.  A member is minimal when no earlier member by size lies below
    it, so only the minimal ones found so far need testing; likewise for
    maximal members in the other direction."""
    by_size = sorted(members, key=int.bit_count)
    minimal: list[int] = []
    for m in by_size:
        for lo in minimal:
            if lo & m == lo:
                break
        else:
            minimal.append(m)
    maximal: list[int] = []
    for m in reversed(by_size):
        for hi in maximal:
            if m & hi == m:
                break
        else:
            maximal.append(m)
    return [(lo, hi) for lo in minimal for hi in maximal if lo & hi == lo]


class _GoalJoined(Exception):
    """Raised inside :func:`ssl_closure` by the merge that joins its goal."""


def ssl_closure(
    p: Perm,
    seeds: Iterable,
    budget: int | None = None,
    given: Iterable[TraceStep] = (),
    goal: tuple | None = None,
) -> ClosureResult:
    """Partition every mesh reachable from the seeds into proven-coincident
    groups.

    The ``given`` steps, which the caller has justified by other rules, are
    joined first and their meshes become seeds too; a given step over
    another pattern is a ``ValueError``.  Then two inferences
    alternate until neither moves: every simultaneous-shading move joins a
    mesh with its enlargement, and every mesh between a minimal and a
    maximal member of one group joins that group (a mesh between any two
    members lies between such a pair).  Sandwiched meshes not seen before
    are expanded in turn.  ``budget`` caps the number of meshes expanded;
    exceeding it returns the partial partition flagged incomplete, and a
    negative budget is a ``ValueError``.  A ``goal``, a pair of seed meshes,
    stops the closure at the first merge that gives both one root (or before
    any work, if the given steps join them); the partition as it stands then
    is returned, also flagged incomplete, and the goal's class carries its
    steps so far, which replay in order.  A goal mesh that is not a seed is
    a ``ValueError``.  Each class carries the steps that
    joined its meshes, in the order they were taken: a step is kept only
    when it merges two groups, so a class of n meshes has n - 1 steps.
    """
    p = make_perm(p)
    k = len(p)
    if budget is not None and budget < 0:
        raise ValueError(f"closure budget must be at least 0, not {budget}")
    known = {_as_mask(k, s) for s in seeds}
    if not known:
        raise ValueError("at least one seed mesh is required")
    if goal is not None:
        goal = tuple(_as_mask(k, mesh) for mesh in goal)
        if not known.issuperset(goal):
            raise ValueError("the goal meshes must be seeds")
    frontier = deque(sorted(known))
    uf = UnionFind()
    find = uf.find
    log: list[TraceStep] = []  # one step per merge: a spanning forest

    def check_goal() -> None:
        if goal is not None and find(goal[0]) == find(goal[1]):
            raise _GoalJoined

    def join(rule: str, before: int, after: int, detail: tuple) -> None:
        for mesh in (before, after):
            if mesh not in known:
                known.add(mesh)
                frontier.append(mesh)
        if uf.union(before, after):
            log.append(TraceStep(rule, p, before, after, detail))
            check_goal()

    spent = 0
    # the moves of each option vector met, for this closure only
    memo: dict[bytes, tuple[ShadeMove, ...]] = {}

    def expand() -> bool:
        # the frontier is taken in FIFO batches, so the meshes are expanded
        # and their steps joined in the order one at a time would take
        nonlocal spent
        while frontier:
            size = len(frontier) if budget is None else min(len(frontier), budget - spent)
            if size == 0:
                return False
            batch = [frontier.popleft() for _ in range(size)]
            spent += size
            for mesh, moves in zip(batch, _frontier_moves(p, batch, memo)):
                if not moves:
                    continue
                # join, with the expanded mesh's root found once: most moves
                # land in its own group and merge nothing
                root = find(mesh)
                for move in moves:
                    after = mesh | move.added
                    if after not in known:
                        known.add(after)
                        frontier.append(after)
                    other = find(after)
                    if other != root:
                        root = uf.link(root, other)
                        log.append(TraceStep("SSL", p, mesh, after, move.assignments))
                        check_goal()
        return True

    def sandwich(dirty: set[int]) -> None:
        # the groups as they stand before this sweep joins anything
        groups = [sorted(uf.members[root]) for root in sorted(dirty)]
        for group in groups:
            for lo, hi in _extremes(group):
                diff = hi & ~lo
                sub = diff
                root = find(lo)
                while True:
                    mid = lo | sub
                    if find(mid) != root:
                        join("CLOSURE", lo, mid, (lo, hi))
                        root = find(lo)
                    if sub == 0:
                        break
                    sub = (sub - 1) & diff

    try:
        for step in given:
            if step.perm != p:  # the log rebuilds each step over p
                raise ValueError(f"a given step over {step.perm} in a closure over {p}")
            join(step.rule, step.before, step.after, step.detail)
        check_goal()
        complete = expand()
        swept = 0
        while complete and swept < len(log):
            # a group that no step has joined since the last sweep is closed
            dirty = {find(step.before) for step in log[swept:]}
            swept = len(log)
            sandwich(dirty)
            complete = expand()
    except _GoalJoined:
        complete = False

    steps: dict[int, list[TraceStep]] = {}
    for step in log:
        steps.setdefault(find(step.before), []).append(step)
    parent, members = uf.parent, uf.members
    classes = tuple(
        ClosureClass(
            tuple(sorted(members[root])) if root in members else (root,),
            tuple(steps.get(root, ())),
        )
        for root in sorted(known)
        if parent.get(root, root) == root
    )
    return ClosureResult(p, classes, complete, spent)
