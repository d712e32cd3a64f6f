"""Shading moves: single squares, adjacent pairs, simultaneous combinations,
the constructive occurrence-repair walk, and closure of meshes under all of
these.

Adding a square next to a graph point keeps the avoidance set unchanged when
the mesh around that point is permissive enough.  Only the northeast single
square and the east pair are spelled out, candidates and conditions; the
other directions are obtained by carrying each graph point with the grid
symmetry that maps the direction onto the spelled one.  That is both shorter
and safer than transcribing four tables by hand.  This happens once per
pattern, when its probes are compiled: every candidate and every condition
is pulled back into the pattern's own grid, where they are a few masks.  A
mesh's moves depend only on which probes pass, so a closure memoises them
on that vector, and it tests the probes for a whole frontier of meshes at
once on bit-slices, one big integer per grid square.
"""

from __future__ import annotations

import gc
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache, reduce, wraps
from operator import and_, or_
from typing import Iterable, Iterator, NamedTuple, Sequence

from .perm import (
    Occurrence,
    Perm,
    apply_symmetry_point,
    check_mask,
    inverse_symmetry,
    is_occurrence,
    make_perm,
)
from .mesh import (
    MAX_SIGNATURE_LENGTH,
    MeshPattern,
    Square,
    bit_indices,
    occurrence_region_mask,
    squares_to_mask,
    _host_cells,
)
from .diagonals import apply_symmetry_square
from .certify import TraceStep, UnionFind

# Symmetry conjugating each direction onto the one with explicit conditions,
# in probe order.
_SINGLE_TO_NE = {"NE": "id", "NW": "r", "SE": "c", "SW": "rc"}
_PAIR_TO_E = {"E": "id", "N": "i", "W": "r", "S": "ci"}


@dataclass(frozen=True)
class Assignment:
    """One chosen shadeable square or pair at one graph point."""

    point: tuple[int, int]
    kind: str  # "single" | "pair"
    direction: str
    squares: tuple[Square, ...]


class ShadeMove(NamedTuple):
    """A simultaneous choice: at most one assignment per graph point."""

    assignments: tuple[Assignment, ...]
    added: int  # union of all assigned squares, as a mask


# ---------------------------------------------------------------------------
# Compiled probes.  A probe is one direction at one graph point.  Its
# conditions say that the squares it adds are unshaded, that some squares are
# not all shaded (``flanks``), and that every shaded square of a line has its
# neighbour at one fixed offset shaded.  Square (a, b) sits at bit a(k+1) + b,
# so a neighbour offset is a shift of the mask, and the lines of all four
# offsets fit beside the probe's own squares in one mask over a five-grid
# "state": grid 0 is the mesh, and grid g holds the shaded squares whose
# neighbour at offset _offsets(k)[g - 1] is unshaded.


def _offsets(k: int) -> tuple[int, int, int, int]:
    """Bit offsets of the upper, lower, right and left neighbours."""
    return (1, -1, k + 1, -(k + 1))


def _ne_single_conditions(k: int, i: int, v: int) -> tuple:
    """The northeast single at the point (i, v): its candidate square (i, v),
    which is clear, and its conditions: the flanks are not both shaded, and a
    shaded square of row v-1 or column i-1 has its upper or right neighbour
    shaded (the flanks apart).  The published lemma has the opposite square
    (i-1, v-1) clear and out of both lines: the same, as the lines hold at a
    clear one, and a shaded one needs both flanks, (i-1, v) and (i, v-1)."""
    flanks = [(i, v - 1), (i - 1, v)]
    row = [(x, v - 1) for x in range(k + 1) if x != i]
    column = [(i - 1, y) for y in range(k + 1) if y != v]
    return [(i, v)], flanks, ((row, (0, 1)), (column, (1, 0)))


def _e_pair_conditions(k: int, i: int, v: int) -> tuple:
    """The east pair at the point (i, v): its candidate squares (i, v) and
    (i, v-1), which are clear, and its conditions: rows v-1 and v agree (a
    shaded square of either has its neighbour in the other shaded), and a
    shaded square of column i-1 has its right neighbour shaded, so the
    squares left of the candidates are clear, as the published lemma says."""
    lower = [(x, v - 1) for x in range(k + 1)]
    upper = [(x, v) for x in range(k + 1)]
    column = [(i - 1, y) for y in range(k + 1)]
    lines = ((lower, (0, 1)), (upper, (0, -1)), (column, (1, 0)))
    return [(i, v), (i, v - 1)], [], lines


def _pull_back(k: int, back: str, line: list[Square], offset: Square) -> int:
    """A line of the spelled-out grid with its neighbour offset, mapped into
    the pattern's grid by ``back``: the line's bits, placed in the state grid
    of the offset its squares' neighbours have there.  The symmetries are
    affine, so that offset is the same for every square; anything else is an
    ``AssertionError``.  A neighbour may lie one step off the grid, so the
    squares move as points of the grid of k - 1 points, unchecked."""
    if not line:
        return 0
    width = k + 1

    def index(square: Square) -> int:
        a, b = apply_symmetry_point(back, k - 1, square)
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


@lru_cache(maxsize=64)
def _compiled(p: Perm) -> tuple[tuple, ...]:
    """Every probe of ``p`` in output order: by graph point; singles, then
    pairs; by direction.  Each graph point is carried to the spelled-out
    direction's grid by the direction's symmetry, its candidate squares and
    conditions are spelled out there and pulled back into ``p``'s own grid.
    A pair's two squares are listed by row from the top, then by column.

    A probe is ``(assignment, added, forbid, flanks, forbid_at, flanks_at)``:
    the assignment it licenses and its mask, the state bits that must all be
    clear (its own squares, ``added``, and its line bits), the flanks (0 for
    a pair, which has none), and the bit indices of ``forbid`` and ``flanks``.
    """
    k = len(p)
    probes = []
    for point in enumerate(p, 1):
        for kind, to_spelled, conditions in (
            ("single", _SINGLE_TO_NE, _ne_single_conditions),
            ("pair", _PAIR_TO_E, _e_pair_conditions),
        ):
            for direction, sym in to_spelled.items():
                back = inverse_symmetry(sym)
                pull = lambda squares: [apply_symmetry_square(back, k, s) for s in squares]
                candidate, flanks, lines = conditions(k, *apply_symmetry_point(sym, k, point))
                squares = tuple(sorted(pull(candidate), key=lambda s: (-s[1], s[0])))
                forbid = added = squares_to_mask(k, squares)
                for line, offset in lines:
                    forbid |= _pull_back(k, back, line, offset)
                flank_mask = squares_to_mask(k, pull(flanks))
                indices = (tuple(bit_indices(forbid)), tuple(bit_indices(flank_mask)))
                assignment = Assignment(point, kind, direction, squares)
                probes.append((assignment, added, forbid, flank_mask, *indices))
    return tuple(probes)


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
    spec = f"0{size}b"
    text = "".join(format(mesh, spec) for mesh in batch)
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
    passed = bytearray(len(batch) * count)
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
        passed[j::count] = format(fail, spec)[::-1].encode().translate(_PASSED)
    return bytes(passed)


def _moves(
    p: Perm, vector: bytes
) -> tuple[tuple[int, ...], tuple[tuple[Assignment, ...], ...]]:
    """The moves of :func:`ssl_moves` for a mesh whose probes pass as
    ``vector`` says; they depend on nothing else.  Two parallel tuples: the
    masks the moves add, by bit count then mask, and each mask's first
    choice of assignments in product order."""
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
    masks = tuple(sorted(sorted(first), key=int.bit_count))
    return masks, tuple(map(first.__getitem__, masks))


# Below this many meshes, probing each mesh on its own beats slicing the
# run: a bit-sliced run of 24-40 probes costs about 60-170 us whatever its
# size, against about 8 us per mesh probed alone, at k = 3 to 5.
_SLICED_BATCH_MIN = 12

# The longest run a batch is probed in.  A bit-sliced run's fixed cost of
# 60-170 us is under 5% of its 0.7-1.1 us a mesh past this size, so a longer
# run would only grow its buffers.
_RUN_BOUND = 4096


def _frontier_moves(
    p: Perm, batch: Sequence[int], memo: dict[bytes, tuple[tuple, tuple, int]]
) -> Iterator[tuple[tuple[int, ...], tuple[tuple[Assignment, ...], ...]]]:
    """The moves of every mesh of a batch, yielded in batch order as it is
    probed in runs of 1, 2, 4, ... meshes up to ``_RUN_BOUND``, then of
    ``_RUN_BOUND``: a consumer that stops early leaves the rest unprobed,
    and no probe buffer spans more than ``_RUN_BOUND`` meshes or half the
    batch.  A run shorter than ``_SLICED_BATCH_MIN`` is probed a mesh at a
    time (:func:`_option_vector`), a longer one bit-sliced
    (:func:`_batch_vectors`).  Each mesh's moves are the ``(masks,
    choices)`` of :func:`_moves`, whatever the caller reads of them.
    ``memo`` maps the option vectors seen so far to their masks, choices
    and the union of the masks; a mesh that meets that union is an
    ``AssertionError``."""
    count = len(_compiled(p))
    start, run = 0, 1
    while start < len(batch):
        meshes = batch[start : start + run]
        start, run = start + run, min(2 * run, _RUN_BOUND)
        if len(meshes) < _SLICED_BATCH_MIN:
            vectors = b"".join(_option_vector(p, mask) for mask in meshes)
        else:
            vectors = _batch_vectors(p, meshes)
        for t, mask in enumerate(meshes):
            vector = vectors[t * count : (t + 1) * count]
            entry = memo.get(vector)
            if entry is None:
                masks, choices = _moves(p, vector)
                entry = memo[vector] = (masks, choices, reduce(or_, masks, 0))
            masks, choices, union = entry
            if union & mask:
                raise AssertionError(
                    f"a shading move adds shaded squares to mesh {mask} over {p}"
                )
            yield masks, choices


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
    masks, choices = next(_frontier_moves(pi.perm, (pi.mask,), {}))
    return list(map(ShadeMove, choices, masks))


# ---------------------------------------------------------------------------
# The occurrence-repair walk.

def _pick_replacement(
    pi: MeshPattern, assignment: Assignment, n: int, pts: list[tuple[int, int]]
) -> int:
    """The position of the host point, among ``pts``, to slide the
    assignment's occurrence point to, in a host of length ``n``.

    The rule is spelled out for the northeast single and the east pair and
    conjugated like the probes: the pick is the point whose image lies
    furthest along one axis of the spelled-out grid.  A pair takes the
    furthest east.  A single's two flanks may not both be shaded, but one
    may be.  The furthest north sweeps the leftover region points into the
    flank below the candidate, the furthest east into the flank beside it,
    so a single goes north unless the flank below is shaded."""
    k = pi.k
    if assignment.kind == "pair":
        sym, axis = _PAIR_TO_E[assignment.direction], 0
    else:
        sym = _SINGLE_TO_NE[assignment.direction]
        j, v = apply_symmetry_point(sym, k, assignment.point)
        flank = apply_symmetry_square(inverse_symmetry(sym), k, (j, v - 1))
        axis = 0 if pi.has_square(*flank) else 1
    return max(pts, key=lambda pt: apply_symmetry_point(sym, n, pt)[axis])[0]


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
            # the host points inside the regions of the assigned squares
            pts = [(x, w[x - 1]) for x, a, b in _host_cells(w, positions) if (a, b) in squares]
            if pts:
                busy = (assignment, pts)
                break
        if busy is None:
            break
        assignment, pts = busy
        positions[assignment.point[0] - 1] = _pick_replacement(pi, assignment, n, pts)
        assert positions == sorted(positions)
    else:
        raise RuntimeError("repair walk exceeded its 2kn step bound")
    result = tuple(positions)
    enlarged = pi.mask | move.added
    if not is_occurrence(p, w, result) or occurrence_region_mask(w, result) & enlarged:
        raise RuntimeError("repair walk produced an invalid occurrence")
    return result


# ---------------------------------------------------------------------------
# Closure of a set of meshes under simultaneous shading and sandwiching.

class ClosureClass(NamedTuple):
    meshes: tuple[int, ...]
    steps: tuple[TraceStep, ...]


@dataclass(frozen=True, eq=False)
class ClosureResult:
    """A closure's classes in a flat store: class c is
    ``meshes[bounds[c]:bounds[c + 1]]``, sorted, the classes in the order
    of their least members, and ``steps[c]`` is its steps (``steps`` is
    ``()`` when the closure logged none).  A whole-grid closure holds
    ``meshes`` as an ``array("H")`` and ``bounds`` as an ``array("I")``;
    any other holds two lists, as its masks may have any size.
    ``classes`` builds every :class:`ClosureClass` afresh on each read,
    ``class_of`` builds only the one it finds: a mask the closure never met
    has ``None``, and anything :func:`check_mask` refuses (``True`` and
    ``1.0`` included) is a ``ValueError``.  Results compare by their
    classes, ``complete`` and ``expanded``, whatever their store, and are
    not hashable."""

    perm: Perm
    meshes: Sequence[int]
    bounds: Sequence[int]
    steps: tuple[tuple[TraceStep, ...], ...]
    complete: bool
    expanded: int  # meshes of every batch begun, a stop's unprobed rest included

    def _class(self, c: int) -> ClosureClass:
        meshes = tuple(self.meshes[self.bounds[c] : self.bounds[c + 1]])
        return ClosureClass(meshes, self.steps[c] if self.steps else ())

    @property
    def classes(self) -> tuple[ClosureClass, ...]:
        return tuple(map(self._class, range(len(self.bounds) - 1)))

    @property
    def size(self) -> int:
        return len(self.meshes)

    def class_of(self, mask: int) -> ClosureClass | None:
        check_mask(len(self.perm), mask)
        try:
            at = self.meshes.index(mask)
        except ValueError:
            return None
        return self._class(bisect_right(self.bounds, at) - 1)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ClosureResult):
            return NotImplemented
        key = lambda r: (r.perm, r.complete, r.expanded, r.classes)
        return key(self) == key(other)


def _extremes(members: list[int]) -> list[tuple[int, int]]:
    """Every pair (minimal member, maximal member above it) of a set of
    meshes.  A member is minimal when no earlier member by size lies below
    it, so only the minimal ones found so far need testing; likewise for
    maximal members in the other direction; ties by size go in mask order."""
    by_size = sorted(sorted(members), key=int.bit_count)
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


class _Stop(Exception):
    """Raised inside :func:`ssl_closure` by the merge that joins its goal or
    would add a mesh past its budget."""


def _collector_paused(func):
    """Run ``func`` with CPython's cyclic garbage collector disabled, then
    restore it as the caller had it: a collector the caller disabled stays
    disabled.  Reference counting still frees every acyclic object."""

    @wraps(func)
    def paused(*args, **kwargs):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return func(*args, **kwargs)
        finally:
            if enabled:
                gc.enable()

    return paused


@_collector_paused
def ssl_closure(
    p: Perm,
    seeds: Iterable[int],
    budget: int | None = None,
    given: Iterable[TraceStep] = (),
    goal: tuple[int, int] | None = None,
    *,
    steps: bool = True,
) -> ClosureResult:
    """Partition every mesh reachable from the seeds into proven-coincident
    groups.

    Every mesh the caller names, the seeds, the ``before`` and ``after`` of
    each given step and the goal meshes, is an int mask over ``p``'s grid;
    anything else, a mesh outside the grid included, is a ``ValueError``
    before any work, and so is a given step that is not a ``TraceStep``
    over the int tuple ``p``.  The
    ``given`` steps, which the caller has justified by other rules, are
    joined first and their meshes become seeds too.  Then two inferences
    alternate until neither moves: every simultaneous-shading move joins a
    mesh with its enlargement, and every mesh between a minimal and a
    maximal member of one group joins that group (a mesh between any two
    members lies between such a pair).  Sandwiched meshes not seen before
    are expanded in turn.  Given, shading and sandwich steps all join
    through one merge, the only place groups are linked and steps logged.
    The closure ends at its fixpoint, flagged complete, or at a stop,
    flagged incomplete, with the partition as it stands then.  There are
    two stops.  ``budget`` caps the meshes the closure adds beyond the seeds
    and the given steps' meshes: the merge that would add one more stops
    it, so a budget bounds the meshes held; a budget that is not an int
    of at least 0 (``True`` and ``1.5`` included) is a ``ValueError``.  A
    ``goal``, a pair of seed meshes, stops the closure at the first merge
    that gives both one root (or before any expansion, if the given steps
    join them), and the goal's class carries its steps so far, which
    replay in order.  A goal that is not two meshes, or
    a goal mesh that is not a seed, is a ``ValueError``.  With ``steps``,
    each class carries the steps that joined its meshes, in the order they
    were taken: a step is kept only when it merges two groups, so a class
    of n meshes has n - 1 steps.  Without it no step is built and every
    class carries ``()``; the meshes, the classes and their order,
    ``complete`` and ``expanded`` are the same either way.  ``steps``
    decides only whether a merge logs: the move memo has one shape, each
    option vector's added masks beside their first choices, and an SSL
    merge is handed its choice either way.

    Each batch is probed in runs (:func:`_frontier_moves`), so no probe
    buffer spans a whole batch, and ``expanded`` counts every batch begun,
    though a stop leaves the rest of its batch unprobed.  The union-find's
    ``parent`` store is the one record of the meshes met.  When the seeds
    are the ``range`` of every mesh of the grid, it is an ``array("H")``
    indexed by mesh: no mesh is ever new, the range itself is the first
    batch, and no seed is listed, checked or entered; each group's member
    list is an ``array("H")`` too, and so is the result's store of meshes.
    Such seeds over a pattern longer than ``MAX_SIGNATURE_LENGTH``, whose
    grid no closure could finish, are a ``ValueError`` before any work.
    Any other seeds are entered into a dict, and a mesh joins the dict in
    the merge that meets it; member lists and the result's store are then
    lists, as masks may have any size.
    Each sweep sandwiches the groups some merge joined since the last one,
    found from a list of each merge's ``before`` mesh.  A group that is every
    mesh from its meet to its join is skipped before its extremes are sought.

    The closure runs with the cyclic garbage collector paused, and leaves
    it as the caller had it.  That is safe: the closure builds only acyclic
    ints, tuples, lists, dicts and arrays, which reference counting frees.
    Left running, the collector re-walked the growing heap for about a
    fifth of a whole-cube closure of ``123`` in a fresh process.
    """
    p = make_perm(p)
    k = len(p)
    if budget is not None and (type(budget) is not int or budget < 0):
        raise ValueError(f"closure budget must be an int of at least 0, not {budget!r}")
    whole = seeds == range(1 << (k + 1) ** 2)  # every mesh of the grid is a seed
    if whole and k > MAX_SIGNATURE_LENGTH:
        raise ValueError(f"a whole-grid closure takes length <= {MAX_SIGNATURE_LENGTH}, not {k}")
    if not whole:
        seeds = list(seeds)
    given = list(given)
    if not seeds:
        raise ValueError("at least one seed mesh is required")
    for step in given:
        if not isinstance(step, TraceStep):  # a plain tuple has no fields
            raise ValueError(f"a given step must be a TraceStep, not {step!r}")
        # the log rebuilds each step over p, and (1.0, 2.0) == (1, 2)
        if step.perm != p or any(type(v) is not int for v in step.perm):
            raise ValueError(f"a given step over {step.perm} in a closure over {p}")
    if goal is not None:
        try:
            goal = tuple(goal)
        except TypeError:
            raise ValueError(f"a goal is a pair of meshes, not {goal!r}") from None
        if len(goal) != 2:
            raise ValueError(f"a goal is a pair of meshes, not {len(goal)}")
    ends = [mesh for step in given for mesh in (step.before, step.after)]
    check_mask(k, *(() if whole else seeds), *ends, *(goal or ()))
    if goal is not None and not (whole or set(seeds).issuperset(goal)):
        raise ValueError("the goal meshes must be seeds")
    if whole:
        from array import array

        parent = array("H", seeds)  # a mask of at most 16 bits
        look = parent.__getitem__
        frontier = seeds
    else:
        # every mesh met is a key of parent, the one membership map
        parent = dict(zip(seeds, seeds))
        parent.update(zip(ends, ends))
        look = parent.get
        frontier = sorted(parent)
    uf = UnionFind()
    uf.parent, find = parent, uf.find
    cap = None if budget is None else len(parent) + budget  # most meshes met
    log: list[TraceStep] = []  # with steps, one per merge: a spanning forest
    joined: list[int] = []  # the before mesh of each merge since the last sweep

    def merge(root: int, rule: str, before: int, after: int, detail: tuple) -> int:
        # join after (queued for expansion if it is new) to the group of
        # before, whose root the caller passes; returns the joined root.
        # Callers skip an after whose parent or grandparent is that root
        # already: most edges join meshes of one group.
        if look(after) is None:  # never, when the whole grid is seeded
            if len(parent) == cap:
                raise _Stop
            parent[after] = after
            frontier.append(after)
        other = find(after)
        if other == root:
            return root
        root = uf.link(root, other)
        joined.append(before)
        if steps:
            log.append(TraceStep(rule, p, before, after, detail))
        if goal is not None and find(goal[0]) == find(goal[1]):
            raise _Stop
        return root

    spent = 0
    memo: dict = {}  # each option vector met: its masks, choices and union

    def expand() -> None:
        # the whole frontier is one batch, so the meshes are expanded and
        # their steps joined in the order one at a time would take
        nonlocal spent, frontier
        while frontier:
            batch, frontier = frontier, []
            spent += len(batch)
            for mesh, (masks, choices) in zip(batch, _frontier_moves(p, batch, memo)):
                if masks:
                    root = find(mesh)
                    for added, chosen in zip(masks, choices):
                        after = mesh | added
                        up = look(after)
                        if up != root and look(up) != root:
                            root = merge(root, "SSL", mesh, after, chosen)

    def sandwich(dirty: set[int]) -> None:
        # the groups as they stand before this sweep joins anything: a link
        # only appends to the member list it keeps, so each list's first
        # len members are its group as it stood.  A group as large as the
        # interval from its meet to its join (2 ** |join & ~meet|) fills it
        lists = map(uf.members.__getitem__, sorted(dirty))
        for listed, size in [(listed, len(listed)) for listed in lists]:
            group = listed[:size]
            if size == 1 << (reduce(or_, group) & ~reduce(and_, group)).bit_count():
                continue  # nothing lies between two of its meshes outside it
            for lo, hi in _extremes(group):
                diff = hi & ~lo
                sub = diff
                root = find(lo)
                while sub:
                    after = lo | sub
                    up = look(after)
                    if up != root and look(up) != root:
                        root = merge(root, "CLOSURE", lo, after, (lo, hi))
                    sub = (sub - 1) & diff

    try:
        for step in given:
            merge(find(step.before), step.rule, step.before, step.after, step.detail)
        if goal is not None and goal[0] == goal[1]:
            raise _Stop  # a goal of one mesh twice is joined from the start
        expand()
        while joined:
            # a group that no merge has joined since the last sweep is closed
            dirty = set(map(find, joined))
            joined.clear()
            sandwich(dirty)
            expand()
        complete = True
    except _Stop:
        complete = False

    memo.clear()  # the largest structure left: the store is not built beside it
    grouped: dict[int, list[TraceStep]] = {}  # empty without steps
    for step in log:
        grouped.setdefault(find(step.before), []).append(step)
    meshes, bounds = (array("H"), array("I", [0])) if whole else ([], [0])
    roots = (mesh for mesh, up in (enumerate(parent) if whole else parent.items()) if up == mesh)
    class_steps = []  # empty without steps
    members = uf.members
    # the roots in mesh order (a dict holds its meshes in the order met);
    # each member list is popped as it is stored, so the lists and the
    # store are never all held
    for root in roots if whole else sorted(roots):
        group = members.pop(root, None)
        meshes.extend(sorted(group) if group else (root,))
        bounds.append(len(meshes))
        if steps:
            class_steps.append(tuple(grouped.pop(root, ())))
    return ClosureResult(p, meshes, bounds, tuple(class_steps), complete, spent)
