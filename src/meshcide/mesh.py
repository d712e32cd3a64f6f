"""Mesh patterns over the (k+1) x (k+1) grid, containment, and fingerprints.

A mesh is stored as a bitmask over the grid squares: the square with
lower-left corner ``(a, b)`` (columns and rows both run ``0..k``) occupies
bit ``a * (k + 1) + b``.  The mask is an implementation detail; every public
surface also speaks square tuples.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import combinations, compress
from math import factorial
from operator import and_, or_
from typing import Iterable, Iterator, Sequence

from .perm import (
    Occurrence,
    ParseError,
    Perm,
    all_perms,
    check_mask,
    full_grid_mask,
    iter_classical_occurrences,
    make_perm,
    occurrence_search,
    parse_perm,
    perm_text,
    valid_positions,
)

Square = tuple[int, int]


def square_bit(k: int, a: int, b: int) -> int:
    return 1 << (a * (k + 1) + b)


def squares_to_mask(k: int, squares: Iterable[Square]) -> int:
    mask = 0
    for a, b in squares:
        if type(a) is not int or type(b) is not int:  # a bool is not one
            raise ParseError(f"square {(a, b)!r} is not a pair of ints")
        if not (0 <= a <= k and 0 <= b <= k):
            raise ParseError(f"square ({a},{b}) lies outside the {k + 1}x{k + 1} grid")
        mask |= 1 << (a * (k + 1) + b)  # square_bit, inlined
    return mask


def bit_indices(mask: int) -> list[int]:
    """The indices of the set bits of a non-negative ``mask``, lowest first."""
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def mask_to_squares(k: int, mask: int) -> tuple[Square, ...]:
    """The squares of a mask in bit order: by column, then by row."""
    return tuple(divmod(i, k + 1) for i in bit_indices(mask & full_grid_mask(k)))


@dataclass(frozen=True)
class MeshPattern:
    """A classical pattern plus a set of shaded grid squares."""

    perm: Perm
    mask: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "perm", make_perm(self.perm))
        check_mask(self.k, self.mask)

    @classmethod
    def of(cls, perm: str | Sequence[int], squares: Iterable[Square] = ()) -> "MeshPattern":
        word = parse_perm(perm) if isinstance(perm, str) else make_perm(perm)
        return cls(word, squares_to_mask(len(word), squares))

    @property
    def k(self) -> int:
        return len(self.perm)

    @property
    def squares(self) -> tuple[Square, ...]:
        return mask_to_squares(self.k, self.mask)

    def has_square(self, a: int, b: int) -> bool:
        return bool(self.mask & squares_to_mask(self.k, ((a, b),)))

    def text(self) -> str:
        body = "".join(f"({a},{b})" for a, b in self.squares)
        return perm_text(self.perm) + (":" + body if body else "")

    def __str__(self) -> str:
        return self.text()


@dataclass(frozen=True)
class OpenBox:
    """The open rectangle (x_lo, x_hi) x (y_lo, y_hi)."""

    x_lo: int
    x_hi: int
    y_lo: int
    y_hi: int

    def __str__(self) -> str:
        return f"({self.x_lo},{self.x_hi})x({self.y_lo},{self.y_hi})"

    def contains_point(self, x: int, y: int) -> bool:
        return self.x_lo < x < self.x_hi and self.y_lo < y < self.y_hi


def _check_positions(w: Perm, occ: Occurrence) -> None:
    """Refuse a host that is not a permutation of 1..n (a ``ParseError``), and
    positions that :func:`~meshcide.perm.valid_positions` refuses."""
    if not valid_positions(occ, len(make_perm(w))):
        raise ValueError(f"invalid occurrence positions {occ!r}")


def corresponding_region(w: Perm, occ: Occurrence, square: Square) -> OpenBox:
    """Host rectangle covered by a mesh square relative to one occurrence.

    With occurrence positions ``i_1 < ... < i_k`` extended by ``i_0 = 0`` and
    ``i_{k+1} = n + 1``, and the sorted occurrence values extended the same
    way, square ``(a, b)`` maps to the open box
    ``(i_a, i_{a+1}) x (v_b, v_{b+1})``.  The open interior is the right
    emptiness test: a host point can only touch the closed boundary if it is
    one of the occurrence's own points.  The square must be one that
    :func:`squares_to_mask` takes for the occurrence's grid.
    """
    _check_positions(w, occ)
    squares_to_mask(len(occ), (square,))
    a, b = square
    pos = (0, *occ, len(w) + 1)
    vals = (0, *sorted(w[i - 1] for i in occ), len(w) + 1)
    return OpenBox(pos[a], pos[a + 1], vals[b], vals[b + 1])


def _host_cells(w: Perm, occ: Occurrence) -> Iterator[tuple[int, int, int]]:
    """``(x, a, b)`` for each host point (x, w(x)) outside the occurrence:
    it lies in square (a, b), whose column counts the occurrence positions
    below x and whose row counts the occurrence values below w(x)."""
    vals = sorted(w[i - 1] for i in occ)
    occ_set = set(occ)
    for x in range(1, len(w) + 1):
        if x not in occ_set:
            yield x, bisect_right(occ, x), bisect_right(vals, w[x - 1])


def occurrence_region_mask(w: Perm, occ: Occurrence) -> int:
    """Bitmask of the grid squares whose region holds at least one host
    point; a mesh blocks the occurrence iff it meets this mask.  A host that
    is not a permutation of 1..n, and positions that are not a strictly
    increasing tuple of ints in ``1..n``, raise ``ValueError``."""
    _check_positions(w, occ)
    return _region_mask(w, occ)


def _region_mask(w: Perm, occ: Occurrence) -> int:
    """:func:`occurrence_region_mask` of a host and positions checked before."""
    width = len(occ) + 1
    mask = 0
    for _, a, b in _host_cells(w, occ):
        mask |= 1 << (a * width + b)
    return mask


def iter_mesh_occurrences(pi: MeshPattern, w: Perm) -> Iterator[Occurrence]:
    """Occurrences of ``pi`` in ``w`` whose shaded regions are free of host
    points, in the search order of :func:`~meshcide.perm.occurrence_search`:
    the letters bounding the first shaded square are placed first.

    A host that starts with its minimum avoids ``21:(0,0)``: that point
    lies below and left of every occurrence of 21.

    >>> host = (1, 3, 2)
    >>> list(iter_mesh_occurrences(MeshPattern.of("21"), host))
    [(2, 3)]
    >>> list(iter_mesh_occurrences(MeshPattern.of("21", [(0, 0)]), host))
    []
    """
    yield from occurrence_search(pi.perm, w, pi.mask)


def mesh_occurrences(pi: MeshPattern, w: Perm) -> list[Occurrence]:
    """Classical occurrences whose shaded regions are free of host points,
    in lexicographic order.  A host that is not a permutation of 1..n
    raises ``ValueError``."""
    return sorted(iter_mesh_occurrences(pi, w))


def contains(pi: MeshPattern, w: Perm) -> bool:
    """Mesh containment; stops at the first valid occurrence.  A host that
    is not a permutation of 1..n raises ``ValueError``."""
    return next(occurrence_search(pi.perm, w, pi.mask), None) is not None


def avoiders(pi: MeshPattern, n: int) -> list[Perm]:
    """All w in S_n avoiding ``pi``, in lexicographic order: the clear bits of
    row n of its fingerprint.  An ``n`` outside ``1..MAX_DEPTH`` (a ``bool``
    included) raises ``ValueError`` before any host is listed."""
    row = fingerprints_many(pi.perm, (pi.mask,), n)[0][-1]
    return list(compress(all_perms(n), map("0".__eq__, f"{row:0{factorial(n)}b}"[::-1])))


# ---------------------------------------------------------------------------
# Fingerprints: the containment indicator over all of S_1..S_{n_max}.


def default_depth(k: int) -> int:
    """Comparison depth used when none is requested: k + 3, capped at 8."""
    return min(k + 3, 8)


def host_region_masks(p: Perm, w: Perm) -> tuple[int, ...]:
    """Region masks of all occurrences of ``p`` in ``w``, reduced for the
    containment test: duplicates and supersets of other masks are dropped
    (a mesh avoided by some mask is avoided by every subset of it).  The
    occurrence search checks the host as ``make_perm`` does, so the masks
    are read without a second check."""
    masks = {_region_mask(w, occ) for occ in iter_classical_occurrences(p, w)}
    minimal: list[int] = []
    for m in sorted(masks):  # subsets sort first, so one pass suffices
        if not any(kept & m == kept for kept in minimal):
            minimal.append(m)
    return tuple(minimal)


MAX_DEPTH = 9
"""Deepest fingerprint sweep.  The S_9 host sets take 81 ints of 362,880 bits
(3.7 MB); at S_10 they would take 45 MB, and one row 450 KB."""

# Per-pattern occurrence tables are cached up to this size of host.  At S_7
# a table holds at most 35 x 26 ints of 5,040 bits (0.6 MB), so the cache
# stays below 40 MB; deeper tables are streamed one entry at a time.
_CACHED_TABLE_DEPTH = 7


def check_depth(n_max: int) -> None:
    """Reject a fingerprint depth that is not an int in ``1..MAX_DEPTH``; an
    int subclass such as ``bool`` is not a depth."""
    if type(n_max) is not int or not 1 <= n_max <= MAX_DEPTH:
        raise ValueError(
            f"fingerprint depth {n_max!r} is not an int in 1..{MAX_DEPTH} (MAX_DEPTH)"
        )


@lru_cache(maxsize=MAX_DEPTH)
def _less_sets(n: int) -> tuple[tuple[int, ...], ...]:
    """``less[x][y]``: the set of hosts w in S_n with w[x] < w[y] (0-based
    positions), as a bitset whose bit j is the j-th host in lex order."""
    # at[y][v]: hosts with value v at position y.  Block f of S_n (in lex
    # order) is the letter f followed by S_{n-1} relabelled above f, so each
    # set is a shifted copy of a set of S_{n-1} in every block.
    at = [[1]]
    for size in range(2, n + 1):
        m = factorial(size - 1)
        nxt = [[((1 << m) - 1) << (v * m) for v in range(size)]]
        for prev in at:  # the blocks are disjoint, so the sum is their union
            nxt.append([
                sum(prev[v - (v > f)] << (f * m) for f in range(size) if f != v)
                for v in range(size)
            ])
        at = nxt
    less = []
    for x in range(n):
        row = []
        for y in range(n):
            s = above = 0
            for v in range(n - 1, -1, -1):
                s |= at[x][v] & above
                above |= at[y][v]
            row.append(s)
        less.append(tuple(row))
    return tuple(less)


def _occurrence_tables(p: Perm, n: int) -> Iterator[tuple[int, tuple[int, ...]]]:
    """One entry per position set t that is an occurrence of ``p`` in some
    host of S_n: ``(occ, cells)``, where ``occ`` holds the hosts with an
    occurrence at t and ``cells[a * (k + 1) + b]``, read inside ``occ``, the
    hosts with another point in square (a, b) of that occurrence.  Sets are
    bitsets over S_n in lex order."""
    k = len(p)
    less = _less_sets(n)
    everything = (1 << factorial(n)) - 1
    by_value = sorted(range(k), key=p.__getitem__)
    for t in combinations(range(n), k):
        # q[b]: the position of the (b+1)-th smallest occurrence value
        q = [t[i] for i in by_value]
        occ = everything
        for lo, hi in zip(q, q[1:]):
            occ &= less[lo][hi]
        cells = [0] * (k + 1) ** 2
        bounds = (-1, *t, n)
        for a in range(k + 1):
            base = a * (k + 1)
            for x in range(bounds[a] + 1, bounds[a + 1]):
                below = [less[x][y] for y in q]
                cells[base] |= below[0]
                for b in range(1, k):
                    cells[base + b] |= less[q[b - 1]][x] & below[b]
                cells[base + k] |= less[q[-1]][x]
        yield occ, tuple(cells)


@lru_cache(maxsize=64)
def _cached_occurrence_tables(p: Perm, n: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    return tuple(_occurrence_tables(p, n))


def _table(p: Perm, n: int) -> Iterable[tuple[int, tuple[int, ...]]]:
    """The occurrence table of ``p`` for S_n: cached up to
    ``_CACHED_TABLE_DEPTH``, streamed above it."""
    if n <= _CACHED_TABLE_DEPTH:
        return _cached_occurrence_tables(p, n)
    return _occurrence_tables(p, n)


def _sweep(p: Perm, masks: Iterable[int], n_max: int) -> Iterator[list[int]]:
    """Row n of every mesh in ``masks``, for n = 1..n_max in turn, once the
    pattern, the masks and the depth pass their checks (``ValueError``).

    All of S_n is handled at once: a set of hosts is a bitset, and a host
    contains a mesh iff some occurrence ``t`` of ``p`` in it has no other
    point in a shaded square, so row n is the union over t of ``occ_t``
    minus the union of the shaded ``cells_t``.  The table of S_n is read
    only when row n is asked for, one entry at a time for every mesh, so a
    streamed entry is dropped once it is used.  The squares every mesh
    shades are ORed once per entry, then each mesh's own.
    """
    p = make_perm(p)
    masks = tuple(masks)
    check_mask(len(p), *masks)
    check_depth(n_max)
    meet = reduce(and_, masks) if masks else 0
    common = bit_indices(meet)
    shaded = [bit_indices(mesh ^ meet) for mesh in masks]
    for n in range(1, n_max + 1):
        row = [0] * len(shaded)
        for occ, cells in _table(p, n):
            shared = 0
            for c in common:
                shared |= cells[c]
            for i, squares in enumerate(shaded):
                blocked = shared
                for c in squares:
                    blocked |= cells[c]
                row[i] |= occ ^ (occ & blocked)  # occ & ~blocked, without a negative int
        yield row


def _first_difference(rows: Iterable[Sequence[int]]) -> tuple[int, int] | None:
    """(n, lex rank) of the lowest bit in the first pair of rows that differ,
    the pairs numbered from n = 1, or None when every pair agrees."""
    for n, (a, b) in enumerate(rows, start=1):
        x = a ^ b
        if x:
            return n, (x & -x).bit_length() - 1
    return None


def fingerprints_many(p: Perm, masks: Iterable[int], n_max: int) -> list[tuple[int, ...]]:
    """Fingerprints of several meshes over one shared sweep of the hosts: per
    mesh, one containment row per size n = 1..n_max, whose bit j covers the
    j-th permutation of S_n in lexicographic order.  A pattern that is not
    a permutation, a mask outside its grid or a depth outside
    ``1..MAX_DEPTH`` raises ``ValueError`` before any table is built.

    >>> fingerprints_many((1, 2), (0,), 3)
    [(0, 1, 31)]
    """
    return list(zip(*_sweep(p, masks, n_max)))


def first_separation(p: Perm, a: int, b: int, n_max: int) -> tuple[int, int] | None:
    """(n, lex rank) of the least host of the smallest size n <= n_max that
    contains exactly one of the meshes ``a`` and ``b`` over ``p``, or None.

    The same answer as ``_first_difference`` of the two fingerprints, but
    the sweep stops at the first size that separates the pair.  A pattern
    that is not a permutation, a mask outside its grid or a depth outside
    ``1..MAX_DEPTH`` raises ``ValueError`` before any table is built.

    >>> first_separation((1, 2), 0, 1 << 6, 4)  # 12 against 12:(2,0)
    (3, 3)
    """
    return _first_difference(_sweep(p, (a, b), n_max))


MAX_SIGNATURE_LENGTH = 3
"""Longest pattern with a signature table.  The table has one entry per
mesh: 65,536 at length 3, 2**25 at length 4."""

SIGNATURE_BIT_BUDGET = 1 << 32
"""Largest signature table, in bits: meshes times hosts of S_1..S_n.  123 at
depth 8 takes 3.0e9 bits (about 380 MB); at depth 9 it would take 2.7e10."""


def check_signature_request(p: Perm, n_max: int) -> None:
    """Reject a signature table that :func:`containment_signatures` would
    not build: a pattern longer than ``MAX_SIGNATURE_LENGTH``, a depth
    outside ``1..MAX_DEPTH`` or a table above ``SIGNATURE_BIT_BUDGET``
    bits, checked in that order."""
    k = len(p)
    if k > MAX_SIGNATURE_LENGTH:
        raise ValueError(
            f"signature tables support patterns up to length "
            f"{MAX_SIGNATURE_LENGTH} (MAX_SIGNATURE_LENGTH), not {k}"
        )
    check_depth(n_max)
    table_bits = sum(factorial(n) for n in range(1, n_max + 1)) << (k + 1) ** 2
    if table_bits > SIGNATURE_BIT_BUDGET:
        raise ValueError(
            f"the signature table of {perm_text(p)} at depth {n_max} takes "
            f"{table_bits} bits, over SIGNATURE_BIT_BUDGET (2**32)"
        )


def containment_signatures(p: Perm, n_max: int) -> tuple[int, ...]:
    """For every mesh over ``p``'s grid, the containment indicator over all
    hosts of size 1..n_max: one bit per host, sizes concatenated, lex order
    within each size.

    ``by_mask[m]`` collects the hosts with an occurrence whose region mask
    is exactly m: each ``occ`` of the occurrence tables is split by the
    ``cells`` it meets.  A host contains mesh M iff one of its region masks
    lies inside ``full ^ M``, so after a zeta (subset-sum) transform of
    ``by_mask`` the signature of M is ``by_mask[full ^ M]``, and the table
    is ``by_mask`` reversed.

    A request that :func:`check_signature_request` rejects raises
    ``ValueError`` before any table is built.

    >>> sigs = containment_signatures((1,), 2)  # hosts 1, 12, 21
    >>> sigs[0], sigs[0b1111]  # fully shaded, the point is alone in its host
    (7, 1)
    """
    p = make_perm(p)
    check_signature_request(p, n_max)
    size = 1 << (len(p) + 1) ** 2
    by_mask = [0] * size
    offset = 0
    for n in range(1, n_max + 1):
        for occ, cells in _table(p, n):
            parts = [(0, occ)]
            for c, cell in enumerate(cells):
                split = []
                for m, hosts in parts:
                    inside = hosts & cell
                    if inside:
                        split.append((m | 1 << c, inside))
                    if inside != hosts:
                        split.append((m, hosts ^ inside))
                parts = split
            for m, hosts in parts:
                by_mask[m] |= hosts << offset
        offset += factorial(n)
    # the zeta transform, one slice at a time: a mask with bit ``step``
    # takes in the mask without it, in strided slices while the steps are
    # short and in contiguous blocks once they are long.  A block is cut
    # into runs of at most 256 masks, because a slice's new ints all exist
    # before its old ones are freed: the last step, in one slice, would
    # briefly hold half the final table twice.
    step = 1
    while step < size:
        span = 2 * step
        if step * step < size:
            for x in range(step, span):
                by_mask[x::span] = map(or_, by_mask[x::span], by_mask[x - step :: span])
        else:
            run = min(step, 256)
            for base in range(0, size, span):
                for lo in range(base, base + step, run):
                    high = slice(lo + step, lo + step + run)
                    by_mask[high] = map(or_, by_mask[high], by_mask[lo : lo + run])
        step = span
    by_mask.reverse()
    return tuple(by_mask)


# ---------------------------------------------------------------------------
# Text and JSON forms.

_SQUARE_RE = re.compile(r"\(\s*([0-9]+)\s*,\s*([0-9]+)\s*\)")


def parse_mesh_pattern(text: str) -> MeshPattern:
    """Parse ``PERM[:SQUARE*]``, e.g. ``231:(1,0)(3,2)`` or ``231:(1,0),(3,2)``."""
    s = text.strip()
    head, _, tail = s.partition(":")
    word = parse_perm(head)
    squares = []
    i = 0
    while i < len(tail):
        if tail[i] in " ,\t":
            i += 1
            continue
        m = _SQUARE_RE.match(tail, i)
        if not m:
            raise ParseError(f"bad mesh square at {tail[i:]!r}")
        squares.append((int(m.group(1)), int(m.group(2))))
        i = m.end()
    return MeshPattern(word, squares_to_mask(len(word), squares))


def mesh_pattern_to_json(pi: MeshPattern) -> dict:
    return {"perm": list(pi.perm), "mesh": [[a, b] for a, b in pi.squares]}


def _int_list(value) -> bool:
    return isinstance(value, (list, tuple)) and all(type(v) is int for v in value)


def mesh_pattern_from_json(obj: dict) -> MeshPattern:
    """Inverse of :func:`mesh_pattern_to_json`.  A missing or non-list
    ``perm``, a ``mesh`` entry that is not a pair of ints, or any other key
    is a ``ParseError`` that names the key."""
    unknown = [key for key in obj if key not in ("perm", "mesh")]
    if unknown:
        names = ", ".join(f'"{key}"' for key in unknown)
        raise ParseError(f'unknown JSON key {names}: a pattern has only "perm" and "mesh"')
    perm = obj.get("perm")
    if not _int_list(perm):
        raise ParseError(f'JSON key "perm" must be a list of ints, not {perm!r}')
    mesh = obj.get("mesh", [])
    if not isinstance(mesh, (list, tuple)) or not all(
        _int_list(sq) and len(sq) == 2 for sq in mesh
    ):
        raise ParseError(f'JSON key "mesh" must be a list of [a, b] int pairs, not {mesh!r}')
    word = make_perm(perm)
    return MeshPattern(word, squares_to_mask(len(word), mesh))
