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
from functools import lru_cache
from itertools import combinations
from math import factorial
from typing import Iterable, Iterator, Sequence

from .perm import (
    Occurrence,
    ParseError,
    Perm,
    all_perms,
    iter_classical_occurrences,
    make_perm,
    occurrence_search,
    parse_perm,
    perm_text,
)

Square = tuple[int, int]


def square_bit(k: int, a: int, b: int) -> int:
    return 1 << (a * (k + 1) + b)


def squares_to_mask(k: int, squares: Iterable[Square]) -> int:
    mask = 0
    for a, b in squares:
        if not (0 <= a <= k and 0 <= b <= k):
            raise ParseError(f"square ({a},{b}) lies outside the {k + 1}x{k + 1} grid")
        mask |= 1 << (a * (k + 1) + b)  # square_bit, inlined for the cache loader
    return mask


@lru_cache(maxsize=16)
def _square_tables(k: int) -> tuple[tuple[tuple[Square, ...], ...], ...]:
    """Table j maps the byte of mask bits 8j..8j+7 to its squares."""
    width = k + 1
    nbits = width * width
    tables = []
    for lo in range(0, nbits, 8):
        table: list[tuple[Square, ...]] = [()]
        for bit in range(lo, lo + 8):
            square = (divmod(bit, width),) if bit < nbits else ()
            table += [t + square for t in table]
        tables.append(tuple(table))
    return tuple(tables)


def mask_to_squares(k: int, mask: int) -> tuple[Square, ...]:
    """The squares of a mask in bit order: by column, then by row."""
    squares: tuple[Square, ...] = ()
    for table in _square_tables(k):
        squares += table[mask & 0xFF]
        mask >>= 8
    return squares


def full_grid_mask(k: int) -> int:
    return (1 << (k + 1) ** 2) - 1


@dataclass(frozen=True)
class MeshPattern:
    """A classical pattern plus a set of shaded grid squares."""

    perm: Perm
    mask: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "perm", make_perm(self.perm))
        if not 0 <= self.mask <= full_grid_mask(self.k):
            raise ValueError(f"mesh mask out of range for a length-{self.k} pattern")

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
        return bool(self.mask & square_bit(self.k, a, b))

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


def corresponding_region(w: Perm, occ: Occurrence, square: Square) -> OpenBox:
    """Host rectangle covered by a mesh square relative to one occurrence.

    With occurrence positions ``i_1 < ... < i_k`` extended by ``i_0 = 0`` and
    ``i_{k+1} = n + 1``, and the sorted occurrence values extended the same
    way, square ``(a, b)`` maps to the open box
    ``(i_a, i_{a+1}) x (v_b, v_{b+1})``.  The open interior is the right
    emptiness test: a host point can only touch the closed boundary if it is
    one of the occurrence's own points.
    """
    n = len(w)
    k = len(occ)
    a, b = square
    if not (0 <= a <= k and 0 <= b <= k):
        raise ValueError(
            f"square ({a},{b}) does not fit the grid of a length-{k} occurrence"
        )
    if any(occ[i] >= occ[i + 1] for i in range(k - 1)) or not (
        1 <= occ[0] and occ[-1] <= n
    ):
        raise ValueError(f"invalid occurrence positions {occ!r}")
    pos = (0,) + tuple(occ) + (n + 1,)
    vals = (0,) + tuple(sorted(w[i - 1] for i in occ)) + (n + 1,)
    return OpenBox(pos[a], pos[a + 1], vals[b], vals[b + 1])


def occurrence_region_mask(w: Perm, occ: Occurrence) -> int:
    """Bitmask of the grid squares whose region holds at least one host point.

    A non-occurrence point (x, w(x)) lands in the cell whose column counts
    occurrence positions below x and whose row counts occurrence values
    below w(x); a mesh blocks the occurrence iff it meets this mask.
    """
    k = len(occ)
    width = k + 1
    vals = sorted(w[i - 1] for i in occ)
    occ_set = set(occ)
    mask = 0
    for x in range(1, len(w) + 1):
        if x in occ_set:
            continue
        a = bisect_right(occ, x)
        b = bisect_right(vals, w[x - 1])
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
    return next(iter_mesh_occurrences(pi, w), None) is not None


def avoiders(pi: MeshPattern, n: int) -> list[Perm]:
    """All w in S_n avoiding ``pi``, in lexicographic order."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return [w for w in all_perms(n) if not contains(pi, w)]


# ---------------------------------------------------------------------------
# Fingerprints: the containment indicator over all of S_1..S_{n_max}.


@dataclass(frozen=True)
class Fingerprint:
    """One containment bitmask per size; bit j covers the j-th permutation of
    S_n in lexicographic order."""

    n_max: int
    per_n: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.per_n) != self.n_max:
            raise ValueError("fingerprint depth does not match its rows")

    def bit(self, n: int, rank: int) -> bool:
        return bool((self.per_n[n - 1] >> rank) & 1)

    def first_difference(self, other: "Fingerprint") -> tuple[int, int] | None:
        """(n, lex rank) of the earliest disagreement, or None."""
        for n in range(1, min(self.n_max, other.n_max) + 1):
            x = self.per_n[n - 1] ^ other.per_n[n - 1]
            if x:
                return n, (x & -x).bit_length() - 1
        return None

    def hex_rows(self) -> list[str]:
        return [hex(row) for row in self.per_n]


def default_depth(k: int) -> int:
    """Comparison depth used when none is requested: k + 3, capped at 8."""
    return min(k + 3, 8)


def host_region_masks(p: Perm, w: Perm) -> tuple[int, ...]:
    """Region masks of all occurrences of ``p`` in ``w``, reduced for the
    containment test: duplicates and supersets of other masks are dropped
    (a mesh avoided by some mask is avoided by every subset of it)."""
    masks = {occurrence_region_mask(w, occ) for occ in iter_classical_occurrences(p, w)}
    if not masks:
        return ()
    if 0 in masks:
        return (0,)
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
# stays below 40 MB; deeper tables are rebuilt on each call.
_CACHED_TABLE_DEPTH = 7


def check_depth(n_max: int) -> None:
    """Reject a fingerprint depth outside ``1..MAX_DEPTH``."""
    if not 1 <= n_max <= MAX_DEPTH:
        raise ValueError(
            f"fingerprint depth {n_max} is outside 1..{MAX_DEPTH} (MAX_DEPTH)"
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


def _occurrence_tables(p: Perm, n: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """One entry per position set t that is an occurrence of ``p`` in some
    host of S_n: ``(occ, cells)``, where ``occ`` holds the hosts with an
    occurrence at t and ``cells[a * (k + 1) + b]``, read inside ``occ``, the
    hosts with another point in square (a, b) of that occurrence.  Sets are
    bitsets over S_n in lex order."""
    k = len(p)
    less = _less_sets(n)
    everything = (1 << factorial(n)) - 1
    by_value = sorted(range(k), key=p.__getitem__)
    tables = []
    for t in combinations(range(n), k):
        # q[b]: the position of the (b+1)-th smallest occurrence value
        q = [t[i] for i in by_value]
        occ = everything
        for lo, hi in zip(q, q[1:]):
            occ &= less[lo][hi]
        if not occ:
            continue
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
        tables.append((occ, tuple(cells)))
    return tuple(tables)


_cached_occurrence_tables = lru_cache(maxsize=64)(_occurrence_tables)


def _tables_through(p: Perm, n_max: int) -> list:
    """The occurrence tables of ``p`` for S_1..S_{n_max}: cached up to
    ``_CACHED_TABLE_DEPTH``, rebuilt above it."""
    return [
        _cached_occurrence_tables(p, n) if n <= _CACHED_TABLE_DEPTH
        else _occurrence_tables(p, n)
        for n in range(1, n_max + 1)
    ]


def fingerprints_many(p: Perm, masks: Sequence[int], n_max: int) -> list[Fingerprint]:
    """Fingerprints of several meshes over one shared sweep of the hosts.

    All of S_n is handled at once: a set of hosts is a bitset, and a host
    contains a mesh iff some occurrence ``t`` of ``p`` in it has no other
    point in a shaded square, so row n is the union over t of ``occ_t``
    minus the union of the shaded ``cells_t``.

    >>> fingerprints_many((1, 2), (0,), 3)[0].per_n == (0, 1, 31)
    True
    """
    check_depth(n_max)
    p = tuple(p)
    nbits = (len(p) + 1) ** 2
    tables = _tables_through(p, n_max)
    fingerprints = []
    for mesh in masks:
        squares = [c for c in range(nbits) if mesh >> c & 1]
        rows = []
        for table in tables:
            hit = 0
            for occ, cells in table:
                blocked = 0
                for c in squares:
                    blocked |= cells[c]
                hit |= occ & ~blocked
            rows.append(hit)
        fingerprints.append(Fingerprint(n_max, tuple(rows)))
    return fingerprints


MAX_SIGNATURE_LENGTH = 3
"""Longest pattern with a signature table.  The table has one entry per
mesh: 65,536 at length 3, 2**25 at length 4."""

SIGNATURE_BIT_BUDGET = 1 << 32
"""Largest signature table, in bits: meshes times hosts of S_1..S_n.  123 at
depth 8 takes 3.0e9 bits (about 380 MB); at depth 9 it would take 2.7e10."""


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

    A pattern longer than ``MAX_SIGNATURE_LENGTH``, a depth outside
    ``1..MAX_DEPTH`` or a table above ``SIGNATURE_BIT_BUDGET`` bits raises
    ``ValueError`` before any table is built.

    >>> sigs = containment_signatures((1,), 2)  # hosts 1, 12, 21
    >>> sigs[0], sigs[0b1111]  # fully shaded, the point is alone in its host
    (7, 1)
    """
    p = make_perm(p)
    k = len(p)
    if k > MAX_SIGNATURE_LENGTH:
        raise ValueError(
            f"signature tables support patterns up to length "
            f"{MAX_SIGNATURE_LENGTH} (MAX_SIGNATURE_LENGTH), not {k}"
        )
    check_depth(n_max)
    nbits = (k + 1) ** 2
    table_bits = sum(factorial(n) for n in range(1, n_max + 1)) << nbits
    if table_bits > SIGNATURE_BIT_BUDGET:
        raise ValueError(
            f"the signature table of {perm_text(p)} at depth {n_max} takes "
            f"{table_bits} bits, over SIGNATURE_BIT_BUDGET (2**32)"
        )
    size = 1 << nbits
    by_mask = [0] * size
    offset = 0
    for n, tables in enumerate(_tables_through(p, n_max), start=1):
        for occ, cells in tables:
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
    step = 1
    while step < size:
        for base in range(0, size, 2 * step):
            for x in range(base + step, base + 2 * step):
                by_mask[x] |= by_mask[x - step]
        step *= 2
    by_mask.reverse()
    return tuple(by_mask)


def fingerprint(pi: MeshPattern, n_max: int | None = None) -> Fingerprint:
    if n_max is None:
        n_max = default_depth(pi.k)
    return fingerprints_many(pi.perm, (pi.mask,), n_max)[0]


# ---------------------------------------------------------------------------
# Text and JSON forms.

_SQUARE_RE = re.compile(r"\(\s*(\d+)\s*,\s*(\d+)\s*\)")


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


def mesh_pattern_from_json(obj: dict) -> MeshPattern:
    word = make_perm(obj["perm"])
    squares = [tuple(sq) for sq in obj.get("mesh", ())]
    return MeshPattern(word, squares_to_mask(len(word), squares))
