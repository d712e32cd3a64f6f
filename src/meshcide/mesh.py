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
from typing import Iterable, Iterator, Sequence

from .perm import (
    Occurrence,
    ParseError,
    Perm,
    all_perms,
    iter_classical_occurrences,
    make_perm,
    parse_perm,
    perm_text,
)

Square = tuple[int, int]


def square_bit(k: int, a: int, b: int) -> int:
    return 1 << (a * (k + 1) + b)


def squares_to_mask(k: int, squares: Iterable[Square]) -> int:
    mask = 0
    for square in squares:
        a, b = square
        if not (0 <= a <= k and 0 <= b <= k):
            raise ParseError(f"square ({a},{b}) lies outside the {k + 1}x{k + 1} grid")
        mask |= square_bit(k, a, b)
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

    def with_mask(self, mask: int) -> "MeshPattern":
        return MeshPattern(self.perm, mask)

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
    for occ in iter_classical_occurrences(pi.perm, w):
        if occurrence_region_mask(w, occ) & pi.mask == 0:
            yield occ


def mesh_occurrences(pi: MeshPattern, w: Perm) -> list[Occurrence]:
    """Classical occurrences whose shaded regions are free of host points."""
    return list(iter_mesh_occurrences(pi, w))


def contains(pi: MeshPattern, w: Perm) -> bool:
    """Mesh containment; stops at the first valid occurrence."""
    return next(iter_mesh_occurrences(pi, w), None) is not None


def avoids(pi: MeshPattern, w: Perm) -> bool:
    return not contains(pi, w)


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


def mask_passes(region_masks: Sequence[int], mesh_mask: int) -> bool:
    return any(m & mesh_mask == 0 for m in region_masks)


_TABLE_DEPTH_LIMIT = 7


@lru_cache(maxsize=64)
def _host_mask_table(p: Perm, n: int) -> tuple[tuple[int, ...], ...]:
    """Cached per-host region masks for all of S_n (kept small: n <= 7)."""
    return tuple(host_region_masks(p, w) for w in all_perms(n))


def fingerprints_many(p: Perm, masks: Sequence[int], n_max: int) -> list[Fingerprint]:
    """Fingerprints of several meshes over one shared sweep of the hosts.

    The occurrence search runs once per host permutation; each mesh is then
    a cheap bitmask test against the host's region masks.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    rows = [[0] * n_max for _ in masks]
    for n in range(1, n_max + 1):
        if n <= _TABLE_DEPTH_LIMIT:
            table: Iterable[tuple[int, ...]] = _host_mask_table(p, n)
        else:
            table = (host_region_masks(p, w) for w in all_perms(n))
        for j, host in enumerate(table):
            for t, mesh in enumerate(masks):
                for m in host:
                    if m & mesh == 0:
                        rows[t][n - 1] |= 1 << j
                        break
    return [Fingerprint(n_max, tuple(r)) for r in rows]


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
