"""Permutations in one-line notation, classical patterns, and grid symmetries.

A permutation is a plain tuple of the integers ``1..n``.  Positions and
values are both 1-based, matching the usual combinatorics convention: the
letter at position ``i`` is ``w[i - 1]``, and the graph of ``w`` is the
point set ``{(i, w(i))}`` inside the ``[1, n] x [1, n]`` grid.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import factorial
from operator import or_
from typing import Iterator, Sequence

Perm = tuple[int, ...]
Occurrence = tuple[int, ...]


class ParseError(ValueError):
    """Malformed text for a permutation or a mesh pattern."""


def make_perm(values: Sequence[int]) -> Perm:
    """Validate one-line notation: int entries that form a bijection on 1..n.

    >>> make_perm([4, 2, 1, 3, 5])
    (4, 2, 1, 3, 5)
    """
    word = tuple(values)
    if not word:
        raise ParseError("empty permutation is not supported")
    _inverse(word)
    return word


def _inverse(w: Sequence[int]) -> list[int]:
    """The inverse array of a host: ``at[v]`` is the position of value v,
    and ``at[0]`` is 0.  This is the one host check: a word that is not int
    entries forming a bijection on 1..n (a ``bool`` is not an int) is a
    ``ParseError`` that names its first fault."""
    n = len(w)
    at = [0] * (n + 1)
    for x, v in enumerate(w, 1):
        if type(v) is not int or not 0 < v <= n or at[v]:
            break
        at[v] = x
    else:
        return at
    if type(v) is not int:
        fault = f"entry {v!r} is not an int"
    elif 0 < v <= n:
        fault = f"value {v} appears twice"
    else:  # n entries, one of them outside 1..n: a value is missing
        fault = f"value {next(u for u in range(1, n + 1) if u not in w)} is missing"
    raise ParseError(f"not a permutation of 1..{n}: {fault}")


def full_grid_mask(k: int) -> int:
    return (1 << (k + 1) ** 2) - 1


def check_mask(k: int, *masks: int) -> None:
    """Reject any mask that is not an int (an int subclass such as ``bool``
    is not a mask), or that has squares outside the (k+1) x (k+1) grid."""
    size = (k + 1) ** 2
    for mask in masks:
        if type(mask) is not int or mask < 0 or mask >> size:
            raise ValueError(f"mesh mask {mask!r} out of range for a length-{k} pattern")


def parse_perm(text: str) -> Perm:
    """Parse ``42135`` (digits, values at most 9) or ``4,8,2,9,...``; only
    ASCII digits count."""
    s = text.strip()
    if not s:
        raise ParseError("empty permutation")
    if "," in s:
        vals = []
        for part in s.split(","):
            part = part.strip()
            if not (part.isascii() and part.isdigit()):
                raise ParseError(f"bad permutation entry {part!r}")
            vals.append(int(part))
    else:
        if not (s.isascii() and s.isdigit()):
            raise ParseError(
                f"bad permutation {s!r}: expected digits or comma-separated values"
            )
        vals = [int(ch) for ch in s]
    return make_perm(vals)


def perm_text(w: Sequence[int]) -> str:
    """Compact text form; falls back to commas once values exceed one digit."""
    return "".join(map(str, w)) if max(w) <= 9 else ",".join(map(str, w))


def all_perms(n: int) -> Iterator[Perm]:
    """All of S_n in lexicographic order of the one-line words."""
    return itertools.permutations(range(1, n + 1))


def lex_rank(w: Sequence[int]) -> int:
    """0-based index of ``w`` in the lexicographic listing of S_n; a word
    that is not a permutation is a ``ParseError``.

    >>> lex_rank((1, 2, 3)), lex_rank((3, 2, 1))
    (0, 5)
    """
    w = make_perm(w)
    n = len(w)
    return sum(
        sum(v < u for v in w[i + 1 :]) * factorial(n - 1 - i) for i, u in enumerate(w)
    )


def lex_unrank(n: int, rank: int) -> Perm:
    """Inverse of :func:`lex_rank`; a size or rank that is not an int (a
    ``bool`` included), a size below 1 or a rank outside ``0..n! - 1`` is a
    ``ValueError``."""
    if type(n) is not int or type(rank) is not int:
        raise ValueError(f"size {n!r} and rank {rank!r} must both be ints")
    if n < 1:
        raise ValueError(f"size {n} is below 1, the smallest permutation size")
    if not 0 <= rank < factorial(n):
        raise ValueError(f"rank {rank} is outside 0..{factorial(n) - 1}, the ranks of S_{n}")
    avail = list(range(1, n + 1))
    out = []
    for i in range(n):
        idx, rank = divmod(rank, factorial(n - 1 - i))
        out.append(avail.pop(idx))
    return tuple(out)


@lru_cache(maxsize=1024)
def _search_plan(p: Perm, first: int) -> tuple[tuple, tuple, tuple, tuple, tuple]:
    """The placement steps of :func:`occurrence_search` for ``p`` when the
    mesh's first shaded square is bit ``first`` (-1 for none): the letters
    that bound that square first, the rest left to right.  Letters are named
    by their position in ``p``, 1..k.  Many squares share a letter order,
    and they share its plan (:func:`_letter_plan`)."""
    letters = range(1, len(p) + 1)
    if first < 0:
        return _letter_plan(p, tuple(letters))
    k = len(p)
    a, b = divmod(first, k + 1)
    lead = {a, a + 1}
    if b > 0:
        lead.add(p.index(b) + 1)
    if b < k:
        lead.add(p.index(b + 1) + 1)
    lead = sorted(lead - {0, k + 1})
    return _letter_plan(p, (*lead, *(i for i in letters if i not in lead)))


@lru_cache(maxsize=16)
def _square_bounds(k: int) -> tuple[tuple[int, int, int, int], ...]:
    """``(a, a + 1, b, b + 1)`` for each square (a, b) of the (k+1) x (k+1)
    grid, by square bit: one table per length, which every plan shares."""
    return tuple((a, a + 1, b, b + 1) for a in range(k + 1) for b in range(k + 1))


@lru_cache(maxsize=1024)
def _letter_plan(p: Perm, letters: tuple[int, ...]) -> tuple[tuple, tuple, tuple, tuple, tuple]:
    """The plan that places the letters of ``p`` in the order ``letters``:
    ``letters``, ``values`` and ``bounds`` indexed by step, ``settled`` and
    ``squares`` indexed by square bit.  ``0`` and ``k + 1`` name the grid's
    edges.  Step d places letter ``letters[d]`` of value ``values[d]``;
    ``bounds[d]`` is ``(left, right, below, above)``: its nearest placed
    letters in position and the values of its nearest placed letters in
    value.

    Square s = (a, b) is settled at step d, which places the last of its two
    column and two row bounds.  Most squares test that letter once it is
    placed: ``settled[s]`` is d and ``squares[s]`` is ``(a, a + 1, b, b +
    1)``, the entry of :func:`_square_bounds` that every plan of the length
    shares.  A square that the letter bounds by column only cuts its
    candidates instead: ``settled[s]`` is ``~d`` and ``squares[s]`` is ``(c,
    b, b + 1, after)``, its other column bound, its row bounds, and whether
    the letter is its right bound.
    """
    k = len(p)
    values = tuple(p[i - 1] for i in letters)
    # the step that places each letter, and each value; the edges come first
    column = {0: -1, k + 1: -1, **{i: d for d, i in enumerate(letters)}}
    row = {0: -1, k + 1: -1, **{v: d for d, v in enumerate(values)}}
    bounds = tuple(
        (
            max(j for j, e in column.items() if e < d and j < i),
            min(j for j, e in column.items() if e < d and j > i),
            max(u for u, e in row.items() if e < d and u < v),
            min(u for u, e in row.items() if e < d and u > v),
        )
        for d, (i, v) in enumerate(zip(letters, values))
    )
    settled, squares = [], []
    for box in _square_bounds(k):
        a, a1, b, b1 = box
        d = max(column[a], column[a1], row[b], row[b1])
        i = letters[d]
        if i in (a, a1) and values[d] not in (b, b1):
            settled.append(~d)
            squares.append((a1 if i == a else a, b, b1, i == a1))
        else:
            settled.append(d)
            squares.append(box)
    return letters, values, bounds, tuple(settled), tuple(squares)


def occurrence_search(p: Perm, w: Perm, mask: int = 0) -> Iterator[Occurrence]:
    """Yield the occurrences of ``p`` in ``w`` whose squares in ``mask``
    hold no other host point; square (a, b) is bit ``a * (k + 1) + b``.

    Letters are placed one at a time in the order of :func:`_search_plan`.
    A host point is a bit of an int indexed by position, and ``le[y]``
    holds the positions of the values at most ``y``.  The next letter's
    candidates lie strictly between its placed neighbours in position and
    in value: one AND of a position range with ``le[hi - 1] ^ le[lo]``, so
    every partial placement is order isomorphic to its letters of ``p``.

    A shaded square is settled by the last of its four bounds to be placed
    (:func:`_letter_plan`).  If that letter bounds it by column only, the
    square cuts the letter's candidates to one side of the nearest host
    point in its row band; otherwise the same AND tests it once the letter
    is placed.  A cut drops only candidates that the test would reject, so
    the order of occurrences does not change.  With ``mask == 0`` letters go
    left to right and occurrences come out in lexicographic order.

    A host that :func:`_inverse` refuses, or a mask that :func:`check_mask`
    refuses, raises ``ValueError``.
    """
    k, n = len(p), len(w)
    check_mask(k, mask)
    at = _inverse(w)  # at[v]: the position of value v
    if k > n:
        return
    # bit 0 (from at[0]) is in every le[y], so it cancels in each XOR
    le = list(itertools.accumulate([1 << x for x in at], or_))
    letters, values, bounds, settled, squares = _search_plan(
        tuple(p), (mask & -mask).bit_length() - 1
    )
    boxes = [()] * k  # boxes[d]: the shaded squares that test step d's letter
    cuts = [()] * k  # cuts[d]: the shaded squares that cut step d's candidates
    while mask:
        s = (mask & -mask).bit_length() - 1
        d = settled[s]
        if d < 0:
            cuts[~d] += (squares[s],)
        else:
            boxes[d] += (squares[s],)
        mask &= mask - 1
    pos = [0] * (k + 2)  # pos[i]: host position of letter i
    val = [0] * (k + 2)  # val[v]: host value of the letter of value v
    pos[k + 1] = val[k + 1] = n + 1
    last = k - 1
    todo = [0] * k  # todo[d]: the candidates of step d not yet tried
    # the first letter may sit anywhere: a square it settles has it for a
    # row bound as well as a column bound, so none cuts step 0
    todo[0] = (1 << (n + 1)) - 2
    d = 0
    while d >= 0:
        cand = todo[d]
        if not cand:
            d -= 1
            continue
        low = cand & -cand
        todo[d] = cand ^ low
        x = low.bit_length() - 1
        pos[letters[d]] = x
        val[values[d]] = w[x - 1]
        for a, a1, b, b1 in boxes[d]:
            if ((1 << pos[a1]) - (2 << pos[a])) & (le[val[b1] - 1] ^ le[val[b]]):
                break
        else:
            if d == last:
                yield tuple(pos[1:-1])
                continue
            d += 1
            left, right, below, above = bounds[d]
            cand = ((1 << pos[right]) - (2 << pos[left])) & (le[val[above] - 1] ^ le[val[below]])
            for c, b, b1, after in cuts[d]:
                if not cand:
                    break
                band = le[val[b1] - 1] ^ le[val[b]]
                if after:  # at most the band's first position past pos[c]
                    band &= -(2 << pos[c])
                    cand &= (band & -band) - 1
                else:  # past the band's last position before pos[c]
                    band &= (1 << pos[c]) - 1
                    cand &= -(1 << band.bit_length())
            todo[d] = cand


def iter_classical_occurrences(p: Perm, w: Perm) -> Iterator[Occurrence]:
    """Yield position tuples of every occurrence of ``p`` in ``w``, in
    lexicographic order (:func:`occurrence_search` with no shaded square).
    A pattern that is not a permutation is a ``ParseError``."""
    yield from occurrence_search(make_perm(p), w)


def classical_occurrences(p: Perm, w: Perm) -> list[Occurrence]:
    """All occurrences of the classical pattern ``p`` in ``w``."""
    return list(iter_classical_occurrences(p, w))


def valid_positions(positions: Occurrence, n: int) -> bool:
    """Are ``positions`` a non-empty, strictly increasing tuple of ints in
    1..n?  A ``bool`` is not a position, and a list is not a tuple."""
    return (
        type(positions) is tuple and positions != ()
        and all(type(x) is int for x in positions)
        and all(x < y for x, y in zip((0, *positions), (*positions, n + 1)))
    )


def is_occurrence(p: Perm, w: Perm, positions: Occurrence) -> bool:
    """Do the given positions select a subsequence of ``w`` order isomorphic
    to ``p``?  Positions that :func:`valid_positions` refuses select none;
    a host that is not a permutation of 1..n is a ``ParseError``."""
    k = len(p)
    if not valid_positions(positions, len(make_perm(w))) or len(positions) != k:
        return False
    vals = [w[x - 1] for x in positions]
    return all((vals[s] < vals[t]) == (p[s] < p[t]) for t in range(k) for s in range(t))


# ---------------------------------------------------------------------------
# The dihedral symmetries generated by reverse, complement, and inverse.
# A symmetry is named by a word over the generators {r, c, i}, applied left
# to right; "id" is the identity.  The eight canonical names below exhaust
# the group.

SYMMETRIES = ("id", "r", "c", "rc", "i", "ri", "ci", "rci")


def symmetry_word(name: str) -> str:
    """The generator word of a symmetry name: '' for the identity, named
    ``id`` or ``""``, and otherwise the name, a word over r, c and i."""
    if name == "id":
        return ""
    if name.strip("rci"):
        raise ValueError(f"unknown symmetry {name!r}")
    return name


def _symmetry_form(name: str) -> tuple[bool, bool, bool]:
    """The normal form ``(swap, reflect_x, reflect_y)`` of a symmetry: it
    swaps a point's coordinates if ``swap``, then reflects its x and its y
    as the flags say.  Reverse reflects x, complement reflects y, and
    inverse swaps, so inverse after a normal form swaps the two reflections
    too.  This is the one place that reads the generators."""
    swap = reflect_x = reflect_y = False
    for ch in symmetry_word(name):
        if ch == "r":
            reflect_x = not reflect_x
        elif ch == "c":
            reflect_y = not reflect_y
        else:
            swap, reflect_x, reflect_y = not swap, reflect_y, reflect_x
    return swap, reflect_x, reflect_y


def apply_symmetry_point(name: str, n: int, point: tuple[int, int]) -> tuple[int, int]:
    """Act on a point of the ``[0, n+1] x [0, n+1]`` grid."""
    swap, reflect_x, reflect_y = _symmetry_form(name)
    x, y = point[::-1] if swap else point
    return (n + 1 - x if reflect_x else x, n + 1 - y if reflect_y else y)


def apply_symmetry_perm(name: str, w: Perm) -> Perm:
    """Apply a dihedral symmetry to a permutation: the image of its graph.

    >>> apply_symmetry_perm("r", (2, 3, 1))
    (1, 3, 2)
    >>> apply_symmetry_perm("c", (2, 3, 1))
    (2, 1, 3)
    """
    n = len(w)
    out = [0] * n
    for point in enumerate(w, 1):
        x, y = apply_symmetry_point(name, n, point)
        out[x - 1] = y
    return tuple(out)


def inverse_symmetry(name: str) -> str:
    """Generator word undoing ``name`` (each generator is an involution)."""
    return symmetry_word(name)[::-1] or "id"
