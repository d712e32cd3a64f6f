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
    """Validate one-line notation: the entries must be a bijection on 1..n.

    >>> make_perm([4, 2, 1, 3, 5])
    (4, 2, 1, 3, 5)
    """
    word = tuple(values)
    if not word:
        raise ParseError("empty permutation is not supported")
    n = len(word)
    seen: set[int] = set()
    for v in word:
        if v in seen:
            raise ParseError(f"not a permutation of 1..{n}: value {v} appears twice")
        seen.add(v)
    for v in range(1, n + 1):
        if v not in seen:
            raise ParseError(f"not a permutation of 1..{n}: value {v} is missing")
    return word


def parse_perm(text: str) -> Perm:
    """Parse ``42135`` (digits, values at most 9) or ``4,8,2,9,...``."""
    s = text.strip()
    if not s:
        raise ParseError("empty permutation")
    if "," in s:
        vals = []
        for part in s.split(","):
            part = part.strip()
            if not part or not part.isdigit():
                raise ParseError(f"bad permutation entry {part!r}")
            vals.append(int(part))
    else:
        if not s.isdigit():
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
    """0-based index of ``w`` in the lexicographic listing of S_n.

    >>> lex_rank((1, 2, 3)), lex_rank((3, 2, 1))
    (0, 5)
    """
    n = len(w)
    r = 0
    for i in range(n):
        smaller = sum(1 for j in range(i + 1, n) if w[j] < w[i])
        r += smaller * factorial(n - 1 - i)
    return r


def lex_unrank(n: int, rank: int) -> Perm:
    """Inverse of :func:`lex_rank`."""
    avail = list(range(1, n + 1))
    out = []
    for i in range(n):
        idx, rank = divmod(rank, factorial(n - 1 - i))
        out.append(avail.pop(idx))
    return tuple(out)


@lru_cache(maxsize=1024)
def _search_plan(p: Perm, first: int) -> tuple[tuple, tuple, tuple, tuple]:
    """The placement steps of :func:`occurrence_search` for ``p`` when the
    mesh's first shaded square is bit ``first`` (-1 for none), as four
    tuples indexed by step: ``letters``, ``values``, ``bounds``, ``done``.

    Letters are named by their position in ``p``, 1..k, and ``0`` and
    ``k + 1`` are the grid's edges.  The letters that bound square ``first``
    are placed first, the rest left to right.  Step d places letter
    ``letters[d]`` of value ``values[d]``; ``bounds[d]`` is ``(left, right,
    below, above)``: its nearest placed letters in position and the values
    of its nearest placed letters in value.  ``done[d]`` holds the squares
    whose four bounds are first all placed at step d.
    """
    k = len(p)
    letter_of = [0] * (k + 2)
    letter_of[k + 1] = k + 1
    for i, v in enumerate(p, 1):
        letter_of[v] = i
    letters = list(range(1, k + 1))
    if first >= 0:
        a, b = divmod(first, k + 1)
        lead = sorted({a, a + 1, letter_of[b], letter_of[b + 1]} - {0, k + 1})
        letters = lead + [i for i in letters if i not in lead]
    values = [p[i - 1] for i in letters]
    placed, placed_values = {0, k + 1}, {0, k + 1}
    bounds, done, bounded = [], [], 0
    for i, v in zip(letters, values):
        bounds.append((
            max(j for j in placed if j < i),
            min(j for j in placed if j > i),
            max(u for u in placed_values if u < v),
            min(u for u in placed_values if u > v),
        ))
        placed.add(i)
        placed_values.add(v)
        now = sum(
            1 << (a * (k + 1) + b)
            for a in range(k + 1) if {a, a + 1} <= placed
            for b in range(k + 1) if {b, b + 1} <= placed_values
        )
        done.append(now & ~bounded)
        bounded = now
    return tuple(letters), tuple(values), tuple(bounds), tuple(done)


def occurrence_search(p: Perm, w: Perm, mask: int = 0) -> Iterator[Occurrence]:
    """Yield the occurrences of ``p`` in ``w`` whose squares in ``mask``
    hold no other host point; square (a, b) is bit ``a * (k + 1) + b``.

    Letters are placed one at a time in the order of :func:`_search_plan`.
    A host point is a bit of an int indexed by position, and ``le[y]``
    holds the positions of the values at most ``y``.  The next letter's
    candidates lie strictly between its placed neighbours in position and
    in value: one AND of a position range with ``le[hi - 1] ^ le[lo]``, so
    every partial placement is order isomorphic to its letters of ``p``.  A
    shaded square is tested by the same AND as soon as its two column and
    two row bounds are placed.  With ``mask == 0`` letters go left to right
    and occurrences come out in lexicographic order.

    A host that is not a permutation of 1..n raises ``ValueError``.
    """
    k, n = len(p), len(w)
    at = [0] * (n + 1)  # at[v]: the position of value v
    for x, v in enumerate(w, 1):
        if not 0 < v <= n or at[v]:
            raise ValueError(f"host {w!r} is not a permutation of 1..{n}")
        at[v] = x
    if k > n:
        return
    # bit 0 (from at[0]) is in every le[y], so it cancels in each XOR
    le = list(itertools.accumulate([1 << x for x in at], or_))
    letters, values, bounds, done = _search_plan(tuple(p), (mask & -mask).bit_length() - 1)
    boxes = []  # boxes[d]: the shaded squares to test at step d, by their bounds
    for squares in done:
        squares &= mask
        here = []
        while squares:
            a, b = divmod((squares & -squares).bit_length() - 1, k + 1)
            here.append((a, a + 1, b, b + 1))
            squares &= squares - 1
        boxes.append(here)
    pos = [0] * (k + 2)  # pos[i]: host position of letter i
    val = [0] * (k + 2)  # val[v]: host value of the letter of value v
    pos[k + 1] = val[k + 1] = n + 1
    last = k - 1
    todo = [0] * k  # todo[d]: the candidates of step d not yet tried
    todo[0] = (1 << (n + 1)) - 2  # the first letter may sit anywhere
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
            todo[d] = ((1 << pos[right]) - (2 << pos[left])) & (le[val[above] - 1] ^ le[val[below]])


def iter_classical_occurrences(p: Perm, w: Perm) -> Iterator[Occurrence]:
    """Yield position tuples of every occurrence of ``p`` in ``w``, in
    lexicographic order (:func:`occurrence_search` with no shaded square)."""
    yield from occurrence_search(p, w)


def classical_occurrences(p: Perm, w: Perm) -> list[Occurrence]:
    """All occurrences of the classical pattern ``p`` in ``w``."""
    return list(iter_classical_occurrences(p, w))


def contains_classical(p: Perm, w: Perm) -> bool:
    return next(iter_classical_occurrences(p, w), None) is not None


def is_occurrence(p: Perm, w: Perm, positions: Sequence[int]) -> bool:
    """Do the given positions select a subsequence of ``w`` order isomorphic to ``p``?"""
    k, n = len(p), len(w)
    if len(positions) != k:
        return False
    if any(not 1 <= x <= n for x in positions):
        return False
    if any(positions[i] >= positions[i + 1] for i in range(k - 1)):
        return False
    vals = [w[x - 1] for x in positions]
    return all(
        (vals[s] < vals[t]) == (p[s] < p[t])
        for s in range(k)
        for t in range(s + 1, k)
    )


# ---------------------------------------------------------------------------
# The dihedral symmetries generated by reverse, complement, and inverse.
# A symmetry is named by a word over the generators {r, c, i}, applied left
# to right; "id" is the identity.  The eight canonical names below exhaust
# the group.

SYMMETRIES = ("id", "r", "c", "rc", "i", "ri", "ci", "rci")

_LONG_NAMES = {
    "identity": "id",
    "reverse": "r",
    "complement": "c",
    "inverse": "i",
}


def symmetry_word(name: str) -> str:
    """Normalize a symmetry name to its generator word ('' for the identity)."""
    s = _LONG_NAMES.get(name.strip().lower(), name.strip().lower())
    if s in ("id", "e", ""):
        return ""
    if any(ch not in "rci" for ch in s):
        raise ValueError(f"unknown symmetry {name!r}")
    return s


def apply_symmetry_perm(name: str, w: Perm) -> Perm:
    """Apply a dihedral symmetry to a permutation.

    >>> apply_symmetry_perm("r", (2, 3, 1))
    (1, 3, 2)
    >>> apply_symmetry_perm("c", (2, 3, 1))
    (2, 1, 3)
    """
    out = tuple(w)
    n = len(out)
    for ch in symmetry_word(name):
        if ch == "r":
            out = out[::-1]
        elif ch == "c":
            out = tuple(n + 1 - v for v in out)
        else:
            inv = [0] * n
            for i, v in enumerate(out):
                inv[v - 1] = i + 1
            out = tuple(inv)
    return out


def apply_symmetry_point(name: str, n: int, point: tuple[int, int]) -> tuple[int, int]:
    """Act on a point of the ``[0, n+1] x [0, n+1]`` grid."""
    x, y = point
    for ch in symmetry_word(name):
        if ch == "r":
            x = n + 1 - x
        elif ch == "c":
            y = n + 1 - y
        else:
            x, y = y, x
    return (x, y)


def inverse_symmetry(name: str) -> str:
    """Generator word undoing ``name`` (each generator is an involution)."""
    return symmetry_word(name)[::-1] or "id"


def canonical_symmetry(name: str) -> str:
    """Fold an arbitrary generator word onto one of the eight canonical names."""
    # (1,3,4,2) has trivial stabilizer, so its image pins the group element.
    probe = (1, 3, 4, 2)
    image = apply_symmetry_perm(name, probe)
    for s in SYMMETRIES:
        if apply_symmetry_perm(s, probe) == image:
            return s
    raise AssertionError("dihedral group closure violated")


def direct_sum(u: Perm, v: Perm) -> Perm:
    """Concatenate ``u`` and ``v`` with ``v`` shifted above ``u``.

    >>> direct_sum((1,), (2, 1))
    (1, 3, 2)
    """
    m = len(u)
    return tuple(u) + tuple(x + m for x in v)


def is_sum_decomposable(w: Perm) -> bool:
    """True iff ``w = u (+) v`` for nonempty ``u``, ``v``; i.e. some proper
    prefix of ``w`` uses exactly the values ``1..m``."""
    top = 0
    for m in range(1, len(w)):
        top = max(top, w[m - 1])
        if top == m:
            return True
    return False
