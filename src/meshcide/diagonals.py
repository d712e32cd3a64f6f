"""Enclosed diagonals, the classical-coincidence criterion, distinguishing
witnesses, and the symmetry action on meshes.

An enclosed diagonal is a run of shaded squares threaded through consecutive
graph points along a 45-degree line: the interior corner lattice points of
the run belong to G(p) and the two end corners do not.  A single shaded
square with no corner on G(p) ("pointless") counts as a run of length one
and is simultaneously NE and SE.  These configurations are exactly what a
mesh can never shed: two patterns over the same p with different enclosed
diagonals are never coincident, and a pattern is coincident with its bare
classical pattern exactly when it has none.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .perm import Perm, apply_symmetry_perm, symmetry_word
from .mesh import (
    MeshPattern,
    Square,
    contains,
    square_bit,
    squares_to_mask,
)


@dataclass(frozen=True, order=True)
class EnclosedDiagonal:
    orientation: str  # "NE", "SE", or "PT" for a pointless square
    anchor: Square  # first square of the run
    length: int
    squares: tuple[Square, ...]


def graph_points(p: Perm) -> frozenset[tuple[int, int]]:
    return frozenset((i, v) for i, v in enumerate(p, start=1))


@lru_cache(maxsize=64)
def _diagonal_candidates(p: Perm) -> tuple[tuple[int, EnclosedDiagonal], ...]:
    """Every diagonal a mesh over ``p`` could enclose, with its square mask,
    in (anchor, orientation) order.

    Proper runs are found by walking each maximal diagonal run of graph
    points once, so maximality needs no separate filter.  No square can sit
    in two candidates: distinct runs claim disjoint squares and a pointless
    square has no graph corner at all.
    """
    k = len(p)
    points = graph_points(p)
    found = []
    for a in range(k + 1):
        for b in range(k + 1):
            corners = {(a, b), (a + 1, b), (a, b + 1), (a + 1, b + 1)}
            if not corners & points:
                found.append(EnclosedDiagonal("PT", (a, b), 1, ((a, b),)))
    for x, y in sorted(points):
        if (x - 1, y - 1) not in points:  # (x, y) starts a rising run
            c = 1
            while (x + c, y + c) in points:
                c += 1
            squares = tuple((x - 1 + i, y - 1 + i) for i in range(c + 1))
            found.append(EnclosedDiagonal("NE", squares[0], c + 1, squares))
        if (x - 1, y + 1) not in points:  # (x, y) starts a falling run
            c = 1
            while (x + c, y - c) in points:
                c += 1
            squares = tuple((x - 1 + i, y - i) for i in range(c + 1))
            found.append(EnclosedDiagonal("SE", squares[0], c + 1, squares))
    found.sort(key=lambda d: (d.anchor, d.orientation))
    return tuple((squares_to_mask(k, d.squares), d) for d in found)


def pointless_mask(p: Perm) -> int:
    """The squares of ``p``'s grid with no corner on the graph of ``p``."""
    return sum(m for m, d in _diagonal_candidates(p) if d.orientation == "PT")


def enclosed_diagonals(pi: MeshPattern) -> frozenset[EnclosedDiagonal]:
    """All enclosed diagonals of the pattern: the candidate runs and
    pointless squares whose squares are all shaded."""
    mask = pi.mask
    return frozenset(d for m, d in _diagonal_candidates(pi.perm) if mask & m == m)


def enc_core_mask(pi: MeshPattern) -> int:
    """Union of the squares of all enclosed diagonals, as a mask.  Candidates
    are square-disjoint, so this determines the diagonal set."""
    mask = pi.mask
    core = 0
    for m, _ in _diagonal_candidates(pi.perm):
        if mask & m == m:
            core |= m
    return core


def sorted_diagonals(pi: MeshPattern) -> list[EnclosedDiagonal]:
    """The enclosed diagonals in (anchor, orientation) order."""
    mask = pi.mask
    return [d for m, d in _diagonal_candidates(pi.perm) if mask & m == m]


def same_enc(pi: MeshPattern, pi2: MeshPattern) -> bool:
    """Do the two patterns enclose the same diagonals?  Their cores decide
    it, since the candidates are square-disjoint."""
    if pi.perm != pi2.perm:
        raise ValueError("patterns have different underlying permutations")
    return enc_core_mask(pi) == enc_core_mask(pi2)


def is_coincident_with_classical(pi: MeshPattern) -> bool:
    """True iff the whole mesh is superfluous (no enclosed diagonal)."""
    return not enclosed_diagonals(pi)


def diagonal_text(d: EnclosedDiagonal) -> str:
    if d.orientation == "PT":
        return f"PT ({d.anchor[0]},{d.anchor[1]})"
    last = d.squares[-1]
    return (
        f"{d.orientation} ({d.anchor[0]},{d.anchor[1]})-({last[0]},{last[1]})"
        f" len={d.length}"
    )


def diagonal_to_json(d: EnclosedDiagonal) -> dict:
    return {"orientation": d.orientation, "squares": [[a, b] for a, b in d.squares]}


# ---------------------------------------------------------------------------
# Symmetry action on meshes.

def apply_symmetry_square(name: str, k: int, square: Square) -> Square:
    a, b = square
    for ch in symmetry_word(name):
        if ch == "r":
            a = k - a
        elif ch == "c":
            b = k - b
        else:
            a, b = b, a
    return (a, b)


@lru_cache(maxsize=256)
def _symmetry_tables(word: str, k: int) -> tuple[tuple[int, ...], ...]:
    width = k + 1
    nbits = width * width
    tables = []
    for lo in range(0, nbits, 8):
        table = [0]
        for bit in range(lo, lo + 8):
            image = 0
            if bit < nbits:
                a, b = apply_symmetry_square(word, k, divmod(bit, width))
                image = square_bit(k, a, b)
            table += [t | image for t in table]
        tables.append(tuple(table))
    return tuple(tables)


def symmetry_tables(name: str, k: int) -> tuple[tuple[int, ...], ...]:
    """The action of a symmetry on masks over the (k+1) x (k+1) grid, as
    byte tables: table j maps the byte of mask bits 8j..8j+7 to the union of
    their images.  Built square by square from :func:`apply_symmetry_square`
    and cached per generator word and grid size."""
    return _symmetry_tables(symmetry_word(name), k)


def map_mask(tables: tuple[tuple[int, ...], ...], mask: int) -> int:
    """Image of a mask under the symmetry whose byte tables are given."""
    out = 0
    for table in tables:
        out |= table[mask & 0xFF]
        mask >>= 8
    return out


def apply_symmetry_mask(name: str, k: int, mask: int) -> int:
    """Image of a mesh mask under a symmetry.

    >>> from meshcide.mesh import mask_to_squares
    >>> mesh = squares_to_mask(2, [(0, 1), (2, 2)])
    >>> mask_to_squares(2, apply_symmetry_mask("r", 2, mesh))
    ((0, 2), (2, 1))
    >>> mask_to_squares(2, apply_symmetry_mask("ir", 2, mesh))  # any word
    ((0, 2), (1, 0))
    """
    return map_mask(symmetry_tables(name, k), mask)


def apply_symmetry_mesh(name: str, pi: MeshPattern) -> MeshPattern:
    """Transform pattern and mesh together; containment is equivariant."""
    return MeshPattern(
        apply_symmetry_perm(name, pi.perm),
        apply_symmetry_mask(name, pi.k, pi.mask),
    )


# ---------------------------------------------------------------------------
# Constructive witness for patterns with different enclosed diagonals.


@dataclass(frozen=True)
class DistinguishingWitness:
    perm: Perm
    contains_first: bool  # the witness contains the first pattern iff True


def _insert_between(p: Perm, a: int, b: int) -> Perm:
    """Flatten p(1)..p(a), b + 1/2, p(a+1)..p(k) to a permutation of k+1."""
    word: list[float] = list(p[:a]) + [b + 0.5] + list(p[a:])
    ranks = {v: i + 1 for i, v in enumerate(sorted(word))}
    return tuple(ranks[v] for v in word)


def enc_witness(pi: MeshPattern, pi2: MeshPattern) -> DistinguishingWitness:
    """A permutation of length k+1 separating two patterns whose enclosed
    diagonals differ.

    Take a diagonal D present in only one mesh and insert a new letter just
    below D's run, right after position a.  Every occurrence of p in the
    result omits one letter sitting over a square of D, so the D-owning
    pattern is avoided, while the other mesh misses some square of D and
    therefore is contained.  Falling runs go through the complement
    symmetry first.  The result is verified by direct containment before
    being returned.
    """
    if pi.perm != pi2.perm:
        raise ValueError("patterns have different underlying permutations")
    core1, core2 = enc_core_mask(pi), enc_core_mask(pi2)
    if core1 == core2:
        raise ValueError("patterns have the same enclosed diagonals")
    # The first such diagonal by its sorted squares, preferring one the
    # first pattern owns, for determinism only.  The candidates come in that
    # order: a run's anchor is its least square, and no two share a square.
    order = _diagonal_candidates(pi.perm)
    diag = next((d for m, d in order if core1 & m == m and core2 & m != m), None)
    owner_is_first = diag is not None
    if diag is None:
        diag = next(d for m, d in order if core2 & m == m and core1 & m != m)

    if diag.orientation in ("NE", "PT"):
        a, b = diag.anchor
        q = _insert_between(pi.perm, a, b)
    else:
        k = pi.k
        cp = apply_symmetry_perm("c", pi.perm)
        ca, cb = apply_symmetry_square("c", k, diag.anchor)
        q = apply_symmetry_perm("c", _insert_between(cp, ca, cb))

    c1, c2 = contains(pi, q), contains(pi2, q)
    expected = (False, True) if owner_is_first else (True, False)
    if (c1, c2) != expected:
        raise RuntimeError(
            f"witness construction failed verification for {pi} vs {pi2}: "
            f"got contains={c1, c2}, expected {expected}"
        )
    return DistinguishingWitness(q, contains_first=c1)
