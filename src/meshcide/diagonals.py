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
from typing import NamedTuple

from .perm import Perm, apply_symmetry_perm, apply_symmetry_point, check_mask, symmetry_word
from .mesh import (
    MeshPattern,
    Square,
    host_region_masks,
    mask_to_squares,
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
def _diagonal_candidates(p: Perm) -> tuple[tuple[int, int, EnclosedDiagonal], ...]:
    """Every diagonal a mesh over ``p`` could enclose, in anchor order, as
    ``(mask, 1 << i, diagonal)`` for the i-th: its square mask, its bit in
    :func:`_enclosed`'s sets, and the diagonal.

    Each square is visited once, in (a, b) order, and is the anchor of at
    most one candidate: a pointless square, or the first square of a maximal
    run, whose corner along the run is a graph point and whose corner behind
    it is not.  No square can sit in two candidates: distinct runs claim
    disjoint squares and a pointless square has no graph corner at all.
    """
    k = len(p)
    points = graph_points(p)
    found = []
    for a in range(k + 1):
        for b in range(k + 1):
            if not {(a, b), (a + 1, b), (a, b + 1), (a + 1, b + 1)} & points:
                found.append(EnclosedDiagonal("PT", (a, b), 1, ((a, b),)))
            for orientation, dy in (("NE", 1), ("SE", -1)):
                # a run goes on from the square's upper right corner when it
                # rises, from its lower right one when it falls
                y = b + (dy > 0)
                if (a + 1, y) not in points or (a, y - dy) in points:
                    continue  # (a, b) is not the first square of a run
                c = 1
                while (a + 1 + c, y + dy * c) in points:
                    c += 1
                squares = tuple((a + t, b + dy * t) for t in range(c + 1))
                found.append(EnclosedDiagonal(orientation, (a, b), c + 1, squares))
    return tuple((squares_to_mask(k, d.squares), 1 << i, d) for i, d in enumerate(found))


def _enclosed(p: Perm, mask: int) -> int:
    """The diagonals the mesh ``mask`` over ``p`` encloses: bit i is set when
    it shades every square of the i-th candidate of
    :func:`_diagonal_candidates`.  Candidates are square-disjoint, so equal
    sets mean equal enclosed diagonals."""
    found = 0
    for m, bit, _ in _diagonal_candidates(p):
        if mask & m == m:
            found |= bit
    return found


def pointless_mask(p: Perm) -> int:
    """The squares of ``p``'s grid with no corner on the graph of ``p``."""
    return sum(m for m, _, d in _diagonal_candidates(p) if d.orientation == "PT")


def enclosed_diagonals(pi: MeshPattern) -> frozenset[EnclosedDiagonal]:
    """All enclosed diagonals of the pattern: the candidate runs and
    pointless squares whose squares are all shaded."""
    return frozenset(sorted_diagonals(pi))


def enc_core_mask(pi: MeshPattern) -> int:
    """Union of the squares of all enclosed diagonals, as a mask.  Candidates
    are square-disjoint, so this determines the diagonal set."""
    found = _enclosed(pi.perm, pi.mask)
    return sum(m for m, bit, _ in _diagonal_candidates(pi.perm) if found & bit)


def sorted_diagonals(pi: MeshPattern) -> list[EnclosedDiagonal]:
    """The enclosed diagonals in (anchor, orientation) order."""
    found = _enclosed(pi.perm, pi.mask)
    return [d for _, bit, d in _diagonal_candidates(pi.perm) if found & bit]


def same_enc(pi: MeshPattern, pi2: MeshPattern) -> bool:
    """Do the two patterns enclose the same diagonals?"""
    if pi.perm != pi2.perm:
        raise ValueError("patterns have different underlying permutations")
    return _enclosed(pi.perm, pi.mask) == _enclosed(pi.perm, pi2.mask)


def is_coincident_with_classical(pi: MeshPattern) -> bool:
    """True iff the whole mesh is superfluous (no enclosed diagonal)."""
    return not _enclosed(pi.perm, pi.mask)


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
    """Act on a square of the (k+1) x (k+1) grid.  Square indices run over
    0..k like the point coordinates of the grid of k - 1 points, and a
    symmetry moves the two alike.  A square that :func:`squares_to_mask`
    refuses, one off the grid or not a pair of ints, is a ``ValueError``."""
    squares_to_mask(k, (square,))
    return apply_symmetry_point(name, k - 1, square)


def apply_symmetry_mask(name: str, k: int, mask: int) -> int:
    """Image of a mesh mask under a symmetry: each shaded square moves by
    :func:`apply_symmetry_square`.  An unknown name, even on the empty mesh,
    and a mask outside the grid raise ``ValueError``.

    >>> from meshcide.mesh import mask_to_squares
    >>> mesh = squares_to_mask(2, [(0, 1), (2, 2)])
    >>> mask_to_squares(2, apply_symmetry_mask("r", 2, mesh))
    ((0, 2), (2, 1))
    >>> mask_to_squares(2, apply_symmetry_mask("ir", 2, mesh))  # any word
    ((0, 2), (1, 0))
    """
    symmetry_word(name)
    check_mask(k, mask)
    return squares_to_mask(
        k, [apply_symmetry_square(name, k, s) for s in mask_to_squares(k, mask)]
    )


def apply_symmetry_mesh(name: str, pi: MeshPattern) -> MeshPattern:
    """Transform pattern and mesh together; containment is equivariant."""
    return MeshPattern(
        apply_symmetry_perm(name, pi.perm),
        apply_symmetry_mask(name, pi.k, pi.mask),
    )


# ---------------------------------------------------------------------------
# Constructive witness for patterns with different enclosed diagonals.


class DistinguishingWitness(NamedTuple):
    perm: Perm
    contains_first: bool  # the witness contains the first pattern iff True


def _insert_between(p: Perm, a: int, b: int) -> Perm:
    """p with a new point inside square (a, b): the letter b + 1 right after
    position a, and every letter above b moved up by one."""
    lifted = [v + 1 if v > b else v for v in p]
    return tuple(lifted[:a] + [b + 1] + lifted[a:])


@lru_cache(maxsize=64)
def _witness_table(p: Perm) -> tuple[tuple[Perm, int], ...]:
    """For each diagonal candidate of ``p``, in candidate order, its witness
    host, ``p`` with a new point inside the diagonal's first square, and its
    cover, the OR of the region masks of the occurrences of ``p`` in that
    host (:func:`~meshcide.mesh.host_region_masks`).  The host has one point
    outside any occurrence, so each region mask is one square, the distinct
    ones add up to their OR, and a mesh is contained in the host exactly
    when it leaves some square of the cover clear."""
    hosts = [_insert_between(p, *d.anchor) for _, _, d in _diagonal_candidates(p)]
    return tuple((q, sum(host_region_masks(p, q))) for q in hosts)


def enc_witness(pi: MeshPattern, pi2: MeshPattern) -> DistinguishingWitness:
    """A permutation of length k+1 separating two patterns whose enclosed
    diagonals differ.

    Take a diagonal D present in only one mesh; the witness is ``p`` with a
    new point inside D's first square.  Every occurrence of p in the result
    omits one letter sitting in a square of D, so the D-owning pattern is
    avoided, while the other mesh misses some square of D and therefore is
    contained.  The hosts and their covers come from a table per pattern,
    and the result is verified against the cover before being returned.
    """
    if pi.perm != pi2.perm:
        raise ValueError("patterns have different underlying permutations")
    found1, found2 = _enclosed(pi.perm, pi.mask), _enclosed(pi.perm, pi2.mask)
    if found1 == found2:
        raise ValueError("patterns have the same enclosed diagonals")
    return DistinguishingWitness(*_witness(pi, pi2, found1, found2))


def _witness(pi: MeshPattern, pi2: MeshPattern, found1: int, found2: int) -> tuple[Perm, bool]:
    """The fields of :func:`enc_witness`, as a plain tuple, from the two
    patterns' differing :func:`_enclosed` sets.  The diagonal is the first
    candidate only the first pattern encloses, else the first only the
    second does: the candidates come in the order of their sorted squares,
    since a run's anchor is its least square and no two share one."""
    owned = found1 & ~found2
    owner_is_first = owned != 0
    if not owned:
        owned = found2 & ~found1
    q, cover = _witness_table(pi.perm)[(owned & -owned).bit_length() - 1]
    c1, c2 = cover & ~pi.mask != 0, cover & ~pi2.mask != 0
    expected = (False, True) if owner_is_first else (True, False)
    if (c1, c2) != expected:
        raise RuntimeError(
            f"witness construction failed verification for {pi} vs {pi2}: "
            f"got contains={c1, c2}, expected {expected}"
        )
    return q, c1
