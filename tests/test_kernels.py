"""The mask-native mesh kernels against their square-by-square definitions
in ``tests/oracles.py``: exhaustively for every pattern of length at most 2,
on seeded samples for every pattern of length 3 and for one of length 4."""

import itertools
import random

import pytest

from meshcide.perm import SYMMETRIES
from meshcide.mesh import MeshPattern
from meshcide.diagonals import apply_symmetry_mask, enc_square_sets, enclosed_diagonals
from meshcide.shading import shadeable_pairs, shadeable_singles, ssl_moves
from meshcide.coincidence import classify_family

from oracles import (
    classify_family_brute,
    enclosed_diagonals_brute,
    shadeable_pairs_brute,
    shadeable_singles_brute,
    symmetry_mask_brute,
)

# the eight canonical names plus generator words that are not canonical
SYMMETRY_NAMES = SYMMETRIES + ("cc", "ir", "rcirc")


def _cases():
    rng = random.Random(1412)
    for p in [(1,), (1, 2), (2, 1)]:
        for mask in range(1 << (len(p) + 1) ** 2):
            yield p, mask
    # k = 4 has 25 mask bits, so its last byte table is a partial one
    for p in list(itertools.permutations((1, 2, 3))) + [(2, 4, 1, 3)]:
        nbits = (len(p) + 1) ** 2
        for _ in range(2000):
            yield p, rng.getrandbits(nbits)


CASES = list(_cases())


@pytest.mark.parametrize("name", SYMMETRY_NAMES)
def test_symmetry_mask_matches_square_loop(name):
    for p, mask in CASES:
        k = len(p)
        assert apply_symmetry_mask(name, k, mask) == symmetry_mask_brute(name, k, mask)


def test_shadeable_matches_corner_conditions():
    for p, mask in CASES:
        pi = MeshPattern(p, mask)
        assert shadeable_singles(pi) == shadeable_singles_brute(p, mask), pi
        assert shadeable_pairs(pi) == shadeable_pairs_brute(p, mask), pi


def test_enclosed_diagonals_match_corner_walk():
    for p, mask in CASES:
        pi = MeshPattern(p, mask)
        want = enclosed_diagonals_brute(p, mask)
        got = {(d.orientation, d.anchor, d.length, d.squares) for d in enclosed_diagonals(pi)}
        assert got == want, pi
        assert enc_square_sets(pi) == {frozenset(d[3]) for d in want}, pi


def test_classify_family_matches_square_reading():
    for p, mask in CASES:
        tags = classify_family(MeshPattern(p, mask))
        got = (tags.vincular, tags.bivincular, tags.isolating, tags.sparse)
        assert got == classify_family_brute(p, mask), (p, mask)


@pytest.mark.parametrize("p", [(1, 2), (2, 1)])
def test_ssl_move_total_over_all_meshes(p):
    assert sum(len(ssl_moves(MeshPattern(p, mask))) for mask in range(512)) == 733
