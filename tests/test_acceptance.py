"""Acceptance suite: one test per shipping criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Expected values marked as computed come from the brute-force oracles in
``oracles.py``; everything else is asserted exactly as specified.
"""

import contextlib
import itertools
import random

from meshcide.perm import all_perms, lex_rank
from meshcide.mesh import (
    MeshPattern,
    OpenBox,
    contains,
    corresponding_region,
    fingerprints_many,
    mask_to_squares,
    mesh_occurrences,
    squares_to_mask,
)
from meshcide.perm import classical_occurrences
from meshcide.diagonals import enc_witness, enclosed_diagonals, same_enc
from meshcide.shading import ssl_closure, ssl_moves, ssl_repair_occurrence
from meshcide.certify import GAMMA_1, GAMMA_2
from meshcide.coincidence import (
    containment_signatures,
    decide_coincidence,
    partition_meshes,
)
from oracles import first_distinguisher_brute, is_sum_decomposable, mesh_contains_brute

K3_PATTERNS = tuple(itertools.permutations((1, 2, 3)))


@contextlib.contextmanager
def criterion(num, desc):
    try:
        yield
    except BaseException:
        print(f"[{num:2d}] FAIL {desc}")
        raise
    print(f"[{num:2d}] PASS {desc}")


def test_01_classical_counts():
    with criterion(1, "classical occurrence counts in 42135"):
        w = (4, 2, 1, 3, 5)
        occs = classical_occurrences((2, 1, 3), w)
        assert len(occs) == 5
        words = {"".join(str(w[i - 1]) for i in occ) for occ in occs}
        assert words == {"425", "415", "435", "213", "215"}
        assert classical_occurrences((1, 3, 2), w) == []


def test_02_mesh_counts():
    with criterion(2, "mesh occurrence count with the blocked one excluded"):
        pi = MeshPattern.of("213", [(0, 3), (1, 2), (1, 3), (3, 0)])
        occs = mesh_occurrences(pi, (4, 2, 1, 3, 5))
        assert len(occs) == 4
        assert (2, 3, 4) not in occs


def test_03_region_formula():
    with criterion(3, "region of square (1,3) for occurrence (1,3,5) in 42135"):
        box = corresponding_region((4, 2, 1, 3, 5), (1, 3, 5), (1, 3))
        assert box == OpenBox(1, 4, 3, 5)


def test_04_tetrad():
    with criterion(4, "42513 and the four meshes over 231"):
        w = (4, 2, 5, 1, 3)
        assert not contains(MeshPattern.of("231", [(1, 0), (3, 1), (3, 2)]), w)
        assert not contains(
            MeshPattern.of("231", [(1, 0), (1, 1), (3, 1), (3, 2)]), w
        )
        assert not contains(MeshPattern.of("231", [(1, 0), (1, 1), (3, 2)]), w)
        assert contains(MeshPattern.of("231", [(1, 0), (3, 2)]), w)


def test_05_enc_extraction():
    with criterion(5, "enclosed-diagonal extraction"):
        diags = enclosed_diagonals(MeshPattern.of("231", [(1, 1), (2, 0), (3, 1)]))
        assert {(d.orientation, d.squares) for d in diags} == {
            ("NE", ((2, 0), (3, 1)))
        }
        diags = enclosed_diagonals(MeshPattern.of("231", [(1, 0), (3, 2)]))
        assert {(d.orientation, d.squares) for d in diags} == {
            ("PT", ((1, 0),)),
            ("PT", ((3, 2),)),
        }


def test_06_witness_construction():
    with criterion(6, "constructive witness 261345 for a broken rising run"):
        first = MeshPattern.of("25134", [(3, 2), (4, 3), (5, 4)])
        second = MeshPattern.of("25134", [(3, 2), (5, 4)])
        wit = enc_witness(first, second)
        assert wit.perm == (2, 6, 1, 3, 4, 5)
        assert not contains(first, wit.perm)
        assert contains(second, wit.perm)


def test_07_classical_criterion_at_desk_scale():
    with criterion(7, "no diagonals iff the mesh is superfluous (k<=2 all, k=3 sampled)"):
        for p in ((1,), (1, 2), (2, 1)):
            k = len(p)
            masks = list(range(1 << (k + 1) ** 2))
            fps = fingerprints_many(p, masks, k + 2)
            classical = fps[0]
            for mask, fp in zip(masks, fps):
                empty = not enclosed_diagonals(MeshPattern(p, mask))
                assert empty == (fp == classical), (p, mask)
        rng = random.Random(2024)
        sample: dict = {}
        for _ in range(1000):
            p = K3_PATTERNS[rng.randrange(6)]
            sample.setdefault(p, set()).add(rng.getrandbits(16))
        for p, masks in sample.items():
            masks = sorted(masks)
            fps = fingerprints_many(p, [0] + masks, 5)
            classical = fps[0]
            for mask, fp in zip(masks, fps[1:]):
                empty = not enclosed_diagonals(MeshPattern(p, mask))
                assert empty == (fp == classical), (p, mask)


def test_08_shading_chain():
    with criterion(8, "closure places the whole worked chain in one class"):
        seed = squares_to_mask(2, [(2, 0)])
        result = ssl_closure((1, 2), [seed])
        assert result.complete
        cls = result.class_of(seed)
        for squares in (
            [(2, 0)],
            [(0, 0), (1, 0), (2, 0)],
            [(0, 0), (1, 0), (1, 1), (1, 2), (2, 0)],
            [(0, 0), (1, 1), (2, 0)],
        ):
            assert squares_to_mask(2, squares) in cls.meshes


def test_09_repair_determinism():
    with criterion(9, "repair walk lands on positions (6,7,8,9)"):
        pi = MeshPattern.of("1423", [(4, 0), (4, 1)])
        added = squares_to_mask(4, [(0, 0), (1, 0), (1, 4), (2, 4), (3, 1)])
        (move,) = [m for m in ssl_moves(pi) if m.added == added]
        out = ssl_repair_occurrence(
            pi, move, (4, 8, 2, 9, 5, 1, 10, 3, 7, 6), (1, 2, 5, 9)
        )
        assert out == (6, 7, 8, 9)


def test_10_ssl_soundness_sweep():
    with criterion(10, "every shading move preserves the avoidance truncation"):
        for p in ((1,), (1, 2), (2, 1)):
            sigs = containment_signatures(p, 7)
            for mask in range(1 << (len(p) + 1) ** 2):
                for move in ssl_moves(MeshPattern(p, mask)):
                    assert sigs[mask] == sigs[mask | move.added], (p, mask, move)
        rng = random.Random(4077)
        cases = 0
        while cases < 1000:
            p = K3_PATTERNS[rng.randrange(6)]
            mask = rng.getrandbits(16)
            moves = ssl_moves(MeshPattern(p, mask))
            if not moves:
                continue
            if len(moves) > 12:
                moves = rng.sample(moves, 12)
            fps = fingerprints_many(p, [mask] + [mask | m.added for m in moves], 6)
            for fp in fps[1:]:
                assert fp == fps[0], (p, mask)
            cases += len(moves)


def test_11_counterexample_fixtures():
    with criterion(11, "refutations of the three counterexample pairs"):
        v = decide_coincidence(
            MeshPattern.of("1", [(0, 0), (0, 1), (1, 0)]),
            MeshPattern.of("1", [(1, 1), (0, 1), (1, 0)]),
            5,
        )
        assert v.status == "REFUTED" and v.witness == (1, 3, 2)

        v = decide_coincidence(
            MeshPattern.of("231", [(3, 2)]),
            MeshPattern.of("231", [(1, 3), (3, 2)]),
            6,
        )
        assert v.status == "REFUTED" and v.witness == (2, 5, 3, 1, 4)

        first_squares = [(a, b) for a in (0, 1, 2, 4) for b in range(5)] + [
            (3, 2),
            (3, 3),
        ]
        second_squares = [(a, b) for a in (1, 2) for b in range(5)] + [
            (a, b) for b in (0, 2, 3, 4) for a in range(5)
        ]
        first = MeshPattern.of("2341", first_squares)
        second = MeshPattern.of("2341", second_squares)
        assert same_enc(first, second)
        # the documented separator behaves exactly as stated
        w = (3, 4, 5, 1, 6, 2)
        assert contains(first, w) and not contains(second, w)
        # the decision procedure reports the least separator instead, which
        # the definition-level oracle confirms appears earlier
        least = first_distinguisher_brute(
            (2, 3, 4, 1), set(first_squares), set(second_squares), 6
        )
        assert least == (2, 3, 4, 6, 5, 1)
        v = decide_coincidence(first, second, 7)
        assert v.status == "REFUTED" and v.witness == least
        assert contains(first, v.witness) != contains(second, v.witness)


def test_12_gamma_validation():
    with criterion(12, "both gamma meshes mean sum-decomposable through S_7"):
        fps = fingerprints_many((1, 2), (GAMMA_1.mask, GAMMA_2.mask), 7)
        assert fps[0] == fps[1]
        for n in range(1, 8):
            row = fps[0][n - 1]
            for j, w in enumerate(all_perms(n)):
                assert bool((row >> j) & 1) == is_sum_decomposable(w), w


def test_13_partition_completeness():
    with criterion(13, "small-length partitions: proofs cover every class"):
        result = partition_meshes((1,), 6)
        assert len(result.classes) == 8  # recorded output, pinned
        assert not result.conjectured()

        for p in ((1, 2), (2, 1)):
            result = partition_meshes(p, 7)
            assert len(result.classes) == 220  # recorded output, pinned
            assert not result.conjectured()

        # with the gamma rule off, exactly the gamma pair (and its mirror
        # over 21) stays split, each into two single-mesh blocks
        result = partition_meshes((1, 2), 7, use_gamma=False)
        conj = result.conjectured()
        assert len(conj) == 1
        assert set(conj[0].meshes) == {GAMMA_1.mask, GAMMA_2.mask}
        assert sorted(map(len, conj[0].blocks)) == [1, 1]

        from meshcide.diagonals import apply_symmetry_mesh

        g1r = apply_symmetry_mesh("r", GAMMA_1)
        g2r = apply_symmetry_mesh("r", GAMMA_2)
        result = partition_meshes((2, 1), 7, use_gamma=False)
        conj = result.conjectured()
        assert len(conj) == 1
        assert set(conj[0].meshes) == {g1r.mask, g2r.mask}

        result = partition_meshes((1,), 6, use_gamma=False)
        assert not result.conjectured()


def test_14_undecided_honesty():
    with criterion(14, "the stubborn pair over 123 stays UNDECIDED at depth 8"):
        base = [(0, 0), (0, 1), (1, 0), (2, 0), (2, 2), (3, 0), (3, 2), (3, 3)]
        first = MeshPattern.of("123", base)
        second = MeshPattern.of("123", base + [(2, 1)])
        fps = fingerprints_many((1, 2, 3), (first.mask, second.mask), 8)
        assert fps[0] == fps[1]
        v = decide_coincidence(first, second, 8)
        assert v.status == "UNDECIDED"
        assert v.depth == 8


def test_15_embedded_pair_fingerprints():
    with criterion(15, "the embedded length-6 pair agrees through S_7"):
        p = (1, 3, 4, 6, 5, 2)
        first = squares_to_mask(
            6,
            [
                (0, 2), (0, 3), (1, 3), (1, 4), (2, 0), (2, 3), (2, 4),
                (3, 0), (3, 2), (5, 2), (5, 3), (5, 4), (5, 6), (6, 0),
            ],
        )
        second = squares_to_mask(
            6,
            [
                (0, 2), (0, 3), (1, 4), (2, 0), (2, 2), (2, 3), (3, 0),
                (3, 2), (3, 3), (5, 2), (5, 3), (5, 4), (5, 6), (6, 0),
            ],
        )
        fps = fingerprints_many(p, (first, second), 7)
        assert fps[0] == fps[1]
        # spot-check the sweep is not vacuous: both patterns do appear
        assert fps[0][5] != 0
