import itertools
import random

import pytest

from meshcide.perm import SYMMETRIES, all_perms, apply_symmetry_perm
from meshcide.mesh import (
    MeshPattern,
    contains,
    fingerprints_many,
    mask_to_squares,
    squares_to_mask,
)
from meshcide import diagonals
from meshcide.diagonals import (
    DistinguishingWitness,
    _diagonal_candidates,
    _witness_table,
    apply_symmetry_mask,
    apply_symmetry_mesh,
    apply_symmetry_square,
    diagonal_text,
    diagonal_to_json,
    enc_core_mask,
    enc_witness,
    enclosed_diagonals,
    is_coincident_with_classical,
    same_enc,
    sorted_diagonals,
)

from oracles import (
    _diagonal_square_sets,
    _pointless,
    enc_square_sets,
    enc_witness_oracle,
    enclosed_diagonals_brute,
    mesh_contains_brute,
    occurrence_hits_brute,
)


def diag_sets(pi):
    return {(d.orientation, d.squares) for d in enclosed_diagonals(pi)}


class TestEnclosedDiagonals:
    def test_single_rising_run(self):
        pi = MeshPattern.of("231", [(1, 1), (2, 0), (3, 1)])
        assert diag_sets(pi) == {("NE", ((2, 0), (3, 1)))}

    def test_two_pointless(self):
        pi = MeshPattern.of("231", [(1, 0), (3, 2)])
        assert diag_sets(pi) == {("PT", ((1, 0),)), ("PT", ((3, 2),))}

    def test_empty_for_superfluous_mesh(self):
        assert not enclosed_diagonals(MeshPattern.of("213", [(1, 2), (2, 0)]))

    def test_pointless_square_below_right(self):
        pi = MeshPattern.of("12", [(2, 0)])
        assert diag_sets(pi) == {("PT", ((2, 0),))}

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_pointless_mask_matches_the_oracle(self, k):
        for p in all_perms(k):
            squares = [(a, b) for a in range(k + 1) for b in range(k + 1) if _pointless(p, a, b)]
            assert diagonals.pointless_mask(p) == squares_to_mask(k, squares), p

    def test_falling_run(self):
        pi = MeshPattern.of("1", [(0, 1), (1, 0)])
        assert diag_sets(pi) == {("SE", ((0, 1), (1, 0)))}

    def test_one_sided_corner_condition_is_not_enough(self):
        # (1,1) touches the graph of 231 only at its upper-left corner, so it
        # is neither pointless nor part of a shaded run here
        pi = MeshPattern.of("231", [(1, 1)])
        assert not enclosed_diagonals(pi)

    def test_long_rising_run(self):
        # 23451 threads one rising run through four graph points
        squares = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]
        pi = MeshPattern.of("23451", squares)
        assert ("NE", tuple(squares)) in diag_sets(pi)
        # dropping any one square breaks the whole run
        for missing in squares:
            smaller = MeshPattern.of("23451", [s for s in squares if s != missing])
            assert not any(d.orientation == "NE" for d in enclosed_diagonals(smaller))

    def test_bivincular_fixture_diagonals(self):
        first = MeshPattern.of(
            "2341", [(a, b) for a in (0, 1, 2, 4) for b in range(5)] + [(3, 2), (3, 3)]
        )
        second = MeshPattern.of(
            "2341",
            [(a, b) for a in (1, 2) for b in range(5)]
            + [(a, b) for b in (0, 2, 3, 4) for a in range(5)],
        )
        proper = {
            d.squares for d in enclosed_diagonals(first) if d.orientation != "PT"
        }
        assert proper == {
            ((0, 2), (1, 1)),
            ((1, 3), (2, 2)),
            ((2, 4), (3, 3)),
        }
        pointless = [d for d in enclosed_diagonals(first) if d.orientation == "PT"]
        assert len(pointless) == 11
        assert same_enc(first, second)

    def test_pairwise_square_disjoint(self):
        rng = random.Random(17)
        pats = [(1,), (1, 2), (2, 1)] + list(itertools.permutations((1, 2, 3)))
        cases = [(p, mask) for p in [(1,), (1, 2), (2, 1)] for mask in range(2 ** ((len(p) + 1) ** 2))]
        cases += [
            (rng.choice(pats[3:]), rng.getrandbits(16)) for _ in range(3000)
        ]
        for p, mask in cases:
            diags = enclosed_diagonals(MeshPattern(p, mask))
            seen = set()
            for d in diags:
                for sq in d.squares:
                    assert sq not in seen
                    seen.add(sq)

    def test_subset_stability(self):
        # removing squares never creates diagonals
        for mask in range(512):
            pi = MeshPattern((1, 2), mask)
            full = enclosed_diagonals(pi)
            for bit in range(9):
                if mask & (1 << bit):
                    smaller = MeshPattern((1, 2), mask & ~(1 << bit))
                    assert enclosed_diagonals(smaller) <= full
        rng = random.Random(29)
        for _ in range(500):
            p = tuple(rng.sample(range(1, 4), 3))
            mask = rng.getrandbits(16)
            sub = mask & rng.getrandbits(16)
            assert enclosed_diagonals(MeshPattern(p, sub)) <= enclosed_diagonals(
                MeshPattern(p, mask)
            )

    def test_symmetry_maps_diagonals(self):
        rng = random.Random(41)
        for _ in range(400):
            k = rng.randint(1, 3)
            p = tuple(rng.sample(range(1, k + 1), k))
            pi = MeshPattern(p, rng.getrandbits((k + 1) ** 2))
            for s in SYMMETRIES:
                image = apply_symmetry_mesh(s, pi)
                want = {
                    frozenset(
                        apply_symmetry_square(s, k, sq) for sq in d.squares
                    )
                    for d in enclosed_diagonals(pi)
                }
                assert enc_square_sets(image) == want

    def test_ne_se_swap_under_reverse(self):
        pi = MeshPattern.of("231", [(1, 1), (2, 0), (3, 1)])
        image = apply_symmetry_mesh("r", pi)
        assert {d.orientation for d in enclosed_diagonals(image)} == {"SE"}


class TestSameEnc:
    def test_paper_pair(self):
        a = MeshPattern.of("231", [(1, 0), (3, 1), (3, 2)])
        b = MeshPattern.of("231", [(1, 0), (3, 2)])
        assert same_enc(a, b)

    def test_pointless_difference(self):
        assert not same_enc(MeshPattern.of("12", [(2, 0)]), MeshPattern.of("12"))

    def test_reflexive(self):
        pi = MeshPattern.of("231", [(1, 0), (3, 2)])
        assert same_enc(pi, pi)

    def test_mismatched_patterns_rejected(self):
        with pytest.raises(ValueError):
            same_enc(MeshPattern.of("12"), MeshPattern.of("21"))


class TestClassicalCriterion:
    def test_fixtures(self):
        assert is_coincident_with_classical(MeshPattern.of("213", [(1, 2), (2, 0)]))
        assert is_coincident_with_classical(
            MeshPattern.of("231", [(2, y) for y in range(4)])
        )
        assert not is_coincident_with_classical(MeshPattern.of("12", [(2, 0)]))

    def test_matches_fingerprints_k1(self):
        # both directions of the criterion, over every mesh on one point
        masks = list(range(16))
        fps = fingerprints_many((1,), masks, 3)
        classical = fps[0]
        for mask in masks:
            empty = is_coincident_with_classical(MeshPattern((1,), mask))
            assert empty == (fps[mask] == classical)


class TestMaskComparison:
    """``same_enc`` and ``enc_witness`` compare enclosed diagonals as masks;
    the square sets of ``tests/oracles.py`` are their reference."""

    @pytest.mark.parametrize(
        "p", [p for k in (1, 2, 3) for p in all_perms(k)], ids=lambda p: "".join(map(str, p))
    )
    def test_equal_cores_mean_equal_square_sets(self, p):
        # over every mesh, the core and the square sets group alike
        sets_of_core, core_of_sets = {}, {}
        for mask in range(1 << (len(p) + 1) ** 2):
            pi = MeshPattern(p, mask)
            core, sets = enc_core_mask(pi), enc_square_sets(pi)
            assert sets_of_core.setdefault(core, sets) == sets, (p, mask)
            assert core_of_sets.setdefault(sets, core) == core, (p, mask)

    @pytest.mark.parametrize("k", [4, 5])
    def test_witness_matches_oracle(self, k):
        # random pairs, and pairs a few toggled squares apart, which often
        # differ in one diagonal only, owned by either pattern
        rng = random.Random(f"enc-witness:{k}")
        nbits = (k + 1) ** 2
        checked = 0
        while checked < 150:
            p = tuple(rng.sample(range(1, k + 1), k))
            first = rng.getrandbits(nbits)
            second = rng.getrandbits(nbits)
            if checked % 2:
                second = first
                for _ in range(rng.randint(1, 3)):
                    second ^= 1 << rng.randrange(nbits)
            a, b = MeshPattern(p, first), MeshPattern(p, second)
            assert same_enc(a, b) == (enc_square_sets(a) == enc_square_sets(b)), (a, b)
            if same_enc(a, b):
                continue
            wit = enc_witness(a, b)
            assert (wit.perm, wit.contains_first) == enc_witness_oracle(a, b), (a, b)
            checked += 1
        # every falling run over a pattern of length at most k, alone against
        # the empty mesh in both orders: the oracle builds these witnesses
        # through the complement symmetry, the table by plain insertion
        for p in (p for n in range(1, k + 1) for p in all_perms(n)):
            full = (1 << (len(p) + 1) ** 2) - 1
            for orientation, _, _, squares in enclosed_diagonals_brute(p, full):
                if orientation != "SE":
                    continue
                run, empty = MeshPattern.of(p, squares), MeshPattern(p, 0)
                for a, b in ((run, empty), (empty, run)):
                    wit = enc_witness(a, b)
                    assert (wit.perm, wit.contains_first) == enc_witness_oracle(a, b), (a, b)


class TestWitness:
    def test_worked_example(self):
        # rising run of three squares present on one side, broken on the other
        first = MeshPattern.of("25134", [(3, 2), (4, 3), (5, 4)])
        second = MeshPattern.of("25134", [(3, 2), (5, 4)])
        wit = enc_witness(first, second)
        assert wit.perm == (2, 6, 1, 3, 4, 5)
        assert wit.contains_first is False
        assert not contains(first, wit.perm)
        assert contains(second, wit.perm)

    def test_pointless_square_case(self):
        first = MeshPattern.of("12", [(2, 0)])
        second = MeshPattern.of("12")
        wit = enc_witness(first, second)
        assert len(wit.perm) == 3
        assert not contains(first, wit.perm)
        assert contains(second, wit.perm)

    def test_direction_flips_with_argument_order(self):
        first = MeshPattern.of("12", [(2, 0)])
        second = MeshPattern.of("12")
        assert enc_witness(first, second).contains_first is False
        assert enc_witness(second, first).contains_first is True

    def test_requires_enc_difference(self):
        pi = MeshPattern.of("231", [(1, 0), (3, 2)])
        with pytest.raises(ValueError):
            enc_witness(pi, pi)

    def test_different_perms_rejected(self):
        with pytest.raises(ValueError, match="different underlying permutations"):
            enc_witness(MeshPattern.of("12", [(2, 0)]), MeshPattern.of("21"))

    def test_falling_diagonal_conjugation(self):
        first = MeshPattern.of("1", [(0, 1), (1, 0)])
        second = MeshPattern.of("1")
        wit = enc_witness(first, second)
        assert len(wit.perm) == 2
        assert contains(first, wit.perm) != contains(second, wit.perm)

    def test_every_nonempty_enc_separates_from_classical_k_le_2(self):
        for p in [(1,), (1, 2), (2, 1)]:
            k = len(p)
            bare = MeshPattern(p, 0)
            for mask in range(1, 1 << (k + 1) ** 2):
                pi = MeshPattern(p, mask)
                if not enclosed_diagonals(pi):
                    continue
                wit = enc_witness(pi, bare)
                assert len(wit.perm) == k + 1
                assert contains(pi, wit.perm) != contains(bare, wit.perm)

    def test_random_k3_pairs(self):
        rng = random.Random(53)
        checked = 0
        while checked < 120:
            p = tuple(rng.sample(range(1, 4), 3))
            a = MeshPattern(p, rng.getrandbits(16))
            b = MeshPattern(p, rng.getrandbits(16))
            if same_enc(a, b):
                continue
            wit = enc_witness(a, b)
            assert contains(a, wit.perm) != contains(b, wit.perm)
            assert contains(a, wit.perm) == wit.contains_first
            checked += 1


class TestWitnessTable:
    """``enc_witness`` reads each diagonal's host and its cover, the OR of
    the region masks of its occurrences, from one table per pattern; a mesh
    contains the host exactly when it leaves some square of the cover
    clear."""

    @pytest.mark.parametrize(
        "p", [p for k in (1, 2, 3, 4) for p in all_perms(k)], ids=lambda p: "".join(map(str, p))
    )
    def test_regions_decide_containment(self, p):
        k = len(p)
        nbits = (k + 1) ** 2
        rng = random.Random(f"witness-table:{p}")
        # sparse and dense meshes alike, so both answers come up
        masks = []
        for _ in range(200):
            density = rng.random()
            masks.append(sum(1 << c for c in range(nbits) if rng.random() < density))
        table = _witness_table(p)
        assert len(table) == len(_diagonal_candidates(p))
        answers = set()
        for q, cover in table:
            assert len(q) == k + 1
            for mask in masks:
                by_cover = cover & ~mask != 0
                assert by_cover == contains(MeshPattern(p, mask), q), (p, q, mask)
                assert by_cover == mesh_contains_brute(p, mask_to_squares(k, mask), q)
                answers.add(by_cover)
        assert answers == {False, True}

    def test_cover_is_the_diagonal_by_definition(self):
        # every occurrence of p in a host leaves the host's extra point in
        # one square of the host's diagonal, and those squares make up the
        # whole diagonal, which is the cover; the 3,600 candidates of length
        # 1-5 take about 0.2 s, the 30,240 of length 1-6 about 2 s
        for p in (p for k in range(1, 6) for p in all_perms(k)):
            diagonals_of = dict(_diagonal_square_sets(p))
            candidates = _diagonal_candidates(p)
            table = _witness_table(p)
            assert len(table) == len(candidates) == len(diagonals_of)
            for (q, cover), (_, _, d) in zip(table, candidates):
                diagonal = diagonals_of[frozenset(d.squares)]
                union = 0
                for occ, hit in occurrence_hits_brute(p, q):
                    assert hit.bit_count() == 1 and hit & diagonal, (p, q, occ)
                    union |= hit
                assert union == diagonal == cover, (p, q)

    def test_wrong_table_entry_fails_verification(self, monkeypatch):
        # the pair differs in the pointless square (1,0) only; point its
        # entry at the host of the pointless square (3,2), which both meshes
        # shade, so neither contains it and the check must refuse it
        first = MeshPattern.of("231", [(1, 0), (3, 2)])
        second = MeshPattern.of("231", [(3, 2)])
        assert enc_witness(first, second).perm == (3, 1, 4, 2)
        squares = [d.squares for _, _, d in _diagonal_candidates(first.perm)]
        table = list(_witness_table(first.perm))
        table[squares.index(((1, 0),))] = table[squares.index(((3, 2),))]
        monkeypatch.setattr(diagonals, "_witness_table", lambda p: tuple(table))
        with pytest.raises(RuntimeError, match="failed verification"):
            enc_witness(first, second)


class TestSymmetryAction:
    def test_reverse_fixture(self):
        assert apply_symmetry_mesh("r", MeshPattern.of("231", [(1, 0)])) == (
            MeshPattern.of("132", [(2, 0)])
        )

    def test_inverse_fixture(self):
        # 213 is an involution, so only the square flips across the diagonal
        assert apply_symmetry_mesh("i", MeshPattern.of("213", [(0, 3)])) == (
            MeshPattern.of("213", [(3, 0)])
        )
        assert apply_symmetry_mesh("i", MeshPattern.of("231", [(0, 3)])) == (
            MeshPattern.of("312", [(3, 0)])
        )

    def test_half_turn_fixture(self):
        assert apply_symmetry_mesh("rc", MeshPattern.of("213", [(0, 3)])) == (
            MeshPattern.of("132", [(3, 0)])
        )

    def test_complement_involution(self):
        rng = random.Random(61)
        for _ in range(100):
            k = rng.randint(1, 3)
            p = tuple(rng.sample(range(1, k + 1), k))
            pi = MeshPattern(p, rng.getrandbits((k + 1) ** 2))
            assert apply_symmetry_mesh("cc", pi) == pi

    @pytest.mark.parametrize("mask", [1 << 9, 1 << 12, -1, 1.5, True])
    def test_mask_outside_the_grid_raises(self, mask):
        with pytest.raises(ValueError, match="out of range"):
            apply_symmetry_mask("r", 2, mask)

    @pytest.mark.parametrize("square", [(7, 0), (3, 0), (0, -1), (True, 0), (1.0, 0)])
    def test_square_that_squares_to_mask_refuses_raises(self, square):
        # the grid of a length-2 pattern is 3 x 3; (7, 0) used to map to
        # (-5, 0) and (True, 0) to (1, 0)
        with pytest.raises(ValueError):
            squares_to_mask(2, [square])
        with pytest.raises(ValueError):
            apply_symmetry_square("r", 2, square)

    @pytest.mark.parametrize("mask", [0, 5])
    def test_unknown_name_raises_even_on_the_empty_mesh(self, mask):
        with pytest.raises(ValueError, match="unknown symmetry"):
            apply_symmetry_mask("bogus", 2, mask)


class TestReporting:
    def test_diagonal_text(self):
        pi = MeshPattern.of("231", [(1, 1), (2, 0), (3, 1)])
        (d,) = sorted_diagonals(pi)
        assert diagonal_text(d) == "NE (2,0)-(3,1) len=2"

    def test_pointless_text(self):
        pi = MeshPattern.of("231", [(1, 0)])
        (d,) = sorted_diagonals(pi)
        assert diagonal_text(d) == "PT (1,0)"

    def test_json_shape(self):
        pi = MeshPattern.of("231", [(1, 1), (2, 0), (3, 1)])
        (d,) = sorted_diagonals(pi)
        assert diagonal_to_json(d) == {
            "orientation": "NE",
            "squares": [[2, 0], [3, 1]],
        }

    def test_sorted_diagonals_in_anchor_order(self):
        rng = random.Random(53)
        cases = [(p, mask) for p in [(1, 2), (2, 1)] for mask in range(2 ** 9)]
        for p in [*itertools.permutations((1, 2, 3)), (2, 4, 1, 3)]:
            cases += [(p, rng.getrandbits((len(p) + 1) ** 2)) for _ in range(2000)]
        for p, mask in cases:
            pi = MeshPattern(p, mask)
            expected = sorted(enclosed_diagonals(pi), key=lambda d: (d.anchor, d.orientation))
            assert sorted_diagonals(pi) == expected
