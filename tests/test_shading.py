import itertools
import os
import random
import subprocess
import sys

import pytest

from meshcide.perm import all_perms, apply_symmetry_perm
from meshcide.mesh import (
    MeshPattern,
    contains,
    fingerprints_many,
    mesh_occurrences,
    occurrence_region_mask,
    squares_to_mask,
)
from meshcide import shading
from meshcide.diagonals import apply_symmetry_mesh, apply_symmetry_square
from meshcide.shading import (
    Assignment,
    ShadeMove,
    pair_candidate,
    shadeable_pairs,
    shadeable_singles,
    single_candidate,
    ssl_closure,
    ssl_moves,
    ssl_repair_occurrence,
)


def msk(k, squares):
    return squares_to_mask(k, squares)


class TestShadeableSingles:
    def test_northwest_at_lowest_point(self):
        pi = MeshPattern.of("231", [(0, 0), (3, 2), (3, 3)])
        assert ((1, 2), (0, 2), "NW") in shadeable_singles(pi)

    def test_blocked_by_row_implication(self):
        # (2,0) shaded with (2,1) clear kills the northeast square at (1,1)
        pi = MeshPattern.of("12", [(2, 0)])
        assert ((1, 1), (1, 1), "NE") not in shadeable_singles(pi)

    def test_chain_steps_from_worked_example(self):
        # the pair of meshes over 231 joined through single squares
        a = MeshPattern.of("231", [(1, 0), (3, 1), (3, 2)])
        assert ((1, 2), (1, 1), "SE") in shadeable_singles(a)
        c = MeshPattern.of("231", [(1, 0), (1, 1), (3, 2)])
        assert ((3, 1), (3, 1), "NE") in shadeable_singles(c)

    def test_not_shadeable_on_the_sparse_base(self):
        # adding (3,1) here would wrongly merge two distinct avoidance sets
        pi = MeshPattern.of("231", [(1, 0), (3, 2)])
        assert all(sq != (3, 1) for _, sq, _ in shadeable_singles(pi))

    def test_blocked_northwest(self):
        pi = MeshPattern.of("231", [(0, 0), (3, 2), (3, 3), (1, 3), (2, 3)])
        assert all(
            (pt, d) != ((1, 2), "NW") for pt, _, d in shadeable_singles(pi)
        )

    def test_candidates_never_in_mesh(self):
        rng = random.Random(71)
        for _ in range(300):
            k = rng.randint(1, 3)
            p = tuple(rng.sample(range(1, k + 1), k))
            pi = MeshPattern(p, rng.getrandbits((k + 1) ** 2))
            for pt, sq, d in shadeable_singles(pi):
                assert sq == single_candidate(pt, d)
                assert not pi.has_square(*sq)

    def test_direction_conjugation_consistency(self):
        # a NW single on pi is a NE single on reverse(pi) at the mirrored point
        rng = random.Random(73)
        for _ in range(300):
            k = rng.randint(1, 3)
            p = tuple(rng.sample(range(1, k + 1), k))
            pi = MeshPattern(p, rng.getrandbits((k + 1) ** 2))
            image = apply_symmetry_mesh("r", pi)
            nw = {
                (pt, sq)
                for pt, sq, d in shadeable_singles(pi)
                if d == "NW"
            }
            ne_mirrored = {
                (
                    (k + 1 - pt[0], pt[1]),
                    apply_symmetry_square("r", k, sq),
                )
                for pt, sq, d in shadeable_singles(image)
                if d == "NE"
            }
            assert nw == ne_mirrored


class TestShadeablePairs:
    def test_south_pair(self):
        pi = MeshPattern.of("12", [(2, 0)])
        assert ((1, 1), ((0, 0), (1, 0)), "S") in shadeable_pairs(pi)

    def test_west_pair_next_link(self):
        pi = MeshPattern.of("12", [(2, 0), (1, 0), (0, 0)])
        assert ((2, 2), ((1, 2), (1, 1)), "W") in shadeable_pairs(pi)

    def test_north_pair(self):
        pi = MeshPattern.of("231", [(0, 0), (3, 2), (3, 3)])
        assert ((2, 3), ((1, 3), (2, 3)), "N") in shadeable_pairs(pi)

    def test_north_pair_blocked_by_adjacent_shading(self):
        pi = MeshPattern.of("231", [(0, 0), (3, 2), (3, 3), (0, 2)])
        assert all(
            (pt, d) != ((1, 2), "N") for pt, _, d in shadeable_pairs(pi)
        )

    def test_pairs_never_meet_mesh(self):
        rng = random.Random(79)
        for _ in range(300):
            k = rng.randint(1, 3)
            p = tuple(rng.sample(range(1, k + 1), k))
            pi = MeshPattern(p, rng.getrandbits((k + 1) ** 2))
            for pt, pair, d in shadeable_pairs(pi):
                assert pair == pair_candidate(pt, d)
                assert not pi.has_square(*pair[0])
                assert not pi.has_square(*pair[1])


EX_PATTERN = MeshPattern.of("1423", [(4, 0), (4, 1)])
EX_MOVE_ADDED = msk(4, [(0, 0), (1, 0), (1, 4), (2, 4), (3, 1)])


def ex_move():
    moves = [m for m in ssl_moves(EX_PATTERN) if m.added == EX_MOVE_ADDED]
    assert len(moves) == 1
    return moves[0]


class TestSslMoves:
    def test_worked_move_exists(self):
        move = ex_move()
        by_point = {a.point: a for a in move.assignments}
        assert by_point[(1, 1)].squares == ((0, 0), (1, 0))
        assert by_point[(2, 4)].squares == ((1, 4), (2, 4))
        assert by_point[(3, 2)].squares == ((3, 1),)

    def test_combined_move_reaches_largest_worked_mesh(self):
        pi = MeshPattern.of("231", [(0, 0), (3, 2), (3, 3)])
        added = msk(3, [(0, 2), (1, 3), (2, 3)])
        assert any(m.added == added for m in ssl_moves(pi))

    def test_moves_disjoint_from_mesh(self):
        rng = random.Random(83)
        for _ in range(120):
            k = rng.randint(1, 3)
            p = tuple(rng.sample(range(1, k + 1), k))
            pi = MeshPattern(p, rng.getrandbits((k + 1) ** 2))
            for move in ssl_moves(pi):
                assert move.added & pi.mask == 0
                points = [a.point for a in move.assignments]
                assert len(points) == len(set(points))

    def test_overlapping_move_is_a_hard_error(self, monkeypatch):
        real = shading._moves
        # every square of the grid: it overlaps any mesh with a shaded square
        overlap = ShadeMove((), (1 << 9) - 1)
        monkeypatch.setattr(shading, "_moves", lambda p, vector: real(p, vector) + (overlap,))
        with pytest.raises(AssertionError, match="adds shaded squares"):
            ssl_moves(MeshPattern.of("12", [(2, 0)]))
        with pytest.raises(AssertionError, match="adds shaded squares"):
            ssl_closure((1, 2), [msk(2, [(2, 0)])])

    def test_overlap_check_survives_optimised_bytecode(self):
        # the check must hold where asserts are stripped
        script = (
            "import meshcide.shading as s\n"
            "real = s._moves\n"
            "s._moves = lambda p, v: real(p, v) + (s.ShadeMove((), 511),)\n"
            "try:\n"
            "    s.ssl_closure((1, 2), [1])\n"
            "except AssertionError as e:\n"
            "    print(e)\n"
        )
        package_root = os.path.dirname(os.path.dirname(shading.__file__))
        out = subprocess.run(
            [sys.executable, "-O", "-c", script],
            env={**os.environ, "PYTHONPATH": package_root},
            capture_output=True, text=True, timeout=60, check=True,
        )
        assert "adds shaded squares" in out.stdout

    def test_no_moves_when_nothing_shadeable(self):
        # a full mesh leaves nothing to add
        pi = MeshPattern((1, 2), (1 << 9) - 1)
        assert ssl_moves(pi) == []

    def test_unions_deduplicated(self):
        pi = MeshPattern.of("12")
        moves = ssl_moves(pi)
        assert len({m.added for m in moves}) == len(moves)

    def test_single_square_moves_match_singles(self):
        rng = random.Random(89)
        for _ in range(80):
            k = rng.randint(1, 2)
            p = tuple(rng.sample(range(1, k + 1), k))
            pi = MeshPattern(p, rng.getrandbits((k + 1) ** 2))
            single_adds = {
                msk(k, [sq]) for _, sq, _ in shadeable_singles(pi)
            }
            move_singles = {
                m.added
                for m in ssl_moves(pi)
                if len(m.assignments) == 1
                and m.assignments[0].kind == "single"
            }
            assert move_singles == single_adds


class TestRepairWalk:
    W = (4, 8, 2, 9, 5, 1, 10, 3, 7, 6)

    def test_worked_walk(self):
        out = ssl_repair_occurrence(EX_PATTERN, ex_move(), self.W, (1, 2, 5, 9))
        assert out == (6, 7, 8, 9)

    def test_untouched_when_regions_empty(self):
        # the final occurrence needs no repair at all
        out = ssl_repair_occurrence(EX_PATTERN, ex_move(), self.W, (6, 7, 8, 9))
        assert out == (6, 7, 8, 9)

    def test_rejects_non_occurrence(self):
        with pytest.raises(ValueError):
            ssl_repair_occurrence(EX_PATTERN, ex_move(), self.W, (1, 2, 3, 4))

    def test_rejects_blocked_occurrence(self):
        pi = MeshPattern.of("12", [(2, 0)])
        move = ssl_moves(pi)[0]
        # (1,2) picks 2,3 in 231; the host point below-right blocks the mesh
        with pytest.raises(ValueError):
            ssl_repair_occurrence(pi, move, (2, 3, 1), (1, 2))

    def test_output_is_occurrence_of_enlarged_pattern(self):
        rng = random.Random(97)
        checked = 0
        while checked < 250:
            k = rng.randint(1, 3)
            p = tuple(rng.sample(range(1, k + 1), k))
            pi = MeshPattern(p, rng.getrandbits((k + 1) ** 2))
            moves = ssl_moves(pi)
            if not moves:
                continue
            move = rng.choice(moves)
            n = rng.randint(k, 7)
            w = tuple(rng.sample(range(1, n + 1), n))
            occs = mesh_occurrences(pi, w)
            if not occs:
                continue
            occ = rng.choice(occs)
            out = ssl_repair_occurrence(pi, move, w, occ)
            assert occurrence_region_mask(w, out) & (pi.mask | move.added) == 0
            checked += 1


class TestClosure:
    def test_worked_chain_and_sandwich(self):
        seed = msk(2, [(2, 0)])
        result = ssl_closure((1, 2), [seed])
        assert result.complete
        cls = result.class_of(seed)
        for squares in (
            [(2, 0)],
            [(0, 0), (1, 0), (2, 0)],
            [(0, 0), (1, 0), (1, 1), (1, 2), (2, 0)],
            [(0, 0), (1, 1), (2, 0)],
        ):
            assert msk(2, squares) in cls.meshes

    def test_four_meshes_of_the_fan_example(self):
        seed = msk(3, [(0, 0), (3, 2), (3, 3)])
        result = ssl_closure((2, 3, 1), [seed])
        cls = result.class_of(seed)
        for squares in (
            [(0, 0), (3, 2), (3, 3)],
            [(0, 0), (3, 2), (3, 3), (0, 2)],
            [(0, 0), (3, 2), (3, 3), (1, 3), (2, 3)],
            [(0, 0), (3, 2), (3, 3), (0, 2), (1, 3), (2, 3)],
        ):
            assert msk(3, squares) in cls.meshes

    def test_gamma_pair_not_joined(self):
        g1 = msk(2, [(0, 1), (0, 2), (1, 1), (1, 2), (2, 0)])
        g2 = msk(2, [(0, 2), (1, 0), (1, 1), (2, 0), (2, 1)])
        result = ssl_closure((1, 2), [g1, g2])
        assert result.complete
        assert g2 not in result.class_of(g1).meshes

    def test_no_unique_minimal_mesh(self):
        a = msk(3, [(1, 0), (3, 1), (3, 2)])
        c = msk(3, [(1, 0), (1, 1), (3, 2)])
        result = ssl_closure((2, 3, 1), [a, c])
        cls = result.class_of(a)
        assert c in cls.meshes
        minimal = [
            m
            for m in cls.meshes
            if not any(o != m and o & m == o for o in cls.meshes)
        ]
        assert a in minimal and c in minimal
        assert a & c != a and a & c != c

    def test_stubborn_pair_stays_apart(self):
        # a true coincidence the shading moves cannot see: the enlarged mesh
        # never joins the class of the base mesh
        base = msk(3, [(0, 0), (0, 1), (1, 0), (2, 0), (2, 2), (3, 0), (3, 2), (3, 3)])
        bigger = base | msk(3, [(2, 1)])
        result = ssl_closure((1, 2, 3), [base])
        assert result.complete
        assert bigger not in result.class_of(base).meshes

    def test_budget_flags_incomplete(self):
        seed = msk(2, [(2, 0)])
        result = ssl_closure((1, 2), [seed], budget=1)
        assert not result.complete

    def test_negative_budget_is_an_error(self):
        with pytest.raises(ValueError, match="budget"):
            ssl_closure((1, 2), [0], budget=-3)

    def test_large_class_sandwiches_from_its_extremes(self):
        # sandwiching every pair of members, not just the extremes, took
        # about a minute on this seed
        seed = msk(5, [(0, 0), (5, 5)])
        result = ssl_closure((2, 4, 1, 5, 3), [seed])
        assert result.complete
        assert [len(c.meshes) for c in result.classes] == [11664]

    def test_sandwiching_runs_to_a_fixpoint(self):
        # one sandwich sweep leaves two meshes of this class outside it
        seed = msk(3, [(1, 2), (3, 3)])
        result = ssl_closure((3, 1, 2), [seed])
        assert result.complete
        assert [len(c.meshes) for c in result.classes] == [44]

    def test_classes_partition_reachable_meshes(self):
        result = ssl_closure((1, 2), [0, msk(2, [(0, 0)])])
        seen = set()
        for cls in result.classes:
            for m in cls.meshes:
                assert m not in seen
                seen.add(m)

    def test_soundness_sample(self):
        # closure classes never mix distinct avoidance sets (depth 5 here)
        rng = random.Random(101)
        for _ in range(12):
            p = tuple(rng.sample(range(1, 4), 3))
            seed = rng.getrandbits(16)
            result = ssl_closure(p, [seed], budget=64)
            cls = result.class_of(seed)
            sample = list(cls.meshes)[:12]
            fps = fingerprints_many(p, sample, 5)
            assert all(fp == fps[0] for fp in fps)


class TestMoveSoundness:
    def test_every_k1_move_preserves_depth6(self):
        for mask in range(16):
            pi = MeshPattern((1,), mask)
            for move in ssl_moves(pi):
                a, b = fingerprints_many((1,), (mask, mask | move.added), 6)
                assert a == b

    def test_random_k2_moves_preserve_depth6(self):
        rng = random.Random(103)
        for p in ((1, 2), (2, 1)):
            for _ in range(40):
                mask = rng.getrandbits(9)
                pi = MeshPattern(p, mask)
                for move in ssl_moves(pi):
                    a, b = fingerprints_many(p, (mask, mask | move.added), 6)
                    assert a == b
