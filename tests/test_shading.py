import functools
import gc
import hashlib
import itertools
import operator
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
    parse_mesh_pattern,
    squares_to_mask,
)
from meshcide import shading
from meshcide.certify import ProofTrace, TraceStep, gamma_steps, verify_trace
from meshcide.coincidence import decide_coincidence, partition_meshes
from meshcide.diagonals import apply_symmetry_mesh, apply_symmetry_square
from meshcide.shading import (
    Assignment,
    ShadeMove,
    shadeable_pairs,
    shadeable_singles,
    ssl_closure,
    ssl_moves,
    ssl_repair_occurrence,
)

from oracles import pair_candidate_ref, single_candidate_ref


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
                assert sq == single_candidate_ref(pt, d)
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
                assert pair == pair_candidate_ref(pt, d)
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
        # (6, 7, 8, 9) needs no repair, but float positions are no occurrence
        with pytest.raises(ValueError, match="not a mesh occurrence"):
            ssl_repair_occurrence(EX_PATTERN, ex_move(), self.W, (6.0, 7.0, 8.0, 9.0))

    def test_rejects_blocked_occurrence(self):
        pi = MeshPattern.of("12", [(2, 0)])
        move = ssl_moves(pi)[0]
        # (1,2) picks 2,3 in 231; the host point below-right blocks the mesh
        with pytest.raises(ValueError):
            ssl_repair_occurrence(pi, move, (2, 3, 1), (1, 2))

    # One walk per case of its rule: (kind, direction, whether the single's
    # flank above or below the candidate is shaded).  The region holds four
    # distinct extremes (furthest east, west, north, south), and the walk
    # steps once, to the extreme its case picks.  A pair's walk ends at the
    # same occurrence from any of them, in more steps, so the step count
    # pins its pick.
    PINNED = [
        # pattern, point, direction, flank shaded, host, occurrence, result
        ("21:(1,1)(2,2)", (2, 1), "NE", False, (3, 7, 1, 4, 2, 6, 5), (2, 3), (2, 6)),
        ("21:(1,0)(1,1)", (1, 2), "NE", True, (7, 2, 4, 6, 3, 5, 1), (2, 7), (6, 7)),
        ("12:(0,2)(1,0)", (2, 2), "NW", False, (1, 5, 3, 6, 4, 2), (1, 6), (1, 4)),
        ("12:(0,0)(1,0)(1,1)(2,0)", (2, 2), "NW", True, (1, 4, 6, 3, 5, 2), (1, 6), (1, 2)),
        ("21:(2,0)", (1, 2), "SE", False, (7, 4, 6, 2, 5, 3, 1), (1, 7), (4, 7)),
        ("21:(1,2)(2,1)", (1, 2), "SE", True, (7, 3, 4, 6, 2, 5, 1), (1, 7), (6, 7)),
        ("21:(2,1)", (1, 2), "SW", False, (5, 6, 2, 3, 4, 7, 1), (6, 7), (3, 7)),
        ("21:(0,0)(0,2)(2,0)", (1, 2), "SW", True, (4, 2, 5, 3, 6, 1), (5, 6), (1, 6)),
        ("12", (1, 1), "E", None, (6, 3, 2, 1, 5, 4, 7), (1, 7), (6, 7)),
        ("21:(2,2)", (1, 2), "N", None, (4, 2, 5, 7, 3, 6, 1), (2, 7), (4, 7)),
        ("21", (1, 2), "W", None, (3, 6, 2, 5, 4, 1), (5, 6), (1, 6)),
        ("12:(0,1)(0,2)", (2, 2), "S", None, (1, 7, 4, 2, 6, 3, 5), (1, 2), (1, 4)),
    ]

    @pytest.mark.parametrize("text, point, direction, shaded, w, occ, want", PINNED)
    def test_pinned_choice(self, text, point, direction, shaded, w, occ, want, monkeypatch):
        pi = parse_mesh_pattern(text)
        ((assignment, bits),) = [
            (a, bits)
            for a, bits in shading.shadeable_assignments(pi.perm, pi.mask)
            if a.point == point and a.direction == direction
        ]
        if assignment.kind == "single":
            # that flank is the candidate of the corner across the point's row
            across = {"NE": "SE", "SE": "NE", "NW": "SW", "SW": "NW"}[direction]
            assert pi.has_square(*single_candidate_ref(point, across)) == shaded
        picks = []
        pick = shading._pick_replacement

        def recorded(*args):
            picks.append(pick(*args))
            return picks[-1]

        monkeypatch.setattr(shading, "_pick_replacement", recorded)
        out = ssl_repair_occurrence(pi, ShadeMove((assignment,), bits), w, occ)
        assert (out, picks) == (want, [want[point[0] - 1]])

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

    def test_budget_bounds_the_meshes_added(self):
        # the empty mesh alone has 92,582 moves; when the budget capped the
        # meshes expanded, this closure held them all, 92,583 meshes
        result = ssl_closure((1, 2, 3, 4, 5, 6), (0,), budget=4096)
        assert (result.complete, result.size) == (False, 1 + 4096)

    def test_negative_budget_is_an_error(self):
        with pytest.raises(ValueError, match="budget"):
            ssl_closure((1, 2), [0], budget=-3)
        for budget in (True, 1.5, 2.0):  # not ints, rejected before any work
            with pytest.raises(ValueError, match="budget"):
                ssl_closure((1, 2), [0], budget=budget)

    def test_given_step_over_another_pattern_is_an_error(self):
        step = TraceStep("GAMMA", (2, 1), 0, 1, ("id",))
        with pytest.raises(ValueError, match="given step"):
            ssl_closure((1, 2), [0], given=[step])

    @pytest.mark.parametrize("perm", [(1.0, 2.0), (True, 2), [1, 2], 12])
    def test_given_step_over_a_perm_that_is_no_int_tuple_is_an_error(self, perm, monkeypatch):
        # (1.0, 2.0) == (1, 2), so this gamma step once entered the closure
        # and was logged rebuilt over (1, 2), though verify_trace refuses it
        good = gamma_steps((1, 2))[0]
        step = good._replace(perm=perm)
        for given, valid in ((good, True), (step, False)):
            trace = ProofTrace((1, 2), good.before, good.after, (given,))
            assert verify_trace(trace) is valid

        def no_expansion(*args):
            raise AssertionError("a mesh was expanded")

        monkeypatch.setattr(shading, "_frontier_moves", no_expansion)
        with pytest.raises(ValueError, match="given step"):
            ssl_closure((1, 2), [0], given=[step])

    def test_given_meshes_are_seeds(self):
        # mesh 16, square (1,1), enters only through a trusted given step;
        # like a seed it is held and expanded, and the budget counts the
        # meshes added beyond both
        step = TraceStep("GAMMA", (1, 2), 0, 16, ("id",))
        cut = ssl_closure((1, 2), [0], budget=0, given=[step])
        assert (cut.complete, [cls.meshes for cls in cut.classes]) == (False, [(0, 16)])
        assert ssl_closure((1, 2), [0], budget=1, given=[step]).size == 3
        whole = ssl_closure((1, 2), [0], given=[step])
        assert (whole.complete, whole.size) == (True, 63)

    @pytest.mark.parametrize("after", [-3, 1 << 9, 1 << 20, 1.5, True])
    def test_given_step_outside_the_grid_is_an_error(self, after):
        # a 3x3 grid has masks 0 .. 2**9 - 1; unchecked, these closures
        # returned classes holding meshes outside it
        step = TraceStep("GAMMA", (1, 2), 0, after, ("id",))
        with pytest.raises(ValueError, match="out of range"):
            ssl_closure((1, 2), [0], budget=3, given=[step])

    @pytest.mark.parametrize(
        "seeds, given, goal",
        [
            ([0, [(0, 0)]], (), None),
            ([0, 1.0], (), None),
            ([0, 1], (), (0, 1.0)),
            ([0], [TraceStep("GAMMA", (1, 2), 0, 2.5, ("id",))], None),
        ],
        ids=["squares seed", "float seed", "float goal", "float given after"],
    )
    def test_a_mesh_that_is_not_an_int_mask_is_rejected_before_any_expansion(
        self, seeds, given, goal, monkeypatch
    ):
        def no_expansion(*args):
            raise AssertionError("a mesh was expanded")

        monkeypatch.setattr(shading, "_frontier_moves", no_expansion)
        with pytest.raises(ValueError, match="out of range"):
            ssl_closure((1, 2), seeds, given=given, goal=goal)

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


def goal_pairs():
    """Thirty seeded neighbour pairs at each of lengths 3 and 4: a sparse
    mesh, and the same mesh with one square toggled."""
    rng = random.Random(1503)
    for k in (3, 4):
        nbits = (k + 1) ** 2
        for _ in range(30):
            p = tuple(rng.sample(range(1, k + 1), k))
            a = sum(1 << bit for bit in range(nbits) if rng.random() < 0.2)
            yield p, a, a ^ 1 << rng.randrange(nbits)


class TestGoal:
    """A goal pair stops the closure at the merge that joins it."""

    def test_stopped_classes_lie_in_full_classes(self):
        joined = saved = 0
        for p, a, b in goal_pairs():
            seeds = (a, b, a & b)
            full = ssl_closure(p, seeds, budget=512)
            stopped = ssl_closure(p, seeds, budget=512, goal=(a, b))
            assert stopped.expanded <= full.expanded
            class_of = {m: i for i, cls in enumerate(full.classes) for m in cls.meshes}
            for cls in stopped.classes:
                assert len({class_of[m] for m in cls.meshes}) == 1, (p, a, b)
            together = b in stopped.class_of(a).meshes
            assert together == (b in full.class_of(a).meshes), (p, a, b)
            if together:
                joined += 1
                saved += stopped.expanded < full.expanded
                assert not stopped.complete
                steps = stopped.class_of(a).steps
                assert verify_trace(ProofTrace(p, a, b, steps)), (p, a, b)
            else:  # never stopped: the same run as without the goal
                assert closure_digest(stopped) == closure_digest(full), (p, a, b)
        assert joined >= 10 and saved >= 10

    def test_pinned_k5_pair_stops_after_its_seeds(self):
        # without the goal this closure adds the whole budget decide gives
        # it: its seeds and 4096 meshes more
        a = parse_mesh_pattern("42513:(5,0)(5,3)(5,5)")
        b = parse_mesh_pattern("42513:(3,0)(5,0)(5,5)")
        seeds = (a.mask, b.mask, a.mask & b.mask)
        full = ssl_closure(a.perm, seeds, budget=4096)
        assert (full.complete, full.size) == (False, 3 + 4096)
        stopped = ssl_closure(a.perm, seeds, budget=4096, goal=(a.mask, b.mask))
        assert (stopped.complete, stopped.expanded) == (False, 3)
        cls = stopped.class_of(a.mask)
        assert b.mask in cls.meshes and len(cls.steps) == 14
        assert verify_trace(ProofTrace(a.perm, a.mask, b.mask, cls.steps))
        v = decide_coincidence(a, b, 6)
        assert v.status == "PROVEN_COINCIDENT" and v.trace.steps == cls.steps

    def test_stop_leaves_the_rest_of_a_batch_unprobed(self, monkeypatch):
        # a closure that can stop probes its batches in runs of doubling
        # length; probing them whole gives the same result
        frontier_moves = shading._frontier_moves
        probed = []

        def counted(p, batch, memo):
            probed.append(len(batch))
            return frontier_moves(p, batch, memo)

        monkeypatch.setattr(shading, "_frontier_moves", counted)
        fewer = 0
        for p, a, b in goal_pairs():
            seeds = (a, b, a & b)
            probed.clear()
            stopped = ssl_closure(p, seeds, budget=512, goal=(a, b))
            assert sum(probed) <= stopped.expanded, (p, a, b)
            fewer += sum(probed) < stopped.expanded
            with monkeypatch.context() as whole_batches:
                whole_batches.setattr(shading, "_probed_in_runs", counted)
                probed.clear()
                whole = ssl_closure(p, seeds, budget=512, goal=(a, b))
            assert sum(probed) == whole.expanded, (p, a, b)
            assert closure_digest(whole) == closure_digest(stopped), (p, a, b)
        assert fewer >= 10

    def test_goal_joined_before_any_expansion(self):
        g1 = msk(2, [(0, 1), (0, 2), (1, 1), (1, 2), (2, 0)])
        g2 = msk(2, [(0, 2), (1, 0), (1, 1), (2, 0), (2, 1)])
        step = TraceStep("GAMMA", (1, 2), g1, g2, ("id",))
        result = ssl_closure((1, 2), [g1, g2], given=[step], goal=(g1, g2))
        assert (result.complete, result.expanded) == (False, 0)
        assert result.class_of(g1).steps == (step,)
        result = ssl_closure((1, 2), [g1], goal=(g1, g1))
        assert (result.complete, result.expanded, result.classes[0].steps) == (False, 0, ())

    def test_goal_must_be_seeds(self):
        with pytest.raises(ValueError, match="goal"):
            ssl_closure((1, 2), [0], goal=(0, 1))

    @pytest.mark.parametrize("goal", [(), (0,), (0, 1, 2)])
    def test_goal_must_be_a_pair(self, goal):
        with pytest.raises(ValueError, match="goal"):
            ssl_closure((1, 2), [0, 1, 2], goal=goal)


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


# ---------------------------------------------------------------------------
# The closure engine against results recorded before its union-find kept
# member lists and built steps only on merges.

def _step_key(step):
    if step.rule == "SSL":
        detail = tuple((a.point, a.kind, a.direction, a.squares) for a in step.detail)
    else:
        detail = tuple(step.detail)
    return (step.rule, step.perm, step.before, step.after, detail)


def closure_digest(result, steps=True):
    """sha256 of a closure result: its classes, ``complete`` and
    ``expanded``, and with ``steps`` every class's steps in order."""
    h = hashlib.sha256(repr((result.perm, result.complete, result.expanded)).encode())
    for cls in result.classes:
        h.update(repr(cls.meshes).encode())
        if steps:
            h.update(repr([_step_key(s) for s in cls.steps]).encode())
    return h.hexdigest()


def whole_cube_closure(p, gamma):
    cube = range(1 << (len(p) + 1) ** 2)
    return ssl_closure(p, cube, given=gamma_steps(p) if gamma else ())


def seeded_closures():
    """Three patterns of each length 3-5, each with two sparse seeded meshes."""
    rng = random.Random(1412)
    for k in (3, 4, 5):
        for _ in range(3):
            p = tuple(rng.sample(range(1, k + 1), k))
            nbits = (k + 1) ** 2
            seeds = [sum(1 << b for b in range(nbits) if rng.random() < 0.12) for _ in range(2)]
            yield p, seeds


WHOLE_CUBE_DIGESTS = {
    # (pattern, gamma): closure_digest of the whole-cube closure
    ((1,), True): "7d06c4cbf6aaa40410de635dad42dd189627a1a0fdcc4086b081778965f1c1f9",
    ((1,), False): "7d06c4cbf6aaa40410de635dad42dd189627a1a0fdcc4086b081778965f1c1f9",
    ((1, 2), True): "6299f8e4f14a257c127bb398430092b5bdae6d29ac42572448b2cd3820411302",
    ((1, 2), False): "aff51e036a70c2da30c11be95b80438ffb5d336cfb830d25f33262e6dbe6e829",
    ((2, 1), True): "856d5c5f109ccb644694ab6ef2356ece77c97b88351b886ebba595ded5323b48",
    ((2, 1), False): "f5e0f9dc647b7b661cf67f5e5abb824a4c9eaa9504094e4a1f3153fdb09bb6e3",
    ((1, 2, 3), True): "964488fe04ff74bb6401367e73188497c4ec6baba51aeed5a48b5a7955c2e4d4",
    ((1, 2, 3), False): "964488fe04ff74bb6401367e73188497c4ec6baba51aeed5a48b5a7955c2e4d4",
}

SEEDED_DIGESTS = {
    # (pattern, budget): closure_digest(..., steps=False)
    ((2, 1, 3), None): "ed657576ae94a74a29ae759305ce1044e7f1d2ee05937b71c17fe78ed5dcfe77",
    ((2, 1, 3), 0): "d2125db9ff5bb7c8a1c262d2ce64bcaadbf338c336fafd79a4ada0fddf5f835e",
    ((2, 1, 3), 5): "3ad1c1eb8f8485a307d7c587869dc9d9905deed066ff43e25ae9287528a48db3",
    ((2, 1, 3), 300): "15b3978d2941b2b8b2d206c01f6c169a0dfb288ec23979ca65382930d10bf862",
    ((3, 2, 1), None): "c7589cd4820c73d35b2d045161dbcf4c4b17da024bee9827ccd8c33013ebe587",
    ((3, 2, 1), 0): "f033842fe8412d99be69dc8380db344f6d0bd6e2cbded8205abb479338b4b43e",
    ((3, 2, 1), 5): "e3e7439c4c2f3caf3a207cae48f7e7b7d2d267da4b94042a18433b2640bbd826",
    ((3, 2, 1), 300): "c7589cd4820c73d35b2d045161dbcf4c4b17da024bee9827ccd8c33013ebe587",
    ((3, 1, 2), None): "25363c3c04aa8e5f57d015fd0cb9df04e42c71a777b8e88ae274afa3335db2e0",
    ((3, 1, 2), 0): "b67d183340abb94f131e40a8166736af424c9e2c5f800ee789ce3a51cf894034",
    ((3, 1, 2), 5): "9edf46b2b16b95b682f34b05ff807da34191e182ebeae35c1b93935570314690",
    ((3, 1, 2), 300): "25363c3c04aa8e5f57d015fd0cb9df04e42c71a777b8e88ae274afa3335db2e0",
    ((3, 2, 1, 4), None): "1c2a344f0af785fd8c2089a34238e52debfd25c1eae96a0f07a3dd3d00afaf83",
    ((3, 2, 1, 4), 0): "c011e6595615694b87d7252b2d80b6d1ddfbee1a317b484798e3caa27d2e2e17",
    ((3, 2, 1, 4), 5): "25d857960019e2f0c38dd6db412b512ac99add5e29ac90df4c47c89c0807c5d8",
    ((3, 2, 1, 4), 300): "ee09b2fd53724ff2b2e17ff3768a812386e664dec946e3d80ca5fcfc6f11bf9b",
    ((1, 2, 3, 4), None): "d4dd76fb1db8cecdb0e605995ddad6078f36c8bdeb6ee780616e9c11d0890631",
    ((1, 2, 3, 4), 0): "55d6c57433bb4aec35033b55649ef1fe533d7574e29c000a45f7fa81ce521363",
    ((1, 2, 3, 4), 5): "81a0a74c0a2772ee3d787903aec1c55cbd00a07e2c1a09343f4415294674f704",
    ((1, 2, 3, 4), 300): "d4dd76fb1db8cecdb0e605995ddad6078f36c8bdeb6ee780616e9c11d0890631",
    ((1, 2, 4, 3), None): "451e44b186a82936b82bb4e7781b2033996b629975fa3d70f5705ff0e4ccc124",
    ((1, 2, 4, 3), 0): "b4297e04cf00d3ec36d7657e4bd2db8ef5eb781b01262182c4afb5ef4bc02804",
    ((1, 2, 4, 3), 5): "757e7a7d57fad01ceaa9829ea2924846a5f6f125ae3e903f7b0d7d63cce92234",
    ((1, 2, 4, 3), 300): "cb108d919c7510ab681355e063adc891f03b4c5cce0aace10f94f3ddb796df48",
    ((5, 2, 1, 4, 3), None): "3da198f5840e6470235390beafd35aded95692c1f0998adcfe79dd9bf333e103",
    ((5, 2, 1, 4, 3), 0): "fc9484dd0fe8d11a3cdbdf733f5e2a1c2039f1724c476c79c28d25e656613613",
    ((5, 2, 1, 4, 3), 5): "ee5a4663a1e9c62fc32edd2dd80781efcacc63c2802d0058b86202847d9b70be",
    ((5, 2, 1, 4, 3), 300): "ceda8f7329e7ae20ab6e9e1488df0eb3973260dcd3e6f62795a9c5dd6280e757",
    ((2, 1, 5, 3, 4), None): "52cac3447e4cd63e176670a68bf54ffed4ced14c77135c9a36f85b430d4400b7",
    ((2, 1, 5, 3, 4), 0): "4c61cfab93d70e4cb6e38a9334a22de20161e63e004ac4dbdcbe00eeb80f37f1",
    ((2, 1, 5, 3, 4), 5): "e4c0d4de9cf8318bb8dda02bd2327b4fd41a18f823068ee5d7a17ee4a60ecb07",
    ((2, 1, 5, 3, 4), 300): "98f9b6fd5ade6102c1d1764387d01ab3f9d3c7c5622bb7f8480f25492ff7b6f5",
    ((4, 5, 1, 2, 3), None): "1310b81b1382bef0e3eec5980dbd9f3d649343a8ee586ae3e047b905d5dca488",
    ((4, 5, 1, 2, 3), 0): "264e742ba08393dd0b59eb60940b3b782a181e02fabccc1c22ffc04e8435f801",
    ((4, 5, 1, 2, 3), 5): "678f64dc84f7152e7381fc784cd1691b2bfb8a5ba8bcda8264d4c825e8ca10c1",
    ((4, 5, 1, 2, 3), 300): "1310b81b1382bef0e3eec5980dbd9f3d649343a8ee586ae3e047b905d5dca488",
}

BIVINCULAR_2413_DIGEST = "3793498c85f0e472b274771f7575f6d483e42fdb34a61c84ba66c802fd49b11c"


def bivincular_seeds(k):
    """Every mesh over a length-k pattern that shades a union of full
    columns and full rows."""
    n = k + 1
    lines = [msk(k, [(c, r) for r in range(n)]) for c in range(n)]
    lines += [msk(k, [(c, r) for c in range(n)]) for r in range(n)]
    return sorted(
        {
            functools.reduce(operator.or_, chosen, 0)
            for size in range(len(lines) + 1)
            for chosen in itertools.combinations(lines, size)
        }
    )


def assert_spanning_forest(result):
    """Each class's steps join its meshes in ``len(meshes) - 1`` merges,
    and no step leaves its class."""
    for cls in result.classes:
        assert len(cls.steps) == len(cls.meshes) - 1, cls.meshes[0]
        members = set(cls.meshes)
        parent = {m: m for m in members}

        def root(m):
            while parent[m] != m:
                m = parent[m]
            return m

        for step in cls.steps:
            assert step.before in members and step.after in members
            a, b = root(step.before), root(step.after)
            assert a != b, "a step that merges nothing"
            parent[b] = a


def assert_nested_in_full(p, seeds, budget):
    """The closure under ``budget`` holds at most the seeds and ``budget``
    meshes more, and each of its classes lies inside one class of the
    closure without a budget."""
    stopped = ssl_closure(p, seeds, budget=budget)
    assert stopped.size <= len(set(seeds)) + budget, (p, budget)
    full = ssl_closure(p, seeds)
    class_of = {m: i for i, cls in enumerate(full.classes) for m in cls.meshes}
    for cls in stopped.classes:
        assert len({class_of[m] for m in cls.meshes}) == 1, (p, budget)


class TestClosureEngine:
    @pytest.mark.parametrize("p", [(1,), (1, 2), (2, 1), (1, 2, 3)])
    @pytest.mark.parametrize("gamma", [True, False])
    def test_whole_cube_matches_recorded(self, p, gamma):
        result = whole_cube_closure(p, gamma)
        assert result.complete and result.expanded == 1 << (len(p) + 1) ** 2
        assert closure_digest(result) == WHOLE_CUBE_DIGESTS[p, gamma]
        assert_spanning_forest(result)
        # without steps the closure gives the same classes and counts
        given = gamma_steps(p) if gamma else ()
        bare = ssl_closure(p, range(result.expanded), given=given, steps=False)
        assert (bare.complete, bare.expanded) == (result.complete, result.expanded)
        assert closure_digest(bare, steps=False) == closure_digest(result, steps=False)
        assert all(cls.steps == () for cls in bare.classes)

    @pytest.mark.parametrize("budget", [None, 0, 5, 300])
    def test_seeded_closures_match_recorded(self, budget):
        for p, seeds in seeded_closures():
            result = ssl_closure(p, seeds, budget=budget)
            assert closure_digest(result, steps=False) == SEEDED_DIGESTS[p, budget], p
            assert_spanning_forest(result)
            # every step replays; the forest joins the rest of the class
            for cls in result.classes:
                trace = ProofTrace(p, cls.meshes[0], cls.meshes[-1], cls.steps)
                assert verify_trace(trace), (p, cls.meshes[0])
            # without steps a budget stops on the same meshes
            bare = ssl_closure(p, seeds, budget=budget, steps=False)
            assert closure_digest(bare, steps=False) == SEEDED_DIGESTS[p, budget], p
            assert all(cls.steps == () for cls in bare.classes), p

    def test_runs_stay_bounded(self, monkeypatch):
        # the whole cube of 123 is one batch of 65,536 meshes, probed in runs
        # that double up to the bound and then keep it
        frontier_moves = shading._frontier_moves
        probed = []

        def counted(p, batch, memo):
            probed.append(len(batch))
            return frontier_moves(p, batch, memo)

        monkeypatch.setattr(shading, "_frontier_moves", counted)
        result = whole_cube_closure((1, 2, 3), True)
        bound = shading._RUN_BOUND
        doubling = [1 << i for i in range(bound.bit_length())]
        assert bound == doubling[-1] == 4096
        assert sum(probed) == result.expanded == 1 << 16
        assert probed[: len(doubling)] == doubling
        assert set(probed[len(doubling) : -1]) == {bound}
        assert max(probed) == bound

    @pytest.mark.parametrize("budget", [0, 5, 300])
    def test_budgeted_classes_lie_in_unbudgeted_classes(self, budget):
        for p, seeds in seeded_closures():
            assert_nested_in_full(p, seeds, budget)

    def test_pinned_k5_budgeted_classes_lie_in_unbudgeted_classes(self):
        a = parse_mesh_pattern("42513:(5,0)(5,3)(5,5)")
        b = parse_mesh_pattern("42513:(3,0)(5,0)(5,5)")
        assert_nested_in_full(a.perm, (a.mask, b.mask, a.mask & b.mask), 4096)

    def test_bivincular_family_closure_matches_recorded(self):
        # a family closure at k = 4 whose classes grow mostly by sandwiching
        seeds = bivincular_seeds(4)
        result = ssl_closure((2, 4, 1, 3), seeds)
        assert (len(seeds), result.size, len(result.classes)) == (962, 14090, 810)
        assert result.complete
        assert closure_digest(result) == BIVINCULAR_2413_DIGEST
        assert_spanning_forest(result)


def collections_inside(func, call):
    """The generations of the collections that start while a frame of
    ``func`` runs during ``call()``."""
    code = getattr(func, "__wrapped__", func).__code__
    seen = []

    def callback(phase, info):
        frame = sys._getframe(1)
        while frame is not None and frame.f_code is not code:
            frame = frame.f_back
        if phase == "start" and frame is not None:
            seen.append(info["generation"])

    gc.callbacks.append(callback)
    try:
        call()
    finally:
        gc.callbacks.remove(callback)
    return seen


def set_collector(enabled):
    if enabled:
        gc.enable()
    else:
        gc.disable()


PAUSED_CALLS = {
    "closure": (ssl_closure, lambda: ssl_closure((1, 2, 3), range(1 << 16))),
    "partition": (partition_meshes, lambda: partition_meshes((1, 2), 5)),
}


class TestCollectorPause:
    """The closure and the partition run with the cyclic garbage collector
    paused, and leave it as they found it."""

    @pytest.fixture(params=["enabled", "disabled", "raising"])
    def collector(self, request, monkeypatch):
        was = gc.isenabled()
        set_collector(request.param != "disabled")
        if request.param == "raising":

            def fail(*args):
                raise RuntimeError("no expansion")

            monkeypatch.setattr(shading, "_frontier_moves", fail)
        yield request.param
        set_collector(was)

    @pytest.mark.parametrize("name", PAUSED_CALLS)
    def test_no_collection_runs_inside(self, name):
        func, call = PAUSED_CALLS[name]
        was = gc.isenabled()
        gc.enable()
        try:
            assert collections_inside(func, call) == []
        finally:
            set_collector(was)

    @pytest.mark.parametrize("name", PAUSED_CALLS)
    def test_collector_state_is_restored(self, name, collector):
        _, call = PAUSED_CALLS[name]
        before = gc.isenabled()
        if collector == "raising":
            with pytest.raises(RuntimeError, match="no expansion"):
                call()
        else:
            call()
        assert gc.isenabled() == before
