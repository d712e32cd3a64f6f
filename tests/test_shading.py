import hashlib
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
    parse_mesh_pattern,
    squares_to_mask,
)
from meshcide import shading
from meshcide.coincidence import decide_coincidence, verify_trace
from meshcide.diagonals import apply_symmetry_mesh, apply_symmetry_square
from meshcide.shading import (
    Assignment,
    ProofTrace,
    ShadeMove,
    TraceStep,
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

    def test_given_step_over_another_pattern_is_an_error(self):
        step = TraceStep("GAMMA", (2, 1), 0, 1, ("id",))
        with pytest.raises(ValueError, match="given step"):
            ssl_closure((1, 2), [0], given=[step])

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
        # without the goal this closure spends the whole budget decide gives
        # it, and the pair's class log runs to 5,183 steps
        a = parse_mesh_pattern("42513:(5,0)(5,3)(5,5)")
        b = parse_mesh_pattern("42513:(3,0)(5,0)(5,5)")
        seeds = (a.mask, b.mask, a.mask & b.mask)
        full = ssl_closure(a.perm, seeds, budget=4096)
        assert (full.complete, full.expanded) == (False, 4096)
        assert len(full.class_of(a.mask).steps) == 5183
        stopped = ssl_closure(a.perm, seeds, budget=4096, goal=(a.mask, b.mask))
        assert (stopped.complete, stopped.expanded) == (False, 3)
        cls = stopped.class_of(a.mask)
        assert b.mask in cls.meshes and len(cls.steps) == 14
        assert verify_trace(ProofTrace(a.perm, a.mask, b.mask, cls.steps))
        v = decide_coincidence(a, b, 6)
        assert v.status == "PROVEN_COINCIDENT" and v.trace.steps == cls.steps

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
    from meshcide.coincidence import _gamma_steps

    cube = range(1 << (len(p) + 1) ** 2)
    return ssl_closure(p, cube, given=_gamma_steps(p) if gamma else ())


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
    ((2, 1, 3), 0): "d48badea4c629e85c854fa8c79fb1ce27b98514bfa6e1627678f0b020be48345",
    ((2, 1, 3), 5): "a59e0bae0e038aef5dcff645564f3cd30185c0e8388457808a305e2fe0f889bb",
    ((2, 1, 3), 300): "60c611875af5dcb6155bcdde1e04f1c24fae5374b01d28310fa453c3c0c4fde8",
    ((3, 2, 1), None): "c7589cd4820c73d35b2d045161dbcf4c4b17da024bee9827ccd8c33013ebe587",
    ((3, 2, 1), 0): "60ee1eeec1b9374638b5013b023a4f4156b83c2a2cabb5e6df46b62ef602544e",
    ((3, 2, 1), 5): "2bca576e9bce6c8ebd882c647a29777170e71b8b7aead94d59ae3ef83cbffd44",
    ((3, 2, 1), 300): "c7589cd4820c73d35b2d045161dbcf4c4b17da024bee9827ccd8c33013ebe587",
    ((3, 1, 2), None): "25363c3c04aa8e5f57d015fd0cb9df04e42c71a777b8e88ae274afa3335db2e0",
    ((3, 1, 2), 0): "4e9a430b4459cf0ec23824997060f9c6a0bce0dda78e979fc30a1870accd76ac",
    ((3, 1, 2), 5): "dccb10a6814bdfbc0d80118210b29750215b4c8aa0435c7374b9f5a983990608",
    ((3, 1, 2), 300): "25363c3c04aa8e5f57d015fd0cb9df04e42c71a777b8e88ae274afa3335db2e0",
    ((3, 2, 1, 4), None): "1c2a344f0af785fd8c2089a34238e52debfd25c1eae96a0f07a3dd3d00afaf83",
    ((3, 2, 1, 4), 0): "5d88eb33d26f7cc92ef52a619887bc3f53689c8b8ff5751b17adf78e4dff1360",
    ((3, 2, 1, 4), 5): "a9257777123ca46ac63ec5207bf632f3b5b7afcd425fbb3e3ea8c99a4bf46c31",
    ((3, 2, 1, 4), 300): "65517b0e41633e3cd2faebf1592df6851ee54f57268df7717fd5912539e72ee4",
    ((1, 2, 3, 4), None): "d4dd76fb1db8cecdb0e605995ddad6078f36c8bdeb6ee780616e9c11d0890631",
    ((1, 2, 3, 4), 0): "a4601713ae8dfd25ed50d2fa733ea2137dee19dc23ab1abcefa597af94800b6b",
    ((1, 2, 3, 4), 5): "340503cc724d9db8295e8d9a3daad84d99256493d118d16ff93e619acf5e70be",
    ((1, 2, 3, 4), 300): "d4dd76fb1db8cecdb0e605995ddad6078f36c8bdeb6ee780616e9c11d0890631",
    ((1, 2, 4, 3), None): "451e44b186a82936b82bb4e7781b2033996b629975fa3d70f5705ff0e4ccc124",
    ((1, 2, 4, 3), 0): "ed633cd622c59fdc175b2ca9aa8c9e4c71580949b4474ede1adc7d4ff8ebc428",
    ((1, 2, 4, 3), 5): "af5ca5d134fb31515931922aedff8bbdf9c9ed4b9522b4b1063aa6e5d026081f",
    ((1, 2, 4, 3), 300): "42b0075335589c9a42bad85303869f95feae4ccb09fac4fa2ee895d97184fc34",
    ((5, 2, 1, 4, 3), None): "3da198f5840e6470235390beafd35aded95692c1f0998adcfe79dd9bf333e103",
    ((5, 2, 1, 4, 3), 0): "fe26714cb92921a0667df295233c78e8905bfbaf8b56d931c7b314b90228f2ed",
    ((5, 2, 1, 4, 3), 5): "d1f87967785eef27c01f4259f8a9b078675496a4dc5ec567bee6d273ad1d2deb",
    ((5, 2, 1, 4, 3), 300): "e9c97ccd8fd073d5a9bd84d778743d78e764987051beae4d46bd09b7a5b0171b",
    ((2, 1, 5, 3, 4), None): "52cac3447e4cd63e176670a68bf54ffed4ced14c77135c9a36f85b430d4400b7",
    ((2, 1, 5, 3, 4), 0): "934e79bd93295ac70793493585876c5e2fe9d0373a01d8b5f76ffe106a4ff9b0",
    ((2, 1, 5, 3, 4), 5): "646eb9f8487057c72e77c22ea232d8b8b1f8d1bf8d5d7db3b299e7907d1439b8",
    ((2, 1, 5, 3, 4), 300): "8ebad1aa62f510a890079c3a34a0e7710819dc079f4209e065ab066b0e9a4121",
    ((4, 5, 1, 2, 3), None): "1310b81b1382bef0e3eec5980dbd9f3d649343a8ee586ae3e047b905d5dca488",
    ((4, 5, 1, 2, 3), 0): "3a6344f40a8d83546dbbfe5125c32fbb00f130086a855e69be67c581c76769c3",
    ((4, 5, 1, 2, 3), 5): "b407e628c43f8415c9100cee40fc76a972a2f7226682a1a5003cf8bd2e6ac507",
    ((4, 5, 1, 2, 3), 300): "1310b81b1382bef0e3eec5980dbd9f3d649343a8ee586ae3e047b905d5dca488",
}


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


class TestClosureEngine:
    @pytest.mark.parametrize("p", [(1,), (1, 2), (2, 1), (1, 2, 3)])
    @pytest.mark.parametrize("gamma", [True, False])
    def test_whole_cube_matches_recorded(self, p, gamma):
        result = whole_cube_closure(p, gamma)
        assert result.complete and result.expanded == 1 << (len(p) + 1) ** 2
        assert closure_digest(result) == WHOLE_CUBE_DIGESTS[p, gamma]
        assert_spanning_forest(result)

    @pytest.mark.parametrize("budget", [None, 0, 5, 300])
    def test_seeded_closures_match_recorded(self, budget):
        from meshcide.coincidence import verify_trace
        from meshcide.shading import ProofTrace

        for p, seeds in seeded_closures():
            result = ssl_closure(p, seeds, budget=budget)
            assert closure_digest(result, steps=False) == SEEDED_DIGESTS[p, budget], p
            assert_spanning_forest(result)
            # every step replays; the forest joins the rest of the class
            for cls in result.classes:
                trace = ProofTrace(p, cls.meshes[0], cls.meshes[-1], cls.steps)
                assert verify_trace(trace), (p, cls.meshes[0])
