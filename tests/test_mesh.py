import itertools
import json
import random
import tracemalloc
from enum import IntEnum
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meshcide.perm import (
    ParseError,
    _search_plan,
    all_perms,
    apply_symmetry_perm,
    is_occurrence,
    lex_rank,
)
from meshcide import mesh
from meshcide.mesh import (
    MAX_DEPTH,
    MeshPattern,
    OpenBox,
    avoiders,
    containment_signatures,
    contains,
    corresponding_region,
    default_depth,
    fingerprints_many,
    first_separation,
    full_grid_mask,
    host_region_masks,
    iter_mesh_occurrences,
    mask_to_squares,
    mesh_occurrences,
    mesh_pattern_from_json,
    mesh_pattern_to_json,
    occurrence_region_mask,
    parse_mesh_pattern,
    squares_to_mask,
)
from meshcide.diagonals import apply_symmetry_mesh
from oracles import (
    mesh_contains_brute,
    mesh_occurrences_brute,
    occurrence_hits_brute,
    occurrences_brute,
    region_brute,
    shading_free_brute,
)

W42135 = (4, 2, 1, 3, 5)
# an int subclass other than bool: equal to an int, but neither a mask nor a depth
Small = IntEnum("Small", "ONE TWO")

FIG_MESH = MeshPattern.of("213", [(0, 3), (1, 2), (1, 3), (3, 0)])


class TestRegions:
    def test_corner_square(self):
        assert corresponding_region(W42135, (1, 3, 5), (0, 0)) == OpenBox(0, 1, 0, 1)

    def test_top_band_square(self):
        # square (1,3) sits between the first two occurrence positions and
        # above the largest occurrence value
        assert corresponding_region(W42135, (1, 3, 5), (1, 3)) == OpenBox(1, 3, 5, 6)

    def test_last_column_square(self):
        assert corresponding_region(W42135, (1, 3, 5), (3, 3)) == OpenBox(5, 6, 5, 6)

    def test_middle_square(self):
        # between the first two positions, between the top two values:
        # the rectangle with corners (1,4) and (3,5)
        assert corresponding_region(W42135, (1, 3, 5), (1, 2)) == OpenBox(1, 3, 4, 5)

    def test_grid_mismatch(self):
        with pytest.raises(ValueError, match=r"\(4,0\)"):
            corresponding_region(W42135, (1, 3, 5), (4, 0))

    def test_bad_occurrence(self):
        with pytest.raises(ValueError):
            corresponding_region(W42135, (3, 1, 5), (0, 0))
        with pytest.raises(ValueError, match="invalid occurrence positions"):
            corresponding_region((2, 1, 3), (), (0, 0))

    @pytest.mark.parametrize("host", [(3, 3, 3), (5, 5, 5, 5), (0, 1, 2), (1.0, 2.0, 3.0)])
    def test_region_helpers_refuse_a_host_that_is_not_a_permutation(self, host):
        # as contains does; (3, 3, 3) once gave the region (0,1)x(0,3), and
        # (5, 5, 5, 5) the mask 288 for positions (1, 3)
        with pytest.raises(ValueError, match="not a permutation|not an int"):
            corresponding_region(host, (1, 2), (0, 0))
        with pytest.raises(ValueError, match="not a permutation|not an int"):
            occurrence_region_mask(host, (1, 3))

    @pytest.mark.parametrize("occ", [(1, 1), (5,)])
    def test_region_mask_refuses_bad_positions(self, occ):
        # a repeated position and one past the host's end
        with pytest.raises(ValueError, match="invalid occurrence positions"):
            occurrence_region_mask((2, 1, 3), occ)

    def test_matches_inverse_value_formulation(self):
        rng = random.Random(7)
        for _ in range(300):
            n = rng.randint(2, 7)
            w = tuple(rng.sample(range(1, n + 1), n))
            k = rng.randint(1, min(4, n))
            occ = tuple(sorted(rng.sample(range(1, n + 1), k)))
            vals = [w[i - 1] for i in occ]
            p = tuple(sorted(vals).index(v) + 1 for v in vals)
            for a in range(k + 1):
                for b in range(k + 1):
                    box = corresponding_region(w, occ, (a, b))
                    (x_lo, x_hi), (y_lo, y_hi) = region_brute(p, w, occ, (a, b))
                    assert (box.x_lo, box.x_hi, box.y_lo, box.y_hi) == (
                        x_lo,
                        x_hi,
                        y_lo,
                        y_hi,
                    )

    def test_region_mask_agrees_with_boxes(self):
        w = W42135
        for occ in occurrences_brute((2, 1, 3), w):
            mask = occurrence_region_mask(w, occ)
            for a in range(4):
                for b in range(4):
                    box = corresponding_region(w, occ, (a, b))
                    blocked = any(
                        box.contains_point(x, w[x - 1]) for x in range(1, 6)
                    )
                    assert blocked == bool(mask & (1 << (a * 4 + b)))


class TestContainment:
    def test_four_mesh_occurrences(self):
        occs = mesh_occurrences(FIG_MESH, W42135)
        assert len(occs) == 4
        assert (2, 3, 4) not in occs

    def test_empty_mesh_equals_classical(self):
        pi = MeshPattern.of("213")
        assert mesh_occurrences(pi, W42135) == occurrences_brute((2, 1, 3), W42135)

    def test_42513_tetrad(self):
        w = (4, 2, 5, 1, 3)
        assert not contains(MeshPattern.of("231", [(1, 0), (3, 1), (3, 2)]), w)
        assert not contains(MeshPattern.of("231", [(1, 0), (1, 1), (3, 1), (3, 2)]), w)
        assert not contains(MeshPattern.of("231", [(1, 0), (1, 1), (3, 2)]), w)
        assert contains(MeshPattern.of("231", [(1, 0), (3, 2)]), w)

    def test_single_point_bivincular(self):
        w = (1, 3, 2)
        assert contains(MeshPattern.of("1", [(0, 0), (0, 1), (1, 0)]), w)
        assert not contains(MeshPattern.of("1", [(1, 1), (0, 1), (1, 0)]), w)

    def test_mesh_occurrences_subset_of_classical(self):
        rng = random.Random(3)
        for _ in range(200):
            n = rng.randint(1, 6)
            w = tuple(rng.sample(range(1, n + 1), n))
            k = rng.randint(1, 3)
            p = tuple(rng.sample(range(1, k + 1), k))
            mask = rng.getrandbits((k + 1) ** 2)
            pi = MeshPattern(p, mask)
            assert set(mesh_occurrences(pi, w)) <= set(occurrences_brute(p, w))

    def test_against_brute_oracle_exhaustive_k2(self):
        # every mesh over 12, every host up to S_4
        for mask in range(512):
            pi = MeshPattern((1, 2), mask)
            squares = mask_to_squares(2, mask)
            for n in range(1, 5):
                for w in all_perms(n):
                    assert contains(pi, w) == mesh_contains_brute((1, 2), squares, w)

    def test_against_brute_oracle_random_k3(self):
        rng = random.Random(11)
        pats = list(itertools.permutations((1, 2, 3)))
        for _ in range(150):
            p = rng.choice(pats)
            mask = rng.getrandbits(16)
            squares = mask_to_squares(3, mask)
            pi = MeshPattern(p, mask)
            n = rng.randint(1, 6)
            w = tuple(rng.sample(range(1, n + 1), n))
            assert contains(pi, w) == mesh_contains_brute(p, squares, w)

    def test_monotonicity_exhaustive_k2(self):
        # Cont(R') subset of Cont(R) whenever R subset of R'; depth 5 here
        fps = fingerprints_many((1, 2), list(range(512)), 5)
        for lo in range(512):
            for extra in range(9):
                hi = lo | (1 << extra)
                if hi == lo:
                    continue
                for n in range(5):
                    assert fps[hi][n] & ~fps[lo][n] == 0

    def test_symmetry_equivariance(self):
        rng = random.Random(23)
        pats = [(1,), (1, 2), (2, 1)] + list(itertools.permutations((1, 2, 3)))
        for _ in range(120):
            p = rng.choice(pats)
            k = len(p)
            pi = MeshPattern(p, rng.getrandbits((k + 1) ** 2))
            n = rng.randint(1, 6)
            w = tuple(rng.sample(range(1, n + 1), n))
            for s in ("r", "c", "i", "rci"):
                assert contains(pi, w) == contains(
                    apply_symmetry_mesh(s, pi), apply_symmetry_perm(s, w)
                )


def planted_host(n, seed):
    """A host of length n that starts with its minimum, the rest shuffled."""
    rest = list(range(2, n + 1))
    random.Random(seed).shuffle(rest)
    return (1, *rest)


class CountingHost(tuple):
    """A host that counts its reads: the search reads the host once for each
    letter it places, to learn the value at the chosen position."""

    def __new__(cls, w):
        host = super().__new__(cls, w)
        host.reads = 0
        return host

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)


class TestOccurrenceSearch:
    """The pruned search against the definition-level oracles."""

    @pytest.mark.parametrize("p", [(1,), (1, 2), (2, 1)])
    def test_every_mesh_on_every_small_host(self, p):
        hosts = [w for n in range(1, 6) for w in all_perms(n)]
        hits = [occurrence_hits_brute(p, w) for w in hosts]
        for mask in range(1 << (len(p) + 1) ** 2):
            pi = MeshPattern(p, mask)
            for w, host_hits in zip(hosts, hits):
                want = [occ for occ, hit in host_hits if hit & mask == 0]
                assert mesh_occurrences(pi, w) == want
                assert contains(pi, w) == bool(want)

    def test_seeded_against_region_oracle(self):
        rng = random.Random(1412)
        for case in range(3000):
            k, n = rng.randint(1, 5), rng.randint(1, 10)
            p = tuple(rng.sample(range(1, k + 1), k))
            w = tuple(rng.sample(range(1, n + 1), n))
            drawn = rng.getrandbits((k + 1) ** 2) & rng.getrandbits((k + 1) ** 2)
            mask = {0: 0, 1: full_grid_mask(k)}.get(case % 10, drawn)
            pi = MeshPattern(p, mask)
            want = mesh_occurrences_brute(p, pi.squares, w)
            assert mesh_occurrences(pi, w) == want, (pi.text(), w)
            assert sorted(iter_mesh_occurrences(pi, w)) == want
            assert contains(pi, w) == bool(want)

    def test_seeded_long_hosts_against_region_oracle(self):
        # long enough hosts that the squares' column cuts drop candidates;
        # comb(n, k) stays within the brute-force oracle's reach
        rng = random.Random(2016)
        longest = {1: 40, 2: 40, 3: 40, 4: 24, 5: 20}
        for case in range(120):
            k = rng.randint(1, 5)
            n = rng.randint(16, longest[k])
            p = tuple(rng.sample(range(1, k + 1), k))
            w = tuple(rng.sample(range(1, n + 1), n))
            drawn = rng.getrandbits((k + 1) ** 2)
            for _ in range(case % 3 + 1):
                drawn &= rng.getrandbits((k + 1) ** 2)
            pi = MeshPattern(p, drawn)
            want = mesh_occurrences_brute(p, pi.squares, w)
            # the search places letters in its plan's order, and tries each
            # letter's positions in increasing order
            letters = _search_plan(p, (drawn & -drawn).bit_length() - 1)[0]
            want.sort(key=lambda occ: [occ[i - 1] for i in letters])
            assert list(iter_mesh_occurrences(pi, w)) == want, (pi.text(), w)
            assert contains(pi, w) == bool(want)

    @pytest.mark.parametrize("sym", ["id", "r", "c", "rc"])
    def test_planted_avoidance_4321_is_near_linear(self, sym):
        # a letter that bounds a shaded square by column only is cut to one
        # side of the nearest host point in the square's row band, so the
        # search no longer tries about n^2 / 4 placements (9,373-10,826)
        pi = apply_symmetry_mesh(sym, MeshPattern.of("4321", [(0, 0), (4, 4)]))
        w = CountingHost(apply_symmetry_perm(sym, planted_host(200, sym)))
        assert not contains(pi, w)
        assert w.reads <= 2000, w.reads

    def test_pattern_longer_than_host(self):
        for mask in (0, 1, full_grid_mask(3)):
            assert mesh_occurrences(MeshPattern((2, 3, 1), mask), (2, 1)) == []

    def test_occurrences_come_out_sorted(self):
        # (0,3) is bounded by letters 1 and 3, so the search places them
        # first and meets (1, 3, 4) before (1, 2, 5)
        pi = MeshPattern.of("123", [(0, 3)])
        w = (1, 2, 3, 4, 5)
        found = list(iter_mesh_occurrences(pi, w))
        assert found != sorted(found)
        assert mesh_occurrences(pi, w) == sorted(found) == occurrences_brute((1, 2, 3), w)

    @pytest.mark.parametrize("sym", ["id", "r", "c", "rc"])
    def test_planted_avoidance_4321(self, sym):
        # the host's first point lies in square (0,0) of every occurrence
        pi = apply_symmetry_mesh(sym, MeshPattern.of("4321", [(0, 0), (4, 4)]))
        w = apply_symmetry_perm(sym, planted_host(55, sym))
        assert contains(MeshPattern(pi.perm), w)
        assert not contains(pi, w)
        assert mesh_occurrences(pi, w) == []

    def test_planted_avoidance_54321_at_n_200(self):
        w = CountingHost(planted_host(200, 5))
        assert contains(MeshPattern.of("54321"), w)
        w.reads = 0
        assert not contains(MeshPattern.of("54321", [(0, 0), (5, 5)]), w)
        # square (5,5) cuts letter 5, placed second, to the right of the
        # last point above letter 1: 465 placements, not 9,923
        assert w.reads <= 2000, w.reads

    def test_large_host_occurrence_is_valid(self):
        # moving the planted minimum to the end leaves square (0,0) of some
        # occurrence empty
        w = planted_host(200, 5)[1:] + (1,)
        for text in ("54321:(0,0)(5,5)", "2413:(0,0)(2,2)(4,4)", "312:(1,0)(1,1)(3,3)"):
            pi = parse_mesh_pattern(text)
            occ = next(iter_mesh_occurrences(pi, w))
            assert is_occurrence(pi.perm, w, occ)
            assert shading_free_brute(pi.perm, w, occ, pi.squares), text
            assert occurrence_region_mask(w, occ) & pi.mask == 0

    @pytest.mark.parametrize(
        "pi, w",
        [
            (MeshPattern.of("12"), (5, 7)),
            (MeshPattern.of("21", [(1, 1)]), (3, 3, 1)),
            (MeshPattern.of("1"), (0,)),
            (MeshPattern.of("123"), (2, 2)),  # longer than the host
        ],
    )
    def test_host_must_be_a_permutation(self, pi, w):
        with pytest.raises(ValueError, match="not a permutation"):
            contains(pi, w)
        with pytest.raises(ValueError, match="not a permutation"):
            mesh_occurrences(pi, w)


class TestAvoiders:
    def test_inversion_mesh(self):
        assert avoiders(MeshPattern.of("21"), 4) == [(1, 2, 3, 4)]

    def test_av_132_in_s4(self):
        # computed by the closed-rectangle oracle over all of S_4
        brute = [
            w
            for w in all_perms(4)
            if not mesh_contains_brute((1, 3, 2), (), w)
        ]
        assert len(brute) == 14
        assert avoiders(MeshPattern.of("132"), 4) == brute

    def test_vincular_column_same_avoiders(self):
        vinc = MeshPattern.of("231", [(2, y) for y in range(4)])
        assert avoiders(vinc, 4) == avoiders(MeshPattern.of("231"), 4)
        assert len(avoiders(vinc, 4)) == 14

    @pytest.mark.parametrize("n", [True, 2.0, 0, -1, MAX_DEPTH + 1])
    def test_rejects_n_that_is_not_a_size(self, n, monkeypatch):
        # rejected before a single host is listed
        monkeypatch.setattr(mesh, "all_perms", lambda size: pytest.fail("hosts listed"))
        with pytest.raises(ValueError, match=rf"is not an int in 1\.\.{MAX_DEPTH} \(MAX_DEPTH\)"):
            avoiders(MeshPattern((1,)), n)

    def test_matches_the_oracle_up_to_s7(self):
        # one seeded mesh per length 1..5, so k > n is covered too
        rng = random.Random(30)
        for k in range(1, 6):
            p = tuple(rng.sample(range(1, k + 1), k))
            squares = rng.sample(
                [(a, b) for a in range(k + 1) for b in range(k + 1)], rng.randint(0, 3)
            )
            pi = MeshPattern.of(p, squares)
            for n in range(1, 8):
                brute = [w for w in all_perms(n) if not mesh_contains_brute(p, squares, w)]
                assert avoiders(pi, n) == brute, (pi.text(), n)


class TestFingerprints:
    def test_depth_two_fixture(self):
        fp = fingerprints_many((1, 2), (0,), 2)[0]
        assert fp[0] == 0  # the single letter cannot contain 12
        assert fp[1] == 0b01  # 12 yes, 21 no

    def test_shading_pair_agrees_to_depth_6(self):
        fps = fingerprints_many(
            (2, 3, 1),
            (
                squares_to_mask(3, [(1, 0), (1, 1), (3, 1), (3, 2)]),
                squares_to_mask(3, [(1, 0), (3, 1), (3, 2)]),
            ),
            6,
        )
        assert fps[0] == fps[1]

    def test_difference_at_42513(self):
        fps = fingerprints_many(
            (2, 3, 1),
            (
                squares_to_mask(3, [(1, 0), (3, 1), (3, 2)]),
                squares_to_mask(3, [(1, 0), (3, 2)]),
            ),
            6,
        )
        n, rank = mesh._first_difference(zip(fps[0], fps[1]))
        assert (n, rank) == (5, lex_rank((4, 2, 5, 1, 3)))

    @pytest.mark.parametrize("depth", [0, -2, MAX_DEPTH + 1, 12, 5.0, True, Small.TWO])
    def test_depth_outside_limits_raises_before_any_table(self, depth, monkeypatch):
        def no_tables(*args):
            raise AssertionError("a host table was built")

        monkeypatch.setattr(mesh, "_less_sets", no_tables)
        monkeypatch.setattr(mesh, "_occurrence_tables", no_tables)
        with pytest.raises(ValueError, match=f"MAX_DEPTH"):
            fingerprints_many((1, 2, 3), (0,), depth)

    @pytest.mark.parametrize(
        "p, depth, limit",
        [
            ((1, 2, 3, 4), 3, "MAX_SIGNATURE_LENGTH"),
            ((1, 2, 3), 9, "SIGNATURE_BIT_BUDGET"),
            ((1, 2, 3), 0, "MAX_DEPTH"),
        ],
    )
    def test_signature_limits_raise_before_any_table(self, p, depth, limit, monkeypatch):
        def no_tables(*args):
            raise AssertionError("a host table was built")

        for name in ("_less_sets", "_occurrence_tables", "_cached_occurrence_tables"):
            monkeypatch.setattr(mesh, name, no_tables)
        with pytest.raises(ValueError, match=limit):
            containment_signatures(p, depth)

    def test_masks_may_be_an_iterator_or_a_range(self):
        want = [(0, 1, 31), (0, 1, 31)]
        assert fingerprints_many((1, 2), [0, 1], 3) == want
        assert fingerprints_many((1, 2), (m for m in (0, 1)), 3) == want
        assert fingerprints_many((1, 2), range(2), 3) == want

    def test_depth_9_sweep_holds_no_whole_table(self):
        # the S_9 table of 1324 would take about 88 MB; streamed, the sweep
        # holds one entry of it and the rows
        mask = squares_to_mask(4, [(0, 0), (2, 2), (4, 4)])
        tracemalloc.start()
        try:
            fingerprints_many((1, 3, 2, 4), (0, mask), 9)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 << 20

    def test_max_depth_is_accepted(self):
        # the unshaded point is in every host; fully shaded, only in S_1
        empty, full = fingerprints_many((1,), (0, 0b1111), MAX_DEPTH)
        assert empty[-1] == (1 << 362880) - 1
        assert full == (1,) + (0,) * (MAX_DEPTH - 1)

    def test_default_depth(self):
        assert default_depth(1) == 4
        assert default_depth(3) == 6
        assert default_depth(6) == 8


class TestFirstSeparation:
    """``first_separation`` is ``_first_difference`` of the two fingerprints,
    found without sweeping the sizes above the first that separates."""

    @pytest.mark.parametrize("p", [(1,), (1, 2), (2, 1)])
    def test_matches_fingerprints_on_every_toggle(self, p):
        nbits = (len(p) + 1) ** 2
        fps = fingerprints_many(p, range(1 << nbits), 6)
        for n_max in range(1, 7):
            for a in range(1 << nbits):
                fa = fps[a][:n_max]
                for c in range(nbits):
                    b = a ^ 1 << c
                    fb = fps[b][:n_max]
                    assert first_separation(p, a, b, n_max) == mesh._first_difference(zip(fa, fb))

    def test_matches_fingerprints_on_seeded_length_3_pairs(self):
        rng = random.Random(1415)
        seen = set()
        for p in itertools.permutations((1, 2, 3)):
            for _ in range(25):
                a = rng.getrandbits(16)
                for b in (rng.getrandbits(16), a ^ 1 << rng.randrange(16)):
                    fa, fb = fingerprints_many(p, (a, b), 7)
                    expected = mesh._first_difference(zip(fa, fb))
                    assert first_separation(p, a, b, 7) == expected
                    seen.add(expected and expected[0])
        assert {None, 4, 5, 6, 7} <= seen  # every size the pairs separate at, and none

    @pytest.mark.parametrize("depth", [0, -2, MAX_DEPTH + 1, 12, 5.0, True, Small.TWO])
    def test_depth_outside_limits_raises_before_any_table(self, depth, monkeypatch):
        def no_tables(*args):
            raise AssertionError("a host table was built")

        for name in ("_less_sets", "_occurrence_tables", "_cached_occurrence_tables"):
            monkeypatch.setattr(mesh, name, no_tables)
        with pytest.raises(ValueError, match="MAX_DEPTH"):
            first_separation((1, 2, 3), 0, 1, depth)

    @pytest.mark.parametrize(
        "call, error",
        [
            (lambda: first_separation((1, 2), 0, 1 << 20, 4), "out of range"),
            (lambda: first_separation((1, 2), 1 << 9, 0, 4), "out of range"),
            (lambda: first_separation((1, 2), 0, -1, 4), "out of range"),
            (lambda: fingerprints_many((1, 2), [0, 1 << 9], 3), "out of range"),
            (lambda: fingerprints_many((1, 2), [-1], 3), "out of range"),
            (lambda: first_separation((1, 2), 0, 1.5, 4), "out of range"),
            (lambda: fingerprints_many((1, 2), [0, 1.5], 3), "out of range"),
            (lambda: first_separation((0, 5), 0, 1, 3), "not a permutation"),
            (lambda: first_separation((1, 1), 0, 1, 3), "not a permutation"),
            (lambda: fingerprints_many((2, 2), [0], 3), "not a permutation"),
            (lambda: fingerprints_many((), [0], 3), "empty permutation"),
        ],
    )
    def test_bad_pattern_or_mask_raises_before_any_table(self, call, error, monkeypatch):
        def no_tables(*args):
            raise AssertionError("a host table was built")

        for name in ("_less_sets", "_occurrence_tables", "_cached_occurrence_tables"):
            monkeypatch.setattr(mesh, name, no_tables)
        with pytest.raises(ValueError, match=error):
            call()

    def test_reads_no_table_above_the_first_separating_size(self, monkeypatch):
        from meshcide.coincidence import decide_coincidence

        read, built = set(), set()
        table, occurrence_tables = mesh._table, mesh._occurrence_tables

        def watched_table(p, n):
            read.add(n)
            return table(p, n)

        def watched_build(p, n):
            built.add(n)
            return occurrence_tables(p, n)

        monkeypatch.setattr(mesh, "_table", watched_table)
        monkeypatch.setattr(mesh, "_occurrence_tables", watched_build)
        # an empty cache, so that every table read below is built here
        monkeypatch.setattr(
            mesh,
            "_cached_occurrence_tables",
            lru_cache(maxsize=64)(mesh._cached_occurrence_tables.__wrapped__),
        )
        first = parse_mesh_pattern("1:(0,1)(1,0)")
        second = parse_mesh_pattern("1:(0,0)(0,1)(1,0)")  # same enclosed diagonals
        v = decide_coincidence(first, second, 7)
        assert v.status == "REFUTED" and v.witness == (2, 1, 3)
        assert read == {1, 2, 3}
        read.clear()  # the full sweep reads every size
        fingerprints_many((1,), (first.mask, second.mask), 7)
        assert read == set(range(1, 8))
        read.clear()
        built.clear()
        first = parse_mesh_pattern("123:(0,1)(1,0)(1,1)(1,3)(2,0)(2,2)(3,2)")
        second = parse_mesh_pattern("123:(0,1)(1,0)(1,1)(1,3)(2,0)(2,2)(3,2)(3,3)")
        v = decide_coincidence(first, second, 8)
        assert v.status == "REFUTED" and len(v.witness) == 5
        assert read == built == set(range(1, 6))  # nothing of S_6..S_8


class TestHostMasks:
    def test_minimal_masks_preserve_answers(self):
        rng = random.Random(5)
        for _ in range(150):
            n = rng.randint(1, 6)
            w = tuple(rng.sample(range(1, n + 1), n))
            p = tuple(rng.sample(range(1, 4), 3))
            masks = host_region_masks(p, w)
            raw = [
                occurrence_region_mask(w, occ) for occ in occurrences_brute(p, w)
            ]
            for mesh in range(0, 1 << 16, 977):
                assert any(m & mesh == 0 for m in masks) == any(
                    m & mesh == 0 for m in raw
                )


class TestText:
    def test_parse_fixture(self):
        pi = parse_mesh_pattern("231:(1,0)(3,2)")
        assert pi.perm == (2, 3, 1)
        assert pi.squares == ((1, 0), (3, 2))

    def test_parse_comma_and_space_separators(self):
        assert parse_mesh_pattern("231:(1,0), (3,2)") == parse_mesh_pattern(
            "231:(1,0)(3,2)"
        )

    def test_parse_no_mesh(self):
        assert parse_mesh_pattern("231").mask == 0
        assert parse_mesh_pattern("231:").mask == 0

    def test_out_of_grid_square_named(self):
        with pytest.raises(ParseError, match=r"\(4,1\)"):
            parse_mesh_pattern("231:(4,1)")
        # True == 1, but a square is a pair of ints
        for square in ((True, 0), (1.0, 0), (0, False)):
            with pytest.raises(ParseError, match="not a pair of ints"):
                MeshPattern.of("12", [square])

    def test_bad_token_named(self):
        with pytest.raises(ParseError, match="oops"):
            parse_mesh_pattern("231:(1,0)oops")

    @pytest.mark.parametrize(
        "text", ["21:(\u0660,\u0660)", "21:(1,\u0661)", "\u0662\u0661:(0,0)", "12\u00b3"]
    )
    def test_only_ascii_digits(self, text):
        with pytest.raises(ParseError, match="bad"):
            parse_mesh_pattern(text)

    def test_json_round_trip(self):
        rng = random.Random(31)
        for _ in range(50):
            k = rng.randint(1, 3)
            p = tuple(rng.sample(range(1, k + 1), k))
            pi = MeshPattern(p, rng.getrandbits((k + 1) ** 2))
            assert mesh_pattern_from_json(mesh_pattern_to_json(pi)) == pi
            assert mesh_pattern_from_json(
                json.loads(json.dumps(mesh_pattern_to_json(pi)))
            ) == pi

    def test_text_round_trip(self):
        pi = MeshPattern.of("231", [(1, 0), (3, 2)])
        assert parse_mesh_pattern(pi.text()) == pi


class TestMeshPattern:
    def test_grid_validation(self):
        for mask in (1 << 9, 1.5, True, Small.TWO):
            with pytest.raises(ValueError, match="out of range"):
                MeshPattern((1, 2), mask)

    def test_full_grid(self):
        pi = MeshPattern((1, 2), full_grid_mask(2))
        assert len(pi.squares) == 9

    @given(
        st.integers(1, 9).flatmap(
            lambda k: st.tuples(
                st.permutations(list(range(1, k + 1))).map(tuple),
                st.integers(0, 2 ** ((k + 1) ** 2) - 1),
            )
        )
    )
    @settings(max_examples=50)
    def test_squares_mask_round_trip(self, pm):
        p, mask = pm
        pi = MeshPattern(p, mask)
        assert squares_to_mask(pi.k, pi.squares) == mask
        # bit order: by column, then by row, each square once
        assert list(pi.squares) == sorted(set(pi.squares))
