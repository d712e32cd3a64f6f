import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meshcide.perm import ParseError, all_perms, apply_symmetry_perm, lex_rank
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
    fingerprint,
    fingerprints_many,
    full_grid_mask,
    host_region_masks,
    mask_to_squares,
    mesh_occurrences,
    mesh_pattern_from_json,
    mesh_pattern_to_json,
    occurrence_region_mask,
    parse_mesh_pattern,
    squares_to_mask,
)
from meshcide.diagonals import apply_symmetry_mesh
from oracles import mesh_contains_brute, occurrences_brute, region_brute

W42135 = (4, 2, 1, 3, 5)
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
                    assert fps[hi].per_n[n] & ~fps[lo].per_n[n] == 0

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


class TestFingerprints:
    def test_depth_two_fixture(self):
        fp = fingerprint(MeshPattern.of("12"), 2)
        assert fp.per_n[0] == 0  # the single letter cannot contain 12
        assert fp.per_n[1] == 0b01  # 12 yes, 21 no

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
        n, rank = fps[0].first_difference(fps[1])
        assert (n, rank) == (5, lex_rank((4, 2, 5, 1, 3)))

    @pytest.mark.parametrize("depth", [0, -2, MAX_DEPTH + 1, 12])
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

    def test_max_depth_is_accepted(self):
        # the unshaded point is in every host; fully shaded, only in S_1
        empty, full = fingerprints_many((1,), (0, 0b1111), MAX_DEPTH)
        assert empty.per_n[-1] == (1 << 362880) - 1
        assert full.per_n == (1,) + (0,) * (MAX_DEPTH - 1)

    def test_default_depth(self):
        assert default_depth(1) == 4
        assert default_depth(3) == 6
        assert default_depth(6) == 8


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

    def test_bad_token_named(self):
        with pytest.raises(ParseError, match="oops"):
            parse_mesh_pattern("231:(1,0)oops")

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
        with pytest.raises(ValueError):
            MeshPattern((1, 2), 1 << 9)

    def test_full_grid(self):
        pi = MeshPattern((1, 2), full_grid_mask(2))
        assert len(pi.squares) == 9

    @given(
        st.integers(1, 3).flatmap(
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
