import itertools
import random
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meshcide.perm import (
    SYMMETRIES,
    ParseError,
    _search_plan,
    all_perms,
    apply_symmetry_perm,
    apply_symmetry_point,
    canonical_symmetry,
    classical_occurrences,
    contains_classical,
    direct_sum,
    inverse_symmetry,
    is_occurrence,
    is_sum_decomposable,
    lex_rank,
    lex_unrank,
    make_perm,
    parse_perm,
    perm_text,
)
from oracles import occurrences_brute

perms = st.integers(1, 6).flatmap(
    lambda n: st.permutations(list(range(1, n + 1))).map(tuple)
)


class TestParsing:
    def test_digit_string(self):
        assert parse_perm("42135") == (4, 2, 1, 3, 5)

    def test_comma_separated(self):
        assert parse_perm("4,8,2,9,5,1,10,3,7,6") == (4, 8, 2, 9, 5, 1, 10, 3, 7, 6)

    def test_duplicate_named(self):
        with pytest.raises(ParseError, match="value 2 appears twice"):
            make_perm((1, 2, 2))

    def test_missing_named(self):
        with pytest.raises(ParseError, match="value 2 is missing"):
            make_perm((1, 3, 4))

    def test_empty_rejected(self):
        with pytest.raises(ParseError):
            parse_perm("")
        with pytest.raises(ParseError):
            make_perm(())

    def test_garbage_rejected(self):
        with pytest.raises(ParseError, match="1x3"):
            parse_perm("1x3")

    def test_text_round_trip(self):
        for w in ((4, 2, 1, 3, 5), (4, 8, 2, 9, 5, 1, 10, 3, 7, 6)):
            assert parse_perm(perm_text(w)) == w


class TestClassicalOccurrences:
    def test_213_in_42135(self):
        w = (4, 2, 1, 3, 5)
        occs = classical_occurrences((2, 1, 3), w)
        assert len(occs) == 5
        words = {"".join(str(w[i - 1]) for i in occ) for occ in occs}
        assert words == {"425", "415", "435", "213", "215"}

    def test_42135_avoids_132(self):
        assert classical_occurrences((1, 3, 2), (4, 2, 1, 3, 5)) == []

    def test_single_point(self):
        assert classical_occurrences((1,), (1,)) == [(1,)]

    def test_lexicographic_order(self):
        occs = classical_occurrences((2, 1, 3), (4, 2, 1, 3, 5))
        assert occs == sorted(occs)

    def test_pattern_longer_than_host(self):
        assert classical_occurrences((1, 2, 3), (2, 1)) == []

    @pytest.mark.parametrize("p", [(1,), (1, 2), (2, 1), (2, 1, 3), (1, 3, 2)])
    def test_matches_brute_force(self, p):
        for n in range(1, 6):
            for w in all_perms(n):
                assert classical_occurrences(p, w) == occurrences_brute(p, w)

    def test_seeded_against_brute_force(self):
        # brute force lists position sets in lexicographic order
        rng = random.Random(7)
        for _ in range(1500):
            k, n = rng.randint(1, 5), rng.randint(1, 10)
            p = tuple(rng.sample(range(1, k + 1), k))
            w = tuple(rng.sample(range(1, n + 1), n))
            assert classical_occurrences(p, w) == occurrences_brute(p, w)

    @pytest.mark.parametrize("w", [(5, 7), (1, 1), (0, 1), (2,)])
    def test_host_must_be_a_permutation(self, w):
        with pytest.raises(ValueError, match="not a permutation"):
            classical_occurrences((1, 2), w)

    def test_search_places_the_first_shaded_square_first(self):
        # 54321:(0,0)(5,5): letters 1 and 5 bound both squares, so both are
        # tested once two letters are placed
        letters, values, bounds, done = _search_plan((5, 4, 3, 2, 1), 0)
        assert letters == (1, 5, 2, 3, 4) and values == (5, 1, 4, 3, 2)
        both = 1 << 0 | 1 << 35
        assert done[0] & both == 0 and done[1] & both == both
        # the letter of value 4 sits between letters 1 and 5 in both senses
        assert bounds[2] == (1, 5, 1, 5)
        # with no shaded square the letters go left to right
        assert _search_plan((5, 4, 3, 2, 1), -1)[0] == (1, 2, 3, 4, 5)

    def test_identity_counts_are_binomial(self):
        for k in range(1, 4):
            p = tuple(range(1, k + 1))
            for n in range(k, 8):
                w = tuple(range(1, n + 1))
                assert len(classical_occurrences(p, w)) == comb(n, k)

    def test_is_occurrence(self):
        w = (4, 2, 1, 3, 5)
        assert is_occurrence((2, 1, 3), w, (1, 3, 5))
        assert not is_occurrence((2, 1, 3), w, (1, 2, 3))
        assert not is_occurrence((2, 1, 3), w, (3, 1, 5))


class TestSymmetries:
    def test_reverse_complement_fixtures(self):
        assert apply_symmetry_perm("r", (2, 3, 1)) == (1, 3, 2)
        assert apply_symmetry_perm("c", (2, 3, 1)) == (2, 1, 3)

    def test_inverse_involution(self):
        w = (4, 2, 1, 3, 5)
        assert apply_symmetry_perm("ii", w) == w

    def test_generators_are_involutions(self):
        for gen in "rci":
            for w in all_perms(4):
                assert apply_symmetry_perm(gen + gen, w) == w

    def test_eight_distinct_elements(self):
        probe = (1, 3, 4, 2)
        images = {apply_symmetry_perm(s, probe) for s in SYMMETRIES}
        assert len(images) == 8

    def test_canonicalization(self):
        assert canonical_symmetry("ir") in SYMMETRIES
        assert canonical_symmetry("rr") == "id"
        assert canonical_symmetry("cr") == canonical_symmetry("rc")

    def test_inverse_symmetry_undoes(self):
        for s in SYMMETRIES:
            for w in all_perms(4):
                assert (
                    apply_symmetry_perm(inverse_symmetry(s), apply_symmetry_perm(s, w))
                    == w
                )

    def test_point_action_matches_graph(self):
        for s in SYMMETRIES:
            for w in all_perms(4):
                image = apply_symmetry_perm(s, w)
                graph = {(i, v) for i, v in enumerate(w, start=1)}
                image_graph = {(i, v) for i, v in enumerate(image, start=1)}
                assert {
                    apply_symmetry_point(s, 4, pt) for pt in graph
                } == image_graph

    def test_occurrence_counts_equivariant(self):
        patterns = [(1, 2), (2, 1), (2, 1, 3), (2, 3, 1)]
        for s in SYMMETRIES:
            for p in patterns:
                sp = apply_symmetry_perm(s, p)
                for n in range(1, 6):
                    for w in all_perms(n):
                        assert len(classical_occurrences(p, w)) == len(
                            classical_occurrences(sp, apply_symmetry_perm(s, w))
                        )

    def test_unknown_symmetry(self):
        with pytest.raises(ValueError):
            apply_symmetry_perm("q", (1, 2))


class TestSums:
    def test_fixtures(self):
        assert direct_sum((1,), (1,)) == (1, 2)
        assert direct_sum((1,), (2, 1)) == (1, 3, 2)
        assert direct_sum((2, 1), (1,)) == (2, 1, 3)

    def test_decomposable_fixtures(self):
        assert is_sum_decomposable((1, 3, 2))
        assert not is_sum_decomposable((2, 1))
        assert not is_sum_decomposable((4, 2, 5, 1, 3))
        # 42135 = 4213 (+) 1: the prefix of length four uses exactly 1..4
        assert is_sum_decomposable((4, 2, 1, 3, 5))

    def test_decomposable_against_prefix_set_scan(self):
        for n in range(1, 7):
            for w in all_perms(n):
                brute = any(
                    set(w[:m]) == set(range(1, m + 1)) for m in range(1, n)
                )
                assert is_sum_decomposable(w) == brute

    @given(perms, perms)
    @settings(max_examples=60)
    def test_direct_sums_are_decomposable(self, u, v):
        assert is_sum_decomposable(direct_sum(u, v))


class TestLexOrder:
    def test_rank_round_trip(self):
        for n in range(1, 6):
            for j, w in enumerate(all_perms(n)):
                assert lex_rank(w) == j
                assert lex_unrank(n, j) == w

    @given(perms)
    @settings(max_examples=40)
    def test_unrank_inverts_rank(self, w):
        assert lex_unrank(len(w), lex_rank(w)) == w


def test_contains_classical():
    assert contains_classical((2, 1, 3), (4, 2, 1, 3, 5))
    assert not contains_classical((1, 3, 2), (4, 2, 1, 3, 5))
