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
    classical_occurrences,
    inverse_symmetry,
    is_occurrence,
    lex_rank,
    lex_unrank,
    make_perm,
    occurrence_search,
    parse_perm,
    perm_text,
)
from oracles import (
    contains_classical,
    direct_sum,
    is_sum_decomposable,
    occurrences_brute,
    symmetry_perm_ref,
)

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
        # True == 1 and 1.0 == 1, but neither is an int entry
        for values in ([True], [1.0, 2.0], [1, 2.0]):
            with pytest.raises(ParseError, match="is not an int"):
                make_perm(values)

    def test_text_round_trip(self):
        for w in ((4, 2, 1, 3, 5), (4, 8, 2, 9, 5, 1, 10, 3, 7, 6)):
            assert parse_perm(perm_text(w)) == w

    @pytest.mark.parametrize("text", ["\u0661\u0662", "12\u00b3", "1,\u0662", "\uff11\uff12"])
    def test_only_ascii_digits(self, text):
        # str.isdigit and int() accept Arabic-Indic and fullwidth digits, and
        # isdigit accepts superscripts that int() then refuses
        with pytest.raises(ParseError, match="bad permutation"):
            parse_perm(text)


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

    @pytest.mark.parametrize("p", [(2, 2), (1, 3), (1, 2.0), ()])
    def test_pattern_must_be_a_permutation(self, p):
        # unchecked, these raised KeyError, ValueError, TypeError and IndexError
        with pytest.raises(ParseError):
            classical_occurrences(p, (2, 1, 3))

    @pytest.mark.parametrize("mask", [1 << 9, 513, -1, True])
    def test_mask_outside_the_grid_is_an_error(self, mask):
        # 12 has a 3 x 3 grid, bits 0 .. 8; unchecked, 1 << 9 raised
        # IndexError, 513 answered as mask 1 and -1 found no occurrence.
        # check_mask's rule: True == 1, but a bool is not a mask
        with pytest.raises(ValueError, match="out of range"):
            next(occurrence_search((1, 2), (2, 1, 3), mask))

    def test_search_places_the_first_shaded_square_first(self):
        # 54321:(0,0)(5,5): letters 1 and 5 bound both squares, so both are
        # settled once two letters are placed
        letters, values, bounds, settled, squares = _search_plan((5, 4, 3, 2, 1), 0)
        assert letters == (1, 5, 2, 3, 4) and values == (5, 1, 4, 3, 2)
        # letter 5, placed at step 1, settles (0,0), bit 0, as its upper row
        # bound, so that square tests it once placed
        assert settled[0] == 1 and squares[0] == (0, 1, 0, 1)
        # it settles (5,5), bit 35, as its left column bound only, so that
        # square cuts its candidates: the right edge 6 and the rows 5 and 6
        # are the square's other bounds
        assert settled[35] == ~1 and squares[35] == (6, 5, 6, False)
        # the letter of value 4 sits between letters 1 and 5 in both senses
        assert bounds[2] == (1, 5, 1, 5)
        # with no shaded square the letters go left to right
        assert _search_plan((5, 4, 3, 2, 1), -1)[0] == (1, 2, 3, 4, 5)

    @pytest.mark.parametrize("k", [3, 4])
    def test_squares_with_one_letter_order_share_a_plan(self, k):
        for p in itertools.permutations(range(1, k + 1)):
            plans = {}
            for first in range(-1, (k + 1) ** 2):
                plan = _search_plan(p, first)
                letters = plan[0]
                lead = set()
                if first >= 0:
                    a, b = divmod(first, k + 1)
                    lead = {a, a + 1, *(i for i, v in enumerate(p, 1) if v in (b, b + 1))}
                    lead -= {0, k + 1}
                # the square's bounding letters first, each part left to right
                assert list(letters[: len(lead)]) == sorted(lead)
                assert list(letters[len(lead) :]) == sorted(set(range(1, k + 1)) - lead)
                assert plans.setdefault(letters, plan) is plan

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
        # (1, 3, 5) is an occurrence, but positions are ints: neither a float
        # nor True is one
        assert not is_occurrence((2, 1, 3), w, (1.0, 3.0, 5.0))
        assert not is_occurrence((2, 1, 3), w, (True, 3, 5))
        # nor are a list of positions, as occurrence_region_mask says
        assert not is_occurrence((2, 1, 3), w, [1, 3, 5])
        # a host is checked as make_perm checks it
        with pytest.raises(ParseError, match="is not an int"):
            is_occurrence((1, 2), (True, 2), (1, 2))


# the eight canonical names plus generator words that are not canonical
WORDS = SYMMETRIES + ("ir", "rr", "cr", "irc", "cic", "rcirc")


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

    def test_inverse_symmetry_undoes(self):
        for s in SYMMETRIES:
            for w in all_perms(4):
                assert (
                    apply_symmetry_perm(inverse_symmetry(s), apply_symmetry_perm(s, w))
                    == w
                )

    def test_point_action_matches_graph(self):
        # both actions against the definitions, one generator at a time
        for s in WORDS:
            for w in all_perms(4):
                image = symmetry_perm_ref(s, w)
                assert apply_symmetry_perm(s, w) == image
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

    @pytest.mark.parametrize("name", ["reverse", "identity", "e", "R", " r"])
    def test_only_id_and_generator_words_are_names(self, name):
        with pytest.raises(ValueError, match="unknown symmetry"):
            apply_symmetry_perm(name, (1, 2))


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
            # a rank outside 0..n! - 1 names no permutation
            for rank in (-1, factorial(n)):
                with pytest.raises(ValueError, match="outside"):
                    lex_unrank(n, rank)

    @pytest.mark.parametrize("n, rank", [(True, 0), (2, True), (3, 1.0), (3.0, 1)])
    def test_unrank_of_a_size_or_rank_that_is_not_an_int_is_an_error(self, n, rank):
        # unchecked, the first two gave (1,) and (2, 1), and the floats TypeErrors
        with pytest.raises(ValueError, match="must both be ints"):
            lex_unrank(n, rank)

    @pytest.mark.parametrize("n, rank", [(0, 0), (-1, 0)])
    def test_unrank_of_a_size_below_1_is_an_error(self, n, rank):
        # unchecked, size 0 gave (), which lex_rank refuses, and size -1
        # failed inside factorial
        with pytest.raises(ValueError, match=f"size {n} is below 1"):
            lex_unrank(n, rank)

    @pytest.mark.parametrize("w", [(1, 1), (2, 3), ()])
    def test_rank_of_a_non_permutation_is_an_error(self, w):
        # unchecked, each of these ranked 0, the rank of the identity
        with pytest.raises(ParseError):
            lex_rank(w)

    @given(perms)
    @settings(max_examples=40)
    def test_unrank_inverts_rank(self, w):
        assert lex_unrank(len(w), lex_rank(w)) == w


def test_contains_classical():
    assert contains_classical((2, 1, 3), (4, 2, 1, 3, 5))
    assert not contains_classical((1, 3, 2), (4, 2, 1, 3, 5))
