"""Mesh computations on masks (the symmetry action, shading probes and
moves with their batch engine, enclosed diagonals and family tags) and the
bit-sliced fingerprint sweep against their definitions in
``tests/oracles.py``: exhaustively for every pattern of length at most 2, on
seeded samples for every pattern of length 3 and for longer ones."""

import hashlib
import itertools
import random
from math import factorial

import pytest

from meshcide.perm import SYMMETRIES, all_perms, apply_symmetry_perm, lex_rank, lex_unrank
from meshcide.mesh import (
    MeshPattern,
    bit_indices,
    fingerprints_many,
    host_region_masks,
    parse_mesh_pattern,
    squares_to_mask,
)
from meshcide import diagonals
from meshcide.diagonals import (
    apply_symmetry_mask,
    enc_core_mask,
    enclosed_diagonals,
    is_coincident_with_classical,
    same_enc,
    sorted_diagonals,
)
from meshcide import shading
from meshcide.shading import ShadeMove, shadeable_pairs, shadeable_singles, ssl_moves
from meshcide.coincidence import classify_family

from test_shading import probed_meshes, spy_probes
from oracles import (
    classify_family_brute,
    enclosed_diagonals_brute,
    fingerprints_brute,
    mesh_contains_brute,
    pair_candidate_ref,
    shadeable_pairs_brute,
    shadeable_singles_brute,
    single_candidate_ref,
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


def _without(line, square):
    squares, offset = line
    return [s for s in squares if s != square], offset


# One condition group dropped from a spelled-out probe, as an edit of its
# flanks and lines (f, ln): the northeast single's two line entries at the
# opposite square (i-1, v-1) are what keep that square clear.  Every probe's
# own squares are kept clear by _compiled itself, so that drop is a compiled
# mutant (None here), which takes them out of each probe's forbidden bits.
CONDITION_DROPS = {
    ("NE single", "flanks"): lambda i, v, f, ln: ([], ln),
    ("NE single", "row line"): lambda i, v, f, ln: (f, ln[1:]),
    ("NE single", "column line"): lambda i, v, f, ln: (f, ln[:1]),
    ("NE single", "row line at the opposite square"): lambda i, v, f, ln: (
        f, (_without(ln[0], (i - 1, v - 1)), ln[1])
    ),
    ("NE single", "column line at the opposite square"): lambda i, v, f, ln: (
        f, (ln[0], _without(ln[1], (i - 1, v - 1)))
    ),
    ("E pair", "lower line"): lambda i, v, f, ln: (f, ln[1:]),
    ("E pair", "upper line"): lambda i, v, f, ln: (f, (ln[0], ln[2])),
    ("E pair", "column line"): lambda i, v, f, ln: (f, ln[:2]),
    ("compiled", "own squares"): None,
}


@pytest.mark.parametrize("probe, group", CONDITION_DROPS, ids=map(" ".join, CONDITION_DROPS))
def test_every_probe_condition_carries_weight(probe, group, monkeypatch):
    # each group dropped makes the compiled probes disagree with the corner
    # conditions, the lemma as published, on some mesh of length at most 2
    compiled, drop = shading._compiled, CONDITION_DROPS[probe, group]
    if drop is None:
        mutant = lambda p: tuple(
            (a, added, forbid & ~added, flanks, tuple(bit_indices(forbid & ~added)), *rest)
            for a, added, forbid, flanks, _, *rest in compiled(p)
        )
        monkeypatch.setattr(shading, "_compiled", mutant)
    else:
        name = "_ne_single_conditions" if probe == "NE single" else "_e_pair_conditions"
        real = getattr(shading, name)

        def dropped(k, i, v):
            candidate, *conditions = real(k, i, v)
            return (candidate, *drop(i, v, *conditions))

        monkeypatch.setattr(shading, name, dropped)
    compiled.cache_clear()
    try:
        caught = any(
            shadeable_singles(MeshPattern(p, mask)) != shadeable_singles_brute(p, mask)
            or shadeable_pairs(MeshPattern(p, mask)) != shadeable_pairs_brute(p, mask)
            for p in EXHAUSTIVE
            if len(p) <= 2
            for mask in range(1 << (len(p) + 1) ** 2)
        )
    finally:
        compiled.cache_clear()
    assert caught


def test_enclosed_diagonals_match_corner_walk():
    for p, mask in CASES:
        pi = MeshPattern(p, mask)
        want = enclosed_diagonals_brute(p, mask)
        got = {(d.orientation, d.anchor, d.length, d.squares) for d in enclosed_diagonals(pi)}
        assert got == want, pi
        assert enc_core_mask(pi) == squares_to_mask(pi.k, [s for d in want for s in d[3]]), pi


def diagonal_tuple(d):
    return d.orientation, d.anchor, d.length, d.squares


def _mixed_masks(rng, nbits, count):
    # sparse and dense meshes alike, so long runs get fully shaded too
    for _ in range(count):
        density = rng.random()
        yield sum(1 << c for c in range(nbits) if rng.random() < density)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_enclosed_set_matches_corner_walk(k):
    # every mask up to length 2, 300 seeded masks per pattern above; each
    # against a neighbour one square away for same_enc
    rng = random.Random(f"enclosed-set:{k}")
    nbits = (k + 1) ** 2
    for p in all_perms(k):
        candidates = [d for _, _, d in diagonals._diagonal_candidates(p)]
        masks = range(1 << nbits) if k <= 2 else _mixed_masks(rng, nbits, 300)
        for mask in masks:
            pi = MeshPattern(p, mask)
            want = enclosed_diagonals_brute(p, mask)
            found = diagonals._enclosed(p, mask)
            assert found >> len(candidates) == 0, pi
            got = [diagonal_tuple(d) for i, d in enumerate(candidates) if found >> i & 1]
            assert set(got) == want, pi
            # in (anchor, orientation) order
            assert [diagonal_tuple(d) for d in sorted_diagonals(pi)] == got, pi
            assert got == sorted(want, key=lambda d: (d[1], d[0])), pi
            assert enc_core_mask(pi) == squares_to_mask(k, [s for d in want for s in d[3]]), pi
            assert is_coincident_with_classical(pi) == (not want), pi
            other = MeshPattern(p, mask ^ 1 << rng.randrange(nbits))
            assert same_enc(pi, other) == (want == enclosed_diagonals_brute(p, other.mask)), pi


def test_classify_family_matches_square_reading():
    for p, mask in CASES:
        tags = classify_family(MeshPattern(p, mask))
        got = (tags.vincular, tags.bivincular, tags.isolating, tags.sparse)
        assert got == classify_family_brute(p, mask), (p, mask)


@pytest.mark.parametrize("p", [(1, 2), (2, 1)])
def test_ssl_move_total_over_all_meshes(p):
    assert sum(len(ssl_moves(MeshPattern(p, mask))) for mask in range(512)) == 733


def _added_sets(p, masks):
    return {mask: {m.added for m in ssl_moves(MeshPattern(p, mask))} for mask in masks}


EXHAUSTIVE = [(1,), (1, 2), (2, 1), (1, 2, 3)]


@pytest.mark.parametrize(
    "p", EXHAUSTIVE + [p for p in itertools.permutations((1, 2, 3)) if p not in EXHAUSTIVE]
)
def test_ssl_moves_commute_with_the_stabilizer(p):
    # no closure edge is mapped through the stabilizer of p: the moves of an
    # image are the images of the moves, and this equivariance is what makes
    # the partition's blocks map onto blocks under the stabilizer
    k = len(p)
    nbits = (k + 1) ** 2
    if p in EXHAUSTIVE:
        masks = range(1 << nbits)
    else:
        rng = random.Random(1412)
        masks = [rng.getrandbits(nbits) for _ in range(2000)]
    stabilizer = [s for s in SYMMETRIES if s != "id" and apply_symmetry_perm(s, p) == p]
    assert stabilizer
    moves = _added_sets(p, masks)
    for sym in stabilizer:
        image = {mask: apply_symmetry_mask(sym, k, mask) for mask in masks}
        moves.update(_added_sets(p, set(image.values()) - moves.keys()))
        for mask in masks:
            want = {apply_symmetry_mask(sym, k, a) for a in moves[mask]}
            assert moves[image[mask]] == want, (p, sym, mask)


def _batch_split(p, batch):
    """The batch engine's option vectors, one per mesh of the batch."""
    vectors = shading._batch_vectors(p, batch)
    count = len(shading._compiled(p))
    assert len(vectors) == len(batch) * count
    return [vectors[t * count : (t + 1) * count] for t in range(len(batch))]


def _passing(p, vector):
    """The singles and the pairs whose probes a vector passes, in the form
    of the corner-condition oracles."""
    singles, pairs = [], []
    for (a, *_), passed in zip(shading._compiled(p), vector):
        if passed and a.kind == "single":
            singles.append((a.point, a.squares[0], a.direction))
        elif passed:
            pairs.append((a.point, a.squares, a.direction))
    return singles, pairs


def _cross_check(p, masks, oracle_masks):
    batch = list(masks)
    for mask, vector in zip(batch, _batch_split(p, batch)):
        assert vector == shading._option_vector(p, mask), (p, mask)
    for mask in oracle_masks:
        want = (shadeable_singles_brute(p, mask), shadeable_pairs_brute(p, mask))
        assert _passing(p, shading._option_vector(p, mask)) == want, (p, mask)


@pytest.mark.parametrize("p", EXHAUSTIVE)
def test_batch_engine_on_every_mesh(p):
    # one whole-cube batch; the oracle runs on a seeded tenth of 123
    masks = range(1 << (len(p) + 1) ** 2)
    oracle = masks if len(p) < 3 else random.Random(1412).sample(masks, 6554)
    _cross_check(p, masks, oracle)


@pytest.mark.parametrize(
    "p",
    [p for p in itertools.permutations((1, 2, 3)) if p not in EXHAUSTIVE]
    + [(2, 4, 1, 3), (2, 4, 1, 5, 3)],
)
def test_batch_engine_on_seeded_masks(p):
    rng = random.Random(f"batch:{p}")
    nbits = (len(p) + 1) ** 2
    masks = [0, (1 << nbits) - 1] + [rng.getrandbits(nbits) for _ in range(1000)]
    _cross_check(p, masks, masks[:300])


# sha256 of every probe answer on each length-3 cube: the option vectors of
# all 65,536 meshes, in runs of 4096
LENGTH_3_VECTOR_DIGESTS = {
    (1, 2, 3): "dde0a689f5be3026691d1f03001432809a4fcc46ffe24d5727d4de4f9e6edd52",
    (1, 3, 2): "79cbf34b72b3f94cbe3cdcca74577d4a3733b3d511a190a884befac0218d1d7a",
    (2, 1, 3): "ef45bd41b89fd986f78bcbb720f4c63e78a08adf8dd6cd906fb4543319e4097e",
    (2, 3, 1): "de1b923887ac297105d0b94f5e1d64d3c1e0d10d00870836e38f9d97f15918db",
    (3, 1, 2): "cfd9e158541d340e61a6f36d677cc15bd156eb1a0136409eea1216937b376180",
    (3, 2, 1): "2d3fb936f9e4f9d30f98dd863f5c5dadf8fca0dd1adac9235c2bbc1508b61a67",
}


@pytest.mark.parametrize("p", LENGTH_3_VECTOR_DIGESTS)
def test_every_probe_answer_on_the_length_3_cubes(p):
    h = hashlib.sha256()
    for lo in range(0, 1 << 16, 4096):
        h.update(shading._batch_vectors(p, range(lo, lo + 4096)))
    assert h.hexdigest() == LENGTH_3_VECTOR_DIGESTS[p]


def test_batch_order_duplicates_and_singletons():
    p = (2, 4, 1, 3)
    rng = random.Random(1412)
    masks = [rng.getrandbits(25) for _ in range(40)]
    batch = masks + masks[::3] + [0, 0]
    rng.shuffle(batch)
    want = [tuple(ssl_moves(MeshPattern(p, mask))) for mask in batch]
    assert list(shading._frontier_moves(p, batch, {})) == want
    for mask in batch[:5]:
        assert _batch_split(p, [mask]) == [shading._option_vector(p, mask)]
        assert list(shading._frontier_moves(p, [mask], {})) == [
            shading._moves(p, shading._option_vector(p, mask))
        ]


@pytest.mark.parametrize("p", [(2, 3, 1), (3, 1, 4, 2), (4, 2, 5, 1, 3)])
def test_frontier_moves_equal_on_both_probe_paths(p, monkeypatch):
    # batches up to twice the crossover, each probed per mesh and bit-sliced:
    # a crossover of 1 slices every run, one of size + 1 slices none
    rng = random.Random(f"paths:{p}")
    nbits = (len(p) + 1) ** 2
    crossover = shading._SLICED_BATCH_MIN
    for size in range(1, 2 * crossover + 1):
        batch = [rng.getrandbits(nbits) for _ in range(size)]
        # per-mesh probes and moves, apart from both paths of _frontier_moves
        want = [shading._moves(p, shading._option_vector(p, mask)) for mask in batch]
        for threshold in (1, size + 1):  # sliced, then per mesh
            monkeypatch.setattr(shading, "_SLICED_BATCH_MIN", threshold)
            assert list(shading._frontier_moves(p, batch, {})) == want, (p, size, threshold)


def test_batch_size_picks_the_probe_path(monkeypatch):
    # batches of 26 and 27 meshes are probed in runs of 1, 2, 4, 8 and then
    # 11 or 12: only the run of 12, the crossover, is bit-sliced
    p = (2, 4, 1, 3)
    log = spy_probes(monkeypatch)
    crossover = shading._SLICED_BATCH_MIN
    assert crossover == 12
    for size in (26, 27):
        list(shading._frontier_moves(p, [0] * size, {}))
    sliced = [len(meshes) for engine, meshes in log if engine == "sliced"]
    assert sliced == [crossover]
    assert len(probed_meshes(log)) == 26 + 27


@pytest.mark.parametrize("size", [1, 2 * shading._SLICED_BATCH_MIN])
def test_overlap_error_on_both_probe_paths(size, monkeypatch):
    # a lone mesh is probed alone; with the crossover at 1 the 24-mesh batch
    # is bit-sliced in runs of at most 9 meshes, and its first run fails
    if size > 1:
        monkeypatch.setattr(shading, "_SLICED_BATCH_MIN", 1)
    log = spy_probes(monkeypatch)
    real = shading._moves
    # every square of the grid: it overlaps any mesh with a shaded square
    overlap = ShadeMove((), (1 << 9) - 1)
    monkeypatch.setattr(shading, "_moves", lambda p, vector: real(p, vector) + (overlap,))
    batch = [squares_to_mask(2, [(2, 0)])] * size
    with pytest.raises(AssertionError, match="adds shaded squares"):
        list(shading._frontier_moves((1, 2), batch, {}))
    assert [engine for engine, _ in log] == ["one" if size == 1 else "sliced"]


@pytest.mark.parametrize("p", EXHAUSTIVE + [(1, 3, 2), (2, 4, 1, 3), (2, 4, 1, 5, 3)])
def test_probe_indices_rebuild_the_masks(p):
    # the batch engine reads a probe's bits from its index tuples only
    for _, _, forbid, flanks, forbid_at, flanks_at in shading._compiled(p):
        for mask, at in ((forbid, forbid_at), (flanks, flanks_at)):
            assert list(at) == sorted(set(at))
            assert sum(1 << i for i in at) == mask


def test_probe_candidates_are_the_corner_and_side_squares():
    # each candidate is pulled back from the spelled-out direction; the
    # oracle writes the four corners and the four sides out by hand
    for k in range(1, 6):
        for p in all_perms(k):
            for assignment, added, *_ in shading._compiled(p):
                point, direction = assignment.point, assignment.direction
                if assignment.kind == "single":
                    want = (single_candidate_ref(point, direction),)
                else:
                    want = pair_candidate_ref(point, direction)
                assert assignment.squares == want, (p, assignment)
                assert added == squares_to_mask(k, want)


def test_compile_rejects_a_non_uniform_neighbour_shift(monkeypatch):
    # the lines' squares and their neighbours, one of which may lie off the
    # grid, move as points of the grid of k - 1 points; graph points never
    # sit on the swapped border points
    real = shading.apply_symmetry_point
    swap = {(0, 0): (0, 1), (0, 1): (0, 0)}

    def not_affine(name, n, point):
        image = real(name, n, point)
        return swap.get(image, image)

    monkeypatch.setattr(shading, "apply_symmetry_point", not_affine)
    shading._compiled.cache_clear()
    try:
        with pytest.raises(AssertionError, match="not onto one neighbour offset"):
            shading._compiled((1, 2))
    finally:
        shading._compiled.cache_clear()


def _rows(p, masks, n_max):
    return fingerprints_many(p, masks, n_max)


def test_fingerprints_brute_is_mesh_contains_brute():
    rng = random.Random(1412)
    for p in [(1, 2), (2, 1, 3), (2, 4, 1, 3)]:
        k = len(p)
        masks = [rng.getrandbits((k + 1) ** 2) for _ in range(30)]
        want = []
        for mask in masks:
            squares = [divmod(c, k + 1) for c in range((k + 1) ** 2) if mask >> c & 1]
            want.append(tuple(
                sum(mesh_contains_brute(p, squares, w) << j for j, w in enumerate(all_perms(n)))
                for n in range(1, 6)
            ))
        assert fingerprints_brute(p, masks, 5) == want, p


@pytest.mark.parametrize("p", [(1,), (1, 2), (2, 1)])
def test_fingerprints_every_mesh_through_depth_6(p):
    masks = range(1 << (len(p) + 1) ** 2)
    assert _rows(p, masks, 6) == fingerprints_brute(p, masks, 6)


@pytest.mark.parametrize("p", list(itertools.permutations((1, 2, 3))))
def test_fingerprints_seeded_length_3_at_depth_7(p):
    rng = random.Random(f"fingerprints:{p}")
    masks = [0, (1 << 16) - 1] + [rng.getrandbits(16) for _ in range(40)]
    assert _rows(p, masks, 7) == fingerprints_brute(p, masks, 7)


# the embedded length-6 pair of test_15_embedded_pair_fingerprints
EMBEDDED = (1, 3, 4, 6, 5, 2)
EMBEDDED_MASKS = (
    squares_to_mask(
        6,
        [
            (0, 2), (0, 3), (1, 3), (1, 4), (2, 0), (2, 3), (2, 4),
            (3, 0), (3, 2), (5, 2), (5, 3), (5, 4), (5, 6), (6, 0),
        ],
    ),
    squares_to_mask(
        6,
        [
            (0, 2), (0, 3), (1, 4), (2, 0), (2, 2), (2, 3), (3, 0),
            (3, 2), (3, 3), (5, 2), (5, 3), (5, 4), (5, 6), (6, 0),
        ],
    ),
)


@pytest.mark.parametrize(
    "p, extra", [((2, 4, 1, 3), ()), (EMBEDDED, EMBEDDED_MASKS)]
)
def test_fingerprints_longer_patterns_at_depth_7(p, extra):
    rng = random.Random(1412)
    nbits = (len(p) + 1) ** 2
    masks = [0, *extra] + [rng.getrandbits(nbits) for _ in range(30)]
    got = _rows(p, masks, 7)
    assert got == fingerprints_brute(p, masks, 7)
    # rows below the pattern length are empty; the pattern's own row is not
    for row in got:
        assert row[: len(p) - 1] == (0,) * (len(p) - 1)
    assert got[0][len(p) - 1] == 1 << lex_rank(p)  # in S_k only p contains p


@pytest.mark.parametrize("p", [(1, 2), (2, 3, 1), (2, 4, 1, 3)])
def test_fingerprints_of_meshes_sharing_squares(p):
    # the sweep ORs the squares every mesh shades once per table entry
    rng = random.Random(f"shared-squares:{p}")
    nbits = (len(p) + 1) ** 2
    for size in (1, 2, 3, 5):
        base = rng.getrandbits(nbits)
        masks = tuple(base | rng.getrandbits(nbits) & rng.getrandbits(nbits) for _ in range(size))
        assert _rows(p, masks, 6) == fingerprints_brute(p, masks, 6), masks
        assert _rows(p, (base,) * size, 6) == fingerprints_brute(p, (base,) * size, 6)
    assert _rows(p, (), 6) == fingerprints_brute(p, (), 6) == []


def test_fingerprints_shallower_than_the_pattern_are_empty():
    masks = [0, (1 << 25) - 1, 12345]
    assert _rows((2, 4, 1, 3), masks, 3) == [(0, 0, 0)] * 3
    assert _rows(EMBEDDED, EMBEDDED_MASKS, 5) == [(0,) * 5] * 2


# the depth-8 pairs of the decide-mix benchmark workload; the first is the
# stubborn pair of test_14_undecided_honesty
DEEP_PAIRS = (
    (
        "123:(0,0)(0,1)(1,0)(2,0)(2,2)(3,0)(3,2)(3,3)",
        "123:(0,0)(0,1)(1,0)(2,0)(2,1)(2,2)(3,0)(3,2)(3,3)",
    ),
    ("21:(0,0)(2,1)", "21:(0,0)(0,2)(2,1)"),
    (
        "231:(0,0)(0,3)(2,2)(3,1)(3,2)(3,3)",
        "231:(0,0)(0,3)(2,1)(2,2)(3,1)(3,2)(3,3)",
    ),
)


def _check_deepest_rows(pair, n, samples):
    """Seeded bits of the S_n rows of a pair against ``host_region_masks``."""
    first, second = (parse_mesh_pattern(text) for text in pair)
    p = first.perm
    rows = [fp[n - 1] for fp in fingerprints_many(p, (first.mask, second.mask), n)]
    rng = random.Random(pair[0])
    for rank in rng.sample(range(factorial(n)), samples):
        host = host_region_masks(p, lex_unrank(n, rank))
        for row, mesh in zip(rows, (first.mask, second.mask)):
            want = any(m & mesh == 0 for m in host)
            assert (row >> rank) & 1 == want, (pair, rank)


@pytest.mark.parametrize("pair", DEEP_PAIRS)
def test_depth_8_rows_match_host_region_masks(pair):
    # host_region_masks over all 40,320 hosts of S_8 takes 4-6 s per
    # pattern, so the reference checks a seeded tenth of the row
    _check_deepest_rows(pair, 8, 4032)


# S_9 tables are streamed rather than cached; the rows of these pairs differ
# on 11,164 and 2,346 of the 362,880 hosts
DEPTH_9_PAIRS = (
    ("231:(1,0)(3,1)(3,2)", "231:(1,0)(3,2)"),
    ("2413:(0,0)(1,2)(2,2)(4,4)", "2413:(0,0)(1,2)(2,2)(3,1)(4,4)"),
)


@pytest.mark.parametrize("pair", DEPTH_9_PAIRS)
def test_depth_9_rows_match_host_region_masks(pair):
    _check_deepest_rows(pair, 9, 4000)
