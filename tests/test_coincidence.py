import hashlib
import itertools
import json
import random
import tracemalloc
import weakref

import pytest

from meshcide.perm import SYMMETRIES, all_perms, apply_symmetry_perm, lex_rank
from meshcide import certify, coincidence, shading
from meshcide.mesh import (
    MAX_DEPTH,
    MeshPattern,
    bit_indices,
    contains,
    fingerprints_many,
    mask_to_squares,
    parse_mesh_pattern,
    square_bit,
    squares_to_mask,
)
from meshcide.diagonals import (
    DistinguishingWitness,
    apply_symmetry_mask,
    apply_symmetry_mesh,
    enc_core_mask,
    enc_witness,
    same_enc,
)
from meshcide.shading import (
    Assignment,
    ClosureClass,
    ShadeMove,
    shadeable_pairs,
    shadeable_singles,
    ssl_closure,
    ssl_moves,
)
from meshcide.certify import (
    GAMMA_1,
    GAMMA_2,
    ProofTrace,
    TraceStep,
    classical_rule,
    gamma_rule,
    verify_trace,
)
from meshcide.coincidence import (
    CoincidenceVerdict,
    PartitionClass,
    classify_family,
    containment_signatures,
    decide_coincidence,
    load_partition_cache,
    partition_lines,
    partition_meshes,
    partition_records,
    partition_summary,
    write_partition_cache,
)

from oracles import (
    contains_gamma_oracle,
    enc_square_sets,
    enc_witness_oracle,
    fingerprints_brute,
    partition_record_oracle,
    signature_rows,
    single_shading_chain,
)


def msk(k, squares):
    return squares_to_mask(k, squares)


def _cut_to_one_mesh(records):
    # a proven class marked CONJECTURED and cut down to one mesh
    first = records[0]
    first.update(status="CONJECTURED", meshes=first["meshes"][:1], size=1)


def _cut_with_blocks(records):
    _cut_to_one_mesh(records)
    records[0]["blocks"] = [records[0]["meshes"]]


def _swap_meshes(records):
    a, b = records[0]["meshes"], records[1]["meshes"]
    a[-1], b[-1] = b[-1], a[-1]


def _conjectured(records):
    return next(r for r in records if r.get("status") == "CONJECTURED")


def _duplicate_block_member(records):
    blocks = _conjectured(records)["blocks"]
    blocks[1].append(blocks[0][0])


def _conjectured_called_proven(records):
    # a CONJECTURED record passed off as PROVEN, the summary recounted to agree
    forged = _conjectured(records)
    blocks = forged.pop("blocks")
    forged["status"] = "PROVEN"
    counts = records[-1]["summary"]
    counts["proven"] += 1
    counts["conjectured"] -= 1
    counts["undecided_pairs"] -= (
        forged["size"] ** 2 - sum(len(block) ** 2 for block in blocks)
    ) // 2


# edits of a 12@4 report that the cache loader must reject
CACHE_EDITS = {
    "cut to one mesh": _cut_to_one_mesh,
    "cut to one mesh, with its block": _cut_with_blocks,
    "meshes swapped between records": _swap_meshes,
    "size off by one": lambda records: records[0].update(size=records[0]["size"] + 1),
    "meshes listed twice": lambda records: records[0].update(
        meshes=records[0]["meshes"] * 2, size=2 * records[0]["size"]
    ),
    "blocks on a proven record": lambda records: records[0].update(
        blocks=[records[0]["meshes"]]
    ),
    "conjectured record without blocks": lambda records: _conjectured(records).pop("blocks"),
    "a mesh in two blocks": _duplicate_block_member,
    "proven record called conjectured": lambda records: records[0].update(
        status="CONJECTURED", blocks=[records[0]["meshes"]]
    ),
    "conjectured record called proven": _conjectured_called_proven,
    "summary miscounts": lambda records: records[-1]["summary"].update(undecided_pairs=0),
    "enc edited": lambda records: records[0]["enc"].append(
        {"orientation": "NE", "squares": [[9, 9]]}
    ),
}


class TestFamilies:
    def test_vincular_fixture(self):
        pi = MeshPattern.of(
            "325614", [(a, b) for a in (1, 2, 4) for b in range(7)]
        )
        tags = classify_family(pi)
        assert tags.vincular and tags.bivincular

    def test_sparse_pair(self):
        assert classify_family(MeshPattern.of("231", [(3, 2)])).sparse
        assert classify_family(MeshPattern.of("231", [(1, 3), (3, 2)])).sparse

    def test_empty_mesh_all_tags(self):
        tags = classify_family(MeshPattern.of("213"))
        assert tags.vincular and tags.bivincular and tags.isolating and tags.sparse

    def test_bivincular_fixture(self):
        pi = MeshPattern.of("1", [(0, 0), (0, 1), (1, 0)])
        tags = classify_family(pi)
        assert tags.bivincular and not tags.vincular

    def test_vincular_implies_bivincular(self):
        rng = random.Random(7)
        for _ in range(400):
            k = rng.randint(1, 3)
            p = tuple(rng.sample(range(1, k + 1), k))
            tags = classify_family(MeshPattern(p, rng.getrandbits((k + 1) ** 2)))
            assert not tags.vincular or tags.bivincular

    def test_isolating_examples(self):
        # one isolated non-pointless square
        assert classify_family(MeshPattern.of("213", [(1, 2)])).isolating
        # a neighbour in an adjacent column breaks it
        assert not classify_family(MeshPattern.of("213", [(1, 2), (0, 0)])).isolating
        # two pointless squares may sit anywhere
        assert classify_family(MeshPattern.of("231", [(1, 0), (3, 2)])).isolating


class TestRules:
    def test_classical_rule_on_vincular_pair(self):
        bare = MeshPattern.of("231")
        column = MeshPattern.of("231", [(2, y) for y in range(4)])
        assert classical_rule(bare, column) is not None
        v = decide_coincidence(bare, column, 5)
        assert v.status == "PROVEN_COINCIDENT"
        assert [s.rule for s in v.trace.steps] == ["CLASSICAL"]

    def test_vincular_rule_requires_same_enc(self):
        # column unions with distinct enclosed diagonals are refuted by the
        # diagonal witness before any proof is tried
        a = MeshPattern.of("12", [(0, y) for y in range(3)])
        b = MeshPattern.of("12")
        assert not same_enc(a, b)
        v = decide_coincidence(a, b, 5)
        witness = enc_witness(a, b)
        assert v.status == "REFUTED"
        assert (v.witness, v.witness_contains_first) == (witness.perm, witness.contains_first)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_diagonal_refutation_matches_oracle(self, k):
        # neighbour-like pairs differ in few diagonals, so the first
        # differing one is owned by the second pattern about half the time
        # in either order
        rng = random.Random(f"decide-enc-witness:{k}")
        nbits = (k + 1) ** 2
        owners = set()
        checked = 0
        while checked < 60:
            p = tuple(rng.sample(range(1, k + 1), k))
            first = sum(1 << c for c in range(nbits) if rng.random() < 0.6)
            second = first
            for _ in range(rng.randint(1, 3)):
                second ^= 1 << rng.randrange(nbits)
            a, b = MeshPattern(p, first), MeshPattern(p, second)
            if enc_square_sets(a) == enc_square_sets(b):
                continue
            for x, y in ((a, b), (b, a)):
                v = decide_coincidence(x, y, k + 1)
                assert v.status == "REFUTED", (x, y)
                assert (v.witness, v.witness_contains_first) == enc_witness_oracle(x, y), (x, y)
                owners.add(bool(enc_square_sets(x) - enc_square_sets(y)))
            checked += 1
        assert owners == {False, True}

    def test_long_vincular_equal_enc_means_equal_mesh(self):
        # over one length-5 pattern: any two column unions sharing their
        # enclosed diagonals are the same mesh
        p = (2, 5, 1, 3, 4)
        seen = {}
        for cols in itertools.chain.from_iterable(
            itertools.combinations(range(6), r) for r in range(3)
        ):
            mask = msk(5, [(c, y) for c in cols for y in range(6)])
            enc = enc_square_sets(MeshPattern(p, mask))
            key = frozenset(enc)
            assert seen.setdefault(key, mask) == mask

    def test_isolating_fixtures(self):
        # one isolated non-pointless square grown from the empty core
        v = decide_coincidence(MeshPattern.of("213", [(1, 2)]), MeshPattern.of("213"), 5)
        assert v.status == "PROVEN_COINCIDENT" and verify_trace(v.trace)
        # distinct pointless squares are distinct enclosed diagonals
        a, b = MeshPattern.of("231", [(1, 0)]), MeshPattern.of("231", [(3, 2)])
        assert decide_coincidence(a, b, 5).status == "REFUTED"

    @pytest.mark.parametrize(
        "p, sample",
        [((1,), None), ((1, 2), None), ((2, 1), None), ((2, 1, 3), 100), ((1, 2, 3), 100)],
        ids=["1", "12", "21", "213", "123"],
    )
    def test_isolating_pairs_are_proven(self, p, sample):
        # isolating meshes that single-square shading grows from one shared
        # diagonal core are coincident, and the closure of the pair and its
        # meet proves it: all such pairs, or a seeded sample of them
        groups = {}
        for mesh in range(1 << (len(p) + 1) ** 2):
            pattern = MeshPattern(p, mesh)
            core = enc_core_mask(pattern)
            if classify_family(pattern).isolating and single_shading_chain(p, core, mesh):
                groups.setdefault(core, []).append(mesh)
        pairs = [pair for group in groups.values() for pair in itertools.combinations(group, 2)]
        if sample is not None:
            pairs = random.Random(f"isolating:{p}").sample(pairs, sample)
        for a, b in pairs:
            v = decide_coincidence(MeshPattern(p, a), MeshPattern(p, b), 5)
            assert v.status == "PROVEN_COINCIDENT", (p, a, b, v.reason)
            assert verify_trace(v.trace)

    def test_gamma_rule(self):
        assert gamma_rule(GAMMA_1, GAMMA_2) is not None
        assert gamma_rule(
            apply_symmetry_mesh("i", GAMMA_1), apply_symmetry_mesh("i", GAMMA_2)
        ) is not None
        assert gamma_rule(GAMMA_1, GAMMA_1) is None
        assert gamma_rule(GAMMA_1, MeshPattern.of("12")) is None

    def test_gamma_oracle(self):
        assert contains_gamma_oracle((1, 3, 2))
        assert not contains_gamma_oracle((4, 2, 5, 1, 3))
        for n in range(1, 6):
            for w in all_perms(n):
                assert contains_gamma_oracle(w) == contains(GAMMA_1, w)
                assert contains_gamma_oracle(w) == contains(GAMMA_2, w)


def decide_neighbour_pairs():
    """Sixty seeded neighbour pairs (a mesh and the same mesh with one square
    toggled) for every pattern of length 1-3.  At depth 7 they cover every
    decision path: enclosed diagonals, the sweep at each size from 3 to 7,
    proofs and UNDECIDED."""
    rng = random.Random(1413)
    for k in (1, 2, 3):
        nbits = (k + 1) ** 2
        for p in itertools.permutations(range(1, k + 1)):
            for _ in range(60):
                mask = rng.getrandbits(nbits)
                yield p, mask, mask ^ 1 << rng.randrange(nbits)


def decide_digest(pairs, depth, traces=True):
    """sha256 of each verdict's status, witness, reason and, with
    ``traces``, its trace steps."""
    h = hashlib.sha256()
    for p, a, b in pairs:
        v = decide_coincidence(MeshPattern(p, a), MeshPattern(p, b), depth)
        verdict = (p, a, b, v.status, v.witness, v.witness_contains_first, v.reason)
        if traces:
            verdict += (v.trace.steps if v.trace else None,)
        h.update(repr(verdict).encode())
    return h.hexdigest()


# decide_digest(decide_neighbour_pairs(), 7) once the closure stopped at
# the merge that joins the pair
DECIDE_DIGEST = "ec179fa39efa58799abce46e82f287e5d1780f3551c7cb50571f5902b37638dd"
# decide_digest(decide_neighbour_pairs(), 7, traces=False), unchanged since
# the closure began seeding the pair's meet
VERDICT_DIGEST = "f5c22f9b4c02fcc166925a0840713acf3ab2836cca37ccb3b961e8e9ec968323"


class TestDecide:
    def test_proven_equal(self):
        pi = MeshPattern.of("231", [(1, 0)])
        assert decide_coincidence(pi, pi, 5).status == "PROVEN_EQUAL"

    @pytest.mark.parametrize("depth", [0, -2, MAX_DEPTH + 1, 5.0, True])
    @pytest.mark.parametrize(
        "first, second",
        [("12", "12"), ("12", "123"), ("12:(2,0)", "12"), ("12:(0,0)", "12:(0,0)(1,1)")],
    )
    def test_rejects_depth_outside_limits(self, first, second, depth):
        with pytest.raises(ValueError, match="fingerprint depth"):
            decide_coincidence(parse_mesh_pattern(first), parse_mesh_pattern(second), depth)

    @pytest.mark.parametrize(
        "first, second",
        # distinct perms, and one perm told apart by the sweep at S_4
        [("12", "123"), ("12:(0,1)(1,0)", "12:(0,0)(0,1)(1,0)")],
    )
    def test_refutation_witness_is_verified(self, first, second, monkeypatch):
        # a witness both patterns agree on is a prover fault, not a verdict
        monkeypatch.setattr(coincidence, "contains", lambda pi, w: False)
        with pytest.raises(RuntimeError, match="failed verification"):
            decide_coincidence(parse_mesh_pattern(first), parse_mesh_pattern(second), 5)

    def test_proof_is_verified(self, monkeypatch):
        first = MeshPattern.of("231", [(1, 0), (1, 1), (3, 1), (3, 2)])
        second = MeshPattern.of("231", [(1, 0), (3, 1), (3, 2)])
        assert decide_coincidence(first, second, 7).status == "PROVEN_COINCIDENT"
        monkeypatch.setattr(coincidence, "verify_trace", lambda trace: False)
        with pytest.raises(RuntimeError, match="unverifiable trace"):
            decide_coincidence(first, second, 7)

    def test_outputs_match_recorded(self):
        assert decide_digest(decide_neighbour_pairs(), 7) == DECIDE_DIGEST

    def test_verdicts_match_recorded(self):
        # status, witness and reason: what a shorter proof must not change
        assert decide_digest(decide_neighbour_pairs(), 7, traces=False) == VERDICT_DIGEST

    def test_undecided_says_the_closure_finished_disconnected(self):
        # the stubborn pair of test_14_undecided_honesty: neither mesh has a
        # shading move, so its closure is the two seeds
        base = [(0, 0), (0, 1), (1, 0), (2, 0), (2, 2), (3, 0), (3, 2), (3, 3)]
        v = decide_coincidence(
            MeshPattern.of("123", base), MeshPattern.of("123", base + [(2, 1)]), 8
        )
        assert v.status == "UNDECIDED"
        assert v.reason == ("disconnected", 2)

    def test_undecided_says_the_closure_ran_out_of_budget(self):
        first = parse_mesh_pattern("24153:(0,0)(5,5)")
        second = parse_mesh_pattern("24153:(0,0)(1,2)(5,5)")
        v = decide_coincidence(first, second, 6)
        assert v.status == "UNDECIDED"
        assert v.reason == ("budget", coincidence._DECIDE_CLOSURE_BUDGET)
        # S_7 separates them, so the closure could not have joined them
        assert decide_coincidence(first, second, 7).status == "REFUTED"

    def test_only_undecided_verdicts_carry_a_reason(self):
        pi = MeshPattern.of("231", [(1, 0)])
        assert decide_coincidence(pi, pi, 5).reason is None
        assert decide_coincidence(MeshPattern.of("12"), MeshPattern.of("123"), 5).reason is None

    def test_different_patterns_refuted(self):
        v = decide_coincidence(MeshPattern.of("12"), MeshPattern.of("123"), 5)
        assert v.status == "REFUTED"
        assert v.witness == (1, 2)
        assert v.witness_contains_first is True

    @pytest.mark.parametrize(
        "first, second, witness, contains_first",
        [
            ("12", "123", (1, 2), True),
            ("231:(1,0)(3,2)", "21:(0,0)", (2, 1), False),
            ("12:(0,0)", "21", (1, 2), True),
        ],
    )
    def test_distinct_perms_refuted_by_the_shorter_perm_alone(
        self, monkeypatch, first, second, witness, contains_first
    ):
        # the shorter perm contains its own pattern and never the other one,
        # so the refutation is two containment checks, both on that host
        calls = []
        real = coincidence.contains
        monkeypatch.setattr(
            coincidence, "contains", lambda pi, w: calls.append(w) or real(pi, w)
        )
        v = decide_coincidence(parse_mesh_pattern(first), parse_mesh_pattern(second), 5)
        assert (v.status, v.witness, v.witness_contains_first) == (
            "REFUTED", witness, contains_first
        )
        assert calls == [witness, witness]

    def test_enc_difference_refuted_with_short_witness(self):
        v = decide_coincidence(
            MeshPattern.of("12", [(2, 0)]), MeshPattern.of("12"), 6
        )
        assert v.status == "REFUTED"
        assert len(v.witness) == 3

    def test_shading_pair_proven(self):
        v = decide_coincidence(
            MeshPattern.of("231", [(1, 0), (1, 1), (3, 1), (3, 2)]),
            MeshPattern.of("231", [(1, 0), (3, 1), (3, 2)]),
            7,
        )
        assert v.status == "PROVEN_COINCIDENT"
        assert v.trace is not None and verify_trace(v.trace)

    def test_fingerprint_refutation_least_witness(self):
        v = decide_coincidence(
            MeshPattern.of("231", [(1, 0), (3, 1), (3, 2)]),
            MeshPattern.of("231", [(1, 0), (3, 2)]),
            7,
        )
        assert v.status == "REFUTED"
        assert v.witness == (4, 2, 5, 1, 3)
        assert v.witness_contains_first is False

    def test_sparse_pair_refuted(self):
        v = decide_coincidence(
            MeshPattern.of("231", [(3, 2)]),
            MeshPattern.of("231", [(1, 3), (3, 2)]),
            6,
        )
        assert v.status == "REFUTED"
        assert v.witness == (2, 5, 3, 1, 4)

    def test_one_point_bivincular_refuted(self):
        v = decide_coincidence(
            MeshPattern.of("1", [(0, 0), (0, 1), (1, 0)]),
            MeshPattern.of("1", [(1, 1), (0, 1), (1, 0)]),
            5,
        )
        assert v.status == "REFUTED"
        assert v.witness == (1, 3, 2)

    def test_gamma_proven(self):
        # in each of its orientations the pair is proven by its gamma step alone
        steps = certify.gamma_steps((1, 2)) + certify.gamma_steps((2, 1))
        assert len(steps) == 8
        for _, p, g1, g2, (sym,) in steps:
            v = decide_coincidence(MeshPattern(p, g1), MeshPattern(p, g2), 7)
            assert v.status == "PROVEN_COINCIDENT", sym
            assert [s.rule for s in v.trace.steps] == ["GAMMA"], sym
            assert verify_trace(v.trace), sym

    def test_rule_transfer_through_symmetry(self):
        # full rows over 312, which are not column unions (their shared
        # enclosed diagonal is the pointless corner square): the closure
        # proves them in their own orientation
        a = MeshPattern.of("312", [(x, 0) for x in range(4)])
        b = MeshPattern.of("312", [(x, 0) for x in range(4)] + [(x, 2) for x in range(4)])
        assert not classify_family(a).vincular
        v = decide_coincidence(a, b, 6)
        assert v.status == "PROVEN_COINCIDENT"
        assert verify_trace(v.trace)

    def test_witness_always_verified(self):
        rng = random.Random(19)
        for _ in range(60):
            k = rng.randint(1, 2)
            p = tuple(rng.sample(range(1, k + 1), k))
            a = MeshPattern(p, rng.getrandbits((k + 1) ** 2))
            b = MeshPattern(p, rng.getrandbits((k + 1) ** 2))
            v = decide_coincidence(a, b, 5)
            if v.status == "REFUTED":
                assert contains(a, v.witness) != contains(b, v.witness)
                assert contains(a, v.witness) == v.witness_contains_first

    def test_status_symmetry_invariance_sampled(self):
        rng = random.Random(23)
        for _ in range(25):
            p = rng.choice(((1, 2), (2, 1)))
            a = MeshPattern(p, rng.getrandbits(9))
            b = MeshPattern(p, rng.getrandbits(9))
            base = decide_coincidence(a, b, 5).status
            for s in SYMMETRIES:
                v = decide_coincidence(
                    apply_symmetry_mesh(s, a), apply_symmetry_mesh(s, b), 5
                )
                assert v.status == base

    def test_status_symmetry_invariance_on_neighbour_pairs(self):
        # a mesh and the same mesh with one square toggled, over all eight
        # patterns of length 2 and 3: unlike random pairs, a third or more
        # of them share their enclosed diagonals, so the sweep and the
        # closure decide them in every orientation
        rng = random.Random(1412)
        patterns = [p for k in (2, 3) for p in all_perms(k)]
        statuses, swept = [], 0
        for _ in range(150):
            p = rng.choice(patterns)
            nbits = (len(p) + 1) ** 2
            mask = rng.getrandbits(nbits)
            a, b = MeshPattern(p, mask), MeshPattern(p, mask ^ 1 << rng.randrange(nbits))
            swept += same_enc(a, b)
            base = decide_coincidence(a, b, 6).status
            statuses.append(base)
            for s in SYMMETRIES:
                v = decide_coincidence(
                    apply_symmetry_mesh(s, a), apply_symmetry_mesh(s, b), 6
                )
                assert v.status == base, (a.text(), b.text(), s)
        assert swept >= 50
        assert set(statuses) == {"REFUTED", "PROVEN_COINCIDENT", "UNDECIDED"}


@pytest.mark.parametrize("k", [1, 2, 3])
def test_line_unions_with_equal_diagonals_are_proven(k):
    # column unions (vincular) and row unions: pairs sharing their enclosed
    # diagonals are proven by the classical rule or the closure, with no
    # rule of their own and no change of orientation
    width = k + 1
    for p in all_perms(k):
        for line in (
            lambda a: sum(square_bit(k, a, b) for b in range(width)),  # columns
            lambda b: sum(square_bit(k, a, b) for a in range(width)),  # rows
        ):
            by_enc = {}
            for chosen in itertools.product((0, 1), repeat=width):
                mesh = MeshPattern(p, sum(line(i) for i in range(width) if chosen[i]))
                by_enc.setdefault(frozenset(enc_square_sets(mesh)), []).append(mesh)
            for group in by_enc.values():
                for a, b in itertools.combinations(group, 2):
                    v = decide_coincidence(a, b, 4)
                    assert v.status == "PROVEN_COINCIDENT", (a.text(), b.text())
                    assert verify_trace(v.trace)


class TestVerifyTrace:
    def test_rejects_tampered_ssl_step(self):
        v = decide_coincidence(
            MeshPattern.of("231", [(1, 0), (1, 1), (3, 1), (3, 2)]),
            MeshPattern.of("231", [(1, 0), (3, 1), (3, 2)]),
            7,
        )
        trace = v.trace
        step = trace.steps[0]
        bad = TraceStep(step.rule, step.perm, step.before | 1, step.after | 1, step.detail)
        tampered = ProofTrace(
            trace.perm, trace.source, trace.target, (bad,) + trace.steps[1:]
        )
        assert not verify_trace(tampered)

    def test_rejects_a_step_over_another_pattern(self):
        # a valid 231 trace, then a valid 12 gamma step: the trace's own
        # pattern is the only one its steps may be over
        v = decide_coincidence(
            MeshPattern.of("231", [(1, 0), (1, 1), (3, 1), (3, 2)]),
            MeshPattern.of("231", [(1, 0), (3, 1), (3, 2)]),
            7,
        )
        assert verify_trace(v.trace)
        (gamma,) = gamma_rule(GAMMA_1, GAMMA_2)
        assert verify_trace(ProofTrace((1, 2), GAMMA_1.mask, GAMMA_2.mask, (gamma,)))
        trace = v.trace
        other = ProofTrace(trace.perm, trace.source, trace.target, trace.steps + (gamma,))
        assert verify_trace(other) is False

    def test_rejects_unconnected_endpoints(self):
        trace = ProofTrace((2, 3, 1), msk(3, [(1, 0)]), msk(3, [(3, 2)]), ())
        assert not verify_trace(trace)

    def test_rejects_false_gamma(self):
        step = TraceStep("GAMMA", (1, 2), 0, GAMMA_2.mask)
        assert not verify_trace(ProofTrace((1, 2), 0, GAMMA_2.mask, (step,)))

    def test_rejects_false_classical(self):
        a = msk(2, [(2, 0)])
        step = TraceStep("CLASSICAL", (1, 2), a, 0)
        assert not verify_trace(ProofTrace((1, 2), a, 0, (step,)))

    def test_rejects_dsl_rule_name(self):
        # a valid pair shading verifies as SSL; no rule is called DSL
        pi = MeshPattern.of("12", [(2, 0)])
        point, pair, direction = shadeable_pairs(pi)[0]
        grown = pi.mask | msk(2, pair)
        detail = (Assignment(point, "pair", direction, pair),)
        for rule, valid in (
            ("SSL", True),
            ("DSL", False),
            ("SL", False),
            ("SYMMETRY", False),
            ("VINCULAR", False),
            ("ISOLATING", False),
        ):
            step = TraceStep(rule, pi.perm, pi.mask, grown, detail)
            assert verify_trace(ProofTrace(pi.perm, pi.mask, grown, (step,))) is valid

    @staticmethod
    def _one_step(step):
        return verify_trace(ProofTrace(step.perm, step.before, step.after, (step,)))

    def test_malformed_closure_detail_is_false(self):
        lo, hi = msk(2, [(0, 0)]), msk(2, [(0, 0), (1, 1)])
        assert self._one_step(TraceStep("CLOSURE", (1, 2), lo, lo, (lo, lo)))
        for detail in ((), (lo,), (lo, hi, hi), lo, None, ("a", "b"), (lo, 1 << 9), (-1, hi)):
            step = TraceStep("CLOSURE", (1, 2), lo, lo, detail)
            assert self._one_step(step) is False, detail

    def test_ssl_step_adds_exactly_its_assignments_squares(self):
        # licensed assignments, but the after mesh shades one square more
        pi = MeshPattern.of("12", [(2, 0)])
        point, pair, direction = shadeable_pairs(pi)[0]
        grown = pi.mask | msk(2, pair)
        detail = (Assignment(point, "pair", direction, pair),)
        assert self._one_step(TraceStep("SSL", pi.perm, pi.mask, grown, detail))
        extra = next(bit for bit in (1 << i for i in range(9)) if not grown & bit)
        step = TraceStep("SSL", pi.perm, pi.mask, grown | extra, detail)
        assert self._one_step(step) is False

    def test_closure_step_meshes_lie_between_its_ends(self):
        # lo and hi are one mesh, so they are joined from the start and
        # only the interval check refuses a step leaving it; 12:(2,0) and
        # 12:(0,0) are told apart by 231, so the last step proves a falsehood
        lo, above, apart = msk(2, [(0, 0)]), msk(2, [(0, 0), (1, 1)]), msk(2, [(2, 0)])
        assert self._one_step(TraceStep("CLOSURE", (1, 2), lo, lo, (lo, lo)))
        for before, after in ((lo, above), (above, lo), (apart, lo)):
            step = TraceStep("CLOSURE", (1, 2), before, after, (lo, lo))
            assert self._one_step(step) is False, (before, after)

    def test_closure_step_needs_its_ends_joined_first(self):
        # a pair shading joins lo to hi; a sandwich between them replays
        # only after that step, not before it
        pi = MeshPattern.of("12", [(2, 0)])
        point, pair, direction = shadeable_pairs(pi)[0]
        lo, hi = pi.mask, pi.mask | msk(2, pair)
        mid = lo | msk(2, pair[:1])
        shaded = TraceStep("SSL", pi.perm, lo, hi, (Assignment(point, "pair", direction, pair),))
        sandwiched = TraceStep("CLOSURE", pi.perm, lo, mid, (lo, hi))
        assert verify_trace(ProofTrace(pi.perm, lo, mid, (shaded, sandwiched)))
        assert verify_trace(ProofTrace(pi.perm, lo, mid, (sandwiched, shaded))) is False

    def test_classical_rule_needs_one_pattern(self):
        # both meshes are empty, so only the perm check refuses the pair
        assert classical_rule(MeshPattern.of("12"), MeshPattern.of("21")) is None
        assert classical_rule(MeshPattern.of("12"), MeshPattern.of("12")) is not None

    def test_malformed_rule_detail_is_false(self):
        pair = (GAMMA_1.perm, GAMMA_1.mask, GAMMA_2.mask)
        # the partition logs the gamma pair once per orientation
        for sym in ("id", "rci"):
            assert self._one_step(TraceStep("GAMMA", *pair, (sym,)))
        for detail in (5, ("bogus",), ("r",), (), None, ["id"], ("id", "id")):
            step = TraceStep("GAMMA", *pair, detail)
            assert self._one_step(step) is False, detail
        (classical,) = classical_rule(
            MeshPattern.of("231"), MeshPattern.of("231", [(2, 0), (2, 1), (2, 2), (2, 3)])
        )
        assert self._one_step(classical)
        for detail in ("junk", ("id",), (0, 0), None):
            assert self._one_step(classical._replace(detail=detail)) is False, detail

    def test_malformed_ssl_detail_is_false(self):
        pi = MeshPattern.of("12", [(2, 0)])
        point, pair, direction = shadeable_pairs(pi)[0]
        grown = pi.mask | msk(2, pair)
        good = Assignment(point, "pair", direction, pair)
        listed = Assignment(list(point), "pair", direction, list(pair))
        assert self._one_step(TraceStep("SSL", pi.perm, pi.mask, grown, (good,)))
        for detail in ((5,), (None,), ("pair",), (good, 7), (listed,), 5, None, [good]):
            step = TraceStep("SSL", pi.perm, pi.mask, grown, detail)
            assert self._one_step(step) is False, detail

    def test_masks_outside_the_grid_are_false(self):
        for perm, before, after in (
            ((1, 2), -1, 0),
            ((1, 2), 0, 1 << 9),
            ((1, 2), "0", 0),
            ((1, 2), 0.0, 0),
            ((1, 1), 0, 0),
            ((True,), 0, 0),
            ((1.0, 2.0), 0, 0),
            ([1, 2], 0, 0),
            ("12", 0, 0),
            (12, 0, 0),
        ):
            for rule in ("SSL", "CLOSURE", "CLASSICAL", "GAMMA"):
                step = TraceStep(rule, perm, before, after, (0, 0) if rule == "CLOSURE" else ())
                trace = ProofTrace((1, 2), 0, 0, (step,))
                assert verify_trace(trace) is False, (rule, perm, before, after)
            # the trace's own pattern and endpoints are checked alike
            assert verify_trace(ProofTrace(perm, before, after, ())) is False

    def test_single_with_an_extra_square_is_false(self):
        # only the whole assignment licenses its squares: a valid single's
        # square followed by any other square proves nothing
        pi = MeshPattern.of("12", [(2, 0)])
        point, square, direction = shadeable_singles(pi)[0]
        extra = next(
            sq for sq in mask_to_squares(2, ~pi.mask & ((1 << 9) - 1)) if sq != square
        )
        grown = pi.mask | msk(2, [square, extra])
        detail = (Assignment(point, "single", direction, (square, extra)),)
        assert not self._one_step(TraceStep("SSL", pi.perm, pi.mask, grown, detail))

    def test_plain_tuple_step_is_false(self):
        # equal to a valid CLASSICAL TraceStep, but not one
        step = ("CLASSICAL", (1, 2), 0, 1, ())
        assert verify_trace(ProofTrace((1, 2), 0, 1, (step,))) is False

    @pytest.mark.parametrize("trace", [((1, 2), 0, 0, ()), None, "12"])
    def test_non_trace_argument_is_false(self, trace):
        assert verify_trace(trace) is False

    def test_missing_steps_are_false(self):
        assert verify_trace(ProofTrace((1, 2), 0, 0, None)) is False

    def test_shadeable_probes_run_once_per_step(self, monkeypatch):
        pi = MeshPattern.of("123")
        move = max(ssl_moves(pi), key=lambda m: len(m.assignments))
        assert len(move.assignments) > 1
        step = TraceStep("SSL", pi.perm, pi.mask, pi.mask | move.added, move.assignments)
        calls = []
        real = shading._option_vector
        monkeypatch.setattr(
            shading, "_option_vector", lambda p, mask: calls.append(mask) or real(p, mask)
        )
        assert self._one_step(step)
        assert calls == [pi.mask]


class TestSignatures:
    def test_signature_matches_fingerprints(self):
        sigs = containment_signatures((1, 2), 4)
        rng = random.Random(29)
        masks = [rng.randrange(512) for _ in range(25)]
        fps = fingerprints_many((1, 2), masks, 4)
        for mask, fp in zip(masks, fps):
            assert signature_rows(sigs[mask], 4) == fp

    @staticmethod
    def _rows(sigs, masks, n_max):
        return [signature_rows(sigs[mask], n_max) for mask in masks]

    def test_length_2_slice_matches_oracle(self):
        sigs = containment_signatures((2, 1), 4)
        masks = range(100, 140)
        assert self._rows(sigs, masks, 4) == fingerprints_brute((2, 1), masks, 4)

    def test_length_3_probe_matches_oracle(self):
        sigs = containment_signatures((1, 3, 2), 3)
        assert len(sigs) == 1 << 16
        masks = range(0, 1 << 16, 4099)
        assert self._rows(sigs, masks, 3) == fingerprints_brute((1, 3, 2), masks, 3)

    def test_every_mesh_of_12_matches_fingerprints(self):
        sigs = containment_signatures((1, 2), 6)
        masks = range(1 << 9)
        fps = fingerprints_many((1, 2), masks, 6)
        assert self._rows(sigs, masks, 6) == fps

    @pytest.mark.parametrize("p", list(itertools.permutations((1, 2, 3))))
    def test_seeded_length_3_matches_fingerprints(self, p):
        sigs = containment_signatures(p, 5)
        rng = random.Random(f"signatures:{p}")
        masks = [rng.getrandbits(16) for _ in range(200)]
        fps = fingerprints_many(p, masks, 5)
        assert self._rows(sigs, masks, 5) == fps

    def test_every_mesh_of_132_matches_fingerprints(self):
        # the whole cube, so every step of the zeta transform is covered,
        # in strided slices (steps 1..128) and contiguous runs (256..)
        sigs = containment_signatures((1, 3, 2), 4)
        masks = range(1 << 16)
        fps = fingerprints_many((1, 3, 2), masks, 4)
        assert self._rows(sigs, masks, 4) == fps

    def test_length_2_at_max_depth_fits_the_budget(self):
        sigs = containment_signatures((1, 2), MAX_DEPTH)
        masks = [0, 1 << 4, (1 << 9) - 1]
        fps = fingerprints_many((1, 2), masks, MAX_DEPTH)
        assert self._rows(sigs, masks, MAX_DEPTH) == fps

    def test_deprecated_parallel_name_ignores_threads(self):
        assert coincidence.containment_signatures_parallel((2, 1), 4, 3) == (
            containment_signatures((2, 1), 4)
        )


class TestPartition:
    def test_one_point_space_fully_proven(self):
        result = partition_meshes((1,), 6)
        assert len(result.classes) == 8
        assert all(c.status == "PROVEN" for c in result.classes)
        assert sum(c.size for c in result.classes) == 16

    def test_classes_share_fingerprints(self):
        result = partition_meshes((1,), 6)
        for cls in result.classes:
            sig = result.signatures[cls.representative]
            assert all(result.signatures[m] == sig for m in cls.meshes)

    def test_distinct_classes_differ(self):
        result = partition_meshes((1,), 6)
        reps = [result.signatures[c.representative] for c in result.classes]
        assert len(set(reps)) == len(reps)

    def test_gamma_class_membership(self):
        result = partition_meshes((1, 2), 7)
        cls = next(
            c for c in result.classes if GAMMA_1.mask in c.meshes
        )
        assert GAMMA_2.mask in cls.meshes
        assert cls.status == "PROVEN"

    def test_edge_across_signatures_is_a_hard_error(self, monkeypatch):
        import meshcide.shading as shading

        real = shading._frontier_moves
        # (2,0) is pointless over 12, so shading it changes the diagonals
        bogus = ShadeMove((), square_bit(2, 2, 0))

        def with_bogus_move(p, batch, memo):
            return [
                moves + ((bogus,) if mesh == 0 else ())
                for mesh, moves in zip(batch, real(p, batch, memo))
            ]

        monkeypatch.setattr(shading, "_frontier_moves", with_bogus_move)
        with pytest.raises(AssertionError, match="truncated signatures differ"):
            partition_meshes((1, 2), 4)

    def test_closure_is_freed_before_grouping(self, monkeypatch):
        # the closure's result, steps included, is gone by the time the
        # first class is built: only the blocks' meshes are kept
        real_closure, real_class = coincidence.ssl_closure, coincidence.PartitionClass
        results = []

        def closure(*args, **kwargs):
            result = real_closure(*args, **kwargs)
            results.append(weakref.ref(result))
            return result

        def partition_class(*args):
            assert len(results) == 1 and results[0]() is None
            return real_class(*args)

        monkeypatch.setattr(coincidence, "ssl_closure", closure)
        monkeypatch.setattr(coincidence, "PartitionClass", partition_class)
        assert len(partition_meshes((1, 2), 5).classes) == 220

    def test_signatures_follow_the_closure(self, monkeypatch):
        # the signature table is built only once the closure's result is
        # gone, so the two never sit side by side
        real_closure, real_signatures = coincidence.ssl_closure, coincidence.containment_signatures
        results = []

        def closure(*args, **kwargs):
            result = real_closure(*args, **kwargs)
            results.append(weakref.ref(result))
            return result

        def signatures(*args):
            assert len(results) == 1 and results[0]() is None
            return real_signatures(*args)

        monkeypatch.setattr(coincidence, "ssl_closure", closure)
        monkeypatch.setattr(coincidence, "containment_signatures", signatures)
        assert len(partition_meshes((1, 2), 5).classes) == 220

    @pytest.mark.parametrize("depth", [0, -2, MAX_DEPTH + 1, 5.0, True])
    def test_rejects_depth_outside_limits_before_any_work(self, depth, monkeypatch):
        def no_signatures(*args):
            raise AssertionError("signatures were computed")

        monkeypatch.setattr(coincidence, "containment_signatures", no_signatures)
        self._no_closure(monkeypatch)
        with pytest.raises(ValueError, match="fingerprint depth"):
            partition_meshes((1, 2), depth)

    @staticmethod
    def _no_closure(monkeypatch):
        def no_closure(*args, **kwargs):
            raise AssertionError("the closure was run")

        monkeypatch.setattr(coincidence, "ssl_closure", no_closure)

    def test_rejects_long_patterns(self, monkeypatch):
        self._no_closure(monkeypatch)
        with pytest.raises(ValueError):
            partition_meshes((1, 2, 3, 4), 5)

    @pytest.mark.parametrize(
        "p, depth, limit",
        [
            ((1, 2, 3, 4), 3, "MAX_SIGNATURE_LENGTH"),
            ((1, 2, 3, 4), None, "MAX_SIGNATURE_LENGTH"),
            ((1, 2, 3), 9, "SIGNATURE_BIT_BUDGET"),
        ],
    )
    def test_signature_limits_raise_before_any_table(self, p, depth, limit, monkeypatch):
        import meshcide.mesh as mesh

        def no_tables(*args):
            raise AssertionError("a host table was built")

        for name in ("_less_sets", "_occurrence_tables", "_cached_occurrence_tables"):
            monkeypatch.setattr(mesh, name, no_tables)
        self._no_closure(monkeypatch)
        with pytest.raises(ValueError, match=limit):
            partition_meshes(p, depth)

    def test_records_and_cache_round_trip(self, tmp_path):
        result = partition_meshes((1,), 5)
        records = [json.loads(line) for line in partition_records(result)]
        assert len(records) == len(result.classes)
        assert {r["status"] for r in records} == {"PROVEN"}
        out = tmp_path / "part.jsonl"
        write_partition_cache(out, partition_lines(result))
        loaded = load_partition_cache(out, (1,), 5)
        assert loaded is not None
        assert json.loads(loaded[-1])["summary"]["classes"] == len(result.classes)
        assert loaded == list(partition_lines(result))  # the lines as written
        # a different depth must not validate
        assert load_partition_cache(out, (1,), 6) is None
        # nor may the same records with other JSON spacing
        respaced = [json.dumps(json.loads(line), separators=(",", ":")) for line in loaded]
        write_partition_cache(out, respaced)
        assert load_partition_cache(out, (1,), 5) is None

    @pytest.mark.parametrize(
        "p, depth, use_gamma",
        [
            ((1,), 5, True),
            ((1, 2), 5, True),
            ((1, 2), 5, False),
            ((2, 1), 5, True),
            ((2, 1), 5, False),
            ((1, 3, 2), 3, True),
            # fingerprint rows narrower than the 9-bit row table, no deep row
            ((1, 2), 1, True),
            ((1, 2), 2, True),
            # a deep row of 9! bits
            ((1,), 9, True),
            # 10 diagonal candidates, and blocks with masks on both sides of 0xFF
            ((2, 1, 3), 2, True),
        ],
    )
    def test_records_are_the_oracle_dumped(self, p, depth, use_gamma):
        assert_records_match_oracle(partition_meshes(p, depth, use_gamma=use_gamma))

    def test_cache_missing_or_not_utf8_is_none(self, tmp_path, monkeypatch):
        # both are refused before the fresh partition that a load compares to
        def no_partition(*args):
            raise AssertionError("a partition was run")

        monkeypatch.setattr(coincidence, "partition_meshes", no_partition)
        out = tmp_path / "part.jsonl"
        assert load_partition_cache(out, (1,), 5) is None
        out.write_bytes(b'{"summary": \xff}\n')
        assert load_partition_cache(out, (1,), 5) is None

    def test_cache_rejects_corruption(self, tmp_path):
        result = partition_meshes((1,), 5)
        good = list(partition_lines(result))
        out = tmp_path / "part.jsonl"
        for line in (0, -2):  # the first and the last class
            lines = list(good)
            record = json.loads(lines[line])
            record["fingerprint"][0] = "0xdead"
            lines[line] = json.dumps(record)
            write_partition_cache(out, lines)
            assert load_partition_cache(out, (1,), 5) is None

    @pytest.mark.parametrize(
        "corrupt",
        [
            # a representative square off the 2x2 grid
            lambda record: record["representative"].update(mesh=[[5, 5]]),
            # a record that is a JSON array
            lambda record: [record],
        ],
    )
    def test_cache_malformed_is_discarded(self, tmp_path, corrupt):
        result = partition_meshes((1,), 5)
        lines = list(partition_lines(result))
        record = json.loads(lines[0])
        lines[0] = json.dumps(corrupt(record) or record)
        out = tmp_path / "part.jsonl"
        write_partition_cache(out, lines)
        assert load_partition_cache(out, (1,), 5) is None

    def test_cache_checks_gamma_flag(self, tmp_path):
        result = partition_meshes((1,), 5, use_gamma=False)
        out = tmp_path / "part.jsonl"
        write_partition_cache(out, partition_lines(result))
        assert load_partition_cache(out, (1,), 5, use_gamma=True) is None
        assert load_partition_cache(out, (1,), 5, use_gamma=False) is not None

    @pytest.mark.parametrize("edit", sorted(CACHE_EDITS))
    def test_cache_rejects_edited_records(self, tmp_path, edit):
        out = tmp_path / "part.jsonl"
        lines = list(partition_lines(partition_meshes((1, 2), 4)))
        write_partition_cache(out, lines)
        assert load_partition_cache(out, (1, 2), 4) == lines
        records = [json.loads(line) for line in lines]
        CACHE_EDITS[edit](records)
        write_partition_cache(out, [json.dumps(r) for r in records])
        assert load_partition_cache(out, (1, 2), 4) is None

    def test_cache_of_a_pattern_without_signatures_raises(self, tmp_path):
        out = tmp_path / "part.jsonl"
        summary = {"p": [1, 2, 3, 4], "n_max": 3, "gamma": True, "classes": 0}
        summary.update(proven=0, conjectured=0, undecided_pairs=0)
        write_partition_cache(out, [json.dumps({"summary": summary})])
        with pytest.raises(ValueError, match="MAX_SIGNATURE_LENGTH"):
            load_partition_cache(out, (1, 2, 3, 4), 3)

    def test_summary_counts(self):
        result = partition_meshes((1, 2), 7, use_gamma=False)
        s = partition_summary(result)
        assert s["classes"] == s["proven"] + s["conjectured"]
        assert s["undecided_pairs"] == result.undecided_pairs()

    @pytest.mark.parametrize(
        "p, depth, use_gamma",
        [
            ((1,), 4, True),
            ((1, 2), 5, True),
            ((1, 2), 5, False),
            ((2, 1), 4, True),
            ((1, 3, 2), 4, True),
        ],
    )
    def test_counts_read_off_the_arrays_match_the_classes(self, p, depth, use_gamma):
        assert_counts_match_the_classes(partition_meshes(p, depth, use_gamma))


def assert_counts_match_the_classes(result):
    """The summary, ``conjectured()`` and ``undecided_pairs()``, which read
    the result's arrays, against counts rebuilt from its classes' blocks;
    each read of ``classes`` builds them afresh, equal, and leaves the
    report as it was."""
    records = list(partition_records(result))
    classes = result.classes
    again = result.classes
    assert again == classes and again is not classes
    assert list(partition_records(result)) == records
    statuses = [c.status for c in classes]
    assert statuses == ["PROVEN" if len(c.blocks) == 1 else "CONJECTURED" for c in classes]
    undecided = 0
    for cls in classes:
        sizes = [len(block) for block in cls.blocks]
        assert sum(sizes) == cls.size
        undecided += cls.size * (cls.size - 1) // 2 - sum(s * (s - 1) // 2 for s in sizes)
    assert result.conjectured() == [c for c in classes if c.status == "CONJECTURED"]
    assert result.undecided_pairs() == undecided
    summary = partition_summary(result)
    assert summary == {
        "p": list(result.perm),
        "n_max": result.n_max,
        "gamma": result.gamma_used,
        "classes": len(classes),
        "proven": statuses.count("PROVEN"),
        "conjectured": statuses.count("CONJECTURED"),
        "undecided_pairs": undecided,
    }


def assert_records_match_oracle(result):
    """The text records are, byte for byte, ``json.dumps`` of the oracle's
    dicts, and they head the report lines."""
    records = list(partition_records(result))
    assert records == [json.dumps(r) for r in partition_record_oracle(result)]
    assert list(partition_lines(result))[:-1] == records


@pytest.fixture(scope="module")
def partition_123_depth_4():
    return partition_meshes((1, 2, 3), 4)


class TestPartitionLength3:
    def test_records_are_the_oracle_dumped(self, partition_123_depth_4):
        assert_records_match_oracle(partition_123_depth_4)

    def test_summary(self, partition_123_depth_4):
        s = partition_summary(partition_123_depth_4)
        assert (s["classes"], s["proven"], s["conjectured"], s["undecided_pairs"]) == (
            1024,
            65,
            959,
            6600310,
        )

    def test_report_is_streamed(self, partition_123_depth_4):
        lines = partition_lines(partition_123_depth_4)
        assert iter(lines) is lines  # an iterator, not a list of the lines
        tracemalloc.start()
        try:
            total = sum(len(line) + 1 for line in lines)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # a line at a time is alive, never the whole 9 MB report
        assert peak < total / 4

    def test_blocks_map_onto_blocks_under_the_stabilizer(self, partition_123_depth_4):
        p = (1, 2, 3)
        stabilizer = [s for s in SYMMETRIES if s != "id" and apply_symmetry_perm(s, p) == p]
        assert sorted(stabilizer) == ["i", "rc", "rci"]
        blocks = {frozenset(b) for c in partition_123_depth_4.classes for b in c.blocks}
        for sym in stabilizer:
            for block in blocks:
                assert frozenset(apply_symmetry_mask(sym, 3, m) for m in block) in blocks

    def test_counts_read_off_the_arrays_match_the_classes(self, partition_123_depth_4):
        assert_counts_match_the_classes(partition_123_depth_4)

    def test_result_is_not_hashable(self, partition_123_depth_4):
        # its blocks and classes are int arrays, which do not hash
        with pytest.raises(TypeError, match="unhashable"):
            hash(partition_123_depth_4)

    def test_blocks_lie_inside_one_signature_group(self, partition_123_depth_4):
        sigs = partition_123_depth_4.signatures
        for cls in partition_123_depth_4.classes:
            assert sorted(m for b in cls.blocks for m in b) == list(cls.meshes)
            assert {sigs[m] for m in cls.meshes} == {sigs[cls.representative]}


def assert_shape_rules_hold(result):
    """The classical, vincular and isolating rules hold in the blocks of a
    partition, whose closure is given none of their edges: all meshes with
    no enclosed diagonal share one block, column-union meshes with one
    diagonal core share one block and so do row-union meshes, and every
    isolating mesh that single-square shading grows from its core lies in
    that core's block."""
    p = result.perm
    k = len(p)
    width = k + 1
    block_of = {m: block for cls in result.classes for block in cls.blocks for m in block}
    assert len(block_of) == 1 << width * width
    classical = set()
    for mesh in block_of:
        pattern = MeshPattern(p, mesh)
        core = enc_core_mask(pattern)
        if not core:
            classical.add(block_of[mesh])
        elif classify_family(pattern).isolating:
            if single_shading_chain(p, core, mesh) is not None:
                assert block_of[mesh] == block_of[core], (p, mesh)
    assert len(classical) == 1
    for line in (
        lambda a: sum(square_bit(k, a, b) for b in range(width)),  # columns
        lambda b: sum(square_bit(k, a, b) for a in range(width)),  # rows
    ):
        by_core = {}
        for chosen in itertools.product((0, 1), repeat=width):
            mesh = sum(line(i) for i in range(width) if chosen[i])
            by_core.setdefault(enc_core_mask(MeshPattern(p, mesh)), set()).add(block_of[mesh])
        assert all(len(blocks) == 1 for blocks in by_core.values()), p


class TestShapeRulesSubsumed:
    """The partition's closure is given only the gamma pairs; these rules
    must follow from shading and sandwiching alone.  Blocks do not depend on
    the depth, so depth 1 suffices."""

    @pytest.mark.parametrize(
        "p, use_gamma",
        [((1,), True), ((1, 2), True), ((1, 2), False), ((2, 1), True), ((1, 3, 2), True)],
    )
    def test_small_patterns(self, p, use_gamma):
        assert_shape_rules_hold(partition_meshes(p, 1, use_gamma))

    def test_123(self, partition_123_depth_4):
        assert_shape_rules_hold(partition_123_depth_4)


@pytest.mark.parametrize("p", [(1,), (1, 2), (2, 1)])
@pytest.mark.parametrize("use_gamma", [True, False])
def test_partition_steps_replay(p, use_gamma):
    # the whole-cube closure partition_meshes runs: every class's own steps
    # prove each member coincident with its representative
    given = certify.gamma_steps(p) if use_gamma else ()
    closure = ssl_closure(p, range(1 << (len(p) + 1) ** 2), given=given)
    result = partition_meshes(p, 4, use_gamma)
    assert {c.meshes for c in closure.classes} == {b for c in result.classes for b in c.blocks}
    for cls in closure.classes:
        assert {step.rule for step in cls.steps} <= {"SSL", "CLOSURE", "GAMMA"}
        rep = cls.meshes[0]
        for member in cls.meshes[1:]:
            assert verify_trace(ProofTrace(p, rep, member, cls.steps)), (p, member)


def probe_unions(p, meshes):
    """Per mesh, in order: the squares its passing single probes add, and
    the squares its passing pair probes add.  The meshes are probed
    bit-sliced in runs of 4096, and each option vector is read once."""
    probes = shading._compiled(p)
    count = len(probes)
    out, seen = [], {}
    for start in range(0, len(meshes), 4096):
        vectors = shading._batch_vectors(p, meshes[start : start + 4096])
        for t in range(len(vectors) // count):
            vector = vectors[t * count : (t + 1) * count]
            if vector not in seen:
                added = {"single": 0, "pair": 0}
                for (assignment, bits, *_), passed in zip(probes, vector):
                    if passed:
                        added[assignment.kind] |= bits
                seen[vector] = added["single"], added["pair"]
            out.append(seen[vector])
    return out


def one_square_ledger(p, n_max):
    """Every one-square edge m -> m | {s} over ``p``, counted as licensed (a
    passing single probe of m adds s), closure (else m and m | {s} share a
    proven block), tied (else they share a class at depth ``n_max``) or
    refuted (two classes)."""
    result = partition_meshes(p, n_max)
    block_of, class_of = {}, {}
    for c, cls in enumerate(result.classes):
        for block in cls.blocks:
            for m in block:
                block_of[m], class_of[m] = block, c
    size = (len(p) + 1) ** 2
    counts = {"licensed": 0, "closure": 0, "tied": 0, "refuted": 0}
    for m, (singles, _) in enumerate(probe_unions(p, range(1 << size))):
        for s in bit_indices(~m & (1 << size) - 1):
            after = m | 1 << s
            if singles >> s & 1:
                counts["licensed"] += 1
            elif block_of[m] is block_of[after]:
                counts["closure"] += 1
            elif class_of[m] == class_of[after]:
                counts["tied"] += 1
            else:
                counts["refuted"] += 1
    return tuple(counts.values())


@pytest.mark.parametrize(
    "p, counts",
    [((1,), (12, 0, 0, 20)), ((1, 2), (421, 172, 0, 1711)), ((2, 1), (421, 172, 0, 1711))],
)
def test_one_square_ledger_at_depth_7(p, counts):
    # licensed, closure, tied and refuted edges; at k <= 2 none is tied
    assert one_square_ledger(p, 7) == counts


@pytest.mark.parametrize("p", [(1, 2, 3), (1, 3, 2)])
def test_single_probes_stay_in_their_block_and_pairs_add_no_new_square(p):
    # over the whole cube: every licensed edge joins two meshes of one block
    # of the partition's closure and keeps the mesh's containment signature
    # up to depth 5, and no passing pair probe of a mesh adds a square that
    # none of its passing single probes adds.  The closure expands with the
    # same probes, so only the signatures can catch an unsound one: with the
    # northeast single's column line dropped, no edge leaves its block, but
    # 44,872 edges of the 123 cube and 47,505 of the 132 cube change their
    # signature.
    size = 1 << (len(p) + 1) ** 2
    closure = ssl_closure(p, range(size), given=certify.gamma_steps(p), steps=False)
    block = [0] * size
    for b, cls in enumerate(closure.classes):
        for m in cls.meshes:
            block[m] = b
    sigs = containment_signatures(p, 5)
    leaving = changed = extra = 0
    for m, (singles, pairs) in enumerate(probe_unions(p, range(size))):
        leaving += sum(block[m | 1 << s] != block[m] for s in bit_indices(singles))
        changed += sum(sigs[m | 1 << s] != sigs[m] for s in bit_indices(singles))
        extra += pairs & ~singles != 0
    assert (leaving, changed, extra) == (0, 0, 0)


# each record type, built from a mask: equal masks give equal records
RECORDS = {
    "TraceStep": lambda m: TraceStep("CLASSICAL", (1, 2), 0, m),
    "ShadeMove": lambda m: ShadeMove((Assignment((1, 1), "single", "NE", ((1, 1),)),), m),
    "ClosureClass": lambda m: ClosureClass((0, m), (TraceStep("CLASSICAL", (1, 2), 0, m),)),
    "PartitionClass": lambda m: PartitionClass((0, m), "PROVEN", ((0, m),)),
    "CoincidenceVerdict": lambda m: CoincidenceVerdict("UNDECIDED", 7, reason=("disconnected", m)),
    "DistinguishingWitness": lambda m: DistinguishingWitness((2, 1, 3), m == 1),
}


class TestRecordTypes:
    @pytest.mark.parametrize("make", RECORDS.values(), ids=list(RECORDS))
    def test_rejects_attribute_assignment(self, make):
        record = make(1)
        for name in record._fields + ("extra",):
            with pytest.raises(AttributeError):
                setattr(record, name, 0)
        assert record == make(1)

    @pytest.mark.parametrize("make", RECORDS.values(), ids=list(RECORDS))
    def test_hashes_and_compares_by_value(self, make):
        a, b, other = make(1), make(1), make(2)
        assert a is not b
        assert a == b and hash(a) == hash(b)
        assert a != other
        assert len({a, b, other}) == 2

    def test_records_unpack_like_tuples(self):
        closure = ssl_closure((1, 2), [0, msk(2, [(0, 0)])])
        meshes, steps = next(c for c in closure.classes if c.steps)
        rule, perm, before, after, detail = steps[0]
        assert (rule, perm) == ("SSL", (1, 2)) and after & ~before
        assert detail == steps[0].detail
        assignments, added = ssl_moves(MeshPattern((1, 2), before))[0]
        assert added and all(isinstance(a, Assignment) for a in assignments)
        cls = partition_meshes((1,), 3).classes[0]
        meshes, status, blocks = cls
        assert (meshes, status, blocks) == (cls.meshes, "PROVEN", (cls.meshes,))
        assert cls.size == len(meshes) and cls.representative == meshes[0]

    def test_verdict_and_witness_unpack_in_field_order(self):
        a, b = parse_mesh_pattern("21"), parse_mesh_pattern("21:(0,0)(1,1)(2,2)")
        verdict = decide_coincidence(a, b, 5)
        status, depth, trace, witness, contains_first, reason = verdict
        assert (status, depth, trace, witness, contains_first, reason) == (
            "REFUTED", 5, None, (1, 3, 2), True, None
        )
        perm, contains_first = enc_witness(a, b)
        assert (perm, contains_first) == (verdict.witness, verdict.witness_contains_first)
        # equal to the plain tuple of their fields
        assert verdict == tuple(verdict) and enc_witness(a, b) == ((1, 3, 2), True)
