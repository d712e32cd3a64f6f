import itertools
import random

import pytest

from meshcide.perm import SYMMETRIES, all_perms, apply_symmetry_perm, lex_rank
from meshcide.mesh import (
    MeshPattern,
    contains,
    fingerprints_many,
    mask_to_squares,
    square_bit,
    squares_to_mask,
)
from meshcide.diagonals import apply_symmetry_mesh, enc_square_sets, same_enc
from meshcide.shading import Assignment, ProofTrace, ShadeMove, TraceStep, shadeable_pairs
from meshcide.coincidence import (
    GAMMA_1,
    GAMMA_2,
    classical_rule,
    classify_family,
    containment_signatures,
    contains_gamma_oracle,
    decide_coincidence,
    gamma_rule,
    isolating_rule,
    load_partition_cache,
    partition_lines,
    partition_meshes,
    partition_records,
    partition_summary,
    verify_trace,
    vincular_rule,
    write_partition_cache,
    _split_signature,
)


def msk(k, squares):
    return squares_to_mask(k, squares)


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
        assert vincular_rule(bare, column) is not None

    def test_vincular_rule_requires_same_enc(self):
        a = MeshPattern.of("12", [(0, y) for y in range(3)])
        b = MeshPattern.of("12")
        assert not same_enc(a, b)
        assert vincular_rule(a, b) is None

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

    def test_isolating_rule_proves(self):
        a = MeshPattern.of("213", [(1, 2)])
        b = MeshPattern.of("213")
        steps = isolating_rule(a, b)
        assert steps is not None
        trace = ProofTrace(a.perm, a.mask, b.mask, tuple(steps))
        assert verify_trace(trace)

    def test_isolating_rule_distinct_pointless_absent(self):
        a = MeshPattern.of("231", [(1, 0)])
        b = MeshPattern.of("231", [(3, 2)])
        assert isolating_rule(a, b) is None

    def test_isolating_pairs_small_scan(self):
        # every same-enc isolating pair over 213 the rule proves really does
        # share its depth-5 truncation
        p = (2, 1, 3)
        groups = {}
        for mask in range(0, 1 << 16):
            pi = MeshPattern(p, mask)
            tags = classify_family(pi)
            if not tags.isolating:
                continue
            groups.setdefault(frozenset(enc_square_sets(pi)), []).append(mask)
        rng = random.Random(13)
        checked = 0
        for key, masks in groups.items():
            if len(masks) < 2:
                continue
            for _ in range(min(3, len(masks) // 2)):
                a, b = rng.sample(masks, 2)
                steps = isolating_rule(MeshPattern(p, a), MeshPattern(p, b))
                if steps is None:
                    continue
                fa, fb = fingerprints_many(p, (a, b), 5)
                assert fa == fb
                checked += 1
        assert checked >= 20

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


class TestDecide:
    def test_proven_equal(self):
        pi = MeshPattern.of("231", [(1, 0)])
        assert decide_coincidence(pi, pi, 5).status == "PROVEN_EQUAL"

    def test_different_patterns_refuted(self):
        v = decide_coincidence(MeshPattern.of("12"), MeshPattern.of("123"), 5)
        assert v.status == "REFUTED"
        assert v.witness == (1, 2)
        assert v.witness_contains_first is True

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
        v = decide_coincidence(GAMMA_1, GAMMA_2, 7)
        assert v.status == "PROVEN_COINCIDENT"
        assert any(s.rule == "GAMMA" for s in v.trace.steps)

    def test_rule_transfer_through_symmetry(self):
        # full rows over 312; only the transposed images are column unions
        # (their shared enclosed diagonal is the pointless corner square)
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
        for rule, valid in (("SSL", True), ("DSL", False)):
            step = TraceStep(rule, pi.perm, pi.mask, grown, detail)
            assert verify_trace(ProofTrace(pi.perm, pi.mask, grown, (step,))) is valid


class TestSignatures:
    def test_signature_matches_fingerprints(self):
        sigs = containment_signatures((1, 2), 4)
        rng = random.Random(29)
        masks = [rng.randrange(512) for _ in range(25)]
        fps = fingerprints_many((1, 2), masks, 4)
        for mask, fp in zip(masks, fps):
            assert _split_signature(sigs[mask], 4) == fp

    def test_direct_path_matches_bitset_path(self):
        from meshcide.coincidence import _signature_chunk

        sigs = containment_signatures((2, 1), 4)
        direct = _signature_chunk(((2, 1), 4, 100, 140))
        assert list(sigs[100:140]) == direct

    def test_parallel_workers_match_serial(self):
        from meshcide.coincidence import (
            _signature_chunk,
            containment_signatures_parallel,
        )

        par = containment_signatures_parallel((1, 3, 2), 3, threads=3)
        assert len(par) == 1 << 16
        probe = range(0, 1 << 16, 4099)
        for mesh in probe:
            assert [par[mesh]] == _signature_chunk(((1, 3, 2), 3, mesh, mesh + 1))


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
        import meshcide.coincidence as coincidence

        real = coincidence.ssl_moves
        # (2,0) is pointless over 12, so shading it changes the diagonals
        bogus = ShadeMove((), square_bit(2, 2, 0))

        def with_bogus_move(pi):
            return real(pi) + ([bogus] if pi.mask == 0 else [])

        monkeypatch.setattr(coincidence, "ssl_moves", with_bogus_move)
        with pytest.raises(AssertionError, match="truncated signatures differ"):
            partition_meshes((1, 2), 4)

    def test_rejects_long_patterns(self):
        with pytest.raises(ValueError):
            partition_meshes((1, 2, 3, 4), 5)

    def test_records_and_cache_round_trip(self, tmp_path):
        result = partition_meshes((1,), 5)
        records = partition_records(result)
        assert len(records) == len(result.classes)
        assert {r["status"] for r in records} == {"PROVEN"}
        out = tmp_path / "part.jsonl"
        write_partition_cache(out, partition_lines(result))
        loaded = load_partition_cache(out, (1,), 5)
        assert loaded is not None
        assert loaded[-1]["summary"]["classes"] == len(result.classes)
        # a different depth must not validate
        assert load_partition_cache(out, (1,), 6) is None

    def test_cache_rejects_corruption(self, tmp_path):
        import json

        result = partition_meshes((1,), 5)
        out = tmp_path / "part.jsonl"
        write_partition_cache(out, partition_lines(result))
        lines = out.read_text().splitlines()
        first = json.loads(lines[0])
        first["fingerprint"][0] = "0xdead"
        lines[0] = json.dumps(first)
        out.write_text("\n".join(lines) + "\n")
        assert load_partition_cache(out, (1,), 5) is None

    def test_cache_checks_gamma_flag(self, tmp_path):
        result = partition_meshes((1,), 5, use_gamma=False)
        out = tmp_path / "part.jsonl"
        write_partition_cache(out, partition_lines(result))
        assert load_partition_cache(out, (1,), 5, use_gamma=True) is None
        assert load_partition_cache(out, (1,), 5, use_gamma=False) is not None

    def test_summary_counts(self):
        result = partition_meshes((1, 2), 7, use_gamma=False)
        s = partition_summary(result)
        assert s["classes"] == s["proven"] + s["conjectured"]
        assert s["undecided_pairs"] == result.undecided_pairs()
