"""Family classifiers, pairwise coincidence decisions with certificates, and
the partition of a pattern's whole mesh space into coincidence classes.

The decision pipeline refutes cheaply before it proves: underlying patterns
must match, enclosed diagonals must match, truncated avoidance sets must
match, and only then does the proof search run.  Equal truncations are never
promoted to coincidence on their own; a pair the proof rules cannot connect
stays UNDECIDED, because coincidences beyond these rules do exist.
"""

from __future__ import annotations

import itertools
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

from .perm import (
    SYMMETRIES,
    Perm,
    all_perms,
    apply_symmetry_perm,
    inverse_symmetry,
    is_sum_decomposable,
    lex_unrank,
    make_perm,
    perm_text,
)
from .mesh import (
    Fingerprint,
    MeshPattern,
    contains,
    default_depth,
    fingerprints_many,
    full_grid_mask,
    host_region_masks,
    mask_to_squares,
    mesh_pattern_to_json,
    square_bit,
    squares_to_mask,
)
from .diagonals import (
    apply_symmetry_mask,
    apply_symmetry_mesh,
    diagonal_to_json,
    enc_core_mask,
    enc_witness,
    enclosed_diagonals,
    map_mask,
    pointless_mask,
    same_enc,
    sorted_diagonals,
    symmetry_tables,
)
from .shading import (
    Assignment,
    ProofTrace,
    TraceStep,
    UnionFind,
    shadeable_pairs,
    shadeable_singles,
    ssl_closure,
    ssl_moves,
)


@dataclass(frozen=True)
class FamilyTags:
    vincular: bool
    bivincular: bool
    isolating: bool
    sparse: bool


@lru_cache(maxsize=64)
def _family_masks(p: Perm) -> tuple:
    """Masks the family predicates test, per pattern: each column, each row,
    the squares that are not pointless, and for every square the union of
    the two columns and two rows adjacent to it."""
    k = len(p)
    width = k + 1
    columns = tuple(sum(square_bit(k, a, b) for b in range(width)) for a in range(width))
    rows = tuple(sum(square_bit(k, a, b) for a in range(width)) for b in range(width))

    def line(masks: tuple[int, ...], index: int) -> int:
        return masks[index] if 0 <= index <= k else 0

    adjacent = tuple(
        line(columns, a - 1) | line(columns, a + 1) | line(rows, b - 1) | line(rows, b + 1)
        for a in range(width)
        for b in range(width)
    )
    return columns, rows, full_grid_mask(k) & ~pointless_mask(p), adjacent


def classify_family(pi: MeshPattern) -> FamilyTags:
    """Evaluate the mesh-shape predicates on the mask.

    vincular: union of complete columns; bivincular: union of complete rows
    and columns; isolating: no shaded square sits in a row or column adjacent
    to a non-pointless shaded square; sparse: at most one shaded square per
    row and per column.
    """
    mask = pi.mask
    columns, rows, pointed, adjacent = _family_masks(pi.perm)
    full_columns = 0
    sparse = True
    for line in columns:
        shaded = mask & line
        if shaded == line:
            full_columns |= line
        sparse = sparse and shaded & (shaded - 1) == 0
    full_rows = 0
    for line in rows:
        shaded = mask & line
        if shaded == line:
            full_rows |= line
        sparse = sparse and shaded & (shaded - 1) == 0
    vincular = mask & ~full_columns == 0
    bivincular = mask & ~(full_columns | full_rows) == 0
    isolating = True
    rest = mask & pointed
    while rest:
        low = rest & -rest
        if mask & adjacent[low.bit_length() - 1]:
            isolating = False
            break
        rest ^= low
    return FamilyTags(vincular, bivincular, isolating, sparse)


GAMMA_1 = MeshPattern((1, 2), squares_to_mask(2, ((0, 1), (0, 2), (1, 1), (1, 2), (2, 0))))
GAMMA_2 = MeshPattern((1, 2), squares_to_mask(2, ((0, 2), (1, 0), (1, 1), (2, 0), (2, 1))))


@lru_cache(maxsize=1)
def _gamma_orientations() -> tuple[tuple[str, MeshPattern, MeshPattern], ...]:
    return tuple(
        (sym, apply_symmetry_mesh(sym, GAMMA_1), apply_symmetry_mesh(sym, GAMMA_2))
        for sym in SYMMETRIES
    )


def contains_gamma_oracle(w: Perm) -> bool:
    """Independent containment test for both gamma patterns: either one is
    contained exactly in the sum-decomposable permutations."""
    return is_sum_decomposable(w)


# ---------------------------------------------------------------------------
# Pairwise proof rules.  Each returns trace steps or None; None never means
# "not coincident", only "this rule does not apply".

def classical_rule(pi: MeshPattern, pi2: MeshPattern) -> list[TraceStep] | None:
    """Both meshes entirely superfluous: each pattern equals its classical core."""
    if pi.perm != pi2.perm:
        return None
    if enclosed_diagonals(pi) or enclosed_diagonals(pi2):
        return None
    return [TraceStep("CLASSICAL", pi.perm, pi.mask, pi2.mask)]


def vincular_rule(pi: MeshPattern, pi2: MeshPattern) -> list[TraceStep] | None:
    """Column-union meshes with equal enclosed diagonals are coincident."""
    if pi.perm != pi2.perm:
        return None
    if not (classify_family(pi).vincular and classify_family(pi2).vincular):
        return None
    if not same_enc(pi, pi2):
        return None
    if pi.k > 3 and pi.mask != pi2.mask:
        # Each shaded column of a length > 3 pattern keeps a pointless
        # square, so equal diagonals force equal meshes.
        raise AssertionError(
            f"distinct column-union meshes with equal diagonals at k={pi.k}"
        )
    return [TraceStep("VINCULAR", pi.perm, pi.mask, pi2.mask)]


def _single_shading_chain(
    p: Perm, start: int, target: int
) -> list[TraceStep] | None:
    """Grow ``start`` to ``target`` one shadeable single square at a time."""
    if start & ~target:
        return None
    k = len(p)
    current = start
    steps: list[TraceStep] = []
    while current != target:
        for point, sq, direction in shadeable_singles(MeshPattern(p, current)):
            bit = square_bit(k, *sq)
            if target & bit and not current & bit:
                steps.append(
                    TraceStep(
                        "SL",
                        p,
                        current,
                        current | bit,
                        (Assignment(point, "single", direction, (sq,)),),
                    )
                )
                current |= bit
                break
        else:
            return None
    return steps


def isolating_rule(pi: MeshPattern, pi2: MeshPattern) -> list[TraceStep] | None:
    """Isolating meshes with equal enclosed diagonals: derive both from the
    shared diagonal core by single-square shading.  If a derivation gets
    stuck the rule stays silent rather than asserting the conclusion."""
    if pi.perm != pi2.perm:
        return None
    if not (classify_family(pi).isolating and classify_family(pi2).isolating):
        return None
    if not same_enc(pi, pi2):
        return None
    core = enc_core_mask(pi)
    chain1 = _single_shading_chain(pi.perm, core, pi.mask)
    chain2 = _single_shading_chain(pi.perm, core, pi2.mask)
    if chain1 is None or chain2 is None:
        return None
    marker = TraceStep("ISOLATING", pi.perm, pi.mask, pi2.mask, ("core", core))
    return chain1 + chain2 + [marker]


def gamma_rule(pi: MeshPattern, pi2: MeshPattern) -> list[TraceStep] | None:
    """The one length-2 coincidence beyond shading: the pair of meshes whose
    containment means sum-decomposability, in any symmetric orientation."""
    want = {(pi.perm, pi.mask), (pi2.perm, pi2.mask)}
    for sym, g1, g2 in _gamma_orientations():
        if want == {(g1.perm, g1.mask), (g2.perm, g2.mask)}:
            return [TraceStep("GAMMA", pi.perm, pi.mask, pi2.mask, (sym,))]
    return None


# ---------------------------------------------------------------------------
# Trace verification: replay every step, rechecking its precondition.

def _assignment_valid(pi: MeshPattern, assignment: Assignment) -> bool:
    if assignment.kind == "single":
        want = (assignment.point, assignment.squares[0], assignment.direction)
        return want in shadeable_singles(pi)
    want = (assignment.point, tuple(assignment.squares), assignment.direction)
    return want in shadeable_pairs(pi)


def verify_trace(trace: ProofTrace) -> bool:
    """Recheck every step of a proof trace and its final connectivity."""
    uf = UnionFind()

    def key(perm: Perm, mask: int):
        return (perm, mask)

    for step in trace.steps:
        k = len(step.perm)
        pattern = MeshPattern(step.perm, step.before)
        if step.rule in ("SL", "SSL"):
            added = step.after & ~step.before
            union = 0
            points = set()
            for a in step.detail:
                if not _assignment_valid(pattern, a):
                    return False
                if a.point in points:
                    return False
                points.add(a.point)
                union |= squares_to_mask(k, a.squares)
            if union != added or step.after != step.before | added:
                return False
        elif step.rule == "CLOSURE":
            lo, hi = step.detail
            if lo & step.after != lo or step.after & hi != step.after:
                return False
            if uf.find(key(step.perm, lo)) != uf.find(key(step.perm, hi)):
                return False
        elif step.rule == "SYMMETRY":
            sym, src_perm, src_before, src_after = step.detail
            if apply_symmetry_perm(sym, src_perm) != step.perm:
                return False
            sk = len(src_perm)
            if apply_symmetry_mask(sym, sk, src_before) != step.before:
                return False
            if apply_symmetry_mask(sym, sk, src_after) != step.after:
                return False
            if uf.find(key(src_perm, src_before)) != uf.find(key(src_perm, src_after)):
                return False
        elif step.rule == "CLASSICAL":
            if classical_rule(pattern, MeshPattern(step.perm, step.after)) is None:
                return False
        elif step.rule == "VINCULAR":
            other = MeshPattern(step.perm, step.after)
            tags1, tags2 = classify_family(pattern), classify_family(other)
            if not (tags1.vincular and tags2.vincular and same_enc(pattern, other)):
                return False
        elif step.rule == "ISOLATING":
            other = MeshPattern(step.perm, step.after)
            tags1, tags2 = classify_family(pattern), classify_family(other)
            if not (tags1.isolating and tags2.isolating and same_enc(pattern, other)):
                return False
            # the supporting single-square chains must already connect them
            if uf.find(key(step.perm, step.before)) != uf.find(
                key(step.perm, step.after)
            ):
                return False
        elif step.rule == "GAMMA":
            if gamma_rule(pattern, MeshPattern(step.perm, step.after)) is None:
                return False
        else:
            return False
        uf.union(key(step.perm, step.before), key(step.perm, step.after))
    return uf.find(key(trace.perm, trace.source)) == uf.find(
        key(trace.perm, trace.target)
    )


# ---------------------------------------------------------------------------
# The full pairwise decision.

@dataclass(frozen=True)
class CoincidenceVerdict:
    status: str  # PROVEN_EQUAL | PROVEN_COINCIDENT | REFUTED | UNDECIDED
    depth: int
    trace: ProofTrace | None = None
    witness: Perm | None = None
    witness_contains_first: bool | None = None


_DECIDE_CLOSURE_BUDGET = 4096


def _verified_refutation(
    pi: MeshPattern, pi2: MeshPattern, w: Perm, depth: int
) -> CoincidenceVerdict:
    c1, c2 = contains(pi, w), contains(pi2, w)
    if c1 == c2:
        raise RuntimeError(f"refutation witness {w} failed verification")
    return CoincidenceVerdict(
        "REFUTED", depth, witness=w, witness_contains_first=c1
    )


def _proof_search(pi: MeshPattern, pi2: MeshPattern) -> list[TraceStep] | None:
    rules = (classical_rule, vincular_rule, isolating_rule, gamma_rule)
    for sym in SYMMETRIES:
        a = apply_symmetry_mesh(sym, pi)
        b = apply_symmetry_mesh(sym, pi2)
        for rule in rules:
            inner = rule(a, b)
            if inner is None:
                continue
            if sym == "id":
                return inner
            back = inverse_symmetry(sym)
            transfer = TraceStep(
                "SYMMETRY", pi.perm, pi.mask, pi2.mask, (back, a.perm, a.mask, b.mask)
            )
            return inner + [transfer]
    # Simultaneous shading and sandwiching connect the two meshes directly;
    # the move set is symmetry-equivariant, so one orientation suffices.
    closure = ssl_closure(
        pi.perm, (pi.mask, pi2.mask), budget=_DECIDE_CLOSURE_BUDGET
    )
    cls = closure.class_of(pi.mask)
    if cls is not None and pi2.mask in cls.meshes:
        return list(cls.steps)
    return None


def decide_coincidence(
    pi: MeshPattern, pi2: MeshPattern, n_max: int | None = None
) -> CoincidenceVerdict:
    """Decide whether two mesh patterns have the same avoidance set.

    Pipeline: identical patterns; distinct underlying permutations (the
    shorter underlying permutation already separates them); distinct
    enclosed diagonals (constructive short witness); a truncated avoidance
    sweep to ``n_max`` (lexicographically least separating permutation);
    then the proof rules over all eight symmetric orientations.  Anything
    left is honestly UNDECIDED at the reported depth.
    """
    if n_max is None:
        n_max = default_depth(max(pi.k, pi2.k))
    if pi.perm == pi2.perm and pi.mask == pi2.mask:
        return CoincidenceVerdict("PROVEN_EQUAL", n_max)
    if pi.perm != pi2.perm:
        first, second = sorted((pi, pi2), key=lambda m: m.k)
        for w in (first.perm, second.perm):
            if contains(pi, w) != contains(pi2, w):
                return _verified_refutation(pi, pi2, w, n_max)
        raise RuntimeError("distinct underlying patterns must be separable")
    if not same_enc(pi, pi2):
        witness = enc_witness(pi, pi2)
        return CoincidenceVerdict(
            "REFUTED",
            n_max,
            witness=witness.perm,
            witness_contains_first=witness.contains_first,
        )
    fp1, fp2 = fingerprints_many(pi.perm, (pi.mask, pi2.mask), n_max)
    diff = fp1.first_difference(fp2)
    if diff is not None:
        n, rank = diff
        return _verified_refutation(pi, pi2, lex_unrank(n, rank), n_max)
    steps = _proof_search(pi, pi2)
    if steps is not None:
        trace = ProofTrace(pi.perm, pi.mask, pi2.mask, tuple(steps))
        if not verify_trace(trace):
            raise RuntimeError("proof search produced an unverifiable trace")
        return CoincidenceVerdict("PROVEN_COINCIDENT", n_max, trace=trace)
    return CoincidenceVerdict("UNDECIDED", n_max)


# ---------------------------------------------------------------------------
# Whole-space partition for one underlying pattern.

@lru_cache(maxsize=4)
def _subset_bitsets(nbits: int) -> tuple[int, ...]:
    """table[x] has bit t set for every t that is a submask of x."""
    table = [0] * (1 << nbits)
    table[0] = 1
    for x in range(1, 1 << nbits):
        low = x & -x
        table[x] = table[x ^ low] | (table[x ^ low] << low)
    return tuple(table)


def _signature_chunk(args) -> list[int]:
    p, n_max, lo, hi = args
    hosts = []
    for n in range(1, n_max + 1):
        for w in all_perms(n):
            hosts.append(host_region_masks(p, w))
    out = []
    for mesh in range(lo, hi):
        sig = 0
        for h, masks in enumerate(hosts):
            for m in masks:
                if m & mesh == 0:
                    sig |= 1 << h
                    break
        out.append(sig)
    return out


@lru_cache(maxsize=8)
def containment_signatures(p: Perm, n_max: int) -> tuple[int, ...]:
    """For every mesh over ``p``'s grid, the containment indicator over all
    hosts of size 1..n_max (one bit per host, sizes concatenated, lex order
    within each size).

    The hosts' occurrence structure is computed once and shared by all
    meshes; for grids up to 9 squares the per-host mesh sweep collapses to
    submask-closure bit tricks.
    """
    p = make_perm(p)
    k = len(p)
    nbits = (k + 1) ** 2
    total = 1 << nbits
    if nbits <= 9:
        subsets = _subset_bitsets(nbits)
        full = total - 1
        sigs = [0] * total
        host_index = 0
        for n in range(1, n_max + 1):
            for w in all_perms(n):
                cover = 0
                for m in host_region_masks(p, w):
                    cover |= subsets[full ^ m]
                if cover:
                    bit = 1 << host_index
                    for mesh in range(total):
                        if (cover >> mesh) & 1:
                            sigs[mesh] |= bit
                host_index += 1
        return tuple(sigs)
    return tuple(_signature_chunk((p, n_max, 0, total)))


def containment_signatures_parallel(
    p: Perm, n_max: int, threads: int
) -> tuple[int, ...]:
    """Signature table with the mesh space split across worker processes.
    Only worth it for the 16-square grids of length-3 patterns."""
    p = make_perm(p)
    nbits = (len(p) + 1) ** 2
    if threads <= 1 or nbits <= 9:
        return containment_signatures(p, n_max)
    total = 1 << nbits
    step = (total + threads - 1) // threads
    chunks = [(p, n_max, lo, min(lo + step, total)) for lo in range(0, total, step)]
    with ProcessPoolExecutor(max_workers=threads) as pool:
        parts = list(pool.map(_signature_chunk, chunks))
    return tuple(itertools.chain.from_iterable(parts))


@dataclass(frozen=True)
class PartitionClass:
    meshes: tuple[int, ...]
    status: str  # "PROVEN" | "CONJECTURED"
    blocks: tuple[tuple[int, ...], ...]  # proven sub-blocks

    @property
    def size(self) -> int:
        return len(self.meshes)

    @property
    def representative(self) -> int:
        return self.meshes[0]


@dataclass(frozen=True)
class PartitionResult:
    perm: Perm
    n_max: int
    gamma_used: bool
    classes: tuple[PartitionClass, ...]
    signatures: tuple[int, ...]

    def conjectured(self) -> list[PartitionClass]:
        return [c for c in self.classes if c.status == "CONJECTURED"]

    def undecided_pairs(self) -> int:
        total = 0
        for cls in self.conjectured():
            whole = cls.size * (cls.size - 1) // 2
            inside = sum(len(b) * (len(b) - 1) // 2 for b in cls.blocks)
            total += whole - inside
        return total


def default_partition_depth(k: int) -> int:
    return 7 if k <= 2 else 6


def partition_meshes(
    p: Perm,
    n_max: int | None = None,
    use_gamma: bool = True,
    max_k: int = 3,
    threads: int = 1,
) -> PartitionResult:
    """Group all meshes over ``p`` by truncated avoidance set, then try to
    prove each group's members pairwise coincident.

    Groups with distinct truncations are definitively distinct, so classes
    are the truncation groups; a class is PROVEN when the proof relation
    (shading moves, sandwiching, the mesh-shape rules, the gamma pair, and
    symmetry transfer through the stabilizer of ``p``) connects all of its
    members, and CONJECTURED otherwise, with its proven sub-blocks reported.
    """
    p = make_perm(p)
    k = len(p)
    if k > max_k:
        raise ValueError(f"partition supports patterns up to length {max_k}")
    if n_max is None:
        n_max = default_partition_depth(k)
    sigs = containment_signatures_parallel(p, n_max, threads)
    total = len(sigs)

    groups: dict[int, list[int]] = {}
    for mesh, sig in enumerate(sigs):
        groups.setdefault(sig, []).append(mesh)

    uf = UnionFind()
    for mesh in range(total):
        uf.find(mesh)
    stabilizer = [
        symmetry_tables(s, k)
        for s in SYMMETRIES
        if s != "id" and apply_symmetry_perm(s, p) == p
    ]
    pending: list[tuple[int, int]] = []
    seen_edges: set[tuple[int, int]] = set()

    def push(a: int, b: int) -> None:
        if a == b:
            return
        if sigs[a] != sigs[b]:
            raise AssertionError(
                f"proof edge joins meshes {a} and {b} over {perm_text(p)}, "
                f"whose truncated signatures differ"
            )
        edge = (a, b) if a < b else (b, a)
        if edge not in seen_edges:
            seen_edges.add(edge)
            pending.append(edge)

    def drain() -> None:
        # close the proven relation under the stabilizer symmetries
        i = 0
        while i < len(pending):
            a, b = pending[i]
            i += 1
            uf.union(a, b)
            for tables in stabilizer:
                push(map_mask(tables, a), map_mask(tables, b))
        pending.clear()

    # Shading edges over the whole mesh space, and the mesh-shape rules
    # between members of one truncation group with equal enclosed diagonals.
    buckets: dict[tuple, list[int]] = {}
    for mesh in range(total):
        pattern = MeshPattern(p, mesh)
        for move in ssl_moves(pattern):
            push(mesh, mesh | move.added)
        sig = sigs[mesh]
        core = enc_core_mask(pattern)
        if not core:
            buckets.setdefault(("classical", sig), []).append(mesh)
        tags = classify_family(pattern)
        if tags.vincular:
            buckets.setdefault(("vincular", sig, core), []).append(mesh)
        if tags.isolating and _single_shading_chain(p, core, mesh) is not None:
            buckets.setdefault(("isolating", sig, core), []).append(mesh)
    for bucket in buckets.values():
        for a, b in zip(bucket, bucket[1:]):
            push(a, b)

    if use_gamma:
        for _, g1, g2 in _gamma_orientations():
            if g1.perm == p:
                push(g1.mask, g2.mask)

    drain()

    # sandwiching inside truncation groups, to a fixpoint with symmetry
    while True:
        changed = False
        for members in groups.values():
            comps: dict[int, list[int]] = {}
            for mesh in members:
                comps.setdefault(uf.find(mesh), []).append(mesh)
            if len(comps) <= 1:
                continue
            for mesh in members:
                root = uf.find(mesh)
                for other_root, comp in comps.items():
                    if other_root == root:
                        continue
                    if any(lo & mesh == lo for lo in comp) and any(
                        mesh & hi == mesh for hi in comp
                    ):
                        push(mesh, other_root)
                        changed = True
        if not changed:
            break
        drain()

    classes = []
    for sig in sorted(groups, key=lambda s: groups[s][0]):
        members = groups[sig]
        blocks: dict[int, list[int]] = {}
        for mesh in members:
            blocks.setdefault(uf.find(mesh), []).append(mesh)
        block_tuples = tuple(
            tuple(sorted(b)) for b in sorted(blocks.values(), key=lambda b: b[0])
        )
        status = "PROVEN" if len(block_tuples) == 1 else "CONJECTURED"
        classes.append(PartitionClass(tuple(members), status, block_tuples))
    return PartitionResult(p, n_max, use_gamma, tuple(classes), sigs)


# ---------------------------------------------------------------------------
# Partition report (JSON lines) and its cache file.

def partition_records(result: PartitionResult) -> list[dict]:
    p = result.perm
    k = len(p)
    records = []
    for cls in result.classes:
        rep = MeshPattern(p, cls.representative)
        rec = {
            "p": list(p),
            "status": cls.status,
            "size": cls.size,
            "representative": mesh_pattern_to_json(rep),
            "meshes": [
                [[a, b] for a, b in mask_to_squares(k, m)] for m in cls.meshes
            ],
            "enc": [diagonal_to_json(d) for d in sorted_diagonals(rep)],
            "fingerprint": _class_fingerprint(result, cls).hex_rows(),
        }
        if cls.status == "CONJECTURED":
            rec["blocks"] = [
                [[[a, b] for a, b in mask_to_squares(k, m)] for m in block]
                for block in cls.blocks
            ]
        records.append(rec)
    return records


def _split_signature(sig: int, n_max: int) -> Fingerprint:
    from math import factorial

    rows = []
    shift = 0
    for n in range(1, n_max + 1):
        width = factorial(n)
        rows.append((sig >> shift) & ((1 << width) - 1))
        shift += width
    return Fingerprint(n_max, tuple(rows))


def _class_fingerprint(result: PartitionResult, cls: PartitionClass) -> Fingerprint:
    return _split_signature(result.signatures[cls.representative], result.n_max)


def partition_summary(result: PartitionResult) -> dict:
    return {
        "p": list(result.perm),
        "n_max": result.n_max,
        "gamma": result.gamma_used,
        "classes": len(result.classes),
        "proven": sum(1 for c in result.classes if c.status == "PROVEN"),
        "conjectured": len(result.conjectured()),
        "undecided_pairs": result.undecided_pairs(),
    }


def partition_lines(result: PartitionResult) -> list[str]:
    """The partition report as JSON lines: one record per class, then the
    summary footer."""
    lines = [json.dumps(rec) for rec in partition_records(result)]
    lines.append(json.dumps({"summary": partition_summary(result)}))
    return lines


def write_partition_cache(path: str | Path, lines: list[str]) -> None:
    """Write report lines built by :func:`partition_lines` as a cache file."""
    Path(path).write_text("\n".join(lines) + "\n")


def load_partition_cache(
    path: str | Path, p: Perm, n_max: int, use_gamma: bool = True
) -> list[dict] | None:
    """Reload a cached report; one representative fingerprint per class is
    recomputed to confirm the cache still matches this build.  Returns None
    if the file does not fit the request or fails verification."""
    p = make_perm(p)
    target = Path(path)
    if not target.exists():
        return None
    records = []
    summary = None
    try:
        for line in target.read_text().splitlines():
            if not line.strip():
                continue
            obj = json.loads(line)
            if "summary" in obj:
                summary = obj["summary"]
            else:
                records.append(obj)
    except json.JSONDecodeError:
        return None
    if summary is None or summary.get("p") != list(p) or summary.get("n_max") != n_max:
        return None
    if summary.get("gamma") != use_gamma:
        return None
    if summary.get("classes") != len(records):
        return None
    for rec in records:
        rep = rec.get("representative", {})
        if rep.get("perm") != list(p):
            return None
        mask = squares_to_mask(len(p), [tuple(sq) for sq in rep.get("mesh", ())])
        fp = fingerprints_many(p, (mask,), n_max)[0]
        if fp.hex_rows() != rec.get("fingerprint"):
            return None
    return records + [{"summary": summary}]
