"""Family classifiers, pairwise coincidence decisions with certificates, and
the partition of a pattern's whole mesh space into coincidence classes.

The decision pipeline refutes cheaply before it proves: underlying patterns
must match, enclosed diagonals must match, truncated avoidance sets must
match, and only then does the proof search run.  Equal truncations are never
promoted to coincidence on their own; a pair the proof rules cannot connect
stays UNDECIDED, because coincidences beyond these rules do exist.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from math import factorial
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

from .perm import (
    SYMMETRIES,
    Perm,
    is_sum_decomposable,
    lex_unrank,
    make_perm,
    perm_text,
)
from .mesh import (
    MeshPattern,
    check_depth,
    containment_signatures,
    contains,
    default_depth,
    first_separation,
    square_bit,
    squares_to_mask,
    _square_tables,
)
from .diagonals import (
    apply_symmetry_mesh,
    diagonal_to_json,
    enc_core_mask,
    enc_witness,
    pointless_mask,
    same_enc,
    _diagonal_candidates,
)
from .shading import (
    ProofTrace,
    TraceStep,
    UnionFind,
    shadeable_assignments,
    ssl_closure,
)


@dataclass(frozen=True)
class FamilyTags:
    vincular: bool
    bivincular: bool
    isolating: bool
    sparse: bool


def classify_family(pi: MeshPattern) -> FamilyTags:
    """Read the mesh-shape tags off the shaded squares, from the number of
    them in each column and each row.

    vincular: every shaded square lies in a full column; bivincular: every
    shaded square lies in a full column or a full row; isolating: no shaded
    square that is not pointless has a shaded square in an adjacent column
    or row; sparse: no column or row holds more than one shaded square.
    """
    k = pi.k
    squares = pi.squares
    columns = Counter(a for a, _ in squares)
    rows = Counter(b for _, b in squares)
    vincular = all(columns[a] == k + 1 for a, _ in squares)
    bivincular = all(columns[a] == k + 1 or rows[b] == k + 1 for a, b in squares)
    pointless = pointless_mask(pi.perm)
    isolating = not any(
        columns[a - 1] or columns[a + 1] or rows[b - 1] or rows[b + 1]
        for a, b in squares
        if not pointless & square_bit(k, a, b)
    )
    sparse = all(count <= 1 for count in (*columns.values(), *rows.values()))
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
    if enc_core_mask(pi) or enc_core_mask(pi2):
        return None
    return [TraceStep("CLASSICAL", pi.perm, pi.mask, pi2.mask)]


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

def _well_formed(perm, *masks) -> bool:
    """Is ``perm`` a permutation tuple, and is every mask one over its grid?"""
    try:
        make_perm(perm)
    except (TypeError, ValueError):
        return False
    size = 1 << (len(perm) + 1) ** 2
    return isinstance(perm, tuple) and all(isinstance(m, int) and 0 <= m < size for m in masks)


def verify_trace(trace: ProofTrace) -> bool:
    """Recheck every step of a proof trace and its final connectivity.  A
    malformed trace or step (not a ``ProofTrace``, steps that are not
    ``TraceStep``s, no permutation, a mesh outside the grid, or a detail of
    the wrong shape) fails like any unsound one."""
    if not isinstance(trace, ProofTrace) or not _well_formed(
        trace.perm, trace.source, trace.target
    ):
        return False
    try:
        steps = iter(trace.steps)
    except TypeError:  # no steps at all, not even an empty tuple
        return False
    uf = UnionFind()
    # the assignments each (perm, mesh) licenses, with their masks, probed once
    licensed: dict[tuple[Perm, int], dict] = {}

    for step in steps:
        # a plain tuple compares equal to a TraceStep but has no fields
        if not isinstance(step, TraceStep):
            return False
        if not _well_formed(step.perm, step.before, step.after):
            return False
        if step.rule == "SSL":
            if not isinstance(step.detail, tuple):
                return False
            # every assignment must be one the mesh licenses, whole
            at = (step.perm, step.before)
            if at not in licensed:
                licensed[at] = dict(shadeable_assignments(*at))
            valid = licensed[at]
            union = 0
            points = set()
            for a in step.detail:
                try:
                    bits = valid.get(a)
                except TypeError:  # an unhashable look-alike
                    return False
                if bits is None or a.point in points:
                    return False
                points.add(a.point)
                union |= bits
            if union != step.after & ~step.before or step.after != step.before | union:
                return False
        elif step.rule == "CLOSURE":
            detail = step.detail
            if not (isinstance(detail, tuple) and len(detail) == 2):
                return False
            if not _well_formed(step.perm, *detail):
                return False
            lo, hi = detail
            if lo & step.after != lo or step.after & hi != step.after:
                return False
            if uf.find((step.perm, lo)) != uf.find((step.perm, hi)):
                return False
        elif step.rule in ("CLASSICAL", "GAMMA"):
            rule = classical_rule if step.rule == "CLASSICAL" else gamma_rule
            pair = MeshPattern(step.perm, step.before), MeshPattern(step.perm, step.after)
            if rule(*pair) is None:
                return False
        else:
            return False
        uf.union((step.perm, step.before), (step.perm, step.after))
    return uf.find((trace.perm, trace.source)) == uf.find((trace.perm, trace.target))


# ---------------------------------------------------------------------------
# The full pairwise decision.

@dataclass(frozen=True)
class CoincidenceVerdict:
    status: str  # PROVEN_EQUAL | PROVEN_COINCIDENT | REFUTED | UNDECIDED
    depth: int
    trace: ProofTrace | None = None
    witness: Perm | None = None
    witness_contains_first: bool | None = None
    # why an UNDECIDED pair stayed open: ("budget", meshes expanded) when the
    # closure ran out of budget, ("disconnected", closure size) when it
    # finished without joining the pair
    reason: tuple[str, int] | None = None


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


def _proof_search(
    pi: MeshPattern, pi2: MeshPattern
) -> tuple[list[TraceStep] | None, tuple[str, int] | None]:
    """Proof steps joining the pair, or None with the reason the closure
    gave up."""
    for rule in (classical_rule, gamma_rule):
        steps = rule(pi, pi2)
        if steps is not None:
            return steps, None
    # Simultaneous shading and sandwiching connect the two meshes directly;
    # the move set is symmetry-equivariant, so one orientation suffices.
    # It also joins the column-union and row-union pairs, the only pairs a
    # rule proved just in another orientation, so the rules above run in
    # this one (gamma_rule checks every orientation itself).  The meet is a
    # seed too: single-square shading grows it to both meshes of an
    # isolating pair, which the closure of the two meshes alone may miss.
    # The closure stops at the merge that joins the pair, so the proof is
    # the pair's class log at that moment.
    seeds = (pi.mask, pi2.mask, pi.mask & pi2.mask)
    closure = ssl_closure(
        pi.perm, seeds, budget=_DECIDE_CLOSURE_BUDGET, goal=(pi.mask, pi2.mask)
    )
    cls = closure.class_of(pi.mask)
    if cls is not None and pi2.mask in cls.meshes:
        return list(cls.steps), None
    if closure.complete:
        return None, ("disconnected", closure.size)
    return None, ("budget", closure.expanded)


def decide_coincidence(
    pi: MeshPattern, pi2: MeshPattern, n_max: int | None = None
) -> CoincidenceVerdict:
    """Decide whether two mesh patterns have the same avoidance set.

    Pipeline: identical patterns; distinct underlying permutations (the
    shorter underlying permutation already separates them); distinct
    enclosed diagonals (constructive short witness); a truncated avoidance
    sweep to ``n_max`` (lexicographically least separating permutation),
    which goes size by size and stops at the first size that separates the
    pair, though the host tables are built through ``n_max`` first; then
    the classical and gamma rules, and last the shading closure of the
    pair and its meet (the squares both shade), stopped as soon as it joins
    the pair.  Anything left is honestly
    UNDECIDED at the reported depth, with the reason the closure gave up.
    A depth outside ``1..MAX_DEPTH`` raises ``ValueError`` before any work.
    """
    if n_max is None:
        n_max = default_depth(max(pi.k, pi2.k))
    check_depth(n_max)
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
    diff = first_separation(pi.perm, pi.mask, pi2.mask, n_max)
    if diff is not None:
        n, rank = diff
        return _verified_refutation(pi, pi2, lex_unrank(n, rank), n_max)
    steps, reason = _proof_search(pi, pi2)
    if steps is not None:
        trace = ProofTrace(pi.perm, pi.mask, pi2.mask, tuple(steps))
        if not verify_trace(trace):
            raise RuntimeError("proof search produced an unverifiable trace")
        return CoincidenceVerdict("PROVEN_COINCIDENT", n_max, trace=trace)
    return CoincidenceVerdict("UNDECIDED", n_max, reason=reason)


# ---------------------------------------------------------------------------
# Whole-space partition for one underlying pattern.

def containment_signatures_parallel(
    p: Perm, n_max: int, threads: int
) -> tuple[int, ...]:
    """Deprecated: ``threads`` is ignored; call ``containment_signatures``."""
    return containment_signatures(p, n_max)


class PartitionClass(NamedTuple):
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


def _gamma_steps(p: Perm) -> list[TraceStep]:
    """The gamma pairs over ``p``, one step per symmetric orientation."""
    return [
        TraceStep("GAMMA", p, g1.mask, g2.mask, (sym,))
        for sym, g1, g2 in _gamma_orientations()
        if g1.perm == p
    ]


def partition_meshes(
    p: Perm,
    n_max: int | None = None,
    use_gamma: bool = True,
) -> PartitionResult:
    """Group all meshes over ``p`` by truncated avoidance set, then try to
    prove each group's members pairwise coincident.

    Groups with distinct truncations are definitively distinct, so classes
    are the truncation groups.  The proof relation is :func:`ssl_closure`
    over every mesh: simultaneous shading and sandwiching, given only the
    gamma pairs (when ``use_gamma``).  Over the whole cube that closure
    already derives the classical, vincular and isolating rules, so the
    blocks do not depend on the depth, and every step of a class replays
    under :func:`verify_trace`.  A class is PROVEN when the relation
    connects all of its members, and CONJECTURED otherwise, with its
    proven sub-blocks reported.
    A proof block that spans two truncations is an ``AssertionError``.  A
    depth outside ``1..MAX_DEPTH`` raises ``ValueError`` before any work,
    and so does a pattern or depth that ``containment_signatures`` rejects.
    """
    p = make_perm(p)
    k = len(p)
    if n_max is None:
        n_max = default_partition_depth(k)
    check_depth(n_max)
    sigs = containment_signatures(p, n_max)
    closure = ssl_closure(p, range(len(sigs)), given=_gamma_steps(p) if use_gamma else ())

    # blocks come sorted by least member, so groups do too
    groups: dict[int, list[tuple[int, ...]]] = {}
    for block in closure.classes:
        meshes = block.meshes
        rep = meshes[0]
        sig = sigs[rep]
        if len(meshes) > 1 and not all(map(sig.__eq__, map(sigs.__getitem__, meshes))):
            mesh = next(m for m in meshes if sigs[m] != sig)
            raise AssertionError(
                f"proof edges join meshes {rep} and {mesh} over {perm_text(p)}, "
                f"whose truncated signatures differ"
            )
        groups.setdefault(sig, []).append(meshes)
    classes = []
    for blocks in groups.values():
        if len(blocks) == 1:  # a block is sorted already
            classes.append(PartitionClass(blocks[0], "PROVEN", tuple(blocks)))
        else:
            members = tuple(sorted(m for block in blocks for m in block))
            classes.append(PartitionClass(members, "CONJECTURED", tuple(blocks)))
    return PartitionResult(p, n_max, use_gamma, tuple(classes), sigs)


# ---------------------------------------------------------------------------
# Partition report (JSON lines) and its cache file.

@lru_cache(maxsize=16)
def _square_text_tables(k: int) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The JSON text of the squares in the low and the high byte of a mask,
    each square followed by ``", "``: byte 0x05 of a k=3 mask gives
    ``"[0, 0], [0, 2], "``.  A partition's masks have at most 16 bits, as
    its pattern is at most ``MAX_SIGNATURE_LENGTH`` long, so the two
    tables cover them."""
    tables = tuple(
        tuple("".join(f"[{a}, {b}], " for a, b in squares) for squares in table)
        for table in _square_tables(k)
    )
    return tables + (("",),) * (2 - len(tables))


def partition_records(result: PartitionResult) -> Iterator[str]:
    """One JSON line per class, written as text and yielded one at a time:
    the keys ``p``, ``status``, ``size``, ``representative``, ``meshes``,
    ``enc``, ``fingerprint`` and, on CONJECTURED classes, ``blocks``, with
    ``json.dumps`` spacing."""
    p = result.perm
    low, high = _square_text_tables(len(p))
    perm = json.dumps(list(p))
    candidates = [(m, json.dumps(diagonal_to_json(d))) for m, d in _diagonal_candidates(p)]
    cuts = _row_cuts(result.n_max)
    sigs = result.signatures

    for cls in result.classes:
        meshes = cls.meshes
        rep = meshes[0]
        texts = [f"[{(low[m & 0xFF] + high[m >> 8])[:-2]}]" for m in meshes]
        enc = ", ".join(text for m, text in candidates if rep & m == m)
        rows = '", "'.join(_hex_rows(sigs[rep], cuts))
        blocks = ""
        if cls.status == "CONJECTURED":
            text_of = dict(zip(meshes, texts))
            listed = ", ".join(
                "[" + ", ".join(text_of[m] for m in block) + "]" for block in cls.blocks
            )
            blocks = f', "blocks": [{listed}]'
        yield (
            f'{{"p": {perm}, "status": "{cls.status}", "size": {len(meshes)}, '
            f'"representative": {{"perm": {perm}, "mesh": {texts[0]}}}, '
            f'"meshes": [{", ".join(texts)}], "enc": [{enc}], '
            f'"fingerprint": ["{rows}"]{blocks}}}'
        )


def _row_cuts(n_max: int) -> list[tuple[int, int]]:
    """(shift, mask) of each fingerprint row of a signature: row n is the
    next n! bits from the low end."""
    cuts = []
    shift = 0
    for n in range(1, n_max + 1):
        width = factorial(n)
        cuts.append((shift, (1 << width) - 1))
        shift += width
    return cuts


def _hex_rows(sig: int, cuts: list[tuple[int, int]]) -> list[str]:
    """A signature's fingerprint rows as the report writes them, cut at
    :func:`_row_cuts`."""
    return [hex(sig >> shift & mask) for shift, mask in cuts]


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


def partition_lines(result: PartitionResult) -> Iterator[str]:
    """The partition report as JSON lines, yielded one at a time: one record
    per class, then the summary footer.  No list of the lines is built, so
    the report never sits in memory whole."""
    yield from partition_records(result)
    yield json.dumps({"summary": partition_summary(result)})


def write_partition_cache(path: str | Path, lines: Iterable[str]) -> None:
    """Write report lines, such as those of :func:`partition_lines`, to a
    file, one line at a time."""
    with open(path, "w") as out:
        out.writelines(line + "\n" for line in lines)


def load_partition_cache(
    path: str | Path, p: Perm, n_max: int, use_gamma: bool = True
) -> list[str] | None:
    """Reload a report written by :func:`write_partition_cache` as its
    non-blank lines, once one fresh signature table confirms every record.
    No CLI path calls it: ``partition --out`` writes the report and never
    reads it back.  It stays only until the benchmark's tracer stops
    wrapping it.  The checks: the meshes cover the mesh cube exactly once,
    each record is one whole truncation group with its fingerprint,
    enclosed diagonals, representative and size, ``blocks`` appears exactly
    on CONJECTURED records and partitions their meshes, and the summary
    counts the records.  Returns None if the file is malformed (text that is
    not UTF-8 included), does not fit the request or fails a check; a
    pattern or depth that ``containment_signatures`` rejects still raises
    ``ValueError``, and a file that cannot be opened ``OSError``."""
    p = make_perm(p)
    k = len(p)
    target = Path(path)
    if not target.exists():
        return None
    # read line by line: splitting each line again keeps the line breaks of
    # str.splitlines (form feeds, file separators and the like)
    try:
        with open(target) as f:
            lines = [line for raw in f for line in raw.splitlines() if line.strip()]
    except UnicodeDecodeError:
        return None
    if not lines:
        return None
    keys = ("p", "n_max", "gamma", "classes", "proven", "conjectured", "undecided_pairs")
    try:
        summary = json.loads(lines[-1])["summary"]
        *head, proven, conjectured, undecided = (summary[key] for key in keys)
        if head != [list(p), n_max, use_gamma, len(lines) - 1]:
            return None
    except (ValueError, TypeError, KeyError, AttributeError):
        return None
    sigs = containment_signatures(p, n_max)
    candidates = [(m, diagonal_to_json(d)) for m, d in _diagonal_candidates(p)]
    cuts = _row_cuts(n_max)
    seen, groups = set(), set()
    # the summary's counts, counted down to zero record by record
    tally = {"PROVEN": proven, "CONJECTURED": conjectured}
    try:
        # one record at a time, so the decoded records never pile up
        for line in lines[:-1]:
            rec = json.loads(line)
            meshes, rep = rec["meshes"], rec["representative"]
            masks = [squares_to_mask(k, m) for m in meshes]
            if rep["perm"] != list(p) or rep["mesh"] != meshes[0] or rec["size"] != len(masks):
                return None
            sig, covered = sigs[masks[0]], len(seen)
            seen.update(masks)
            groups.add(sig)
            if len(seen) != covered + len(masks) or any(sigs[m] != sig for m in masks):
                return None
            if _hex_rows(sig, cuts) != rec["fingerprint"]:
                return None
            if rec["enc"] != [d for m, d in candidates if masks[0] & m == m]:
                return None
            if rec["status"] == "CONJECTURED":
                blocks = [[squares_to_mask(k, m) for m in block] for block in rec["blocks"]]
                members = [m for block in blocks for m in block]
                if not all(blocks) or len(members) != len(masks) or set(members) != set(masks):
                    return None
                undecided -= (len(masks) ** 2 - sum(len(block) ** 2 for block in blocks)) // 2
            elif "blocks" in rec:
                return None
            tally[rec["status"]] -= 1  # a KeyError for any other status
    except (ValueError, TypeError, KeyError, AttributeError, IndexError):
        return None
    if len(seen) != len(sigs) or len(groups) != len(lines) - 1:
        return None
    return lines if undecided == 0 and set(tally.values()) == {0} else None
