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
from itertools import accumulate, chain, pairwise, starmap
from math import factorial
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Sequence

from .perm import Perm, lex_unrank, make_perm, perm_text
from .mesh import (
    MeshPattern,
    check_depth,
    check_signature_request,
    containment_signatures,
    contains,
    default_depth,
    first_separation,
    mask_to_squares,
    square_bit,
)
from .diagonals import (
    diagonal_to_json,
    pointless_mask,
    _diagonal_candidates,
    _enclosed,
    _witness,
)
from .certify import ProofTrace, classical_rule, gamma_rule, gamma_steps, verify_trace
from .shading import _collector_paused, ssl_closure


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


# ---------------------------------------------------------------------------
# The full pairwise decision.

class CoincidenceVerdict(NamedTuple):
    status: str  # PROVEN_EQUAL | PROVEN_COINCIDENT | REFUTED | UNDECIDED
    depth: int
    trace: ProofTrace | None = None
    witness: Perm | None = None
    witness_contains_first: bool | None = None
    # why an UNDECIDED pair stayed open: ("budget", meshes added) when the
    # closure stopped at its budget, ("disconnected", closure size) when it
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


def decide_coincidence(
    pi: MeshPattern, pi2: MeshPattern, n_max: int | None = None
) -> CoincidenceVerdict:
    """Decide whether two mesh patterns have the same avoidance set.

    Pipeline: identical patterns; distinct underlying permutations (the
    shorter underlying permutation already separates them); distinct
    enclosed diagonals (constructive short witness); a truncated avoidance
    sweep to ``n_max`` (lexicographically least separating permutation),
    which goes size by size, reads each size's host table only when it
    gets there and stops at the first size that separates the pair; then
    the shading closure of the pair and its meet (the squares both shade),
    given the pair's classical or gamma step when one applies and stopped
    as soon as it joins the pair.  The proof is read off the closure: the
    steps of the pair's class, replayed by ``verify_trace``.  Anything left
    is honestly UNDECIDED at the reported depth, with the reason the
    closure gave up.
    A depth outside ``1..MAX_DEPTH`` raises ``ValueError`` before any work.
    """
    if n_max is None:
        n_max = default_depth(max(pi.k, pi2.k))
    check_depth(n_max)
    if pi.perm == pi2.perm and pi.mask == pi2.mask:
        return CoincidenceVerdict("PROVEN_EQUAL", n_max)
    if pi.perm != pi2.perm:
        # the shorter perm contains its own pattern, never the other one
        shorter = min(pi, pi2, key=lambda m: m.k)
        return _verified_refutation(pi, pi2, shorter.perm, n_max)
    # each mesh's enclosed diagonals, read once for the test and the witness
    found1, found2 = _enclosed(pi.perm, pi.mask), _enclosed(pi.perm, pi2.mask)
    if found1 != found2:
        w, c1 = _witness(pi, pi2, found1, found2)
        return CoincidenceVerdict("REFUTED", n_max, witness=w, witness_contains_first=c1)
    diff = first_separation(pi.perm, pi.mask, pi2.mask, n_max)
    if diff is not None:
        n, rank = diff
        return _verified_refutation(pi, pi2, lex_unrank(n, rank), n_max)
    # The moves are symmetry-equivariant, so this one orientation suffices.
    # The meet is a seed so that single-square shading, which grows it to
    # both meshes of an isolating pair, joins that pair.
    seeds = (pi.mask, pi2.mask, pi.mask & pi2.mask)
    given = classical_rule(pi, pi2) or gamma_rule(pi, pi2) or ()
    closure = ssl_closure(
        pi.perm, seeds, budget=_DECIDE_CLOSURE_BUDGET, given=given, goal=(pi.mask, pi2.mask)
    )
    cls = closure.class_of(pi.mask)
    if pi2.mask in cls.meshes:
        trace = ProofTrace(pi.perm, pi.mask, pi2.mask, cls.steps)
        if not verify_trace(trace):
            raise RuntimeError("proof search produced an unverifiable trace")
        return CoincidenceVerdict("PROVEN_COINCIDENT", n_max, trace=trace)
    if not closure.complete:
        return CoincidenceVerdict("UNDECIDED", n_max, reason=("budget", _DECIDE_CLOSURE_BUDGET))
    return CoincidenceVerdict("UNDECIDED", n_max, reason=("disconnected", closure.size))


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
    """A pattern's partition, its classes held in four int arrays: block b
    is ``meshes[bounds[b]:bounds[b + 1]]``, and class c is the run of blocks
    numbered ``order[cuts[c]:cuts[c + 1]]``.  ``classes`` builds each class
    as a :class:`PartitionClass` afresh on every read, and the counts read
    the arrays alone.  It compares by value but is not hashable, as arrays
    are not."""

    perm: Perm
    n_max: int
    gamma_used: bool
    signatures: tuple[int, ...]
    meshes: array  # every block's meshes, block after block
    bounds: array  # where each block starts, then where the last one ends
    order: array  # the block numbers, class after class
    cuts: array  # where each class's run of blocks starts, then the end

    def _read(self) -> Iterator[tuple[Sequence[int], list[array]]]:
        # each class as its meshes in order and its blocks, array slices
        # rather than tuples; a class of one block is that block
        meshes, bounds, order = self.meshes, self.bounds, self.order
        for lo, hi in pairwise(self.cuts):
            if hi - lo == 1:
                b = order[lo]
                block = meshes[bounds[b] : bounds[b + 1]]
                yield block, [block]
            else:
                blocks = [meshes[bounds[b] : bounds[b + 1]] for b in order[lo:hi]]
                yield sorted(chain.from_iterable(blocks)), blocks

    @staticmethod
    def _class(meshes: Sequence[int], blocks: list[array]) -> PartitionClass:
        blocks = tuple(map(tuple, blocks))
        if len(blocks) == 1:
            return PartitionClass(blocks[0], "PROVEN", blocks)
        return PartitionClass(tuple(meshes), "CONJECTURED", blocks)

    @property
    def classes(self) -> tuple[PartitionClass, ...]:
        return tuple(starmap(self._class, self._read()))

    def conjectured(self) -> list[PartitionClass]:
        return [self._class(meshes, blocks) for meshes, blocks in self._read() if len(blocks) > 1]

    def undecided_pairs(self) -> int:
        # a class of s meshes in blocks of s_1, s_2, ... meshes leaves
        # (s^2 - s_1^2 - s_2^2 - ...) / 2 of its pairs unproven
        bounds, order = self.bounds, self.order
        total = 0
        for lo, hi in pairwise(self.cuts):
            if hi - lo > 1:
                sizes = [bounds[b + 1] - bounds[b] for b in order[lo:hi]]
                total += sum(sizes) ** 2 - sum(s * s for s in sizes)
        return total // 2


@_collector_paused
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
    under :func:`verify_trace`; the partition reads only the blocks, so its
    closure builds no steps.  A class is PROVEN when the relation
    connects all of its members, and CONJECTURED otherwise, with its
    proven sub-blocks reported.
    A proof block that spans two truncations is an ``AssertionError``.  The
    depth defaults to :func:`default_depth`, as for decide; a request that
    :func:`check_signature_request` rejects (a pattern longer than
    ``MAX_SIGNATURE_LENGTH``, a depth outside ``1..MAX_DEPTH``, a table
    over ``SIGNATURE_BIT_BUDGET``) raises ``ValueError`` before any work.
    The closure runs first and the signature table is built only once the
    closure's result is gone.  From then on the blocks stay in int arrays
    through to the report: the grouping records each class as a run of
    block numbers, and no class is built until a reader asks for it.
    Like the closure, it runs with the cyclic garbage collector paused and
    leaves it as the caller had it: the signature table is an acyclic tuple
    of ints, which reference counting frees.
    """
    p = make_perm(p)
    if n_max is None:
        n_max = default_depth(len(p))
    check_signature_request(p, n_max)
    given = gamma_steps(p) if use_gamma else ()
    size = 1 << (len(p) + 1) ** 2
    # the blocks are the closure's classes, sorted by least member; array
    # loads here, not with the module, so a process that only decides does
    # not carry the extension (about 0.2 MB of RSS)
    from array import array

    closed = [cls.meshes for cls in ssl_closure(p, range(size), given=given, steps=False).classes]
    meshes = array("I", chain.from_iterable(closed))
    bounds = array("I", accumulate(map(len, closed), initial=0))
    del closed
    sigs = containment_signatures(p, n_max)

    # each block's signatures, checked on its slice of the array; classes
    # are numbered in the order of their first blocks, which is the order
    # of their least members
    number: dict[int, int] = {}
    class_of = array("I")
    for lo, hi in pairwise(bounds):
        sig = sigs[meshes[lo]]
        if hi - lo > 1:
            for mesh in meshes[lo + 1 : hi]:
                if sigs[mesh] != sig:
                    raise AssertionError(
                        f"proof edges join meshes {meshes[lo]} and {mesh} over {perm_text(p)}, "
                        f"whose truncated signatures differ"
                    )
        class_of.append(number.setdefault(sig, len(number)))
    del number
    # a counting sort of the block numbers by class keeps each class's
    # blocks in order
    cuts = array("I", accumulate(Counter(class_of).values(), initial=0))
    order, free = array("I", [0]) * len(class_of), cuts[:-1]
    for b, c in enumerate(class_of):
        order[free[c]] = b
        free[c] += 1
    return PartitionResult(p, n_max, use_gamma, sigs, meshes, bounds, order, cuts)


# ---------------------------------------------------------------------------
# Partition report (JSON lines) and its cache file.

def _square_text_tables(k: int) -> tuple[tuple[str, ...], ...]:
    """The JSON text of a mask's squares from three byte tables: a mask
    below 0x100 is its low byte alone (0x05 gives ``"[[0, 0], [0, 2]]"`` at
    k=3), any other one its low byte opened (``"[[0, 0], [0, 2], "``) and its
    high byte closed (``"[3, 3]]"``).  A partition's masks have at most 16
    bits, as its pattern is at most ``MAX_SIGNATURE_LENGTH`` long."""
    low, high = (
        [json.dumps(mask_to_squares(k, b << shift))[1:-1] for b in range(256)]
        for shift in (0, 8)
    )
    return (
        tuple(f"[{text}]" for text in low),
        tuple(f"[{text}, " if text else "[" for text in low),
        tuple(f"{text}]" for text in high),
    )


def partition_records(result: PartitionResult) -> Iterator[str]:
    """One JSON line per class, written as text and yielded one at a time:
    the keys ``p``, ``status``, ``size``, ``representative``, ``meshes``,
    ``enc``, ``fingerprint`` and, on CONJECTURED classes, ``blocks``, with
    ``json.dumps`` spacing.  The texts of squares, enclosed diagonals and
    fingerprint rows 1-3 (the low 9 bits) come from tables of the report."""
    p = result.perm
    alone, opened, closed = _square_text_tables(len(p))
    perm = json.dumps(list(p))
    encs = [""]  # entry s joins the texts of the candidates in bitset s
    for _, _, d in _diagonal_candidates(p):
        text = json.dumps(diagonal_to_json(d))
        encs += [f"{t}, {text}" if t else text for t in encs]
    cuts = _row_cuts(result.n_max)
    small, deep = cuts[:3], cuts[3:]
    row_text = ['", "'.join(hex(v >> shift & mask) for shift, mask in small) for v in range(512)]
    sigs = result.signatures

    def texts(meshes):
        return [alone[m] if m < 0x100 else opened[m & 0xFF] + closed[m >> 8] for m in meshes]

    for meshes, blocks in result._read():
        rep = meshes[0]
        sig = sigs[rep]
        listed = texts(meshes)
        enc = encs[_enclosed(p, rep)]
        rows = row_text[sig & 0x1FF]
        for shift, mask in deep:
            rows += '", "' + hex(sig >> shift & mask)
        status, listed_blocks = "PROVEN", ""
        if len(blocks) > 1:
            inner = "], [".join(map(", ".join, map(texts, blocks)))
            status, listed_blocks = "CONJECTURED", f', "blocks": [[{inner}]]'
        yield (
            f'{{"p": {perm}, "status": "{status}", "size": {len(meshes)}, '
            f'"representative": {{"perm": {perm}, "mesh": {listed[0]}}}, '
            f'"meshes": [{", ".join(listed)}], "enc": [{enc}], '
            f'"fingerprint": ["{rows}"]{listed_blocks}}}'
        )


def _row_cuts(n_max: int) -> list[tuple[int, int]]:
    """(shift, mask) of each fingerprint row of a signature: row n is the
    next n! bits from the low end."""
    widths = [factorial(n) for n in range(1, n_max + 1)]
    return [(sum(widths[:i]), (1 << width) - 1) for i, width in enumerate(widths)]


def partition_summary(result: PartitionResult) -> dict:
    classes = len(result.cuts) - 1
    conjectured = sum(hi - lo > 1 for lo, hi in pairwise(result.cuts))
    return {
        "p": list(result.perm),
        "n_max": result.n_max,
        "gamma": result.gamma_used,
        "classes": classes,
        "proven": classes - conjectured,
        "conjectured": conjectured,
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
    non-blank lines, only when they are exactly the lines of a fresh
    :func:`partition_lines` run, so no PROVEN is taken on trust and a load
    costs one partition; otherwise None (a missing file and text that is
    not UTF-8 included).  No CLI path calls it.  A request that
    :func:`partition_meshes` rejects raises ``ValueError``, and a file that
    cannot be opened ``OSError``."""
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
    fresh = partition_lines(partition_meshes(p, n_max, use_gamma))
    return lines if lines == list(fresh) else None
