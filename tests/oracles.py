"""Brute-force reference implementations, straight from the definitions.

These deliberately avoid the library's shortcuts: occurrences come from raw
position combinations, and mesh containment uses the closed corresponding
rectangles written with the pattern-inverse value lookup rather than sorted
occurrence values.  Tests compare the fast paths against these.
"""

import functools
import itertools
import math

from meshcide.diagonals import diagonal_to_json, enclosed_diagonals
from meshcide.mesh import MeshPattern, mask_to_squares, mesh_pattern_to_json
from meshcide.perm import all_perms


def occurrences_brute(p, w):
    k, n = len(p), len(w)
    out = []
    for combo in itertools.combinations(range(1, n + 1), k):
        vals = [w[i - 1] for i in combo]
        if all(
            (vals[s] < vals[t]) == (p[s] < p[t])
            for s in range(k)
            for t in range(s + 1, k)
        ):
            out.append(combo)
    return out


def region_brute(p, w, occ, square):
    """Closed corresponding rectangle of a square, by the inverse-pattern
    formulation: the row interval comes from the occurrence letters playing
    the pattern values b and b+1."""
    k, n = len(p), len(w)
    a, b = square
    pinv = {v: i for i, v in enumerate(p, start=1)}
    pinv[0] = 0
    pinv[k + 1] = k + 1
    ext = (0,) + tuple(occ) + (n + 1,)

    def host_value(idx):
        if idx == 0:
            return 0
        if idx == k + 1:
            return n + 1
        return w[ext[idx] - 1]

    return (ext[a], ext[a + 1]), (host_value(pinv[b]), host_value(pinv[b + 1]))


def shading_free_brute(p, w, occ, squares):
    """No host point lies inside the rectangle of any of ``squares``."""
    n = len(w)
    for square in squares:
        (x_lo, x_hi), (y_lo, y_hi) = region_brute(p, w, occ, square)
        if any(x_lo < x < x_hi and y_lo < w[x - 1] < y_hi for x in range(1, n + 1)):
            return False
    return True


def mesh_occurrences_brute(p, squares, w):
    """The occurrences of the mesh, in lexicographic order."""
    return [occ for occ in occurrences_brute(p, w) if shading_free_brute(p, w, occ, squares)]


def mesh_contains_brute(p, squares, w):
    return any(shading_free_brute(p, w, occ, squares) for occ in occurrences_brute(p, w))


def first_distinguisher_brute(p, squares1, squares2, n_max):
    """Lexicographically least permutation separating two meshes, or None."""
    for n in range(1, n_max + 1):
        for w in itertools.permutations(range(1, n + 1)):
            if mesh_contains_brute(p, squares1, w) != mesh_contains_brute(
                p, squares2, w
            ):
                return w
    return None


def contains_classical(p, w):
    return bool(occurrences_brute(p, w))


def direct_sum(u, v):
    """Concatenate ``u`` and ``v`` with ``v`` shifted above ``u``.

    >>> direct_sum((1,), (2, 1))
    (1, 3, 2)
    """
    m = len(u)
    return tuple(u) + tuple(x + m for x in v)


def is_sum_decomposable(w):
    """True iff ``w = u (+) v`` for nonempty ``u``, ``v``; i.e. some proper
    prefix of ``w`` uses exactly the values ``1..m``."""
    top = 0
    for m in range(1, len(w)):
        top = max(top, w[m - 1])
        if top == m:
            return True
    return False


def contains_gamma_oracle(w):
    """Independent containment test for both gamma patterns: either one is
    contained exactly in the sum-decomposable permutations."""
    return is_sum_decomposable(w)


# ---------------------------------------------------------------------------
# The grid symmetries from their definitions, one generator at a time: a
# symmetry is a word over r (reverse), c (complement) and i (inverse),
# applied left to right, and "id" is the empty word.


def symmetry_perm_ref(name, w):
    """The image of the one-line word ``w``: reverse reads it backwards,
    complement turns each value v into n + 1 - v, and inverse puts at
    position v the position of the value v."""
    n = len(w)
    w = tuple(w)
    for ch in "" if name == "id" else name:
        if ch == "r":
            w = w[::-1]
        elif ch == "c":
            w = tuple(n + 1 - v for v in w)
        else:  # "i"
            w = tuple(w.index(v) + 1 for v in range(1, n + 1))
    return w


def symmetry_square_ref(name, k, square):
    """The image of the square (a, b) of the (k+1) x (k+1) grid: reverse
    mirrors the columns 0..k, complement the rows, inverse transposes.  A
    point of the grid of n points moves as a square with k = n + 1 does."""
    a, b = square
    for ch in "" if name == "id" else name:
        if ch == "r":
            a = k - a
        elif ch == "c":
            b = k - b
        else:  # "i"
            a, b = b, a
    return (a, b)


# ---------------------------------------------------------------------------
# Square-by-square mesh definitions, for the library's mask-native kernels.
# A mesh is a mask in the library's layout: square (a, b) of a length-k
# pattern is bit a * (k + 1) + b.


def _bit(k, a, b):
    return 1 << (a * (k + 1) + b)


def _has(k, mask, a, b):
    return bool(mask & _bit(k, a, b))


def _squares(k, mask):
    return [(a, b) for a in range(k + 1) for b in range(k + 1) if _has(k, mask, a, b)]


def symmetry_mask_brute(name, k, mask):
    """Image of a mesh under a symmetry, one square at a time."""
    out = 0
    for square in _squares(k, mask):
        out |= _bit(k, *symmetry_square_ref(name, k, square))
    return out


def ne_single_ok_brute(p, mask, i):
    """Northeast single-square conditions at the graph point (i, p(i)), as
    the Shading Lemma states them in print, opposite square included: the
    reference that ``shading``'s minimal form is checked against."""
    k = len(p)
    v = p[i - 1]
    has = lambda a, b: _has(k, mask, a, b)
    if has(i, v) or has(i - 1, v - 1):
        return False
    if has(i, v - 1) and has(i - 1, v):
        return False
    for x in range(k + 1):
        if x not in (i - 1, i) and has(x, v - 1) and not has(x, v):
            return False
    for y in range(k + 1):
        if y not in (v - 1, v) and has(i - 1, y) and not has(i, y):
            return False
    return True


def e_pair_ok_brute(p, mask, i):
    """East pair conditions at the graph point (i, p(i)), as the Shading
    Lemma states them in print, all four squares around the point blocked:
    the reference that ``shading``'s minimal form is checked against."""
    k = len(p)
    v = p[i - 1]
    has = lambda a, b: _has(k, mask, a, b)
    if has(i, v) or has(i - 1, v) or has(i, v - 1) or has(i - 1, v - 1):
        return False
    for x in range(k + 1):
        if has(x, v - 1) != has(x, v):
            return False
    for y in range(k + 1):
        if has(i - 1, y) and not has(i, y):
            return False
    return True


_SINGLE_TO_NE = {"NE": "id", "NW": "r", "SE": "c", "SW": "rc"}
_PAIR_TO_E = {"E": "id", "N": "i", "W": "r", "S": "ci"}


def _conjugated(p, mask, to_spelled, ok, candidate):
    k = len(p)
    out = []
    for direction, sym in to_spelled.items():
        q = symmetry_perm_ref(sym, p)
        image = symmetry_mask_brute(sym, k, mask)
        for j in range(1, k + 1):
            if ok(q, image, j):
                point = next(
                    pt
                    for pt in enumerate(p, start=1)
                    if symmetry_square_ref(sym, k + 1, pt) == (j, q[j - 1])
                )
                out.append((point, candidate(point, direction), direction))
    order = list(to_spelled)
    return sorted(out, key=lambda t: (t[0], order.index(t[2])))


def single_candidate_ref(point, direction):
    """The square incident to a graph point on the given corner."""
    i, v = point
    return {"NE": (i, v), "NW": (i - 1, v), "SE": (i, v - 1), "SW": (i - 1, v - 1)}[direction]


def pair_candidate_ref(point, direction):
    """The two squares incident to a graph point on the given side, by row
    from the top, then by column."""
    i, v = point
    return {
        "E": ((i, v), (i, v - 1)),
        "W": ((i - 1, v), (i - 1, v - 1)),
        "N": ((i - 1, v), (i, v)),
        "S": ((i - 1, v - 1), (i, v - 1)),
    }[direction]


def shadeable_singles_brute(p, mask):
    """(point, square, direction) for every shadeable single square: each
    corner is conjugated onto the northeast one by a symmetry."""
    return _conjugated(p, mask, _SINGLE_TO_NE, ne_single_ok_brute, single_candidate_ref)


def shadeable_pairs_brute(p, mask):
    """(point, square pair, direction) for every shadeable adjacent pair."""
    return _conjugated(p, mask, _PAIR_TO_E, e_pair_ok_brute, pair_candidate_ref)


def single_shading_chain(p, start, target):
    """Grow ``start`` to ``target`` one shadeable single square at a time,
    shading the first listed square of ``target``: the meshes passed
    through, ``start`` first, or None if ``start`` is not inside ``target``
    or the walk gets stuck."""
    k = len(p)
    if start & ~target:
        return None
    chain = [start]
    while chain[-1] != target:
        current = chain[-1]
        for _, square, _ in shadeable_singles_brute(p, current):
            bit = _bit(k, *square)
            if target & bit and not current & bit:
                chain.append(current | bit)
                break
        else:
            return None
    return chain


def _pointless(p, a, b):
    points = set(enumerate(p, start=1))
    return not {(a, b), (a + 1, b), (a, b + 1), (a + 1, b + 1)} & points


def enclosed_diagonals_brute(p, mask):
    """Enclosed diagonals as (orientation, anchor, length, squares): shaded
    pointless squares, and maximal runs of graph points walked corner to
    corner whose squares are all shaded."""
    k = len(p)
    points = set(enumerate(p, start=1))
    out = set()
    for a, b in _squares(k, mask):
        if _pointless(p, a, b):
            out.add(("PT", (a, b), 1, ((a, b),)))
    for x, y in sorted(points):
        for orientation, dy in (("NE", 1), ("SE", -1)):
            if (x - 1, y - dy) in points:
                continue  # not the start of a maximal run
            c = 1
            while (x + c, y + dy * c) in points:
                c += 1
            if dy == 1:
                squares = tuple((x - 1 + i, y - 1 + i) for i in range(c + 1))
            else:
                squares = tuple((x - 1 + i, y - i) for i in range(c + 1))
            if all(_has(k, mask, a, b) for a, b in squares):
                out.add((orientation, squares[0], c + 1, squares))
    return out


@functools.lru_cache(maxsize=None)
def _diagonal_square_sets(p):
    """Every diagonal a mesh over ``p`` could enclose, as (square set, mask):
    the enclosed diagonals of the full mesh, walked by
    :func:`enclosed_diagonals_brute`."""
    k = len(p)
    full = (1 << (k + 1) ** 2) - 1
    return tuple(
        (frozenset(squares), sum(_bit(k, a, b) for a, b in squares))
        for _, _, _, squares in enclosed_diagonals_brute(p, full)
    )


def enc_square_sets(pi):
    """The enclosed diagonals of a pattern as a set of square sets, the form
    the library once compared them in: orientation is dropped, since a
    pointless square carries both labels and a proper run's squares fix its
    direction.  A diagonal is enclosed when all of its squares are shaded."""
    mask = pi.mask
    return frozenset(s for s, m in _diagonal_square_sets(pi.perm) if mask & m == m)


def enc_witness_oracle(pi, pi2):
    """``(witness, contains_first)`` as ``diagonals.enc_witness`` once chose
    it from square sets: of the diagonals only one pattern encloses, sorted
    by their sorted squares, the first the first pattern owns, else the
    first; a new letter goes into the run's anchor square (a, b), right
    after position a and between the values b and b + 1 (through the
    complement symmetry for a falling run).  Whether the witness contains
    the first pattern is decided by brute force."""
    k = len(pi.perm)
    sets1, sets2 = enc_square_sets(pi), enc_square_sets(pi2)
    differ = sorted(sets1 ^ sets2, key=sorted)
    chosen = ([s for s in differ if s in sets1] or differ)[0]
    orientation, anchor = next(
        (d[0], d[1])
        for pattern in (pi, pi2)
        for d in enclosed_diagonals_brute(pattern.perm, pattern.mask)
        if frozenset(d[3]) == chosen
    )

    def insert_below(p, a, b):
        word = list(p[:a]) + [b + 0.5] + list(p[a:])
        return tuple(sorted(word).index(v) + 1 for v in word)

    if orientation == "SE":
        image = insert_below(
            symmetry_perm_ref("c", pi.perm), *symmetry_square_ref("c", k, anchor)
        )
        witness = symmetry_perm_ref("c", image)
    else:
        witness = insert_below(pi.perm, *anchor)
    return witness, mesh_contains_brute(pi.perm, _squares(k, pi.mask), witness)


def classify_family_brute(p, mask):
    """(vincular, bivincular, isolating, sparse), read off square by square."""
    k = len(p)
    squares = _squares(k, mask)
    full_cols = {c for c in range(k + 1) if all(_has(k, mask, c, y) for y in range(k + 1))}
    full_rows = {r for r in range(k + 1) if all(_has(k, mask, x, r) for x in range(k + 1))}
    vincular = all(a in full_cols for a, b in squares)
    bivincular = all(a in full_cols or b in full_rows for a, b in squares)
    isolating = not any(
        a2 in (a - 1, a + 1) or b2 in (b - 1, b + 1)
        for a, b in squares
        if not _pointless(p, a, b)
        for a2, b2 in squares
    )
    sparse = all(sum(1 for a, _ in squares if a == c) <= 1 for c in range(k + 1)) and all(
        sum(1 for _, b in squares if b == r) <= 1 for r in range(k + 1)
    )
    return vincular, bivincular, isolating, sparse


# ---------------------------------------------------------------------------
# Fingerprint rows: bit j of row n says whether the j-th permutation of S_n in
# lexicographic order contains the mesh.


def occurrence_hits_brute(p, w):
    """Each occurrence of ``p`` in ``w`` with the mask of the squares whose
    rectangle holds a host point: the test of :func:`mesh_contains_brute`
    with its loops turned inside out, for every mesh at once."""
    k, n = len(p), len(w)
    out = []
    for occ in occurrences_brute(p, w):
        # the rectangle of square (a, b) spans the columns of (a, a) and the
        # rows of (b, b)
        boxes = [region_brute(p, w, occ, (a, a)) for a in range(k + 1)]
        hit = 0
        for x in range(1, n + 1):
            for a, ((x_lo, x_hi), _) in enumerate(boxes):
                if x_lo < x < x_hi:
                    for b, (_, (y_lo, y_hi)) in enumerate(boxes):
                        if y_lo < w[x - 1] < y_hi:
                            hit |= _bit(k, a, b)
        out.append((occ, hit))
    return out


def fingerprints_brute(p, masks, n_max):
    """Fingerprint rows of several meshes over ``all_perms``: each host's
    :func:`occurrence_hits_brute` are worked out once, and a mesh is
    contained iff some occurrence has no host point inside a shaded square.
    ``test_fingerprints_brute_is_mesh_contains_brute`` checks this agrees
    with :func:`mesh_contains_brute`."""
    rows = [[0] * n_max for _ in masks]
    for n in range(1, n_max + 1):
        for j, w in enumerate(all_perms(n)):
            blocked = {hit for _, hit in occurrence_hits_brute(p, w)}
            for row, mask in zip(rows, masks):
                if any(hit & mask == 0 for hit in blocked):
                    row[n - 1] |= 1 << j
    return [tuple(row) for row in rows]


# ---------------------------------------------------------------------------
# The partition report: each class record as the dict whose ``json.dumps`` is
# its line, built from the library's JSON helpers.


def signature_rows(sig, n_max):
    """The fingerprint rows of a signature: row n is the next n! bits from
    its low end, cut from its binary text, lowest bit first."""
    bits = format(sig, "b")[::-1]
    rows, start = [], 0
    for n in range(1, n_max + 1):
        chunk = bits[start:start + math.factorial(n)]
        rows.append(int(chunk[::-1] or "0", 2))
        start += math.factorial(n)
    return tuple(rows)


def partition_record_oracle(result):
    p = result.perm
    k = len(p)

    def squares(mask):
        return [[a, b] for a, b in mask_to_squares(k, mask)]

    records = []
    for cls in result.classes:
        rep = MeshPattern(p, cls.representative)
        diagonals = sorted(enclosed_diagonals(rep), key=lambda d: (d.anchor, d.orientation))
        rec = {
            "p": list(p),
            "status": cls.status,
            "size": cls.size,
            "representative": mesh_pattern_to_json(rep),
            "meshes": [squares(m) for m in cls.meshes],
            "enc": [diagonal_to_json(d) for d in diagonals],
            "fingerprint": [
                hex(row)
                for row in signature_rows(result.signatures[cls.representative], result.n_max)
            ],
        }
        if cls.status == "CONJECTURED":
            rec["blocks"] = [[squares(m) for m in block] for block in cls.blocks]
        records.append(rec)
    return records
