"""Command-line front end: ``meshcide VERB ARGS [FLAGS]``.

Boolean answers are printed, never encoded in the exit status; ``--json``
switches any verb to a machine-readable report.  Exit status 2 flags a
parse or validation problem, or an ``--out`` file that cannot be written;
0 anything else.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .perm import ParseError, parse_perm, perm_text
from .mesh import (
    MeshPattern,
    avoiders,
    iter_mesh_occurrences,
    mesh_occurrences,
    mesh_pattern_from_json,
    mesh_pattern_to_json,
    parse_mesh_pattern,
)
from .diagonals import (
    diagonal_text,
    diagonal_to_json,
    enc_witness,
    graph_points,
    sorted_diagonals,
)
from .shading import _collector_paused, shadeable_pairs, shadeable_singles, ssl_closure
from .certify import trace_to_json
from .coincidence import (
    classify_family,
    decide_coincidence,
    partition_lines,
    partition_meshes,
    write_partition_cache,
)


def render(pi: MeshPattern, fmt: str) -> str:
    """Draw a mesh pattern as an ascii grid, a tikz picture, or JSON."""
    if fmt == "ascii":
        return _render_ascii(pi)
    if fmt == "tikz":
        return _render_tikz(pi)
    if fmt == "json":
        return json.dumps(mesh_pattern_to_json(pi))
    raise ParseError(f"unknown render format {fmt!r}")


def _render_ascii(pi: MeshPattern) -> str:
    """Top row first: each row of corners joined by ``-``, and between two
    of them the row of squares below the upper one, each between ``|``."""
    k = pi.k
    points = graph_points(pi.perm)
    rows = []
    for j in range(k + 1, -1, -1):
        if j <= k:
            squares = ("#" if pi.has_square(a, j) else "." for a in range(k + 1))
            rows.append("|" + "|".join(squares) + "|")
        rows.append("-".join("o" if (i, j) in points else "+" for i in range(k + 2)))
    return "\n".join(rows)


def _render_tikz(pi: MeshPattern) -> str:
    k = pi.k
    lines = [r"\begin{tikzpicture}[scale=.4]"]
    if pi.squares:
        cells = ",".join(f"({a},{b})" for a, b in pi.squares)
        lines.append(
            "  \\foreach \\x in {%s} {\\fill[lightgray] \\x rectangle ++(1,1);}" % cells
        )
    lines.append("  \\foreach \\x in {1,...,%d} {" % k)
    lines.append("    \\draw[gray] (0,\\x) -- (%d,\\x);" % (k + 1))
    lines.append("    \\draw[gray] (\\x,0) -- (\\x,%d);" % (k + 1))
    lines.append("  }")
    dots = ",".join(f"({i},{v})" for i, v in enumerate(pi.perm, start=1))
    lines.append(
        "  \\foreach \\x in {%s} {\\fill[black] \\x circle (5pt);}" % dots
    )
    lines.append(r"\end{tikzpicture}")
    return "\n".join(lines)


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    if args.json:
        print(json.dumps(payload))
    else:
        for line in text_lines:
            print(line)


def _pattern(text: str) -> MeshPattern:
    s = text.strip()
    if s.startswith("{"):
        return mesh_pattern_from_json(json.loads(s))
    return parse_mesh_pattern(s)


def _cmd_contains(args) -> int:
    pi = _pattern(args.pattern)
    count = sum(1 for _ in iter_mesh_occurrences(pi, parse_perm(args.perm)))  # never held
    _emit(
        args,
        {"contains": count > 0, "occurrences": count},
        [str(count > 0).lower(), f"occurrences: {count}"],
    )
    return 0


def _cmd_occurrences(args) -> int:
    pi = _pattern(args.pattern)
    w = parse_perm(args.perm)
    occs = mesh_occurrences(pi, w)
    _emit(
        args,
        {"occurrences": [list(o) for o in occs]},
        [",".join(map(str, o)) for o in occs] or ["(none)"],
    )
    return 0


def _cmd_avoiders(args) -> int:
    pi = _pattern(args.pattern)
    avs = avoiders(pi, args.n)
    payload: dict = {"n": args.n, "count": len(avs)}
    lines = [f"count: {len(avs)}"]
    if args.list:
        payload["avoiders"] = [list(w) for w in avs]
        lines += [perm_text(w) for w in avs]
    _emit(args, payload, lines)
    return 0


def _cmd_enc(args) -> int:
    pi = _pattern(args.pattern)
    diags = sorted_diagonals(pi)
    _emit(
        args,
        {"enc": [diagonal_to_json(d) for d in diags]},
        [diagonal_text(d) for d in diags] or ["(empty)"],
    )
    return 0


def _cmd_classify(args) -> int:
    tags = classify_family(_pattern(args.pattern))
    payload = {
        "vincular": tags.vincular,
        "bivincular": tags.bivincular,
        "isolating": tags.isolating,
        "sparse": tags.sparse,
    }
    _emit(args, payload, [f"{k}: {str(v).lower()}" for k, v in payload.items()])
    return 0


def _cmd_shade(args) -> int:
    if args.budget is not None and not args.closure:
        raise ValueError("--budget bounds the closure, so it needs --closure")
    pi = _pattern(args.pattern)
    singles = shadeable_singles(pi)
    pairs = shadeable_pairs(pi)
    payload: dict = {
        "singles": [
            {"point": list(p), "square": list(s), "dir": d} for p, s, d in singles
        ],
        "pairs": [
            {"point": list(p), "squares": [list(a) for a in s], "dir": d}
            for p, s, d in pairs
        ],
    }
    lines = [
        f"SL  point=({p[0]},{p[1]}) dir={d} square=({s[0]},{s[1]})"
        for p, s, d in singles
    ] + [
        f"DSL point=({p[0]},{p[1]}) dir={d} squares=({s[0][0]},{s[0][1]})({s[1][0]},{s[1][1]})"
        for p, s, d in pairs
    ]
    if args.closure:
        result = ssl_closure(pi.perm, (pi.mask,), budget=args.budget, steps=False)
        cls = result.class_of(pi.mask)
        meshes = [MeshPattern(pi.perm, m).text() for m in cls.meshes]
        payload["closure"] = {"complete": result.complete, "meshes": meshes}
        lines.append(f"closure ({'complete' if result.complete else 'partial'}):")
        lines += [f"  {m}" for m in meshes]
    _emit(args, payload, lines or ["(none)"])
    return 0


def _cmd_coincident(args) -> int:
    pi = _pattern(args.first)
    pi2 = _pattern(args.second)
    verdict = decide_coincidence(pi, pi2, args.max_n)
    payload: dict = {"status": verdict.status, "depth": verdict.depth}
    lines = [verdict.status]
    if verdict.witness is not None:
        side = "first" if verdict.witness_contains_first else "second"
        payload["witness"] = list(verdict.witness)
        payload["witness_contains"] = side
        lines.append(f"witness: {perm_text(verdict.witness)} (contains {side})")
    if verdict.trace is not None:
        payload["trace"] = trace_to_json(verdict.trace)
        rules = [s.rule for s in verdict.trace.steps]
        lines.append(f"trace: {len(rules)} steps ({', '.join(rules)})")
    if verdict.reason is not None:
        payload["reason"] = list(verdict.reason)
        lines.append(f"reason: {verdict.reason[0]} {verdict.reason[1]}")
    lines.append(f"depth: {verdict.depth}")
    _emit(args, payload, lines)
    return 0


def _cmd_witness(args) -> int:
    wit = enc_witness(_pattern(args.first), _pattern(args.second))
    side = "first" if wit.contains_first else "second"
    _emit(
        args,
        {"witness": list(wit.perm), "contains": side},
        [f"{perm_text(wit.perm)} (contains {side})"],
    )
    return 0


# the collector stays paused over the report too: the partition leaves tens
# of thousands of acyclic objects behind, which a collection would walk
@_collector_paused
def _cmd_partition(args) -> int:
    p = parse_perm(args.perm)
    if args.out is not None:
        # fail before the work, without creating or truncating the file; a
        # device or a fifo would swallow the report that stdout reads back
        out = Path(args.out)
        if out.exists() and not out.is_file() or not out.parent.is_dir():
            raise OSError(
                f"--out {args.out!r} is not a regular file in an existing directory"
            )
    result = partition_meshes(p, args.max_n, use_gamma=not args.no_gamma)
    if args.out is not None:
        # the whole file is written before stdout gets any of it, so an
        # --out that cannot be written leaves stdout empty; the report is
        # ASCII with "\n" breaks, so its bytes decode line by line as is
        write_partition_cache(args.out, partition_lines(result))
        with open(args.out, "rb") as report:
            sys.stdout.writelines(map(bytes.decode, report))
    else:
        sys.stdout.writelines(line + "\n" for line in partition_lines(result))
    return 0


def _cmd_render(args) -> int:
    print(render(_pattern(args.pattern), args.format))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="meshcide",
        description="Containment, avoidance, and coincidence of mesh patterns.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add(name, fn, help):
        sp = sub.add_parser(name, help=help)
        sp.set_defaults(func=fn)
        sp.add_argument("--json", action="store_true", help="emit JSON")
        return sp

    sp = add("contains", _cmd_contains, "does a permutation contain a mesh pattern")
    sp.add_argument("pattern")
    sp.add_argument("perm")

    sp = add("occurrences", _cmd_occurrences, "list mesh occurrences")
    sp.add_argument("pattern")
    sp.add_argument("perm")

    sp = add("avoiders", _cmd_avoiders, "count (or list) avoiders in S_n")
    sp.add_argument("pattern")
    sp.add_argument("n", type=int)
    sp.add_argument("--list", action="store_true", help="emit the avoiders too")

    sp = add("enc", _cmd_enc, "enclosed diagonals of a pattern")
    sp.add_argument("pattern")

    sp = add("classify", _cmd_classify, "mesh-shape family tags")
    sp.add_argument("pattern")

    sp = add("shade", _cmd_shade, "shadeable squares and pairs")
    sp.add_argument("pattern")
    sp.add_argument("--closure", action="store_true", help="emit reachable meshes")
    sp.add_argument("--budget", type=int, default=None, help="most meshes --closure may add")

    sp = add("coincident", _cmd_coincident, "decide coincidence of two patterns")
    sp.add_argument("first")
    sp.add_argument("second")
    sp.add_argument("--max-n", type=int, default=None, help="refutation depth")

    sp = add("witness", _cmd_witness, "short witness from differing diagonals")
    sp.add_argument("first")
    sp.add_argument("second")

    sp = add("partition", _cmd_partition, "partition all meshes over a pattern")
    sp.add_argument("perm")
    sp.add_argument("--max-n", type=int, default=None, help="fingerprint depth")
    sp.add_argument("--out", default=None, help="also write the JSONL report here")
    sp.add_argument("--no-gamma", action="store_true", help="disable the gamma rule")
    # accepted for old scripts and ignored: the signature engine is serial
    sp.add_argument("--threads", type=int, help=argparse.SUPPRESS)

    sp = add("render", _cmd_render, "draw a pattern")
    sp.add_argument("pattern")
    sp.add_argument("--format", choices=("ascii", "tikz", "json"), default="ascii")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # parse errors and JSON ones included
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
