"""Regenerate ``decide_pool.json``: the neighbour pairs that decide-mix draws
from, with the verdict each got at depth 7.

The recorded verdicts are the reference that decide-mix compares against
(no pair may move between REFUTED and PROVEN_COINCIDENT, and no proof may be
dropped), so only re-record them in a change that redefines the benchmark.

    python3 perfbench/record_decide_pool.py
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import meshcide  # noqa: E402

PATTERNS = ("12", "21", "123", "132", "213", "231", "312", "321")
POOL_SIZE = 3000
GENERATOR_SEED = 1412
DEPTH = 7


def main() -> None:
    rng = random.Random(GENERATOR_SEED)
    pairs = []
    for _ in range(POOL_SIZE):
        perm = rng.choice(PATTERNS)
        nbits = (len(perm) + 1) ** 2
        mask = rng.getrandbits(nbits)
        toggled = mask ^ (1 << rng.randrange(nbits))
        p = meshcide.parse_perm(perm)
        verdict = meshcide.decide_coincidence(
            meshcide.MeshPattern(p, mask), meshcide.MeshPattern(p, toggled), DEPTH
        )
        pairs.append([perm, mask, toggled, verdict.status])
    out = {"generator_seed": GENERATOR_SEED, "depth": DEPTH, "pairs": pairs}
    text = json.dumps(out, separators=(",", ":"))
    (HERE / "decide_pool.json").write_text(text.replace('],["', '],\n["') + "\n")


if __name__ == "__main__":
    main()
