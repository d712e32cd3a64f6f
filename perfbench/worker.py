"""Run one workload in this (fresh) interpreter and write what it measured.

Started by ``run.py``; not meant to be run by hand.  The time from process
start to the first timed operation is the set-up time, so everything before
``ready`` below (interpreter start, ``import meshcide``, input generation)
belongs to set-up, and the library's lazy caches are filled inside the timed
operations, as a command-line user pays them on every run.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import resource
import sys
import time
import traceback
from pathlib import Path

from speed import SpeedSampler, loop_time

# Host speed as set-up begins; set-up is calibrated by the mean of this and
# the speed as it ends.
LOOP_AT_START_S = loop_time()

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import meshcide  # noqa: E402

from tracer import Tracer, install  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def load_oracles():
    """tests/oracles.py of this checkout, loaded by path so that no other
    package named ``tests`` can stand in for it."""
    spec = importlib.util.spec_from_file_location("tests.oracles", ROOT / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules["tests.oracles"] = module
    return module


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--scratch", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    if not Path(meshcide.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"imported meshcide from {meshcide.__file__}, not {SRC}")
    workload = WORKLOADS[args.workload](meshcide, args.seed, args.seconds, Path(args.scratch))
    ready = time.monotonic()
    setup = {"ready": ready, "loop_s": (LOOP_AT_START_S + loop_time()) / 2}
    if args.setup_only:
        Path(args.result).write_text(json.dumps(setup))
        return 0

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        install(tracer, meshcide)
    kinds = workload.wall_kinds
    wall_ops = {i for i, op in enumerate(workload.ops) if kinds is None or op.kind in kinds}
    queries = [f"call{i}" if op.query is None else op.query for i, op in enumerate(workload.ops)]
    spans, outputs, errors = [], [], {}
    wall_self_s = 0.0
    clock = time.perf_counter
    with SpeedSampler() as speed:
        for i, op in enumerate(workload.ops):
            before = tracer.self_total() if tracer is not None and i in wall_ops else 0.0
            start = clock()
            try:
                out = op.call()
            except Exception:  # a failed operation is counted, and the run goes on
                out = None
                errors[i] = f"{op.kind}: {traceback.format_exc(limit=3)}"
            spans.append((start, clock()))
            outputs.append(out)
            if tracer is not None and i in wall_ops:
                wall_self_s += tracer.self_total() - before
    latencies = [speed.calibrate(s, e) for s, e in spans]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.uninstall()

    # Repeated calls of one query are checked against its first call; the
    # first calls are checked by the workload.
    calls: dict = {}
    problems = []
    for i, op in enumerate(workload.ops):
        same = calls.setdefault(queries[i], [])
        if same and None not in (outputs[i], outputs[same[0]]):
            if workload.summary(outputs[i]) != workload.summary(outputs[same[0]]):
                problems.append((i, f"{op.kind}: repeated call gave another answer"))
        same.append(i)
    firsts = {same[0]: same for same in calls.values()}
    indices = sorted(firsts)
    load_oracles()
    problems += workload.check(outputs, indices)
    # A wrong answer to a query fails every call that gave it.
    failed = set(errors)
    for i, _ in problems:
        failed.update(firsts.get(i, [i]))
    result = {
        **setup,
        "kinds": [op.kind for op in workload.ops],
        "queries": queries,
        "latencies": latencies,
        "raw_latencies": [e - s for s, e in spans],
        "calibration_loop_s": speed.loop_s,
        "wall_ops": sorted(wall_ops),
        "peak_rss_mb": peak_rss_mb,
        "problems": list(errors.values()) + [msg for _, msg in problems],
        "failed": len(failed),
        "digest": workload.digest(outputs),
        "info": workload.info(outputs, latencies, indices),
    }
    if tracer is not None:
        result["trace"] = tracer.dump()
        result["wall_self_s"] = wall_self_s
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
