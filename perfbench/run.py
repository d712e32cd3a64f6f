"""meshcide benchmark: one workload, one run.

    python3 perfbench/run.py --workload decide-mix --seed 1 --seconds 10 --trace 0

Run from a checkout of the repository; the library is imported from its
``src/``.  With ``--trace 0`` the run reports the end-to-end metrics,
measured untraced; with ``--trace 1`` it reports the per-layer metrics of
a traced run, next to an untraced run of the same inputs that gives the
tracing overhead and must produce identical outputs.  Times are calibrated
for the host's changing speed (speed.py).  The last line of standard
output is one JSON object; the line before it carries the run's context
(commit, nproc, Python, source size) and the figures that are not metrics.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True  # leave the checkout as it was found
from speed import CALIBRATION_REF_S  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src" / "meshcide"
ORACLES = ROOT / "tests" / "oracles.py"
SCRATCH = HERE / ".scratch"

WORKLOADS = ("partition-123", "decide-mix", "containment-mix")
SETUP_PROBES = 5
RUN_LIMIT_S = 170
LAYERS = ("perm", "mesh", "diagonals", "shading", "coincidence")
VERDICTS = ("REFUTED", "PROVEN_COINCIDENT", "UNDECIDED")
# Counts that must repeat exactly between traced runs of one commit.
STABLE_COUNTS = (
    "perm.occurrences",
    "mesh.region_scans",
    "mesh.pattern_builds",
    "shading.ssl_moves_calls",
)


class RunError(Exception):
    pass


def worker(args, scratch: Path, tag: str, deadline: float, *flags: str) -> tuple[float, dict]:
    """Start a fresh interpreter on worker.py; return its start time and result."""
    result = scratch / f"{tag}.json"
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--scratch", str(scratch),
        "--result", str(result),
        *flags,
    ]
    # Bytecode is never cached, so every interpreter compiles the library
    # alike and the checkout is left as it was found.
    env = dict(os.environ, MESHCIDE_THREADS="1", PYTHONDONTWRITEBYTECODE="1")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RunError("no time left for another worker")
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise RunError(f"{tag} worker exceeded the run limit") from None
    if proc.returncode != 0 or not result.exists():
        raise RunError(f"{tag} worker failed with status {proc.returncode}")
    return start, json.loads(result.read_text())


def tail(latencies: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, and its value.
    With fewer than eleven samples there is none; the maximum stands in."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return 100.0, ordered[-1]
    return 100.0 * (n - 10) / n, ordered[n - 11]


def query_latencies(result: dict, field: str = "latencies") -> dict:
    """Latency of each query: the fastest of its calls."""
    best: dict = {}
    for query, t in zip(result["queries"], result[field]):
        best[query] = min(t, best.get(query, t))
    return best


def wall(result: dict, field: str = "latencies") -> float:
    """Summed latency of the queries whose calls make up wall_s."""
    best = query_latencies(result, field)
    return sum(best[q] for q in {result["queries"][i] for i in result["wall_ops"]})


def end_to_end(args, scratch: Path, deadline: float) -> tuple[dict, dict, dict, list]:
    setups, raw_setups = [], []
    for i in range(SETUP_PROBES + 1):
        flags = ("--setup-only",) if i < SETUP_PROBES else ()
        start, result = worker(args, scratch, f"run{i}", deadline, *flags)
        raw_setups.append(result["ready"] - start)
        setups.append(raw_setups[-1] * CALIBRATION_REF_S / result["loop_s"])
    lat = list(query_latencies(result).values())
    percentile, tail_s = tail(lat)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (wall(result), "s"),
        "op_p50_s": (statistics.median(lat), "s"),
        "op_tail_s": (tail_s, "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }
    info = {
        "setup_samples_s": setups,
        "raw_setup_samples_s": raw_setups,
        "ops": len(lat),
        "calls": len(result["latencies"]),
        "calls_by_kind": {k: result["kinds"].count(k) for k in sorted(set(result["kinds"]))},
        "tail_percentile": percentile,
        "raw_wall_s": wall(result, "raw_latencies"),
        "calibration_loop_s": {
            "min": min(result["calibration_loop_s"], default=None),
            "median": statistics.median(result["calibration_loop_s"] or [0.0]),
        },
        **result["info"],
    }
    return metrics, result, info, result["problems"]


def per_layer(args, scratch: Path, deadline: float) -> tuple[dict, dict, dict, list]:
    _, plain = worker(args, scratch, "untraced", deadline)
    _, traced = worker(args, scratch, "traced", deadline, "--trace")
    groups = traced["trace"]["groups"]
    counts = traced["trace"]["counts"]

    def g(key: str, field: str = "calls") -> float:
        return groups.get(key, {}).get(field, 0)

    m: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        mine = [v for k, v in groups.items() if k.split(".")[0] == layer]
        m[f"{layer}.calls"] = (sum(v["calls"] for v in mine), "count")
        m[f"{layer}.self_s"] = (sum(v["self_s"] for v in mine), "s")
    scans = g("mesh.region_scan")
    m.update(
        {
            "perm.occurrence_calls": (g("perm.occurrence"), "count"),
            "perm.occurrences": (g("perm.occurrence", "items"), "count"),
            "perm.occurrence_s": (g("perm.occurrence", "inclusive_s"), "s"),
            "mesh.region_scans": (scans, "count"),
            "mesh.region_scan_s": (g("mesh.region_scan", "inclusive_s"), "s"),
            "mesh.scan_hit_ratio": (
                g("mesh.accepted", "items") / scans if scans else 0.0,
                "ratio",
            ),
            "mesh.contains_calls": (g("mesh.contains"), "count"),
            "mesh.contains_s": (g("mesh.contains", "inclusive_s"), "s"),
            "mesh.host_tables": (g("mesh.host_table"), "count"),
            "mesh.host_table_s": (g("mesh.host_table", "inclusive_s"), "s"),
            "mesh.minimal_masks": (g("mesh.host_table", "items"), "count"),
            "mesh.fingerprint_calls": (g("mesh.fingerprint"), "count"),
            "mesh.fingerprint_s": (g("mesh.fingerprint", "inclusive_s"), "s"),
            "mesh.pattern_builds": (counts.get("mesh.pattern_builds", 0), "count"),
            "diagonals.symmetry_calls": (g("diagonals.symmetry"), "count"),
            "diagonals.symmetry_s": (g("diagonals.symmetry", "inclusive_s"), "s"),
            "diagonals.enc_calls": (g("diagonals.enc"), "count"),
            "diagonals.enc_s": (g("diagonals.enc", "inclusive_s"), "s"),
            "shading.ssl_moves_calls": (g("shading.ssl_moves"), "count"),
            "shading.ssl_moves_s": (g("shading.ssl_moves", "inclusive_s"), "s"),
            "shading.moves": (g("shading.ssl_moves", "items"), "count"),
            "shading.closure_calls": (g("shading.closure"), "count"),
            "shading.closure_s": (g("shading.closure", "inclusive_s"), "s"),
            "shading.closure_meshes": (g("shading.closure", "items"), "count"),
            "shading.closure_incomplete": (g("shading.closure", "incomplete"), "count"),
            "coincidence.signature_s": (g("coincidence.signature", "inclusive_s"), "s"),
            "coincidence.partition_self_s": (g("coincidence.partition", "self_s"), "s"),
            "coincidence.classify_s": (g("coincidence.classify", "inclusive_s"), "s"),
            "coincidence.verify_calls": (g("coincidence.verify"), "count"),
            "coincidence.verify_s": (g("coincidence.verify", "inclusive_s"), "s"),
            "coincidence.trace_steps": (g("coincidence.verify", "items"), "count"),
            **{
                f"coincidence.verdicts.{v}": (g("coincidence.decide", f"verdict.{v}"), "count")
                for v in VERDICTS
            },
            "coincidence.records_s": (g("coincidence.records", "inclusive_s"), "s"),
            "coincidence.cache_load_s": (g("coincidence.cache_load", "inclusive_s"), "s"),
            "coincidence.cache_write_s": (g("coincidence.cache_write", "inclusive_s"), "s"),
            "cli.calls": (g("cli.main"), "count"),
            "cli.emit_s": (g("cli.main", "self_s"), "s"),
            "cli.report_bytes": (traced["info"].get("report_bytes", 0), "bytes"),
            "trace.calls_s": (sum(traced["raw_latencies"][i] for i in traced["wall_ops"]), "s"),
            "trace.self_sum_s": (traced["wall_self_s"], "s"),
        }
    )
    # Spans are timed raw; one factor per run calibrates them (see speed.py).
    loops = traced["calibration_loop_s"]
    factor = CALIBRATION_REF_S / statistics.mean(loops) if loops else 1.0
    m = {k: (v * factor if u == "s" else v, u) for k, (v, u) in m.items()}
    m["trace.wall_s"] = (wall(traced), "s")
    m["trace.overhead_s"] = (wall(traced) - wall(plain), "s")
    problems = traced["problems"] + [f"untraced: {p}" for p in plain["problems"]]
    if traced["digest"] != plain["digest"]:
        problems.append("traced outputs differ from the untraced run's")
    problems += stable_counts_problems(args, m)
    info = {"untraced_wall_s": wall(plain), "untraced_failed": plain["failed"]}
    spans = SCRATCH / f"spans-{args.workload}-{args.seed}.json"
    spans.write_text(json.dumps(traced["trace"], indent=1))
    return m, traced, info, problems


def code_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.glob("*.py")) + sorted(HERE.glob("*.py")) + sorted(HERE.glob("*.json")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def stable_counts_problems(args, metrics: dict) -> list[str]:
    """Traced runs of one commit, workload and seed must repeat STABLE_COUNTS
    exactly; the last run's counts are kept in the scratch directory."""
    record = SCRATCH / f"counts-{args.workload}-{args.seed}-{args.seconds}.json"
    now = {"code": code_digest(), "counts": {k: metrics[k][0] for k in STABLE_COUNTS}}
    problems = []
    if record.exists():
        before = json.loads(record.read_text())
        if before["code"] == now["code"] and before["counts"] != now["counts"]:
            problems.append(f"counts changed between runs: {before['counts']} -> {now['counts']}")
    record.write_text(json.dumps(now))
    return problems


def commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
        capture_output=True,
        text=True,
    )
    return proc.stdout.strip() or None


def context() -> dict:
    return {
        "commit": commit(),
        "src_sha256": code_digest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "src_lines": sum(len(p.read_text().splitlines()) for p in SRC.glob("*.py")),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    for needed in (SRC / "__init__.py", ORACLES):
        if not needed.is_file():
            print(f"error: {needed} is missing; run from a meshcide checkout", file=sys.stderr)
            return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    SCRATCH.mkdir(exist_ok=True)
    scratch = SCRATCH / f"run-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir()
    try:
        measure = per_layer if args.trace else end_to_end
        metrics, result, info, problems = measure(args, scratch, deadline)
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    attempted = len(result["latencies"])
    info.update(context())
    info.update(
        workload=args.workload,
        seed=args.seed,
        trace=args.trace,
        failed_frac=result["failed"] / attempted,
        problems=problems[:20],
    )
    print(json.dumps({"info": info}))
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": attempted,
                "failed": result["failed"],
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
