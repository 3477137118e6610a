#!/usr/bin/env python3
"""Unify per-PR bench JSON into one trajectory file, and flag regressions.

Every bench binary writes a BENCH_*.json whose shape is its own business;
the only shared contract is the `provenance` block (git sha, build type,
hw_threads, hostname) emitted by bench/study_util.h. This script flattens
each report's numeric leaves into dotted metric paths, appends one point
per (sha, bench) to BENCH_trajectory.json, and can gate CI by comparing
the newest point against the median of the history.

Usage:
  # Merge this run's reports into the trajectory (creates it if absent):
  bench_trajectory.py merge --trajectory=BENCH_trajectory.json \
      BENCH_log_study.json BENCH_ingest.json [BENCH_exec.json ...]

  # Regression gate: compare the newest point per bench against the
  # median of all earlier points, direction-aware per metric name.
  bench_trajectory.py check --trajectory=BENCH_trajectory.json \
      --tolerance=0.25 [--min-history=3]

  # Prove the detector works without real history:
  bench_trajectory.py selftest

Exit status: 0 ok, 1 regression found (check) or selftest failure,
2 usage / malformed input.

Direction rules (by metric path suffix):
  higher is better:  *_per_sec, *qps, *speedup*
  lower is better:   *_ms, *_seconds, *_s, *_bytes, *maxrss*, *dropped*,
                     *errors*, *_us
  everything else:   informational only, never gated.

The check skips metrics with fewer than --min-history points (a fresh
repo should not fail CI) and skips near-zero baselines where relative
comparison is meaningless.
"""

import argparse
import json
import math
import os
import sys

HIGHER_BETTER = ("_per_sec", "qps", "speedup")
LOWER_BETTER = ("_ms", "_seconds", "_s", "_bytes", "maxrss_kb", "dropped",
                "errors", "_us")

# Leaves that are configuration or identity, not performance: never gated
# and not worth storing as series.
SKIP_SUBSTRINGS = ("provenance", "config.", "seed", "threads", "entries",
                   "scale", "status_counts", "corrupted", "offered",
                   "store_triples", "rows")


def metric_direction(path):
    """'up', 'down', or None (informational) for a dotted metric path."""
    leaf = path.rsplit(".", 1)[-1]
    for suffix in HIGHER_BETTER:
        if leaf.endswith(suffix) or suffix in leaf:
            return "up"
    for suffix in LOWER_BETTER:
        if leaf.endswith(suffix):
            return "down"
    return None


def flatten(obj, prefix=""):
    """Yields (dotted_path, float) for every numeric leaf of a JSON tree.

    Arrays of objects are keyed by a discriminating field when one exists
    (reader/class/threads) so series stay aligned across runs even when
    array order changes; otherwise by index.
    """
    if isinstance(obj, dict):
        for key, value in obj.items():
            path = f"{prefix}.{key}" if prefix else key
            yield from flatten(value, path)
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            key = str(i)
            if isinstance(value, dict):
                for disc in ("reader", "class", "name", "threads"):
                    if disc in value and isinstance(value[disc], (str, int)):
                        key = str(value[disc])
                        break
            yield from flatten(value, f"{prefix}.{key}" if prefix else key)
    elif isinstance(obj, bool):
        return  # bools are ints in Python; not metrics
    elif isinstance(obj, (int, float)):
        if math.isfinite(obj):
            yield prefix, float(obj)


def load_report(path):
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


def report_key(report, path):
    """The bench name a report's series are grouped under."""
    name = report.get("bench")
    if isinstance(name, str) and name:
        return name
    return os.path.splitext(os.path.basename(path))[0]


def report_sha(report):
    prov = report.get("provenance")
    if isinstance(prov, dict):
        build = prov.get("build")
        if isinstance(build, dict):
            sha = build.get("git_commit") or build.get("git_sha")
            if isinstance(sha, str) and sha:
                return sha
    # Older reports (pre-provenance) carried a top-level build block.
    build = report.get("build")
    if isinstance(build, dict):
        sha = build.get("git_commit") or build.get("git_sha")
        if isinstance(sha, str) and sha:
            return sha
    return "unknown"


def load_trajectory(path):
    if not os.path.exists(path):
        return {"format": "rwdt-bench-trajectory-v1", "points": []}
    with open(path, "r", encoding="utf-8") as f:
        data = json.load(f)
    if not isinstance(data, dict) or not isinstance(data.get("points"), list):
        raise ValueError(f"{path}: not a trajectory file")
    return data


def cmd_merge(args):
    trajectory = load_trajectory(args.trajectory)
    merged = 0
    for path in args.reports:
        if not os.path.exists(path):
            print(f"bench_trajectory: skipping missing {path}",
                  file=sys.stderr)
            continue
        report = load_report(path)
        bench = report_key(report, path)
        sha = report_sha(report)
        metrics = {
            p: v
            for p, v in flatten(report)
            if not any(s in p for s in SKIP_SUBSTRINGS)
        }
        if not metrics:
            print(f"bench_trajectory: {path} has no numeric metrics",
                  file=sys.stderr)
            continue
        point = {"bench": bench, "sha": sha, "metrics": metrics}
        # One point per (bench, sha): a CI re-run replaces, not appends,
        # so retried builds don't double-weight the median.
        trajectory["points"] = [
            pt for pt in trajectory["points"]
            if not (pt["bench"] == bench and pt["sha"] == sha)
        ] + [point]
        merged += 1
        print(f"bench_trajectory: merged {bench}@{sha[:12]} "
              f"({len(metrics)} metrics) from {path}")
    with open(args.trajectory, "w", encoding="utf-8") as f:
        json.dump(trajectory, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"bench_trajectory: {args.trajectory} now has "
          f"{len(trajectory['points'])} points")
    return 0 if merged > 0 else 2


def series(points, bench):
    """Ordered list of metric dicts for one bench (file order = time)."""
    return [pt["metrics"] for pt in points if pt["bench"] == bench]


def median(values):
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2 == 1:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def check_trajectory(trajectory, tolerance, min_history):
    """Returns a list of regression strings (empty = pass)."""
    regressions = []
    benches = sorted({pt["bench"] for pt in trajectory["points"]})
    for bench in benches:
        runs = series(trajectory["points"], bench)
        if len(runs) < min_history:
            continue
        latest = runs[-1]
        history = runs[:-1]
        for path, value in sorted(latest.items()):
            direction = metric_direction(path)
            if direction is None:
                continue
            prior = [m[path] for m in history if path in m]
            if len(prior) < min_history - 1:
                continue
            base = median(prior)
            if abs(base) < 1e-9:
                continue  # relative change against ~0 is noise
            change = (value - base) / abs(base)
            if direction == "up" and change < -tolerance:
                regressions.append(
                    f"{bench}:{path} fell {-change:.1%} "
                    f"(now {value:.6g}, median {base:.6g})")
            elif direction == "down" and change > tolerance:
                regressions.append(
                    f"{bench}:{path} rose {change:.1%} "
                    f"(now {value:.6g}, median {base:.6g})")
    return regressions


def cmd_check(args):
    trajectory = load_trajectory(args.trajectory)
    regressions = check_trajectory(trajectory, args.tolerance,
                                   args.min_history)
    points = len(trajectory["points"])
    if regressions:
        print(f"bench_trajectory: {len(regressions)} regression(s) "
              f"across {points} points:")
        for r in regressions:
            print(f"  REGRESSION {r}")
        return 1
    print(f"bench_trajectory: no regressions across {points} points "
          f"(tolerance {args.tolerance:.0%}, min history "
          f"{args.min_history})")
    return 0


def cmd_selftest(_args):
    """Synthesizes a history and asserts the detector fires correctly."""

    def point(sha, qps, wall_ms):
        return {
            "bench": "synthetic",
            "sha": sha,
            "metrics": {"queries_per_sec": qps, "wall_ms": wall_ms},
        }

    # Steady history, then a 40% throughput drop + 40% wall regression.
    bad = {
        "format": "rwdt-bench-trajectory-v1",
        "points": [point(f"sha{i}", 1000.0 + i, 50.0) for i in range(4)] +
                  [point("sha_bad", 600.0, 70.0)],
    }
    found = check_trajectory(bad, tolerance=0.25, min_history=3)
    if len(found) != 2:
        print(f"selftest FAIL: expected 2 regressions, got {found}")
        return 1

    # The same drop within tolerance must pass.
    good = {
        "format": "rwdt-bench-trajectory-v1",
        "points": [point(f"sha{i}", 1000.0 + i, 50.0) for i in range(4)] +
                  [point("sha_ok", 950.0, 53.0)],
    }
    found = check_trajectory(good, tolerance=0.25, min_history=3)
    if found:
        print(f"selftest FAIL: false positive {found}")
        return 1

    # Short history must never gate.
    fresh = {
        "format": "rwdt-bench-trajectory-v1",
        "points": [point("sha0", 1000.0, 50.0), point("sha1", 1.0, 9999.0)],
    }
    found = check_trajectory(fresh, tolerance=0.25, min_history=3)
    if found:
        print(f"selftest FAIL: gated with <min_history points: {found}")
        return 1

    # Flatten must key arrays by discriminator and skip bools/config.
    report = {
        "bench": "ingest",
        "provenance": {"build": {"git_commit": "abc"}, "hw_threads": 8},
        "runs": [
            {"reader": "legacy", "wall_ms": 100.0, "used_mmap": False},
            {"reader": "block", "wall_ms": 40.0, "used_mmap": True},
        ],
    }
    flat = dict(flatten(report))
    if flat.get("runs.block.wall_ms") != 40.0:
        print(f"selftest FAIL: discriminator keying broken: {flat}")
        return 1
    if any("used_mmap" in k for k in flat):
        print(f"selftest FAIL: bool leaked into metrics: {flat}")
        return 1
    if report_sha(report) != "abc":
        print(f"selftest FAIL: sha extraction broken")
        return 1

    print("selftest OK: drop detected, tolerance respected, fresh history "
          "skipped, flatten keyed by discriminator")
    return 0


def main(argv):
    parser = argparse.ArgumentParser(prog="bench_trajectory.py")
    sub = parser.add_subparsers(dest="command", required=True)

    p_merge = sub.add_parser("merge", help="fold BENCH_*.json into the "
                             "trajectory")
    p_merge.add_argument("--trajectory", default="BENCH_trajectory.json")
    p_merge.add_argument("reports", nargs="+")
    p_merge.set_defaults(func=cmd_merge)

    p_check = sub.add_parser("check", help="gate on the newest point vs "
                             "the median of the history")
    p_check.add_argument("--trajectory", default="BENCH_trajectory.json")
    p_check.add_argument("--tolerance", type=float, default=0.25)
    p_check.add_argument("--min-history", type=int, default=3)
    p_check.set_defaults(func=cmd_check)

    p_self = sub.add_parser("selftest", help="synthesize history and "
                            "assert the detector fires")
    p_self.set_defaults(func=cmd_selftest)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, json.JSONDecodeError) as err:
        print(f"bench_trajectory: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
