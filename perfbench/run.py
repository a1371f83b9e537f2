#!/usr/bin/env python3
"""DiEvent benchmark: builds it from source, runs one workload, and prints
every metric with its unit, then one JSON result line.

    python3 perfbench/run.py --workload meeting_vision --seed 1 \
        --seconds 30 --trace 0

--trace 0 measures the end-to-end metrics untraced; --trace 1 makes the
traced run and reports the per-layer metrics (see perfbench/README.md).
Everything is built and written under .bench_build/ in the checkout.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import stats  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_ROOT = ROOT / ".bench_build"
BUILD_DIR = BUILD_ROOT / "perfbench"
WORKLOADS = ("meeting_vision", "fleet_ingest", "corpus_query")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds dievent_perfbench; returns its path."""
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    log_path = BUILD_DIR / "build.log"
    with open(log_path, "a") as out:
        if not (BUILD_DIR / "CMakeCache.txt").exists():
            cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=out, stderr=out).returncode != 0:
                shutil.rmtree(BUILD_DIR / "CMakeFiles", ignore_errors=True)
                (BUILD_DIR / "CMakeCache.txt").unlink(missing_ok=True)
                return None
        cmd = ["cmake", "--build", str(BUILD_DIR), "--target",
               "dievent_perfbench", "-j", str(os.cpu_count() or 1)]
        if subprocess.run(cmd, stdout=out, stderr=out).returncode != 0:
            return None
    return BUILD_DIR / "dievent_perfbench"


def source_digest():
    """SHA-256 over the library sources: identifies the code measured
    even where the checkout is not a git repository."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def filesystem_type(path):
    """Type of the filesystem holding `path`, from /proc/self/mounts."""
    best, fstype = "", "unknown"
    try:
        with open("/proc/self/mounts") as f:
            for line in f:
                fields = line.split()
                if len(fields) < 3:
                    continue
                mount = fields[1]
                inside = (str(path) == mount or
                          str(path).startswith(mount.rstrip("/") + "/"))
                if inside and len(mount) > len(best):
                    best, fstype = mount, fields[2]
    except OSError:
        pass
    return fstype


def fmt(value):
    return "withheld" if value is None else "%.6g" % value


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log("perfbench: no DiEvent sources next to perfbench/; run from a "
            "full checkout")
        return 1
    binary = build()
    if binary is None:
        log("perfbench: build failed; see %s" % (BUILD_DIR / "build.log"))
        return 1

    cmd = [str(binary), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds)]
    trace_path = None
    if args.trace:
        trace_path = BUILD_ROOT / "traces" / (
            "%s-seed%d.json" % (args.workload, args.seed))
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(trace_path)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        log("perfbench: dievent_perfbench exceeded %d s" % RUN_TIMEOUT_S)
        return 1
    if proc.returncode != 0 or not proc.stdout.strip():
        log(proc.stderr)
        log("perfbench: dievent_perfbench exited with %d" % proc.returncode)
        return 1
    raw = json.loads(proc.stdout.strip().splitlines()[-1])

    provenance = dict(raw["provenance"])
    provenance.update({"git_commit": git_commit(),
                       "source_sha256": source_digest(),
                       "checkout_fs": filesystem_type(ROOT)})
    attempted, failed = raw["attempted"], raw["failed"]
    table = {}
    if args.trace:
        table = stats.span_table(stats.load_chrome_trace(trace_path))
        metrics = stats.per_layer(raw, table)
    else:
        metrics = stats.end_to_end(raw)

    print("workload %s seed %d %s run" %
          (args.workload, args.seed, "traced" if args.trace else "untraced"))
    print("provenance: " + json.dumps(provenance, sort_keys=True))
    for name, (value, unit, n) in metrics.items():
        print("  %-30s %14s %-9s (n=%d)" % (name, fmt(value), unit, n))
    print("  %-30s %14s %-9s (%d of %d operations)" % (
        "failed_ratio", fmt(failed / max(1, attempted)), "fraction",
        failed, attempted))
    if table:
        print("  span self times (ms): name calls total mean p50 p99")
        for name, row in sorted(table.items()):
            print("    %-24s %7d %10.2f %9.4f %9s %9s" % (
                name, row["calls"], row["self_ms"], row["mean_ms"],
                fmt(row["p50_ms"]), fmt(row["p99_ms"])))
        totals = stats.layer_totals(table)
        print("  layer self totals (ms): " + ", ".join(
            "%s %.1f" % kv for kv in sorted(totals.items())))
        print("  chrome trace: %s" % trace_path)
    for err in raw["errors"]:
        print("  error: " + err)

    missing = [name for name, (value, _, _) in metrics.items()
               if value is None]
    correct = failed == 0 and not missing
    if missing:
        print("  metrics without enough samples: " + ", ".join(missing))
    reported = {name: {"value": value, "unit": unit}
                for name, (value, unit, _) in metrics.items()
                if value is not None}

    results_dir = BUILD_ROOT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    with open(results_dir / ("%s-seed%d-trace%d.json" % (
            args.workload, args.seed, args.trace)), "w") as f:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "trace": args.trace, "provenance": provenance,
                   "metrics": {k: {"value": v, "unit": u, "samples": n}
                               for k, (v, u, n) in metrics.items()},
                   "values": raw["values"], "attempted": attempted,
                   "failed": failed, "errors": raw["errors"],
                   "spans": table}, f, indent=1, sort_keys=True)

    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": reported}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
