#!/usr/bin/env python3
"""Runs the DN-Hunter benchmark.

    python3 perfbench/run.py --workload batch-ftth --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1     # every workload, trace 0

Workloads: batch-ftth and batch-mobile (the ones BENCHMARK.json lists) and
live-windows, an open-loop replay that is run by hand only (see
perfbench/predictions.json for why).

Builds perfbench/ (the repository's libraries plus dnh_perfbench, Release) into
.bench_build/, generates the seeded capture and its reference output once per
seed into .bench_cache/, then measures in a separate process. The last line
of stdout is the result object; every run is also appended, with its
provenance, to .bench_results/results.jsonl (see perfbench/compare.py).
Exit status: 0 ok, 1 output mismatch, 2 build or usage error.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
CACHE = ROOT / ".bench_cache"
WORK = ROOT / ".bench_work"
RESULTS = ROOT / ".bench_results" / "results.jsonl"
WORKLOADS = ["batch-ftth", "batch-mobile", "live-windows"]
# Source directories the capture generator compiles from (dnh_trafficgen and
# everything it links): a change in any of them regenerates the capture.
GENERATOR_DIRS = ["trafficgen", "core", "baseline", "orgdb", "dns", "tls",
                  "http", "packet", "pcap", "flow", "flowexport", "net",
                  "util", "obs"]
# Cached captures are ~110-130 MB each; keep the most recently used ones.
CACHE_KEEP = 6


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def tree_hash(dirs):
    h = hashlib.sha256()
    for d in dirs:
        for path in sorted(p for p in d.rglob("*") if p.is_file()):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def commit_id():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"no DN-Hunter sources under {ROOT / 'src'}; cannot build")
        sys.exit(2)
    cmake = shutil.which("cmake")
    if cmake is None:
        log("cmake not found")
        sys.exit(2)
    BUILD.mkdir(parents=True, exist_ok=True)
    if not (BUILD / "CMakeCache.txt").exists():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        cfg = subprocess.run([cmake, "-S", str(HERE), "-B", str(BUILD), *gen,
                              "-DCMAKE_BUILD_TYPE=Release"],
                             stdout=sys.stderr, stderr=sys.stderr)
        if cfg.returncode != 0:
            log("configure failed")
            sys.exit(2)
    jobs = str(min(4, os.cpu_count() or 1))
    res = subprocess.run([cmake, "--build", str(BUILD), "--target",
                          "dnh_perfbench", "-j", jobs],
                         stdout=sys.stderr, stderr=sys.stderr)
    if res.returncode != 0:
        log("build failed")
        sys.exit(2)
    return BUILD / "dnh_perfbench"


def trim_cache(keep):
    """Drops the least recently used captures (and their references)."""
    pcaps = sorted(CACHE.glob("*.pcap"), key=lambda p: p.stat().st_mtime,
                   reverse=True)
    for old in pcaps[keep:]:
        old.unlink(missing_ok=True)
        stem = old.name[:-len(".pcap")].rsplit("-", 1)[0]
        for ref in CACHE.glob(stem + "-*.ref"):
            ref.unlink(missing_ok=True)


def check_metrics(result, workload, trace):
    """The result carries every BENCHMARK.json metric with its unit; a
    workload BENCHMARK.json lists carries nothing else."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {m["name"]: m["unit"]
            for m in bench["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    listed = workload in {w["name"] for w in bench["workloads"]}
    missing = {n for n, u in want.items() if got.get(n) != u}
    extra = set(got) - set(want) if listed else set()
    if missing or extra:
        log(f"metrics disagree with BENCHMARK.json: missing or wrong unit "
            f"{sorted(missing)}, unexpected {sorted(extra)}")
        sys.exit(2)


def run_workload(binary, workload, args, hashes):
    common = ["--workload", workload, "--seed", str(args.seed),
              "--cache", str(CACHE), "--gen-hash", hashes[0],
              "--src-hash", hashes[1]]
    prep = subprocess.run([str(binary), "prepare", *common],
                          capture_output=True, text=True)
    sys.stderr.write(prep.stderr)
    if prep.returncode != 0:
        log(f"prepare failed for {workload}")
        sys.exit(2)
    info = json.loads(prep.stdout.strip().splitlines()[-1])
    Path(info["pcap"]).touch()  # mark as recently used
    trim_cache(CACHE_KEEP)
    log(f"{workload}: capture generation {info['gen_s']:.3f} s, reference "
        f"{info['reference_s']:.3f} s (0 = cached; neither is in setup_s)")
    WORK.mkdir(parents=True, exist_ok=True)
    RESULTS.parent.mkdir(parents=True, exist_ok=True)
    res = subprocess.run([str(binary), "run", *common,
                          "--seconds", str(args.seconds),
                          "--trace", str(args.trace), "--work", str(WORK),
                          "--commit", commit_id(),
                          "--results", str(args.results)],
                         capture_output=True, text=True)
    sys.stderr.write(res.stderr)
    lines = res.stdout.strip().splitlines()
    if res.returncode not in (0, 1) or not lines:
        log(f"{workload}: dnh_perfbench failed (exit {res.returncode})")
        sys.exit(2)
    check_metrics(json.loads(lines[-1]), workload, args.trace)
    return res.returncode, lines


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--results", type=Path, default=RESULTS,
                    help="JSONL file each run's record is appended to")
    args = ap.parse_args()
    args.results = args.results.resolve()

    binary = build()
    hashes = (tree_hash([ROOT / "src" / d for d in GENERATOR_DIRS]),
              tree_hash([ROOT / "src"]))
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    status, results = 0, {}
    for workload in workloads:
        code, lines = run_workload(binary, workload, args, hashes)
        status = max(status, code)
        if len(workloads) == 1:
            print("\n".join(lines), flush=True)
            return code
        print("\n".join(lines[:-1]), flush=True)
        results[workload] = json.loads(lines[-1])
    correct = all(r["correct"] for r in results.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}/{name}": m for w, r in results.items()
                    for name, m in r["metrics"].items()},
    }), flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
