#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload month-paper --seed 1 --seconds 55 --trace 0

Run from the root of the repository. The first run configures and builds
perfbench/ (the library from src/ plus the benchmark's sources in
perfbench/src) into .bench_build/perfbench; later runs reuse that build. The
binary's stdout is passed through, so its last line is the result object
{"correct", "attempted", "failed", "metrics"}. Build output goes to stderr.

Every CODA_* variable is removed from the binary's environment, so the
default program is measured. Report digests recorded for a seed in
perfbench/digests.json are passed to the binary, which fails the run when a
report differs. Spans of a traced run land in .bench_build/trace/.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "coda_perfbench")
WORKLOADS = ("month-paper", "scale-10k")
RUN_TIMEOUT_S = 175


def clean_env():
    return {k: v for k, v in os.environ.items() if not k.startswith("CODA_")}


def build():
    """Configures (once) and builds the binary; False on any failure."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  env=clean_env(), check=False)
        except OSError as err:
            print(f"perfbench: cannot run {cmd[0]}: {err}", file=sys.stderr)
            return False
        if done.returncode != 0:
            print("perfbench: build failed", file=sys.stderr)
            return False
    return os.path.exists(BINARY)


def source_rev():
    """The git commit when the tree is a checkout, plus a digest of src/."""
    rev = "nogit"
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.isfile(head):
        with open(head) as f:
            ref = f.read().strip()
        rev = ref
        if ref.startswith("ref: "):
            ref_file = os.path.join(ROOT, ".git", ref[5:])
            if os.path.isfile(ref_file):
                with open(ref_file) as f:
                    rev = f.read().strip()
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return f"{rev[:12]}+src:{digest.hexdigest()[:12]}"


def expected_digests(workload, seed):
    with open(os.path.join(HERE, "digests.json")) as f:
        recorded = json.load(f)
    return recorded.get(workload, {}).get(str(seed), {})


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    if not build():
        return 1

    work = os.path.join(BUILD, f"work-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    trace_dir = os.path.join(ROOT, ".bench_build", "trace")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [BINARY, "--work-dir", work,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--source-rev", source_rev(), "--trace-out",
           os.path.join(trace_dir,
                        f"{args.workload}-seed{args.seed}.spans.jsonl")]
    for policy, digest in sorted(
            expected_digests(args.workload, args.seed).items()):
        cmd += ["--expect", f"{policy}={digest}"]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=clean_env(),
                              timeout=RUN_TIMEOUT_S, check=False, text=True)
    except subprocess.TimeoutExpired:
        print("perfbench: benchmark binary timed out", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode != 0:
        return 1
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        print("perfbench: benchmark binary printed no result", file=sys.stderr)
        return 1
    return 0 if set(result) == {"correct", "attempted", "failed",
                                "metrics"} else 1


if __name__ == "__main__":
    sys.exit(main())
