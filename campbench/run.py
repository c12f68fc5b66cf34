#!/usr/bin/env python3
"""Campaign benchmark entry point.

Run from the repository root:

    python3 campbench/run.py --workload invisispec-ctseq --seed 1 \
        --seconds 10 --trace 0

Builds the amulet library, the subprocess worker and the benchmark
driver from source into $CARGO_TARGET_DIR (default .bench_build), then
replaces itself with the driver, so the workload runs in this one
process. Build output goes to standard error; the last line the
campbench binary writes to standard output is the JSON result.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def source_id():
    """Commit when the checkout is a git repository, else a digest of the
    library sources (what the benchmark builds)."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, check=True)
            return "commit:" + out.stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    h = hashlib.sha1()
    for base in ("src", "examples", "CMakeLists.txt"):
        path = os.path.join(ROOT, base)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return "sources-sha1:" + h.hexdigest()[:16]


def build(build_dir):
    log = sys.stderr
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir],
                       stdout=log, stderr=log, check=True)
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs,
                    "--target", "campbench"],
                   stdout=log, stderr=log, check=True)
    return os.path.join(build_dir, "campbench")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")

    os.chdir(ROOT)
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    try:
        driver = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print("campbench: build failed: %s" % e, file=sys.stderr)
        return 1
    argv = [driver, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--source-id", source_id()]
    sys.stdout.flush()
    sys.stderr.flush()
    os.execv(driver, argv)


if __name__ == "__main__":
    sys.exit(main())
