#!/usr/bin/env python3
"""Build (on first use) and run the Twip shard-tier benchmark.

Run from the root of a checkout of the repository:

    python3 twipbench/run.py --workload twip-read --seed 1 --seconds 10 --trace 0

Builds twipbench/ as its own CMake package into $CARGO_TARGET_DIR/twipbench
(default .bench_build/twipbench), then runs one benchmark process. Its
standard output ends with one JSON line: {"correct", "attempted", "failed",
"metrics"}. Everything the run writes (build tree, WAL directories, span
files) stays under that build directory; WAL directories are removed when
the run ends. Exits nonzero, without a result, when the engine sources are
missing or the build fails.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("twip-read", "twip-write", "twip-cold")
RUN_TIMEOUT_S = 170


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.abspath(os.path.join(root, "twipbench"))


def build(out):
    """Configure (once) and build; build output goes to stderr."""
    engine = os.path.join(HERE, "..", "src", "shard", "sharded_server.cc")
    if not os.path.exists(engine):
        print("twipbench: engine sources not found next to twipbench/; "
              "run from a full checkout", file=sys.stderr)
        return False
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        if subprocess.call(["cmake", "-S", HERE, "-B", out,
                            "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=sys.stderr) != 0:
            return False
    return subprocess.call(["cmake", "--build", out, "-j", "4"],
                           stdout=sys.stderr) == 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="the workload's smoke size (seconds, same checks)")
    args = ap.parse_args()

    out = build_dir()
    if not build(out):
        print("twipbench: build failed", file=sys.stderr)
        return 1

    scratch = os.path.join(out, "runs")
    os.makedirs(scratch, exist_ok=True)
    cmd = [os.path.join(out, "twipbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--wal-dir", scratch]
    if args.trace:
        cmd += ["--spans", os.path.join(out, "spans-%s.tsv" % args.workload)]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("twipbench: run exceeded %ds" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    finally:
        # The process removes its own WAL directory; this covers a crash.
        run_dir = os.path.join(scratch, "%s-%d" % (args.workload, proc.pid))
        shutil.rmtree(run_dir, ignore_errors=True)
    sys.stdout.write(stdout)
    if proc.returncode != 0:
        print("twipbench: benchmark exited with %d" % proc.returncode,
              file=sys.stderr)
        return 1
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        print("twipbench: no result line", file=sys.stderr)
        return 1
    return 0 if set(result) == {"correct", "attempted", "failed",
                                "metrics"} else 1


if __name__ == "__main__":
    sys.exit(main())
