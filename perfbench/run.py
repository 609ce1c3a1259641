#!/usr/bin/env python3
"""Build and run the stack benchmark.

Usage (from the repository root):
    python3 perfbench/run.py --workload globe_quake|lts_box|campaign_paced \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

The first call configures and builds perfbench/ (which builds the
repository's libraries from source) into $CARGO_TARGET_DIR, or .bench_build
when that is unset; later calls rebuild incrementally. Build output goes to
stderr, so the last line of stdout is the benchmark's JSON result. A traced
run (--trace 1) writes its Chrome trace to <build dir>/trace-<workload>-<seed>.json.
"""

import fcntl
import os
import subprocess
import sys

RUN_TIMEOUT_S = 175


def build(build_root):
    here = os.path.dirname(os.path.abspath(__file__))
    bdir = os.path.join(build_root, "perfbench")
    os.makedirs(bdir, exist_ok=True)
    with open(os.path.join(build_root, ".build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
            cfg = subprocess.run(
                ["cmake", "-S", here, "-B", bdir,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                stdout=sys.stderr, stderr=sys.stderr)
            if cfg.returncode != 0:
                return None
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        made = subprocess.run(
            ["cmake", "--build", bdir, "--target", "perfbench", "-j", jobs],
            stdout=sys.stderr, stderr=sys.stderr)
        if made.returncode != 0:
            return None
    return os.path.join(bdir, "perfbench")


def option(args, name):
    if name in args:
        i = args.index(name)
        if i + 1 < len(args):
            return args[i + 1]
    return None


def main():
    args = sys.argv[1:]
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    exe = build(build_root)
    if exe is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    cmd = [exe] + args
    if "--selftest" not in args:
        cmd += ["--work-dir", os.path.join(build_root, "work")]
        if option(args, "--trace") == "1":
            cmd += ["--trace-file", os.path.join(
                build_root, "trace-%s-%s.json" % (option(args, "--workload"),
                                                  option(args, "--seed")))]
    proc = subprocess.Popen(cmd)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        proc.kill()
        proc.wait()
        return 130


if __name__ == "__main__":
    sys.exit(main())
