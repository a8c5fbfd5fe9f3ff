#!/usr/bin/env python3
"""Builds and runs the closed-loop serving benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload fleet_d2 --seed 1 --seconds 20 --trace 0

The first call configures and builds perfbench/ (and the repository's
libraries under src/) in Release mode; later calls only re-check the build.
The build tree is $CARGO_TARGET_DIR/perfbench when that variable is set,
otherwise .bench_build/perfbench. The last line of standard output is the
result object {"correct", "attempted", "failed", "metrics"}; build output goes
to standard error.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def run_child(cmd, timeout, capture=False):
    """Runs cmd in its own process group; kills the whole group on timeout."""
    proc = subprocess.Popen(
        cmd,
        cwd=ROOT,
        stdout=subprocess.PIPE if capture else sys.stderr,
        stderr=sys.stderr,
        text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("timed out after %d s: %s" % (timeout, " ".join(cmd)))
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    return proc.returncode, out


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        code, out = run_child(["git", "rev-parse", "HEAD"], 30, capture=True)
        if code == 0 and out.strip():
            return "git:" + out.strip()
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree:" + digest.hexdigest()[:16]


def build(out_dir):
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        code, _ = run_child(
            ["cmake", "-S", HERE, "-B", out_dir, "-DCMAKE_BUILD_TYPE=Release"],
            BUILD_TIMEOUT_S,
        )
        if code != 0:
            fail("cmake configure failed")
    code, _ = run_child(
        ["cmake", "--build", out_dir, "--target", "perfbench", "-j", jobs],
        BUILD_TIMEOUT_S,
    )
    if code != 0:
        fail("build failed")
    return os.path.join(out_dir, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "server", "auth_server.hpp")):
        fail("no repository sources next to perfbench/ (expected src/)")

    out_dir = build_dir()
    binary = build(out_dir)
    scratch = os.path.join(out_dir, "scratch")
    os.makedirs(scratch, exist_ok=True)

    code, _ = run_child([binary, "--selftest"], RUN_TIMEOUT_S)
    if code != 0:
        fail("self-tests failed")

    code, out = run_child(
        [
            binary,
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
            "--source", source_id(),
            "--scratch", scratch,
        ],
        RUN_TIMEOUT_S,
        capture=True,
    )
    lines = out.rstrip("\n").split("\n") if out else []
    if code != 0 or not lines:
        sys.stderr.write(out or "")
        fail("benchmark exited with code %d" % code)
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result line")
    sys.stdout.write(out if out.endswith("\n") else out + "\n")
    sys.stdout.flush()


if __name__ == "__main__":
    main()
