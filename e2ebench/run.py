#!/usr/bin/env python3
"""Builds the end-to-end COBRA benchmark from source and runs one workload.

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The build lands in .bench_build/e2ebench
(configured with e2ebench/CMakeLists.txt, which builds the repository's
cobra_core library); build output goes to stderr, so the benchmark's last
stdout line is the result JSON. Traced runs write their spans to
.bench_build/e2ebench/trace-<workload>-<seed>.jsonl unless --trace-out is
given. Every other argument is passed to cobra_e2ebench unchanged (see
e2ebench/README.md). Exits non-zero, printing no result, when the build or
the run fails.
"""

import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
BINARY = os.path.join(BUILD, "cobra_e2ebench")


def run(cmd, **kwargs):
    """Runs `cmd` to completion; on SIGTERM stops it and waits for it."""
    child = subprocess.Popen(cmd, **kwargs)

    def stop(signum, frame):
        child.terminate()
        child.wait()
        sys.exit(128 + signum)

    previous = signal.signal(signal.SIGTERM, stop)
    try:
        return child.wait()
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
        signal.signal(signal.SIGTERM, previous)


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "--target", "cobra_e2ebench", "-j", jobs],
    ]
    for step in steps:
        if run(step, stdout=sys.stderr, stderr=sys.stderr) != 0:
            return False
    return os.path.exists(BINARY)


def main(argv):
    try:
        if not build():
            print("e2ebench: build failed", file=sys.stderr)
            return 2
    except OSError as error:
        print(f"e2ebench: cannot build: {error}", file=sys.stderr)
        return 2
    args = list(argv)
    if "--trace-out" not in args and "--trace" in args:
        at = args.index("--trace")
        if at + 1 < len(args) and args[at + 1] == "1":
            workload = args[args.index("--workload") + 1] if "--workload" in args else "run"
            seed = args[args.index("--seed") + 1] if "--seed" in args else "default"
            args += ["--trace-out", os.path.join(BUILD, f"trace-{workload}-{seed}.jsonl")]
    sys.stdout.flush()
    return run([BINARY] + args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
