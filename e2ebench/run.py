#!/usr/bin/env python3
"""End-to-end benchmark of MicroNN: builds e2ebench from source, runs one workload.

    python3 e2ebench/run.py --workload warm_fit --seed 1 --seconds 10 --trace 0

Workloads: warm_fit, mixed_rw, and session_small, which BENCHMARK.json
leaves out (layers.json says why). BENCHMARK.json says why each of its own
exists; layers.json says which per-layer metric should move which
end-to-end metric on which workload. The inputs are a seeded SIFT stand-in
(50k rows, dim 128, L2, top-100) plus bucket and tag attributes; the same
seed gives the same inputs.

The benchmark is built with CMake into .bench_build/e2ebench under the
source tree root ($CARGO_TARGET_DIR/e2ebench when that is set); build output
goes to stderr. The program's own output goes to stdout: a header, every
metric with its unit, and as the last line one JSON object with the keys
correct, attempted, failed and metrics. The time metrics are put at one
reference host speed: the benchmark times a fixed piece of work of its own
(the speed probe) between the workload's calls, on the same threads, and
scales each time by the reference probe time over the median probe time
within 0.5 s of it, so that other tenants of a shared host speeding it up
or slowing it down from run to run do not move them; set-up time is
reported as measured. The notes give the probe times and the unscaled
values. The p99s are printed but left out of the result line. --trace 1
reports the per-layer metrics instead of the end-to-end ones and writes the
spans of the run to .bench_build/e2ebench/trace-<workload>.json.

Exit codes: 0 clean run, 1 an answer or operation failed validation,
2 bad arguments, 3 set-up failed, 4 the build failed or no MicroNN source
tree is next to this directory, 124 the run overran its time limit.
"""
import argparse
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("warm_fit", "session_small", "mixed_rw")
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "e2ebench")


def build(out):
    """Configures (once) and builds the e2ebench target; returns its path."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        print("e2ebench: no MicroNN source tree at", ROOT, file=sys.stderr)
        return None
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", out, "--target", "e2ebench", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return None
    return os.path.join(out, "e2ebench")


def git_revision():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
                           capture_output=True, text=True, env=env, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return r.stdout.strip() if r.returncode == 0 and r.stdout.strip() else "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--n", type=int, help="loaded rows (default 50000)")
    args = ap.parse_args()

    out = build_dir()
    binary = build(out)
    if binary is None:
        return 4

    work = os.path.join(out, "run-%s-%d" % (args.workload, os.getpid()))
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work-dir", work, "--git", git_revision()]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            out, "trace-%s.json" % args.workload)]
    if args.n:
        cmd += ["--n", str(args.n)]

    sys.stdout.flush()
    proc = subprocess.Popen(cmd)
    # A SIGTERM to this script ends the benchmark too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("e2ebench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 124
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
