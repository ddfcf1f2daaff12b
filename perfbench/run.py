#!/usr/bin/env python3
"""Run one workload of the eftvqa benchmark.

    python3 perfbench/run.py --workload dm_vqe|clifford_ga|serve_mixed \
        --seed N --seconds S --trace 0|1

Run it from the repository root. It builds the benchmark (and the
library, from source) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench, then runs the workload in its own process in a
fresh directory under .bench_run/ on the disk filesystem, and removes
that directory afterwards (a traced run keeps its span file,
.bench_run/trace-<workload>-s<seed>.json). The last line of standard
output is the result JSON: {"correct", "attempted", "failed",
"metrics"}.
"""

import argparse
import fcntl
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("dm_vqe", "clifford_ga", "serve_mixed")
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configure once, then build the eftbench target; returns its path."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        sys.exit("perfbench: the eftvqa sources are not next to perfbench/")
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    jobs = str(os.cpu_count() or 1)
    with open(os.path.join(out, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            subprocess.run(["cmake", "-S", HERE, "-B", out,
                            "-DCMAKE_BUILD_TYPE=Release"] + generator,
                           stdout=sys.stderr, check=True)
        subprocess.run(["cmake", "--build", out, "--target", "eftbench",
                        "-j", jobs], stdout=sys.stderr, check=True)
    return os.path.join(out, "eftbench")


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        return subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=("0", "1"), required=True)
    ap.add_argument("--tiny", action="store_true",
                    help="self-test sizes")
    ap.add_argument("--corrupt-probe", action="store_true",
                    help="self-test: perturb one recorded probe value")
    args = ap.parse_args()

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit("perfbench: build failed: %s" % e)

    runs = os.path.join(ROOT, ".bench_run")
    os.makedirs(runs, exist_ok=True)
    run_dir = tempfile.mkdtemp(
        prefix="%s-s%d-" % (args.workload, args.seed), dir=runs)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           # Relative to ROOT, which keeps the daemon's socket path short.
           "--dir", os.path.relpath(run_dir, ROOT),
           "--probes", os.path.join(HERE, "probes.txt"),
           "--commit", commit()]
    if args.tiny:
        cmd.append("--tiny")
    if args.corrupt_probe:
        cmd.append("--corrupt-probe")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: %s did not finish in %d s"
                 % (args.workload, RUN_TIMEOUT_S))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
