#!/usr/bin/env python3
"""Build and run the rmp end-to-end benchmark (see perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload c3_serial --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --selftest

The first call configures and builds the rmp library and the benchmark
binary into .bench_build/perfbench (Release); later calls rebuild
incrementally.  The
binary's scratch spools live in .bench_work and are removed afterwards.  The
last line of standard output is the result object; build logs go to
standard error.  Exits non-zero, printing no result, when the build or the
binary fails.
"""
import argparse
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
WORK_DIR = ROOT / ".bench_work"
# c3_baseline is not a benchmark workload: it reproduces the ROADMAP's
# baseline diagnosis (present-high, 8 generations, 100 trials, one thread).
WORKLOADS = ("c3_threaded", "c3_serial", "spool_mixed", "c3_baseline")


def quiet(cmd):
    """Runs a build step; its log goes to stderr only when it fails."""
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        sys.exit(f"perfbench: build step failed: {' '.join(cmd)}")


def build():
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        quiet(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
               "-DCMAKE_BUILD_TYPE=Release"])
    quiet(["cmake", "--build", str(BUILD_DIR), "-j4", "--target", "rmp_perfbench"])
    return BUILD_DIR / "rmp_perfbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="decorator transparency and cross-width checks")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required unless --selftest is given")

    # SIGTERM unwinds like Ctrl-C, so subprocess.run kills and reaps the binary.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    binary = build()
    cmd = [str(binary), "--work-dir", str(WORK_DIR)]
    if args.selftest:
        cmd.append("--selftest")
    else:
        cmd += ["--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        rc = subprocess.run(cmd, cwd=ROOT).returncode
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)
    sys.exit(rc)


if __name__ == "__main__":
    main()
