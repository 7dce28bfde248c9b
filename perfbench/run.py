#!/usr/bin/env python3
"""Builds and runs the repository benchmark (mhd_perfbench).

Usage, from the repository root:

    python3 perfbench/run.py --workload backup-ingest|restore-aged|daemon-mixed|all \
        --seed N --seconds S --trace 0|1 [--smoke]

The library is compiled from ../src into .bench_build (build output goes to
stderr). The benchmark's report goes to stdout; its last line is one JSON
object {correct, attempted, failed, metrics}. The exit code is the
benchmark's: non-zero on any failed operation, byte mismatch or
determinism break, and also when the sources or the build are missing.
"""
import argparse
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build"
BUILD_TYPE = "RelWithDebInfo"
WORKLOADS = ("backup-ingest", "restore-aged", "daemon-mixed", "all")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configures (once) and builds mhd_perfbench; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"library sources not found under {ROOT / 'src'}")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
               f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", str(BUILD_DIR), "--target", "mhd_perfbench",
           "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return BUILD_DIR / "mhd_perfbench"


def git_rev():
    # Only this checkout's own repository; never a parent directory's.
    if not (ROOT / ".git").exists():
        return "none"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def source_digest():
    """SHA-1 over the library and benchmark sources: identifies the code
    measured even where the checkout is not a git repository."""
    h = hashlib.sha1()
    for top in (ROOT / "src", BENCH_DIR):
        for path in sorted(p for p in top.rglob("*") if p.is_file()):
            if "__pycache__" in path.parts:
                continue
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny corpus; runs in seconds (the benchmark's tests)")
    args = ap.parse_args()

    binary = build()
    work_dir = BUILD_DIR / f"work-{os.getpid()}"
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", os.path.relpath(work_dir, ROOT),
           "--git-rev", git_rev(), "--source-digest", source_digest()]
    if args.smoke:
        cmd.append("--smoke")
    sys.stdout.flush()
    # cwd is the repository root so the daemon's Unix socket path stays
    # relative and short.
    try:
        rc = subprocess.run(cmd, cwd=ROOT).returncode
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    sys.exit(rc)


if __name__ == "__main__":
    main()
