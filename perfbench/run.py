#!/usr/bin/env python3
"""Repository benchmark entry point (see README.md in this directory).

Run from the repository root:

    python3 perfbench/run.py --workload table2-serial --seed 2026 --seconds 15 --trace 0

Builds the perfbench program and the analysis libraries from source
(Release, under $CARGO_TARGET_DIR or .bench_build), runs one workload,
and relays its output.  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("table2-serial", "table2-par4", "warm-long")
# A run measures for --seconds, plus set-up and checks; past this it hangs.
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    return code


def build(build_dir):
    """Configure (once) and build perfbench; build output goes to stderr."""
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=2026)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-golden", action="store_true",
                    help="record this build's estimates as the golden rows (seed 2026 only)")
    args = ap.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        return fail("no program sources (src/) here; run from the repository root")
    build_root = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        binary = build(os.path.join(build_root, "perfbench"))
    except (OSError, subprocess.CalledProcessError) as e:
        return fail(f"build failed: {e}", 3)

    work = os.path.join(build_root, f"work-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--golden-dir", os.path.join(HERE, "golden"), "--work-dir", work,
           "--trace-out", os.path.join(build_root, f"trace-{args.workload}-{args.seed}.json")]
    if args.write_golden:
        cmd.append("--write-golden")
    # The program reads these; the benchmark fixes what they would change.
    env = {k: v for k, v in os.environ.items() if not k.startswith("TERRORS_")}
    last = ""
    try:
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env) as proc:
            try:
                out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
                return fail(f"run exceeded {RUN_TIMEOUT_S} s", 4)
        sys.stdout.write(out)
        lines = out.strip().splitlines()
        last = lines[-1] if lines else ""
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        return fail(f"perfbench exited with {proc.returncode}", proc.returncode)
    try:
        result = json.loads(last)
    except ValueError:
        return fail("perfbench printed no result line", 5)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return fail("malformed result line", 5)
    return 0


if __name__ == "__main__":
    sys.exit(main())
