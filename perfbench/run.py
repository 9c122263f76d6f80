#!/usr/bin/env python3
"""Builds the ocdd end-to-end benchmark from source and runs one workload.

    python3 perfbench/run.py --workload lattice --seed 42 --seconds 15 --trace 0
    python3 perfbench/run.py --self-test

Run it from the root of the repository. The build goes to
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench) and the run's
scratch files to .bench_run/<workload>, both inside the repository. The last
line of stdout is the benchmark's JSON result; see perfbench/README.md.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("lattice", "lineitem")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(build_dir, env):
    """Configures (once) and builds the benchmark, the tests and the CLI."""
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release", *generator],
            check=True, stdout=sys.stderr, env=env)
    subprocess.run(
        ["cmake", "--build", build_dir, "-j", "4", "--target",
         "perfbench", "perfbench_test", "ocdd_cli"],
        check=True, stdout=sys.stderr, env=env)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    if not args.self_test and None in (args.workload, args.seed,
                                       args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    if args.seed is not None and args.seed < 0:
        parser.error("--seed must not be negative")
    if args.seconds is not None and args.seconds < 1:
        parser.error("--seconds must be at least 1")

    for required in ("src/CMakeLists.txt", "tools/CMakeLists.txt"):
        if not os.path.isfile(os.path.join(ROOT, required)):
            fail(f"{required} is missing: run from a full ocdd checkout")

    os.chdir(ROOT)
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(target), "perfbench")
    # Keep the compiler's and the program's temporary files in the checkout.
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    env.pop("OCDD_PROFILE", None)
    env.pop("OCDD_IO_FAULTS", None)

    try:
        build(build_dir, env)
    except (OSError, subprocess.CalledProcessError) as err:
        fail(f"build failed: {err}")

    if args.self_test:
        return subprocess.run([os.path.join(build_dir, "perfbench_test")],
                              env=env).returncode

    workdir = os.path.join(".bench_run", args.workload)
    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--cli", os.path.join(build_dir, "ocdd_tools", "ocdd"),
           "--workdir", workdir]
    try:
        return subprocess.run(cmd, env=env, timeout=170).returncode
    except subprocess.TimeoutExpired:
        fail("the run did not finish within 170 seconds")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(".bench_run")
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
