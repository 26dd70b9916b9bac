#!/usr/bin/env python3
"""Builds the repository benchmark from the checkout and runs one workload.

    python3 perfbench/run.py --workload serve_mixed|train_local|train_ps \
        --seed N --seconds S --trace 0|1

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the checkout
root; build output goes to stderr. The runner's report goes to stdout, and
its last line is the JSON result, checked here against BENCHMARK.json's
metric names and units. PKGM_NET_IO, PKGM_KERNEL and PKGM_CRC32C are
removed from the environment so the runtime probes choose, as in a default
deployment.
"""
import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNNER_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    return 1


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    jobs = str(min(os.cpu_count() or 1, 4))
    subprocess.run(
        ["cmake", "--build", build_dir, "-j", jobs, "--target", "perfbench",
         "pkgm_netd", "pkgm_psd"],
        stdout=sys.stderr, check=True)


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    rows = spec["per_layer"] if trace else spec["end_to_end"]
    return {row["name"]: row["unit"] for row in rows}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=["serve_mixed", "train_local", "train_ps"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = parser.parse_args()

    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        return fail("no program sources beside the benchmark in " + ROOT)
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_dir)
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        return fail("build failed: %s" % e)

    env = {k: v for k, v in os.environ.items()
           if k not in ("PKGM_NET_IO", "PKGM_KERNEL", "PKGM_CRC32C")}
    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    # Own process group, so a timeout also stops the daemons it spawned.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUNNER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return fail("runner timed out after %d s" % RUNNER_TIMEOUT_S)

    lines = out.rstrip("\n").split("\n")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    try:
        result = json.loads(lines[-1])
        got = {k: v["unit"] for k, v in result["metrics"].items()}
    except (ValueError, KeyError, TypeError):
        return fail("runner printed no result (exit code %d)" % proc.returncode)
    if got != expected_metrics(args.trace):
        return fail("metrics differ from BENCHMARK.json")
    print(lines[-1])
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
