#!/usr/bin/env python3
"""Build the benchmark harness from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout.  It builds
perfbench/harness.exe and bin/ccsched.exe with dune, runs the harness in
a session of its own, and passes its output through.  The last line is
the harness's result object, checked here for shape and for holding
exactly the metrics BENCHMARK.json lists for the mode (end_to_end with
--trace 0, per_layer with --trace 1, where the metrics of layers the
workload does not exercise are reported as 0); any failure exits
non-zero without a result line.  Workloads are described in
BENCHMARK.json; scratch files go under .perfbench/.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

WORKLOADS = ("plan-scale", "exec-fit", "exec-thrash", "serve-mix")
HARNESS = os.path.join("_build", "default", "perfbench", "harness.exe")
STATE = os.path.join(".perfbench", "state")
CCSCHED = os.path.join("_build", "default", "bin", "ccsched.exe")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 160


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def stop_session(pgid):
    """Kill whatever is left in the harness's session and wait for it."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def private_tmpfs(command):
    """Run [command] in a mount namespace of its own with a tmpfs on
    STATE, so the serve daemon's state directory stays inside the
    checkout yet off the disk: on a shared disk its per-request metrics
    writes make latency follow other tenants' I/O.  The mount is seen by
    no other process and goes away with the harness.  Without the
    privilege for it, STATE stays on the checkout's filesystem; the
    harness prints which one it got."""
    os.makedirs(STATE, exist_ok=True)
    try:
        probe = subprocess.run(
            ["unshare", "--mount", "--propagation", "private", "--",
             "mount", "-n", "-t", "tmpfs", "-o", "size=512m", "perfbench", STATE],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=30)
    except (FileNotFoundError, subprocess.TimeoutExpired):
        return command
    if probe.returncode != 0:
        return command
    return (["unshare", "--mount", "--propagation", "private", "--", "sh", "-c",
             'mount -n -t tmpfs -o size=512m perfbench "$0" && exec "$@"', STATE]
            + command)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")
            and os.path.isdir("bin")):
        fail("no source tree here: run from the root of a checkout "
             "(dune-project, lib/ and bin/ are missing)")
    with open("BENCHMARK.json") as f:
        manifest = json.load(f)

    # No shared dune cache: the build reads and writes only the checkout.
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "--display", "quiet",
             "./perfbench/harness.exe", "./bin/ccsched.exe"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            timeout=BUILD_TIMEOUT_S)
    except FileNotFoundError:
        fail("dune not found on PATH")
    except subprocess.TimeoutExpired:
        fail(f"build did not finish in {BUILD_TIMEOUT_S} s")
    if build.returncode != 0:
        sys.stderr.write(build.stdout.decode(errors="replace"))
        fail("build failed")

    command = [HARNESS, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--ccsched", CCSCHED]
    proc = subprocess.Popen(private_tmpfs(command), stdout=subprocess.PIPE,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop_session(proc.pid)
        proc.wait()
        fail(f"{args.workload} did not finish in {RUN_TIMEOUT_S} s")
    finally:
        stop_session(proc.pid)
    lines = stdout.decode(errors="replace").splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write("".join(line + "\n" for line in lines))
        fail(f"harness exited with code {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        result = None
    if (not isinstance(result, dict)
            or sorted(result) != ["attempted", "correct", "failed", "metrics"]
            or result["attempted"] < 1):
        sys.stderr.write("".join(line + "\n" for line in lines))
        fail("the harness's last line is not a result object")
    metrics = result["metrics"]
    if args.trace:
        # Every workload reports every per-layer metric: one of a layer
        # the workload's path does not exercise reads 0.
        absent = [m for m in manifest["per_layer"] if m["name"] not in metrics]
        for m in absent:
            metrics[m["name"]] = {"value": 0, "unit": m["unit"]}
        lines[-1:] = [f"{args.workload}: not on this path, reported as 0: "
                      + (" ".join(m["name"] for m in absent) or "-"),
                      json.dumps(result, separators=(",", ":"))]
    expected = manifest["per_layer" if args.trace else "end_to_end"]
    if ({m["name"]: m["unit"] for m in expected}
            != {k: v.get("unit") for k, v in metrics.items()}):
        sys.stderr.write("".join(line + "\n" for line in lines))
        fail("the harness's metrics are not those of BENCHMARK.json")
    sys.stdout.write("".join(line + "\n" for line in lines))


if __name__ == "__main__":
    main()
