#!/usr/bin/env python3
"""Build and run the perfbench benchmark from the root of a checkout.

    python3 perfbench/run.py --workload point-routed --seed 1 --seconds 10 --trace 0

Every argument is passed through to the perfbench binary (see main.go);
with no --workload it runs every workload in both modes and prints the
full report. --selftest checks the benchmark itself on tiny inputs.

The binary is built from source into .bench_build/ with the Go build
cache, module cache, temporary files and Go's own config kept there too,
so the run writes nothing outside the checkout. The last line of standard
output is the benchmark's JSON result; on any failure the script exits
non-zero without printing one.
"""

import os
import subprocess
import sys

# A run must finish well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def main():
    root = os.getcwd()
    bench = os.path.join(root, "perfbench")
    if not os.path.isfile(os.path.join(bench, "go.mod")):
        print("run.py: run from the repository root (perfbench/go.mod not found)", file=sys.stderr)
        return 2
    build = os.path.join(root, ".bench_build")
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOMODCACHE": os.path.join(build, "gomodcache"),
        "GOPATH": os.path.join(build, "gopath"),
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "GOTMPDIR": os.path.join(build, "gotmp"),
        "TMPDIR": os.path.join(build, "gotmp"),
        "GOTOOLCHAIN": "local",
        "GOFLAGS": "",
        "GOPROXY": "off",
        "CGO_ENABLED": "0",
    })
    env.pop("GOMAXPROCS", None)
    binary = os.path.join(build, "perfbench")
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    try:
        subprocess.run(["go", "build", "-o", binary, "."], cwd=bench, env=env,
                       check=True, timeout=BUILD_TIMEOUT_S, stdout=sys.stderr)
    except (OSError, subprocess.SubprocessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1

    try:
        proc = subprocess.run([binary] + sys.argv[1:], cwd=root, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: benchmark exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
