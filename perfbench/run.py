#!/usr/bin/env python3
"""Build and run the host-time benchmark from the root of a checkout.

    python3 perfbench/run.py --workload campaign|real-crypto|farm \
        --seed N --seconds S --trace 0|1

Builds perfbench/bin/main.exe with dune (the repository's libraries
from source, dune's shared cache off so nothing is written outside the
checkout), then runs it with the same arguments. The benchmark's last
line of stdout is its JSON result; build output goes to stderr.
"""

import os
import statistics
import subprocess
import sys
import time

EXE = os.path.join("_build", "default", "perfbench", "bin", "main.exe")
STARTUP_PROBES = 9


def main() -> int:
    # the benchmark links the repository's libraries: without their
    # sources there is nothing to measure
    for needed in ("dune-project", os.path.join("lib", "core", "exec.mli")):
        if not os.path.exists(needed):
            print(f"perfbench: {needed} not found; run from the root of a "
                  "repository checkout", file=sys.stderr)
            return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/bin/main.exe"],
        stdout=sys.stderr, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    env["PERFBENCH_STARTUP_S"] = repr(startup_s(env))
    sys.stdout.flush()
    return subprocess.run([EXE] + sys.argv[1:], env=env).returncode


def startup_s(env) -> float:
    """Median seconds from spawning the benchmark to its first line of
    code, over several launches: the process start-up part of setup_s."""
    samples = []
    for _ in range(STARTUP_PROBES):
        probe_env = dict(env, PERFBENCH_SPAWN_T=repr(time.time()))
        out = subprocess.run([EXE, "--startup-probe"], env=probe_env,
                             capture_output=True, text=True, check=True)
        samples.append(float(out.stdout))
    return statistics.median(samples)


if __name__ == "__main__":
    sys.exit(main())
