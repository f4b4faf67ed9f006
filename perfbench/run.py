#!/usr/bin/env python3
"""Build the program from source and run one benchmark workload.

    python3 perfbench/run.py --workload study|replay|serve \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The release build goes to the directory
named by CARGO_TARGET_DIR (default .bench_build); generated inputs, spans
and run records go under <build dir>/perfbench-work.  The last line of
stdout is the JSON result.  Exits non-zero, without a result, when the
program's sources are missing or the build fails.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175
SOURCES = ["dune-project", "lib", "bin/cacti_serve.ml", "perfbench/dune"]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def run_group(cmd, timeout, **kw):
    """Run cmd in its own process group; kill the whole group on timeout
    so no descendant outlives the run."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"timed out after {timeout} s: {' '.join(cmd)}")
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=["study", "replay", "serve"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args()

    missing = [p for p in SOURCES if not os.path.exists(p)]
    if missing:
        fail("program sources not found here: " + ", ".join(missing))
    dune = shutil.which("dune")
    if dune is None:
        fail("dune not found on PATH")

    build = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, DUNE_CACHE="disabled")
    rc = run_group(
        [dune, "build", "--root", ".", "--profile", "release",
         "--build-dir", build, "./perfbench/perfbench.exe",
         "./bin/cacti_serve.exe"],
        BUILD_TIMEOUT_S, env=env, stdout=sys.stderr)
    if rc != 0:
        fail(f"build failed (dune exit {rc})")

    exe = os.path.join(build, "default", "perfbench", "perfbench.exe")
    serve = os.path.join(build, "default", "bin", "cacti_serve.exe")
    sys.stdout.flush()
    rc = run_group(
        [exe, "--workload", a.workload, "--seed", str(a.seed),
         "--seconds", str(a.seconds), "--trace", str(a.trace),
         "--work", os.path.join(build, "perfbench-work"),
         "--serve-bin", serve],
        RUN_TIMEOUT_S)
    if rc != 0:
        fail(f"benchmark exited {rc}")


if __name__ == "__main__":
    main()
