#!/usr/bin/env python3
"""Builds and runs the scorpio-rs benchmark.

    python3 perfbench/run.py --workload serve_batch|serve_dct|offline_paper \
        --seed N --seconds S --trace 0|1

Run from the repository root. Builds the `scorpio_serve` daemon from the
repo's workspace and the benchmark crate in `perfbench/` (release, offline)
into `$CARGO_TARGET_DIR` (default `.bench_build`), then runs the benchmark
binary with the given arguments. The last line of standard output is the
result object; build output goes to standard error. Exits non-zero, with no
result line, if either build or the run fails.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def cargo_build(args, env):
    """Runs one release build; its output goes to stderr."""
    cmd = ["cargo", "build", "--release", "--offline", "--quiet"] + args
    return subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode == 0


def main():
    env = dict(os.environ)
    target = os.path.join(ROOT, env.get("CARGO_TARGET_DIR") or ".bench_build")
    env["CARGO_TARGET_DIR"] = target
    workspace = os.path.join(ROOT, "Cargo.toml")
    bench = os.path.join(ROOT, "perfbench", "Cargo.toml")
    if not os.path.isfile(workspace):
        print("run.py: no Cargo.toml at the repository root to build the daemon from",
              file=sys.stderr)
        return 2
    if not cargo_build(["--manifest-path", workspace, "-p", "scorpio-bench",
                        "--bin", "scorpio_serve"], env):
        return 2
    if not cargo_build(["--manifest-path", bench], env):
        return 2
    binary = os.path.join(target, "release", "scorpio-perfbench")
    server = os.path.join(target, "release", "scorpio_serve")
    out_dir = os.path.join(ROOT, ".bench_out")
    return subprocess.run([binary] + sys.argv[1:] + ["--server", server, "--out-dir", out_dir],
                          cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
