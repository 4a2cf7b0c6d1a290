#!/usr/bin/env python3
"""Build the daemon and the benchmark from source, then run one workload.

    python3 perfbench/run.py --workload <session_age|batch_detect>
                             --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root.  Both binaries are built in release mode
into $CARGO_TARGET_DIR (default: .bench_build).  Build output and the
benchmark's diagnostics go to standard error; the last line of standard
output is the result object printed by the benchmark.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def main():
    manifest = ROOT / "perfbench" / "Cargo.toml"
    for needed in (ROOT / "Cargo.toml", ROOT / "crates" / "serve" / "Cargo.toml", manifest):
        if not needed.is_file():
            fail(f"{needed.relative_to(ROOT)} is missing; run from a full checkout")

    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "-p", "ngd-serve", "--bin", "ngd-serve"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(manifest)],
    ]
    for command in builds:
        built = subprocess.run(command, cwd=ROOT, env=env, stdout=sys.stderr)
        if built.returncode != 0:
            fail(f"build failed: {' '.join(command)}")

    release = target / "release"
    command = [str(release / "ngd-perfbench"), *sys.argv[1:],
               "--daemon", str(release / "ngd-serve")]
    sys.stdout.flush()
    sys.exit(subprocess.run(command, cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
