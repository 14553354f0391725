#!/usr/bin/env python3
"""Build and run the RSEP end-to-end campaign benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload fig4-live --seed 1 --seconds 20 --trace 0

Builds the `perfbench` package (release, offline) into `$CARGO_TARGET_DIR`
(default `.bench_build`), then runs it. Build output and diagnostics go to
standard error; the last line of standard output is the result JSON. See
perfbench/README.md for the workloads and metrics.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
# Everything the simulated results depend on: a report digest is compared
# only between runs on the same sources.
TREE = ["Cargo.toml", "Cargo.lock", "crates", "vendor", "perfbench/Cargo.toml", "perfbench/src"]
# A run must end well inside the caller's 180 s limit.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def tree_digest():
    h = hashlib.sha256()
    for entry in TREE:
        path = ROOT / entry
        files = [path] if path.is_file() else sorted(
            p for p in path.rglob("*") if p.is_file() and "target" not in p.relative_to(path).parts
        )
        for f in files:
            h.update(str(f.relative_to(ROOT)).encode())
            h.update(hashlib.sha256(f.read_bytes()).digest())
    return h.hexdigest()[:16]


def main():
    args = sys.argv[1:]
    if not (ROOT / "crates" / "rsep-campaign" / "Cargo.toml").is_file():
        fail(f"no RSEP workspace next to {BENCH} (crates/ missing); nothing to benchmark")

    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    env = {k: v for k, v in os.environ.items() if not k.startswith("RSEP_")}
    env["CARGO_TARGET_DIR"] = str(target)

    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(BENCH / "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        fail("build failed")

    work_dir = target / "perfbench-work" / tree_digest()
    binary = target / "release" / "perfbench"
    try:
        run = subprocess.run(
            [str(binary), *args, "--work-dir", str(work_dir)],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.stdout.write(run.stdout)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
