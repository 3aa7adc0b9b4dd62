#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <suite|serve-mix> \
        --seed <n> --seconds <s> --trace <0|1>

Builds the `perfbench` crate and the `sickle-serve` binary from source
into `$CARGO_TARGET_DIR` (default `.bench_build`), then runs the
benchmark, whose last line of standard output is the result object.
Build output goes to standard error. Traces and the server log land in
`<target dir>/perfbench/`.
"""

import hashlib
import os
import pathlib
import signal
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent

# A run measures for --seconds, overrunning by at most one task solve or
# the requests still in flight (a traced run adds a pass and a replay);
# this bounds it if the program hangs.
RUN_TIMEOUT_S = 170


def source_id(root):
    """The git commit, or a digest of the sources when not in a git tree."""
    # The ceiling keeps git from finding a repository above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            cwd=root, env=env, capture_output=True, text=True, check=True,
        ).stdout.strip()
        if commit:
            return commit
    except (OSError, subprocess.CalledProcessError):
        pass
    h = hashlib.sha256()
    for top in ("crates", "perfbench", "Cargo.toml", "Cargo.lock"):
        p = root / top
        files = [p] if p.is_file() else sorted(p.rglob("*"))
        for f in files:
            if f.is_file() and "target" not in f.relative_to(root).parts:
                h.update(str(f.relative_to(root)).encode())
                h.update(f.read_bytes())
    return "src-" + h.hexdigest()[:12]


def main():
    root = pathlib.Path.cwd()
    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline",
         "--manifest-path", str(HERE / "Cargo.toml"),
         "-p", "perfbench", "-p", "sickle-bench",
         "--bin", "perfbench", "--bin", "sickle-serve"],
        env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    rustc = subprocess.run(["rustc", "--version"], capture_output=True, text=True).stdout.strip()
    out = target / "perfbench"
    if out.is_absolute() and out.is_relative_to(root):
        # Unix socket paths are short: keep them relative to the checkout.
        out = out.relative_to(root)
    bins = target / "release"
    cmd = [str(bins / "perfbench"), *sys.argv[1:],
           "--serve-bin", str(bins / "sickle-serve"), "--out", str(out),
           "--rustc", rustc or "unknown", "--commit", source_id(root)]
    # A session of its own, so a timeout stops the servers it started too.
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"perfbench: no result within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
