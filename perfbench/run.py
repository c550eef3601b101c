#!/usr/bin/env python3
"""Build the daemon and the benchmark from source, then run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload week_replay --seed 1 --seconds 10 --trace 0

Builds `richnote-server` (the repository's workspace) and
`richnote-perfbench` (this directory's own package) in release mode into
`$CARGO_TARGET_DIR` (default `.bench_build`), then runs the benchmark
against the freshly built daemon. Build output goes to stderr, so the
last line of stdout is the benchmark's JSON result. Exits with the
benchmark's status, or with cargo's when a build fails.

The builds are skipped when both binaries exist and the sources they are
built from hash the same as at the last successful build. Outside a git
checkout the daemon's build script (which watches `.git/HEAD`) reruns on
every cargo call, so without the check every run would recompile the
daemon crate twice, once per workspace.
"""

import hashlib
import os
import subprocess
import sys

# What the two builds read, relative to the repository root.
SOURCES = ["Cargo.toml", "Cargo.lock", "compat", "crates", "src", "perfbench"]


def source_hash(root: str, target: str) -> str:
    """SHA-256 over the path and bytes of every source file, in path order."""
    digest = hashlib.sha256()
    files = []
    for entry in SOURCES:
        path = os.path.join(root, entry)
        if os.path.isfile(path):
            files.append(path)
        for base, dirs, names in os.walk(path):
            dirs[:] = sorted(d for d in dirs
                             if d != "target" and os.path.join(base, d) != target)
            files.extend(os.path.join(base, n) for n in names)
    for path in sorted(files):
        digest.update(os.path.relpath(path, root).encode())
        digest.update(b"\0")
        with open(path, "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(root, target)
    bench = os.path.join(target, "release", "richnote-perfbench")
    server = os.path.join(target, "release", "richnote-server")
    stamp = os.path.join(target, "perfbench-sources.sha256")
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(root, "Cargo.toml"),
         "-p", "richnote-server", "--bin", "richnote-server"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(here, "Cargo.toml")],
    ]
    sources = source_hash(root, target)
    try:
        with open(stamp) as f:
            built = f.read().strip() == sources
    except OSError:
        built = False
    if not (built and os.path.isfile(bench) and os.path.isfile(server)):
        for cmd in builds:
            done = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr)
            if done.returncode != 0:
                print(f"perfbench: build failed: {' '.join(cmd)}", file=sys.stderr)
                return done.returncode or 1
        with open(stamp, "w") as f:
            f.write(sources + "\n")
    return subprocess.run([bench, "--server", server] + sys.argv[1:], cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
