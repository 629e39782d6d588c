#!/usr/bin/env python3
"""Build the benchmark from source inside a checkout and run it.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cholesky_shm --seed 1 --seconds 20 --trace 0

The Go toolchain's cache, temporary files and the binary all live under
.bench_build/ in the checkout. The binary is rebuilt when any .go file or
go.mod in the checkout changes. The last line of standard output is the
benchmark's JSON result; the exit code is the benchmark's.
"""
import argparse
import hashlib
import os
import signal
import subprocess
import sys
from pathlib import Path

BUILD_TIMEOUT = 850  # seconds; the first build compiles the standard library
RUN_TIMEOUT = 175


def source_stamp(root):
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if d not in (".git", ".bench_build"))
        for name in sorted(filenames):
            if name.endswith(".go") or name in ("go.mod", "go.sum"):
                p = Path(dirpath, name)
                h.update(str(p.relative_to(root)).encode())
                h.update(p.read_bytes())
    return h.hexdigest()


def run(cmd, cwd, env, timeout):
    """Run cmd in its own process group; kill the whole group on timeout."""
    proc = subprocess.Popen(cmd, cwd=cwd, env=env, start_new_session=True)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"perfbench: {cmd[0]} exceeded {timeout}s", file=sys.stderr)
        return 124


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = Path.cwd()
    bench = Path(__file__).resolve().parent
    if not (root / "go.mod").is_file():
        print("perfbench: no go.mod here; run from the root of a checkout", file=sys.stderr)
        return 2
    build = root / ".bench_build"
    for d in ("gocache", "tmp", "gopath", "config"):
        (build / d).mkdir(parents=True, exist_ok=True)
    # Everything the toolchain writes (build cache, temporary files, module
    # cache, telemetry under the user config directory) stays in the checkout.
    env = dict(os.environ,
               GOCACHE=str(build / "gocache"), GOTMPDIR=str(build / "tmp"),
               GOPATH=str(build / "gopath"), XDG_CONFIG_HOME=str(build / "config"),
               GOTOOLCHAIN="local", GOPROXY="off", GOFLAGS="", GOWORK="off",
               CGO_ENABLED="0")
    binary = build / "perfbench"
    stamp_file = build / "perfbench.stamp"
    stamp = source_stamp(root)
    if not binary.exists() or not stamp_file.exists() or stamp_file.read_text() != stamp:
        code = run(["go", "build", "-o", str(binary), "."], bench, env, BUILD_TIMEOUT)
        if code != 0:
            print("perfbench: build failed", file=sys.stderr)
            return code or 1
        stamp_file.write_text(stamp)
    return run([str(binary), "-workload", args.workload, "-seed", str(args.seed),
                "-seconds", str(args.seconds), "-trace", str(args.trace),
                "-workdir", str(build)], root, env, RUN_TIMEOUT)


if __name__ == "__main__":
    sys.exit(main())
