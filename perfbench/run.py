#!/usr/bin/env python3
"""Build and run the repository benchmark from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds fairnessd (./cmd/fairnessd) and the perfbench harness from the
checkout's sources into .bench_build/, with the Go build cache kept
there too, then runs the harness. The harness's last line of standard
output is the JSON result. Exits non-zero, printing no result, when the
checkout has no sources to build or the harness fails.
"""
import hashlib
import os
import signal
import subprocess
import sys

ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build")
BIN = os.path.join(BUILD, "bin")
HARNESS_TIMEOUT_S = 170


def go_env():
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOMODCACHE": os.path.join(BUILD, "gomodcache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "XDG_CONFIG_HOME": os.path.join(BUILD, "config"),
        "GOTMPDIR": os.path.join(BUILD, "tmp"),
        "TMPDIR": os.path.join(BUILD, "tmp"),
        "GOTOOLCHAIN": "local",
        "GOWORK": "off",
    })
    return env


def source_id():
    """Names the sources being measured: a hash of every .go and go.mod file."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        for name in sorted(filenames):
            if name.endswith(".go") or name == "go.mod":
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "src-" + h.hexdigest()[:16]


def build(env):
    for need in ("go.mod", os.path.join("cmd", "fairnessd"), os.path.join("perfbench", "go.mod")):
        if not os.path.exists(os.path.join(ROOT, need)):
            sys.exit(f"run.py: {need} not found; run from the root of a checkout with its sources")
    os.makedirs(BIN, exist_ok=True)
    os.makedirs(os.path.join(BUILD, "tmp"), exist_ok=True)
    steps = [
        (ROOT, ["go", "build", "-o", os.path.join(BIN, "fairnessd"), "./cmd/fairnessd"]),
        (os.path.join(ROOT, "perfbench"), ["go", "build", "-o", os.path.join(BIN, "perfbench"), "."]),
    ]
    for cwd, cmd in steps:
        proc = subprocess.run(cmd, cwd=cwd, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            sys.exit(f"run.py: build failed: {' '.join(cmd)}")


def main():
    env = go_env()
    build(env)
    cmd = [os.path.join(BIN, "perfbench"), *sys.argv[1:],
           "-fairnessd", os.path.join(BIN, "fairnessd"),
           "-workdir", os.path.join(BUILD, "run"),
           "-commit", source_id()]
    # A session of its own, so that a timeout stops the harness and any
    # daemon it started together.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, start_new_session=True)
    try:
        code = proc.wait(timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit(f"run.py: harness exceeded {HARNESS_TIMEOUT_S}s")
    sys.exit(code)


if __name__ == "__main__":
    main()
