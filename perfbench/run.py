#!/usr/bin/env python3
"""Builds the release analyzer and the benchmark, then runs one workload.

    python3 perfbench/run.py --workload cold_ladder --seed 1 --seconds 20 --trace 0

Run from the repository root. Cargo builds into $CARGO_TARGET_DIR
(default `.bench_build`); sockets, stores and traces go to `.bench_run`.
The benchmark's stdout is passed through, so its last line is the result
object; each result is also appended, with the host's CPU count, the source
revision and the rustc version, to `.bench_run/results.jsonl`.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

RUN_DIR = ".bench_run"
# Past this the run is abandoned: the benchmark must finish within 180 s.
TIMEOUT_S = 170


def build(env):
    """Builds `astree` (daemon and fleet workers) and the benchmark binary."""
    for cmd in (
        ["cargo", "build", "--release", "--offline", "--quiet", "--bin", "astree"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", "perfbench/Cargo.toml"],
    ):
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            sys.exit(f"run.py: build failed: {' '.join(cmd)}")


def source_revision():
    """The git revision when this is a git checkout, else a digest of the
    sources the benchmark builds from."""
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
        if rev.returncode == 0:
            return "git:" + rev.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha256()
    roots = ["Cargo.toml", "Cargo.lock", "src", "crates", "vendor", "perfbench/src",
             "perfbench/Cargo.toml", "perfbench/Cargo.lock"]
    for root in roots:
        paths = [root] if os.path.isfile(root) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(root) for f in fs)
        for path in paths:
            digest.update(path.encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "sha256:" + digest.hexdigest()[:16]


def host_info():
    rustc = subprocess.run(["rustc", "--version"], capture_output=True, text=True)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "source_rev": source_revision(),
        "rustc": rustc.stdout.strip(),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", choices=["0", "1"], required=True)
    args = parser.parse_args()

    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build(env)
    os.makedirs(RUN_DIR, exist_ok=True)
    release = os.path.join(target, "release")
    cmd = [os.path.join(release, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--astree", os.path.join(release, "astree")]
    # Its own process group, so a timeout also stops the daemon and workers.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        sys.exit(f"run.py: {args.workload} did not finish within {TIMEOUT_S} s")
    if proc.returncode != 0:
        sys.exit(f"run.py: benchmark exited with {proc.returncode}")
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1])
    detail = json.loads(lines[-2])["detail"] if len(lines) > 1 else {}
    record = {"host": host_info(), "detail": detail, "result": result}
    with open(os.path.join(RUN_DIR, "results.jsonl"), "a") as f:
        f.write(json.dumps(record) + "\n")
    print(json.dumps({"host": record["host"]}))
    print(stdout, end="")
    sys.stdout.flush()


if __name__ == "__main__":
    main()
