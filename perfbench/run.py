#!/usr/bin/env python3
"""Builds mspec and the benchmark from source, then runs one workload.

usage: python3 perfbench/run.py --workload <build_dag|spec_run|daemon_mix>
                                --seed N --seconds S --trace <0|1>

Run from the root of a checkout. Both builds go to $CARGO_TARGET_DIR
(default: .bench_build). Build output goes to stderr; the benchmark's
stdout passes through, and its last line is the result object. Run
artefacts (spans, daemon stderr, result records) land in .bench_runs/.
"""

import hashlib
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "perfbench")
# The benchmark itself stops after its window plus set-up and checks;
# this only catches a hang.
RUN_MARGIN_S = 140


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def cargo(args, env):
    proc = subprocess.run(["cargo", *args], cwd=ROOT, env=env, stdout=sys.stderr)
    if proc.returncode != 0:
        fail(f"cargo {' '.join(args)} failed with exit code {proc.returncode}")


def revision():
    """The git commit, or a hash of the sources when there is no repository."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, check=True)
            return out.stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    h = hashlib.sha1()
    for top in ("Cargo.toml", "Cargo.lock", "crates", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return "src-" + h.hexdigest()[:12]


def window_seconds(args):
    """The --seconds value; the benchmark itself rejects a bad one."""
    for flag, value in zip(args, args[1:]):
        if flag == "--seconds":
            try:
                return max(0.0, min(float(value), 600.0))
            except ValueError:
                break
    return 0.0


def main():
    for need in ("Cargo.toml", "Cargo.lock", "crates"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail(f"{need} is missing: run from the root of a full mspec checkout")
    env = dict(os.environ)
    target = env.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    env["CARGO_TARGET_DIR"] = target
    cargo(["build", "--release", "--offline", "--quiet", "-p", "mspec-core", "--bin", "mspec"], env)
    cargo(["build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(BENCH, "Cargo.toml")], env)
    env["MSPEC_BENCH_REV"] = revision()
    cmd = [os.path.join(target, "release", "perfbench"), *sys.argv[1:],
           "--mspec", os.path.join(target, "release", "mspec")]
    timeout = RUN_MARGIN_S + window_seconds(sys.argv[1:])
    # Own process group, so a hang can be stopped with everything it started.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, start_new_session=True)
    try:
        code = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"the benchmark did not finish within {timeout:.0f} s")
    sys.exit(code)


if __name__ == "__main__":
    main()
