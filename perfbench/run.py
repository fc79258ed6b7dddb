#!/usr/bin/env python3
"""Builds and runs the Thistle benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload codesign_energy --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --selftest

A run builds `perfbench/` (a Cargo package of its own) into
$CARGO_TARGET_DIR (default `.bench_build`), runs one workload and prints
the benchmark binary's output; its last line is the result object
{"correct", "attempted", "failed", "metrics"}. See perfbench/README.md.

`--selftest` runs the binary's own checks (corrupted references and
tampered served designs must be rejected), then every workload in a short
mode, and checks that each prints every metric named in BENCHMARK.json
with its unit.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 880


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isfile("perfbench/Cargo.toml"):
        fail("run from the repository root (perfbench/Cargo.toml not found)")
    try:
        subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet",
             "--manifest-path", "perfbench/Cargo.toml"],
            env=env, stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.SubprocessError) as e:
        fail(f"build failed: {e}")
    binary = os.path.join(env["CARGO_TARGET_DIR"], "release", "perfbench")
    if not os.access(binary, os.X_OK):
        fail(f"no benchmark binary at {binary}")
    return binary


def revision():
    """The git commit when there is one, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha1()
    for top in ["Cargo.toml", "Cargo.lock", "crates", "shims", "perfbench"]:
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs)
        for path in paths:
            if path.endswith((".rs", ".toml", ".lock", ".py", ".txt")):
                digest.update(path.encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-" + digest.hexdigest()[:16]


def run_binary(binary, args, timeout=RUN_TIMEOUT_S):
    """Runs the binary, relays its stdout, returns (exit code, stdout lines)."""
    try:
        out = subprocess.run([binary] + args, stdout=subprocess.PIPE, text=True,
                             timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"{' '.join(args)} did not finish within {timeout} s")
    lines = out.stdout.splitlines()
    return out.returncode, lines


def result_of(lines):
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return None
    keys = {"correct", "attempted", "failed", "metrics"}
    return result if isinstance(result, dict) and set(result) == keys else None


def selftest(binary):
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    code, lines = run_binary(binary, ["selftest"])
    print("\n".join(lines))
    if code != 0:
        fail("binary self-test failed")
    problems = []
    for workload in bench["workloads"]:
        for trace, expected in (("0", bench["end_to_end"]), ("1", bench["per_layer"])):
            args = ["run", "--workload", workload["name"], "--seed", "3",
                    "--seconds", "2", "--trace", trace, "--rev", "selftest"]
            code, lines = run_binary(binary, args)
            result = result_of(lines)
            where = f"{workload['name']} --trace {trace}"
            if code != 0 or result is None:
                problems.append(f"{where}: no result line")
                continue
            if not result["correct"] or result["failed"]:
                problems.append(f"{where}: outputs failed their checks")
            got = result["metrics"]
            for m in expected:
                entry = got.get(m["name"])
                if entry is None:
                    problems.append(f"{where}: {m['name']} missing")
                elif entry.get("unit") != m["unit"] or not isinstance(
                        entry.get("value"), (int, float)):
                    problems.append(f"{where}: {m['name']} printed as {entry}")
            extra = set(got) - {m["name"] for m in expected}
            if extra:
                problems.append(f"{where}: unlisted metrics {sorted(extra)}")
            print(f"selftest: {where}: {len(got)} metrics")
    for p in problems:
        print(f"selftest: {p}", file=sys.stderr)
    if problems:
        sys.exit(1)
    print("selftest: every named metric printed with its unit")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and (args.workload is None or args.seed is None
                              or args.seconds is None):
        parser.error("--workload, --seed and --seconds are required")

    binary = build()
    if args.selftest:
        selftest(binary)
        return
    code, lines = run_binary(binary, [
        "run", "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", args.trace,
        "--rev", revision()])
    if code != 0 or result_of(lines) is None:
        for line in lines:
            print(line, file=sys.stderr)
        fail(f"workload {args.workload} produced no result")
    print("\n".join(lines))


if __name__ == "__main__":
    main()
