#!/usr/bin/env python3
"""Benchmark command: builds perfbench_harness from source, runs one workload
in its own process under a hard wall-clock guard, and prints the harness's
notes followed by its one-line JSON result.

  python3 perfbench/run.py --workload admit_slo --seed 1 --seconds 30 --trace 0

Run it from the repository root. The build goes to $CARGO_TARGET_DIR (default
.bench_build); durable daemon state goes to a fresh directory under
<build>/tmp that is removed afterwards. The declared workloads and metrics
are in BENCHMARK.json; perfbench/README.md explains them.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("admit_slo", "admit_durable", "sweep_csigma")
# Work a run does beyond --seconds: set-up, the final drain, the traced
# run's root-LP probes, and a sweep pass that started just in time.
GUARD_GRACE_SECONDS = 100


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    """Configures once, then brings perfbench_harness up to date."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target",
                  "perfbench_harness", "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(step)}")
    return os.path.join(build_dir, "perfbench_harness")


def declared_metrics(trace):
    """Name -> unit of the metrics BENCHMARK.json declares for this mode."""
    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except OSError:
        fail("BENCHMARK.json not found; run from the repository root")
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def run_harness(exe, args, scratch):
    command = [exe, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--scratch", scratch]
    guard = args.seconds + GUARD_GRACE_SECONDS
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=guard)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"{args.workload} exceeded its {guard} s wall-clock guard; "
             "killed", code=3)
    if proc.returncode != 0:
        sys.stderr.write(out)
        fail(f"harness exited with {proc.returncode}")
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive", code=2)

    expected = declared_metrics(args.trace)
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                               ".bench_build"))
    exe = build(build_dir)
    tmp_root = os.path.join(build_dir, "tmp")
    os.makedirs(tmp_root, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=tmp_root)
    try:
        out = run_harness(exe, args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        fail("harness printed no result line")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        wrong = sorted(n for n in set(got) & set(expected)
                       if got[n] != expected[n])
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, "
             f"undeclared {extra}, unit mismatch {wrong}")
    print("\n".join(lines[:-1]))
    print(json.dumps(result, separators=(",", ":")))
    sys.stdout.flush()


if __name__ == "__main__":
    main()
