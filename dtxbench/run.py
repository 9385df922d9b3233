#!/usr/bin/env python3
"""The DTX benchmark, as one command.

    python3 dtxbench/run.py --workload read-snapshot --seed 7 --seconds 20 --trace 0

Run from the root of a source tree. Builds dtxbench (the engine library
plus the benchmark's own sources, see CMakeLists.txt) into
$CARGO_TARGET_DIR/dtxbench (default .bench_build/dtxbench), checks the
input fingerprint against fingerprints.json, runs the workload, and prints
one JSON object as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones (and writes the spans to <build>/traces/<workload>.tsv).
Diagnostics go to standard error; the full record of the run (seed,
parameters, flush policy, commit, per-round figures, host-speed probe,
non-commits by abort reason) goes to <build>/records/.

    python3 dtxbench/run.py --record-fingerprints

rewrites fingerprints.json from the current generators. Do that only when
a change to what the benchmark runs is intended; it restarts the baseline.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
FINGERPRINT_SEEDS = (0, 255)
REFERENCE_SEED = 1


def fail(message):
    print(f"dtxbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    """Configure once, then build the benchmark target (a no-op when fresh)."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        fail(f"no engine sources next to {HERE} (expected ../CMakeLists.txt and ../src)")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j4", "--target", "dtxbench"])
    # Keep the compiler's temporary files inside the checkout too.
    scratch = os.path.join(build_dir, "tmp")
    os.makedirs(scratch, exist_ok=True)
    env = dict(os.environ, TMPDIR=scratch)
    for step in steps:
        result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr, env=env)
        if result.returncode != 0:
            fail("build failed: " + " ".join(step))
    binary = os.path.join(build_dir, "dtxbench")
    if not os.path.isfile(binary):
        fail(f"build produced no {binary}")
    return binary


def source_commit():
    """The git commit when there is one, else a hash of the sources."""
    try:
        result = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
        if result.returncode == 0 and result.stdout.strip():
            return result.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "dtxbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs
        )
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as handle:
                digest.update(handle.read())
    return "tree-sha256:" + digest.hexdigest()[:16]


def record_fingerprints(binary, workloads):
    table = {"reference_seed": REFERENCE_SEED, "inputs": {}}
    first, last = FINGERPRINT_SEEDS
    for workload in workloads:
        result = subprocess.run(
            [binary, f"--fingerprints={workload}", f"--seeds={first}-{last}"],
            capture_output=True, text=True, check=True,
        )
        table["inputs"][workload] = json.loads(result.stdout)
    with open(os.path.join(HERE, "fingerprints.json"), "w") as handle:
        json.dump(table, handle, indent=0, sort_keys=True)
        handle.write("\n")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-fingerprints", action="store_true")
    args = parser.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
            bench = json.load(handle)
    except (OSError, ValueError) as error:
        fail(f"cannot read the benchmark definition: {error}")
    workloads = [w["name"] for w in bench["workloads"]]
    build_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if args.record_fingerprints:
        return record_fingerprints(build(os.path.join(build_root, "dtxbench")), workloads)
    if args.workload is None or args.seed is None:
        fail("--workload and --seed are required")
    if args.workload not in workloads:
        fail(f"unknown workload {args.workload!r}")
    try:
        with open(os.path.join(HERE, "fingerprints.json")) as handle:
            fingerprints = json.load(handle)
    except (OSError, ValueError) as error:
        fail(f"cannot read fingerprints.json: {error}")
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    binary = build(os.path.join(build_root, "dtxbench"))

    recorded = fingerprints["inputs"].get(args.workload, {})
    reference_seed = fingerprints["reference_seed"]
    command = [
        binary,
        f"--workload={args.workload}",
        f"--seed={args.seed}",
        f"--seconds={args.seconds}",
        f"--trace={args.trace}",
        "--work_dir=" + os.path.join(build_root, "work"),
    ]
    if str(args.seed) not in recorded:
        command.append(f"--reference_seed={reference_seed}")
    if args.trace:
        os.makedirs(os.path.join(build_root, "traces"), exist_ok=True)
        command.append(
            "--trace_out=" + os.path.join(build_root, "traces", args.workload + ".tsv")
        )
    started = time.time()
    child = subprocess.Popen(command, stdout=subprocess.PIPE, stderr=sys.stderr, text=True)

    def stop_child(signum, _frame):
        child.kill()
        child.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop_child)
    signal.signal(signal.SIGINT, stop_child)
    try:
        stdout, _ = child.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = stdout.strip().splitlines()
    if child.returncode != 0 or not lines:
        fail(f"dtxbench exited with {child.returncode}")
    record = json.loads(lines[-1])

    problems = list(record["violations"])
    if str(args.seed) in recorded:
        expected, actual = recorded[str(args.seed)], record["fingerprint"]
    else:
        expected = recorded.get(str(reference_seed))
        actual = (record["reference_fingerprint"] or {}).get("hash")
    if expected is None or actual != expected:
        problems.append(
            f"input fingerprint mismatch: expected {expected}, got {actual} "
            "(the workload generators changed what this benchmark runs)"
        )
    not_committed = sum(int(n) for n in record["not_committed"].values())
    if record["attempted"] != record["committed"] + not_committed:
        problems.append("submitted != committed + aborted + failed")

    source = record["per_layer"] if args.trace else record["end_to_end"]
    metrics = {}
    for metric in wanted:
        value = source.get(metric["name"])
        if value is None:
            problems.append(f"metric {metric['name']} not measured")
            continue
        if not args.trace and not value > 0:
            problems.append(f"end-to-end metric {metric['name']} reads {value}")
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}

    record["commit"] = source_commit()
    record["wall_s"] = time.time() - started
    record["problems"] = problems
    records_dir = os.path.join(build_root, "records")
    os.makedirs(records_dir, exist_ok=True)
    record_path = os.path.join(
        records_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    with open(record_path, "w") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)

    probe = record["host_probe_s"]
    print(
        f"dtxbench: {args.workload} seed={args.seed} rounds={len(record['rounds'])} "
        f"host_probe_s before={probe['before']:.3f} after={probe['after']:.3f} "
        f"not_committed={record['not_committed']} of {record['attempted']} "
        f"retried={record['retried']} "
        f"lat_samples={record['lat_samples']} record={record_path}",
        file=sys.stderr,
    )
    for problem in problems:
        print(f"dtxbench: CHECK FAILED: {problem}", file=sys.stderr)

    print(json.dumps({
        "correct": not problems,
        "attempted": record["attempted"],
        "failed": not_committed,
        "metrics": metrics,
    }))
    sys.stdout.flush()
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
