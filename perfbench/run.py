#!/usr/bin/env python3
"""ServeScope repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/ (the ServeScope libraries
plus the benchmark binary, optimized) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that is unset, then runs one workload. The last
stdout line is one JSON object with the keys correct, attempted, failed and
metrics: the end-to-end metrics of BENCHMARK.json with --trace 0, its
per-layer metrics with --trace 1. A per-layer metric reads 0 on a workload
whose run does not pass through that layer. On the three sim workloads the
codec_* metrics come from a codec-medium-pool leg on the same seed run in a
second process for the second half of --seconds; on codec-medium-pool,
sim_req_per_s counts images per CPU second. Build output goes to stderr.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CODEC = "codec-medium-pool"
WORKLOADS = ("vit-closed-observed", "tinyvit-fleet-open", "face-kafka-fanout", CODEC)
CODEC_METRICS = ("codec_img_per_s", "codec_batch_p50_ms", "codec_batch_p90_ms")
SIM_SHARE = 0.5  # of --seconds spent on a sim workload's own calls


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 1)],
                   stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"error: cannot build perfbench: {e}", file=sys.stderr)
        return 1

    def run(workload, seconds, trace):
        cmd = [binary, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--expected", os.path.join(HERE, "expected_digests.txt")]
        if trace:
            cmd += ["--spans-out", os.path.join(build_dir, f"spans-{workload}.json")]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            sys.stdout.write(proc.stdout)
            raise RuntimeError(f"perfbench {workload} exited with {proc.returncode}")
        return lines[:-1], json.loads(lines[-1])

    try:
        if args.trace or args.workload == CODEC:
            notes, result = run(args.workload, args.seconds, args.trace)
        else:
            # A sim workload's codec_* metrics come from a short codec leg in a
            # process of its own, so the simulator's heap does not shape them.
            notes, result = run(args.workload, SIM_SHARE * args.seconds, 0)
            codec_notes, codec = run(CODEC, (1 - SIM_SHARE) * args.seconds, 0)
            notes += codec_notes
            for name in CODEC_METRICS:
                result["metrics"][name] = codec["metrics"][name]
            result["correct"] = result["correct"] and codec["correct"]
            result["attempted"] += codec["attempted"]
            result["failed"] += codec["failed"]
            if not result["correct"]:
                result["failed"] = result["attempted"]
    except (RuntimeError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = result["metrics"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if not args.trace and missing:
        print(f"error: end-to-end metrics missing: {missing}", file=sys.stderr)
        return 1
    wrong_unit = [m["name"] for m in wanted
                  if m["name"] in metrics and metrics[m["name"]]["unit"] != m["unit"]]
    if wrong_unit:
        print(f"error: metrics reported in another unit than BENCHMARK.json: {wrong_unit}",
              file=sys.stderr)
        return 1
    for m in wanted:
        metrics.setdefault(m["name"], {"value": 0, "unit": m["unit"]})
    result["metrics"] = {m["name"]: metrics[m["name"]] for m in wanted}
    for line in notes:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
