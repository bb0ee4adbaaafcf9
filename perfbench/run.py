#!/usr/bin/env python3
"""Repository benchmark: builds perfbench from source and runs one workload.

    python3 perfbench/run.py --workload phy_link --seed 1 --seconds 20 --trace 0

Run from the repository root.  The build goes to .bench_build/perfbench
(incremental after the first run).  Set-up time is measured in seven cold
processes and reported as their median.  The last stdout line is the result
object; the line before it records the environment (nproc, threads, build
type, SLEDZIG_OBS, SLEDZIG_NATIVE, compiler, seed) and the set-up samples.

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1 runs
an untraced half and a traced half and reports the per-layer metrics.  A
per-layer metric the workload never touches reads 0.

Later performance claims must also hold on the held-out seed, which no
change may be tuned on: pass `--seed held-out` (= HELD_OUT_SEED).
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HELD_OUT_SEED = 7919
SETUP_SAMPLES = 7  # cold processes whose set-up times give setup_s
RUN_TIMEOUT_S = 170
BUILD_DIR = os.path.join(".bench_build", "perfbench")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        fail("library sources (src/) not found; run from the repository root")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                    "-j", str(os.cpu_count() or 1)],
                   stdout=sys.stderr, check=True)
    return os.path.join(BUILD_DIR, "perfbench")


def run_binary(binary, args):
    proc = subprocess.run([binary] + args, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        fail("%s exited with %d" % (" ".join(args), proc.returncode))
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if not lines:
        fail("no output from " + " ".join(args))
    return lines


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True,
                    help="workload seed, or 'held-out'")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    args = ap.parse_args()
    seed = HELD_OUT_SEED if args.seed == "held-out" else int(args.seed)

    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload " + args.workload)

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        fail("build failed: %s" % e)

    common = ["--workload", args.workload, "--seed", str(seed),
              "--spec-dir", os.path.join("perfbench", "campaigns"),
              "--work-dir", os.path.join(BUILD_DIR, "work")]
    setups = []
    for _ in range(SETUP_SAMPLES - 1 if args.trace == "0" else 0):
        line = run_binary(binary, common + ["--seconds", "1", "--setup-only"])
        setups.append(json.loads(line[-1])["setup_s"])
    lines = run_binary(binary, common + ["--seconds", str(args.seconds),
                                         "--trace", args.trace])
    info = json.loads(lines[-2])["info"] if len(lines) >= 2 else {}
    result = json.loads(lines[-1])

    metrics = result["metrics"]
    if args.trace == "0":
        setups.append(metrics["setup_s"]["value"])
        metrics["setup_s"]["value"] = statistics.median(setups)
        declared = spec["end_to_end"]
    else:
        declared = spec["per_layer"]
        for m in declared:
            metrics.setdefault(m["name"], {"value": 0, "unit": m["unit"]})
    names = {m["name"] for m in declared}
    missing = names - metrics.keys()
    extra = metrics.keys() - names
    if missing or extra:
        fail("metrics differ from BENCHMARK.json: missing %s, undeclared %s"
             % (sorted(missing), sorted(extra)))
    for m in declared:
        if metrics[m["name"]]["unit"] != m["unit"]:
            fail("unit of %s is %s, BENCHMARK.json says %s"
                 % (m["name"], metrics[m["name"]]["unit"], m["unit"]))

    info["setup_s_samples"] = setups
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": {k: metrics[k] for k in sorted(metrics)}}))


if __name__ == "__main__":
    main()
