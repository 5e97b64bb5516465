#!/usr/bin/env python3
"""Fig.-1 cycle benchmark for plum96.

Builds the plum96 libraries and the fig1_bench program from the sources
of the checkout it sits in, runs one workload, checks the final mesh,
and prints the metrics as one JSON object on the last line of stdout.

  python3 perfbench/run.py --workload front-p8 --seed 1 --seconds 20 --trace 0
  python3 perfbench/run.py --self-test [--workload W] [--seed N] [--seconds S]

--trace 0 runs the measured (unfenced) loop and reports the end-to-end
metrics.  --trace 1 runs the same seed and cycles twice, once unfenced
and once fenced (a barrier around each framework call), checks both
end on the same mesh and plan, writes the fenced run's spans to
<build>/traces/, and reports the per-layer metrics.  Metric names,
units, directions, layers and which run each comes from are recorded
in perfbench/metrics.json.

--self-test checks that every sim_* metric, imbalance_mean and the mesh
digest are bit-identical across two runs and across two worker counts,
and that BENCHMARK.json lists the metrics metrics.json records.

Run it from the root of the checkout.  The build goes to
$CARGO_TARGET_DIR/cmake (default .bench_build/cmake).
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# A run measures whole blocks of 192 cycles: one period of the front's
# slowest (z) sweep, three of its x sweep and six 32-cycle burst
# periods, so every seed sees a comparable mix of load shapes and only
# the starting phase (front) or the random marks (burst) differ.
# --seconds turns into as many blocks as fit at each workload's nominal
# rate, at least one.  The rate is cycles per second of a whole unfenced
# run (loop, reference replay and check) on a 4-core x86 host with a
# Release build and 4 pool workers.  The count depends only on
# --seconds, so a (workload, seed, seconds) triple always runs the same
# cycles.
BLOCK = 192
WORKLOADS = {
    "front-p8": {"rate": 9.8},
    "front-p64": {"rate": 14.8},
    "burst-p16": {"rate": 16.7},
}
MAX_WORKERS = 4
RUN_DEADLINE_S = 170.0  # every run must be over well within 180 s
BUILD_DEADLINE_S = 840.0

# Exact-by-construction fields the self-test compares.
DETERMINISTIC = ["sim_cycle_ms_p50", "sim_cycle_ms_p90", "sim_total_s",
                 "imbalance_mean", "digest", "accepted_total",
                 "elements_moved_total"]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail(msg, code=2):
    log(f"run.py: {msg}")
    sys.exit(code)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = Path.cwd() / base
    return base


def build(deadline):
    """Configures (once) and builds fig1_bench; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"plum96 sources not found under {ROOT / 'src'}")
    bdir = build_dir() / "cmake"
    steps = []
    if not (bdir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(bdir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(bdir), "--target", "fig1_bench",
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        try:
            res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                 timeout=max(1.0, deadline - time.monotonic()))
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build step {' '.join(cmd)} failed: {e}")
        if res.returncode != 0:
            fail(f"build step {' '.join(cmd)} exited {res.returncode}")
    exe = bdir / "fig1_bench"
    if not exe.is_file():
        fail(f"build produced no {exe}")
    return exe


def cycles_for(workload, seconds):
    blocks = int(seconds * WORKLOADS[workload]["rate"] // BLOCK)
    return BLOCK * max(1, blocks)


def run_bench(exe, workload, seed, cycles, workers, fence, deadline,
               spans=None, reference=True):
    """Runs fig1_bench once; returns (parsed result or None, completed)."""
    cmd = [str(exe), "--workload", workload, "--seed", str(seed),
           "--cycles", str(cycles), "--workers", str(workers),
           "--fence", "1" if fence else "0",
           "--reference", "1" if reference else "0"]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    try:
        res = subprocess.run(cmd, capture_output=True, text=True,
                             timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        log(f"run.py: {workload} seed {seed} timed out")
        return None, 0
    sys.stderr.write(res.stderr)
    lines = res.stdout.splitlines()
    completed = 0
    for line in lines:
        if line.startswith("#"):
            print(f"# [{'fenced' if fence else 'unfenced'}] {line[2:]}")
            if line.startswith("# completed "):
                completed = int(line.split()[2])
    result = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
        completed = result["completed"]
    if res.returncode not in (0, 4) or result is None:
        log(f"run.py: fig1_bench exited {res.returncode}")
        return None, completed
    return result, completed


def load_metrics():
    with open(HERE / "metrics.json") as f:
        return json.load(f)


def emit(correct, attempted, failed, metrics):
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def measure(args, exe, deadline):
    spec = load_metrics()
    workers = min(MAX_WORKERS, os.cpu_count() or 1)
    cycles = cycles_for(args.workload, args.seconds)
    if not args.trace:
        res, done = run_bench(exe, args.workload, args.seed, cycles,
                               workers, False, deadline)
        if res is None:
            emit(False, cycles, cycles - done, {})
            return 1
        correct = res["check_ok"] and res["digest_ok"]
        if not correct:
            log(f"run.py: final mesh rejected: check {res['check_ok']} "
                f"({res['check_summary']}), digest {res['digest']} vs "
                f"reference {res['reference']}")
        metrics = {m["name"]: {"value": res[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
        emit(correct, cycles, 0 if correct else cycles, metrics)
        return 0 if correct else 1

    # Traced mode: the same cycles unfenced, then fenced.
    traces = build_dir() / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    spans = traces / f"{args.workload}-seed{args.seed}.json"
    plain, done_p = run_bench(exe, args.workload, args.seed, cycles,
                               workers, False, deadline)
    fenced, done_f = (None, 0)
    if plain is not None:
        fenced, done_f = run_bench(exe, args.workload, args.seed, cycles,
                                    workers, True, deadline, spans=spans,
                                    reference=False)
    if plain is None or fenced is None:
        emit(False, 2 * cycles, 2 * cycles - done_p - done_f, {})
        return 1
    correct = plain["check_ok"] and plain["digest_ok"] and fenced["check_ok"]
    for key in ("digest", "accepted_total", "elements_moved_total"):
        if plain[key] != fenced[key]:
            log(f"run.py: fencing changed {key}: {plain[key]} unfenced vs "
                f"{fenced[key]} fenced")
            correct = False
    metrics = {}
    for m in spec["per_layer"]:
        name = m["name"]
        if name == "trace.overhead_frac":
            value = 1.0 - fenced["cycles_per_s"] / plain["cycles_per_s"]
        else:
            value = (fenced if m["source"] == "fenced" else plain)[name]
        metrics[name] = {"value": value, "unit": m["unit"]}
    cycle_ms = fenced["trace.cycle_host_ms"]
    for layer in ("solver", "adapt.refine", "adapt.coarsen",
                  "dualgraph.weights", "balance", "migrate"):
        share = fenced[f"{layer}.host_ms"] / cycle_ms
        print(f"# share of fenced cycle host time: {layer} {share:.3f}")
    print(f"# spans {spans}")
    emit(correct, 2 * cycles, 0 if correct else 2 * cycles, metrics)
    return 0 if correct else 1


def self_test(args, exe, deadline):
    ok = True
    spec = load_metrics()
    bench = ROOT / "BENCHMARK.json"
    if bench.is_file():
        with open(bench) as f:
            declared = json.load(f)
        for group in ("end_to_end", "per_layer"):
            want = {(m["name"], m["unit"], m["better"]) for m in spec[group]}
            have = {(m["name"], m["unit"], m["better"])
                    for m in declared[group]}
            if want != have:
                log(f"self-test: BENCHMARK.json {group} differs from "
                    f"metrics.json: {sorted(want ^ have)}")
                ok = False
        if {w["name"] for w in declared["workloads"]} != set(WORKLOADS):
            log("self-test: BENCHMARK.json workloads differ from run.py")
            ok = False
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    max_w = min(MAX_WORKERS, os.cpu_count() or 1)
    for wl in workloads:
        cycles = cycles_for(wl, args.seconds)
        runs = []
        for workers in (max_w, max_w, max(1, max_w // 2)):
            res, _ = run_bench(exe, wl, args.seed, cycles, workers, False,
                                deadline)
            if res is None or not (res["check_ok"] and res["digest_ok"]):
                log(f"self-test: {wl} W={workers} failed its run")
                ok = False
                break
            runs.append((workers, res))
        for workers, res in runs[1:]:
            for key in DETERMINISTIC:
                if res[key] != runs[0][1][key]:
                    log(f"self-test: {wl} {key} differs at W={workers}: "
                        f"{res[key]!r} vs {runs[0][1][key]!r}")
                    ok = False
        if len(runs) == 3:
            print(f"# self-test {wl}: {cycles} cycles, W={max_w},{max_w},"
                  f"{runs[2][0]} bit-identical on {', '.join(DETERMINISTIC)}")
    print("self-test", "passed" if ok else "FAILED")
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")
    if not args.self_test and args.workload is None:
        fail("--workload is required")
    start = time.monotonic()
    exe = build(start + BUILD_DEADLINE_S)
    deadline = time.monotonic() + RUN_DEADLINE_S
    if args.self_test:
        return self_test(args, exe, time.monotonic() + 10 * RUN_DEADLINE_S)
    return measure(args, exe, deadline)


if __name__ == "__main__":
    sys.exit(main())
