#!/usr/bin/env python3
"""Benchmark of the semtag tagging daemon and the study grid.

One run of one workload:

    python3 perfbench/run.py --workload serve_cascade --seed 1 --seconds 10 --trace 0

builds the daemon and the harness from source into .bench_build/, pins the
harness and the daemon it launches to one CPU, runs the workload
and prints, as the last line of standard output, one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end-to-end metrics of BENCHMARK.json, with --trace 1 the per-layer
ones. A failed correctness check prints "correct": false and exits 1.

Its own tests:

    python3 perfbench/run.py --smoke            # tiny run of every workload
    python3 perfbench/run.py --steady 10 --workload serve_deep --seconds 10

--steady N runs a workload N times with seeds 1..N and prints each
metric's median, quartiles and spread (IQR over median) beside its bound.
"""

import argparse
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
HARNESS = os.path.join(BUILD, "perfbench_harness")
DAEMON = os.path.join(BUILD, "semtag", "src", "cli", "semtag_serve")
HARNESS_TIMEOUT_S = 160


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def load_json(path):
    with open(path) as f:
        return json.load(f)


def build():
    """Configures once (perfbench/CMakeLists.txt defaults to RelWithDebInfo)
    and builds the daemon and the harness. Returns the build type recorded
    in the CMake cache."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src", "serve"))):
        fail("the semtag sources are not next to perfbench/; "
             "run from the root of a checkout of the repository")
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "perfbench-build.log")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", BUILD, *generator])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target",
                  "semtag_serve", "perfbench_harness"])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail(f"build failed: {' '.join(step)} (log {log_path})")
    cached = ""
    with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
        for line in f:
            if line.startswith("CMAKE_BUILD_TYPE:"):
                cached = line.split("=", 1)[1].strip()
    if cached.lower() in ("", "debug"):
        fail(f"refusing to measure a '{cached or 'unset'}' build")
    return cached


def harness_args(config, workload, seed, seconds, trace, run_dir, smoke):
    flags = dict(config["common"])
    flags.update(config["workloads"][workload])
    if smoke:
        flags.update(config["smoke"]["common"])
        flags.update(config["smoke"].get(workload, {}))
    flags.update({"seed": seed, "trace": trace, "run-dir": run_dir,
                  "daemon": DAEMON, "serve-seconds": seconds})
    args = [HARNESS, "run"]
    for key, value in flags.items():
        args += [f"--{key}", str(value)]
    return args


def run_once(args):
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    config = load_json(os.path.join(HERE, "workloads.json"))
    if args.workload not in config["workloads"]:
        fail(f"unknown workload {args.workload}")
    build_type = build()

    # The harness and the daemon share one CPU, the highest-numbered one this
    # process may use, and the daemon's pool has one thread.
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    run_dir = os.path.join(
        BUILD, "perfbench-runs",
        f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(os.path.join(run_dir, "cache"))
    # Every other SEMTAG_* knob (SEMTAG_QUANT, SEMTAG_REPLAN, ...) stays
    # unset, and each run gets a fresh result cache.
    env = {k: v for k, v in os.environ.items() if not k.startswith("SEMTAG_")}
    env["SEMTAG_NUM_THREADS"] = "1"
    env["SEMTAG_CACHE_DIR"] = os.path.join(run_dir, "cache")

    print(f"perfbench {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace}: build {build_type}, host cores "
          f"{os.cpu_count()}, cpu set [{cpu}], SEMTAG_NUM_THREADS 1",
          flush=True)
    proc = subprocess.Popen(
        harness_args(config, args.workload, args.seed, args.seconds,
                     args.trace, run_dir, args.smoke_sizes),
        env=env, cwd=run_dir, start_new_session=True)
    try:
        code = proc.wait(timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"harness did not finish in {HARNESS_TIMEOUT_S} s")
    if code != 0:
        fail(f"harness exited with {code}; run files in {run_dir}")
    result = load_json(os.path.join(run_dir, "result.json"))

    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None:
            fail(f"harness did not report {m['name']}")
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    failed_checks = [c["name"] for c in result["checks"] if not c["ok"]]
    if args.trace and not keep_trace(args.workload, run_dir, result):
        failed_checks.append("daemon_escalations_match_offline")
    if failed_checks:
        print(f"FAILED checks: {', '.join(failed_checks)}", flush=True)
    else:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps({"correct": not failed_checks,
                      "attempted": max(1, int(result["attempted"])),
                      "failed": int(result["failed"]),
                      "metrics": metrics}), flush=True)
    return 0 if not failed_checks else 1


def keep_trace(workload, run_dir, result):
    """Keeps the spans and the daemon's obs snapshot of a traced run under
    .bench_build/perfbench-trace/<workload>/ and prints the cross-check of
    the daemon's own counters against the harness's figures. Returns False
    when the daemon escalated a different number of the fixed records than
    the offline twin of its cascade does."""
    keep = os.path.join(BUILD, "perfbench-trace", workload)
    shutil.rmtree(keep, ignore_errors=True)
    os.makedirs(keep)
    for name in ("spans.json", "daemon_metrics.json",
                 "daemon_metrics_idle.json", "result.json"):
        if os.path.exists(os.path.join(run_dir, name)):
            shutil.copy(os.path.join(run_dir, name), keep)
    snapshot = load_json(os.path.join(keep, "daemon_metrics.json"))
    counters = snapshot.get("counters", {})
    hist = snapshot.get("histograms", {})
    idle = load_json(os.path.join(keep, "daemon_metrics_idle.json")).get(
        "counters", {})

    def serving_gemm(prefix):
        """A la/gemm counter of the serving daemon less that of the idle one,
        which trained the same model and served nothing."""
        def total(c):
            return sum(v for k, v in c.items() if k.startswith(prefix))
        return total(counters) - total(idle)

    def mean(name):
        h = hist.get(name, {})
        return h["sum"] / h["count"] if h.get("count") else float("nan")

    cross = result["cross_check"]
    escalated = counters.get("cascade/examples_escalated", 0)
    twin = cross["offline_escalated"]  # -1 when the daemon is no cascade
    print(f"cross-check, daemon --metrics over the {cross['fixed_records']} "
          f"fixed records: serve/batch_size mean {mean('serve/batch_size'):.2f}, "
          f"serve/queue_wait_us mean {mean('serve/queue_wait_us'):.1f}, "
          f"cascade/examples_escalated {escalated} of "
          f"{counters.get('cascade/examples_total', 0)} (offline twin: "
          f"{twin if twin >= 0 else 'no cascade'}), la/gemm/flops "
          f"{counters.get('la/gemm/flops', 0)} (training included); "
          f"spans and snapshot kept in {keep}", flush=True)
    n = cross["fixed_records"]
    harness = result["metrics"]
    print(f"cross-check, la/gemm per request: daemon less its idle twin "
          f"{serving_gemm('la/gemm/calls') / n:.4g} calls, "
          f"{serving_gemm('la/gemm/flops') / n:.4g} flops at its own batch "
          f"sizes; harness in-process batches of 32: "
          f"{harness['la.gemm_calls_per_req']['value']:.4g} calls, "
          f"{harness['la.gemm_flops_per_req']['value']:.4g} flops",
          flush=True)
    return twin < 0 or escalated == twin


def child_run(workload, seed, seconds, trace, extra=()):
    """Runs this script once in a subprocess. Returns its result object and
    its printed output."""
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace), *extra], stdout=subprocess.PIPE, text=True, cwd=ROOT)
    lines = out.stdout.strip().splitlines()
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") \
        else None
    if out.returncode != 0 or result is None or not result["correct"]:
        fail(f"{workload} seed {seed} trace {trace} failed")
    return result, lines


# A metric line the harness prints: name, value, unit, (n=samples).
METRIC_LINE = re.compile(r"^\s+(\S+)\s+(\S+)\s+\S+\s+\(n=\d+\)$")


def smoke():
    config = load_json(os.path.join(HERE, "workloads.json"))
    seconds = config["smoke"]["seconds"]
    for workload in config["workloads"]:
        for trace in (0, 1):
            child_run(workload, 1, seconds, trace, ["--smoke-sizes"])
    print("smoke: every workload ran with every check passing")
    return 0


def steady(args):
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    config = load_json(os.path.join(HERE, "workloads.json"))
    seconds = args.seconds or bench["run_seconds"]
    workloads = (list(config["workloads"]) if args.workload == "all"
                 else [args.workload])
    metrics = bench["per_layer"] if args.trace else bench["end_to_end"]
    report, drifted = {}, {}
    for workload in workloads:
        values = {m["name"]: [] for m in metrics}
        # Metrics the harness prints but BENCHMARK.json does not gate
        # (p90_us, ref_loop_ns, ...), read from its output.
        printed = {}
        drifted[workload] = 0
        for seed in range(args.first_seed, args.first_seed + args.steady):
            result, lines = child_run(workload, seed, seconds, args.trace)
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            for line in lines:
                match = METRIC_LINE.match(line)
                if match and match.group(1) not in values:
                    printed.setdefault(match.group(1), []).append(
                        float(match.group(2)))
            drifted[workload] += any("HOST DRIFT" in line for line in lines)
        report[workload] = values
        for name, v in printed.items():
            if len(v) == args.steady:
                values[name] = v
    worst = 0.0
    print(f"\n{'workload':<14} {'metric':<28} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'spread':>8} {'bound':>6}")
    for workload, values in report.items():
        rows = metrics + [{"name": n} for n in values
                          if n not in {m["name"] for m in metrics}]
        for m in rows:
            v = values[m["name"]]
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / abs(med) if med else 0.0
            bound = m.get("bound")
            flag = ""
            if bound is not None and m["name"] != "setup_s":
                flag = "ok" if spread < bound / 3 else "WIDE"
                worst = max(worst, spread / bound)
            print(f"{workload:<14} {m['name']:<28} {med:>12.6g} {q1:>12.6g} "
                  f"{q3:>12.6g} {spread:>8.2%} "
                  f"{'' if bound is None else bound:>6} {flag}")
        print(f"{workload:<14} runs flagged HOST DRIFT: {drifted[workload]} "
              f"of {args.steady}")
    print(f"largest spread / bound: {worst:.2f}")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny run of every workload, traced and not")
    parser.add_argument("--smoke-sizes", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--steady", type=int, default=0,
                        help="run N seeds and print each metric's spread")
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    if args.smoke:
        return smoke()
    if args.steady:
        return steady(args)
    if args.workload == "all":
        fail("--workload is required")
    if args.seconds is None:
        args.seconds = load_json(os.path.join(ROOT, "BENCHMARK.json"))[
            "run_seconds"]
    return run_once(args)


if __name__ == "__main__":
    sys.exit(main())
