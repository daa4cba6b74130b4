#!/usr/bin/env python3
"""The repository benchmark: builds soctest and the perfbench binary from
source, then runs one workload and relays its result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --steadiness [--runs 10] [--workloads a,b]
                             [--seconds S] [--first-seed 1]

Run it from the repository root (any directory works; paths resolve from
this file). --trace 0 measures the end-to-end metrics of BENCHMARK.json,
--trace 1 the per-layer ones. The last line of standard output is the JSON
result; the exit code is non-zero when a check failed. --steadiness runs
each workload once per seed and reports each end-to-end metric's spread
(interquartile range over median) against its bound.

Everything the benchmark builds or writes stays under .bench_build/ in the
repository root: the CMake build, per-run work files (deleted after the
run), traces (traces/<workload>-seed<N>.json, Chrome trace-event format) and
the steadiness report.
"""
import argparse
import fcntl
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_build"
BUILD = OUT / "cmake"
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_json(path):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def build():
    """Configures once and builds perfbench + soctest_cli (incremental)."""
    for needed in ("CMakeLists.txt", "src/CMakeLists.txt", "tools/CMakeLists.txt"):
        if not (ROOT / needed).is_file():
            fail(f"no soctest sources: {ROOT / needed} is missing")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    OUT.mkdir(exist_ok=True)
    with open(OUT / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (BUILD / "CMakeCache.txt").is_file():
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            configure = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                         "-DCMAKE_BUILD_TYPE=Release", *generator]
            if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
                fail("configure failed")
        jobs = str(min(4, os.cpu_count() or 1))
        cmd = ["cmake", "--build", str(BUILD), "--target", "perfbench",
               "soctest_cli", "-j", jobs]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("build failed")
    cli = BUILD / "soctest" / "tools" / "soctest_cli"
    binary = BUILD / "perfbench"
    if not cli.is_file() or not binary.is_file():
        fail("build produced no binaries")
    return binary, cli


def bound_of(benchmark, name):
    for metric in benchmark["end_to_end"]:
        if metric["name"] == name:
            return metric["bound"]
    fail(f"BENCHMARK.json has no end-to-end metric {name}")


def run_one(args):
    benchmark = load_json(ROOT / "BENCHMARK.json")
    config = load_json(HERE / "config.json")
    workloads = config["workloads"]
    if args.workload not in workloads:
        fail(f"unknown workload {args.workload!r}; one of {', '.join(workloads)}")
    binary, cli = build()

    work = OUT / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--cli", str(cli), "--work", str(work.relative_to(ROOT)),
           "--lateness-bound", str(bound_of(benchmark, "latency_p50_us"))]
    for key, value in workloads[args.workload]["args"].items():
        cmd += [f"--{key}", str(value)]
    if args.trace:
        trace = OUT / "traces" / f"{args.workload}-seed{args.seed}.json"
        cmd += ["--trace-out", str(trace.relative_to(ROOT))]

    # A process group of its own, so a timeout can kill the benchmark binary
    # and the server it spawned.
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        code = 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return code


def quartile_spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else float("inf"), median


def steadiness(args):
    benchmark = load_json(ROOT / "BENCHMARK.json")
    config = load_json(HERE / "config.json")
    names = args.workloads.split(",") if args.workloads else \
        [w["name"] for w in benchmark["workloads"]]
    dropped = [d["metric"] for d in config.get("dropped_unsteady", [])]
    metrics = [dict(m) for m in benchmark["end_to_end"]]
    metrics += [{"name": d, "bound": None} for d in dropped]
    seconds = args.seconds or benchmark["run_seconds"]
    build()
    report = {"seconds": seconds, "runs": args.runs, "workloads": {},
              "dropped_unsteady": config.get("dropped_unsteady", [])}
    ok = True
    for name in names:
        values = {m["name"]: [] for m in metrics}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
            out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            lines = out.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            if out.returncode != 0 or not result.get("correct"):
                print(f"{name} seed {seed}: run failed", file=sys.stderr)
                ok = False
                continue
            for metric, entry in result["metrics"].items():
                values[metric].append(entry["value"])
            for line in lines[:-1]:  # dropped metrics print as "name value unit (not gated)"
                words = line.split()
                if len(words) >= 2 and words[0] in dropped:
                    values[words[0]].append(float(words[1]))
            print(f"{name} seed {seed}: " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                file=sys.stderr)
        rows = {}
        print(f"\n{name}: {args.runs} runs of {seconds} s")
        print(f"  {'metric':28} {'median':>14} {'spread':>8} {'bound':>6}  verdict")
        for metric in metrics:
            series = values[metric["name"]]
            if len(series) < 2:
                continue
            spread, median = quartile_spread(series)
            bound = metric["bound"]
            if bound is None:
                print(f"  {metric['name']:28} {median:14.6g} {spread:8.4f} {'-':>6}  dropped as unsteady (not gated)")
                rows[metric["name"]] = {"median": median, "spread": spread, "values": series}
                continue
            if metric["name"] == "setup_s":
                verdict = "set-up (spread not gated)"
            elif spread > bound:
                verdict = "UNSTEADY"
                ok = False
            elif spread > bound / 3:
                verdict = "within bound, above a third of it"
            else:
                verdict = "steady"
            print(f"  {metric['name']:28} {median:14.6g} {spread:8.4f} {bound:6.3f}  {verdict}")
            rows[metric["name"]] = {"median": median, "spread": spread,
                                    "bound": bound, "values": series}
        report["workloads"][name] = rows
    print("\nmetrics dropped as unsteady when the benchmark was defined: " +
          (", ".join(dropped) or "none"))
    OUT.mkdir(exist_ok=True)
    (OUT / "steadiness.json").write_text(json.dumps(report, indent=1))
    print(f"report: {OUT / 'steadiness.json'}")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", action="store_true")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads")
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    if args.steadiness:
        return steadiness(args)
    if not args.workload:
        parser.error("--workload is required")
    if args.seconds is None:
        args.seconds = load_json(ROOT / "BENCHMARK.json")["run_seconds"]
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
