#!/usr/bin/env python3
"""ERMES layer-attributed benchmark: build, run, check.

One run (the last stdout line is the JSON result):
    python3 perfbench/run.py --workload explore --seed 1 --seconds 30 --trace 0

Steadiness report (N runs per workload with seeds B..B+N-1; prints each
end-to-end metric's median and quartile spread against its bound):
    python3 perfbench/run.py --repeat 10 [--workload flow10k] [--seed-base 1]

Smoke-sized run of every workload and every answer check, plus checks of
BENCHMARK.json's shape and of a tree without sources:
    python3 perfbench/run.py --self-test

Run from the repository root. The first run configures and builds the
library, the `ermes` CLI and the perfbench binary into .bench_build/
(RelWithDebInfo, the repository default); later runs rebuild incrementally.
Every run's host context and result is appended to .bench_runs/runs.jsonl.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
RUNS_DIR = ROOT / ".bench_runs"
RUN_TIMEOUT_S = 175
# The metrics that were too noisy in the previous attempt at this benchmark;
# the steadiness report always lists them.
WATCHED = [("explore", "p50_ms"), ("explore", "setup_s"),
           ("flow10k", "setup_s"), ("serve_mixed", "p50_ms")]


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build():
    """Configures (once) and builds the benchmark; returns the binaries."""
    if not (ROOT / "CMakeLists.txt").is_file() or \
            not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no ERMES source tree at {ROOT}")
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    log_path = BUILD_DIR.parent / "build.log"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs,
                  "--target", "perfbench", "ermes_cli"])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail(f"build failed (full log: {log_path})", 3)
    return BUILD_DIR / "perfbench", BUILD_DIR / "ermes" / "tools" / "ermes"


def revision():
    """Git revision, or a digest of the sources when there is no git."""
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if out.returncode == 0:
            return out.stdout.strip()
    digest = hashlib.sha1()
    for top in ["CMakeLists.txt", "src", "tools", "perfbench"]:
        path = ROOT / top
        files = [path] if path.is_file() else sorted(path.rglob("*"))
        for f in files:
            if f.is_file():
                digest.update(str(f.relative_to(ROOT)).encode())
                digest.update(f.read_bytes())
    return "src-sha1:" + digest.hexdigest()[:16]


def run_once(binaries, args, echo=True):
    """Runs the binary once; returns (exit code, stdout lines)."""
    perfbench, ermes = binaries
    RUNS_DIR.mkdir(exist_ok=True)
    cmd = [str(perfbench), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--ermes", str(ermes),
           "--workdir", str(RUNS_DIR.relative_to(ROOT)),
           "--revision", revision()]
    if args.corpus_seed:
        cmd += ["--corpus-seed", str(args.corpus_seed)]
    if args.smoke:
        cmd.append("--smoke")
    # Own process group: a timeout takes the spawned daemon down too.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1, []
    lines = out.splitlines()
    with open(RUNS_DIR / "runs.jsonl", "a") as log:
        log.write(json.dumps({"time": time.time(), "argv": cmd[1:],
                              "exit": proc.returncode, "lines": lines}) + "\n")
    if echo:
        for line in lines[:-1]:
            print(line)
    return proc.returncode, lines


def parse_result(lines):
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return None
    return result


def single(args):
    binaries = build()
    code, lines = run_once(binaries, args)
    result = parse_result(lines)
    if code != 0 or result is None:
        fail(f"{args.workload}: no result (exit {code})", code or 1)
    print(lines[-1])


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def repeat(args):
    spec = load_spec()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = [args.workload] if args.workload else \
        [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    binaries = build()
    report = {}
    for workload in workloads:
        samples = {}
        for i in range(args.repeat):
            run_args = argparse.Namespace(**vars(args))
            run_args.workload, run_args.seed = workload, args.seed_base + i
            run_args.seconds, run_args.trace = seconds, 0
            code, lines = run_once(binaries, run_args, echo=False)
            result = parse_result(lines)
            if code != 0 or result is None or not result["correct"]:
                fail(f"{workload} seed {run_args.seed}: run failed or incorrect")
            for name, metric in result["metrics"].items():
                samples.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {run_args.seed}: " + " ".join(
                f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()),
                flush=True)
        report[workload] = samples
    print(f"\n{'workload/metric':34} {'median':>12} {'q1':>12} {'q3':>12}"
          f" {'spread':>8} {'bound':>6}")
    over = []
    for workload, samples in report.items():
        for name, values in samples.items():
            med, q1, q3, s = spread(values)
            bound = bounds[name]
            flag = ""
            if s > bound:
                flag = "OVER BOUND"
                over.append(f"{workload}/{name}")
            elif s > bound / 3:
                flag = "above bound/3"
            watched = "*" if (workload, name) in WATCHED else " "
            print(f"{watched}{workload + '/' + name:33} {med:12.6g} {q1:12.6g}"
                  f" {q3:12.6g} {s:8.3f} {bound:6.2f} {flag}")
    print("\n* = re-checked metric (noisy in the previous attempt)")
    summary = RUNS_DIR / f"steadiness-{int(time.time())}.json"
    summary.write_text(json.dumps(report, indent=1))
    print(f"samples: {summary.relative_to(ROOT)}")
    if over:
        print("metrics whose spread exceeds their bound: " + ", ".join(over))


def self_test(args):
    """Smoke-size run of every workload, checked against BENCHMARK.json."""
    spec = load_spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}, "BENCHMARK.json keys"
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names)), "metric names must be unique"
    assert any(m["name"] == "setup_s" and m["unit"] == "s" and
               m["better"] == "lower" for m in spec["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    binaries = build()
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            run_args = argparse.Namespace(**vars(args))
            run_args.workload, run_args.seed, run_args.seconds = workload, 7, 2
            run_args.trace, run_args.smoke = trace, True
            code, lines = run_once(binaries, run_args, echo=False)
            result = parse_result(lines)
            assert code == 0 and result is not None, f"{workload}: no result"
            assert result["correct"] and result["failed"] == 0, \
                f"{workload}: answer checks failed: {lines[-12:]}"
            assert result["attempted"] >= 1
            got = {n: m["unit"] for n, m in result["metrics"].items()}
            assert got == {m["name"]: m["unit"] for m in listed}, \
                f"{workload} trace={trace}: metric names or units differ"
            if trace == 0:
                assert all(m["value"] > 0 for m in result["metrics"].values()), \
                    f"{workload}: an end-to-end metric reads 0"
            print(f"ok  {workload} trace={trace}: {result['attempted']} ops")
    # Without the ERMES sources the benchmark must fail without a result.
    bare = RUNS_DIR / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(BENCH_DIR, bare / "perfbench")
    out = subprocess.run(
        spec["command"] + ["--workload", "explore", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    assert out.returncode != 0 and parse_result(out.stdout.splitlines()) is None
    print("ok  a tree without sources fails without a result")
    print("self-test passed")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corpus-seed", type=int, default=0,
                        help="model corpus seed (0 = the workload default)")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--repeat", type=int, default=0)
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        self_test(args)
    elif args.repeat:
        repeat(args)
    elif args.workload and args.seconds > 0:
        single(args)
    else:
        parser.print_usage(sys.stderr)
        sys.exit(2)


if __name__ == "__main__":
    main()
