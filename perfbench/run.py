#!/usr/bin/env python3
"""Runs one perfbench workload from the root of an ara checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test [--workload NAME]

Builds ara_perfbench (the ara library, ara_worker and the benchmark
program, Release) into $CARGO_TARGET_DIR or .bench_build, runs the
workload there, validates its output and prints, as the last line of
standard output, one JSON object with the keys correct, attempted,
failed and metrics. Untraced runs (--trace 0) report the end-to-end
metrics named in BENCHMARK.json, traced runs (--trace 1) the per-layer
metrics. Exits 1 when any output failed its correctness check, 2 when
the checkout cannot be built or run.

--self-test checks the benchmark's own output on every workload (or
one): metric names and units are well formed, every metric carries a
sample count, a percentile is reported only with at least ten samples
beyond it, and another seed gives other inputs but the same metric set.
"""
import argparse
import json
import math
import os
import re
import shutil
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("paper_quote", "serve_quotes", "book_dist")
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PERCENTILE_RE = re.compile(r"_p(\d{2})(?:_|$)")
RUN_TIMEOUT_S = 170
MIN_SAMPLES_BEYOND = 10


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build():
    """Configures (once) and builds ara_perfbench; returns its path."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise RuntimeError(f"no ara sources next to perfbench/ in {ROOT}")
    out = build_dir() / "perfbench"
    jobs = str(os.cpu_count() or 1)
    if not (out / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", str(out), "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return out / "ara_perfbench"


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this kind of run."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_binary(binary, workload, seed, seconds, trace):
    """Runs one workload; returns (human-readable lines, parsed result)."""
    rel_build = os.path.relpath(build_dir(), ROOT)
    workdir = os.path.join(rel_build, "run", f"{workload}-{os.getpid()}")
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace)),
           "--workdir", workdir]
    if trace:
        traces = build_dir() / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--tracefile", str(traces / f"{workload}-seed{seed}.jsonl")]
    # Own process group, so a timeout also stops the ara_worker
    # processes a distributed run spawned.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=sys.stderr, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"{workload} ran longer than {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(ROOT / workdir, ignore_errors=True)
    lines = stdout.splitlines()
    tagged = [ln for ln in lines if ln.startswith("PERFBENCH_RESULT ")]
    if not tagged:
        raise RuntimeError(f"{workload} printed no result "
                           f"(exit {proc.returncode})")
    result = json.loads(tagged[-1][len("PERFBENCH_RESULT "):])
    human = [ln for ln in lines if not ln.startswith("PERFBENCH_RESULT ")]
    return human, result


def output_problems(result, expected):
    """Self-test of one result: names, units, sample counts, percentiles,
    and the metric set promised in BENCHMARK.json."""
    problems = []
    metrics = result["metrics"]
    if sorted(metrics) != sorted(expected):
        problems.append(f"metric set {sorted(metrics)} != {sorted(expected)}")
    for name, m in metrics.items():
        if not NAME_RE.match(name):
            problems.append(f"bad metric name {name!r}")
        if not UNIT_RE.match(m.get("unit", "")):
            problems.append(f"{name}: bad unit {m.get('unit')!r}")
        samples = m.get("samples")
        if not isinstance(samples, int) or samples < 0:
            problems.append(f"{name}: no sample count")
            continue
        if not isinstance(m.get("value"), (int, float)) or \
                not math.isfinite(m["value"]):
            problems.append(f"{name}: value is not a finite number")
        pct = PERCENTILE_RE.search(name)
        if pct and samples > 0:
            q = int(pct.group(1)) / 100.0
            if samples * (1.0 - q) < MIN_SAMPLES_BEYOND:
                problems.append(f"{name}: {samples} samples leave fewer than "
                                f"{MIN_SAMPLES_BEYOND} beyond the percentile")
    return problems


def run(args):
    binary = build()
    human, result = run_binary(binary, args.workload, args.seed, args.seconds,
                               args.trace)
    for line in human:
        print(line)
    problems = output_problems(result, expected_metrics(args.trace))
    for p in problems:
        print(f"  OUTPUT CHECK FAILED: {p}")
    attempted = max(1, int(result["attempted"]))
    failed = int(result["failed"])
    print(f"  error_rate {failed / attempted:.6g} "
          f"({failed} failed of {attempted} attempted)")
    correct = failed == 0 and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in result["metrics"].items()},
    }))
    return 0 if correct else 1


def self_test(args):
    binary = build()
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    failures = []
    for workload in workloads:
        for trace in (False, True):
            results = []
            for seed in (args.seed, args.seed + 1):
                _, result = run_binary(binary, workload, seed, 1.0, trace)
                results.append(result)
                for p in output_problems(result, expected_metrics(trace)):
                    failures.append(f"{workload} trace={int(trace)} "
                                    f"seed={seed}: {p}")
                if result["failed"]:
                    failures.append(f"{workload} trace={int(trace)} "
                                    f"seed={seed}: {result['failed']} failed")
            a, b = results
            if a["inputs_digest"] == b["inputs_digest"]:
                failures.append(f"{workload}: seeds {args.seed} and "
                                f"{args.seed + 1} gave the same inputs")
            if sorted(a["metrics"]) != sorted(b["metrics"]):
                failures.append(f"{workload}: the metric set depends on the "
                                f"seed")
            print(f"self-test {workload} trace={int(trace)}: "
                  f"{len(a['metrics'])} metrics, inputs "
                  f"{a['inputs_digest']} / {b['inputs_digest']}")
    for f in failures:
        print(f"SELF-TEST FAILED: {f}")
    print("self-test " + ("passed" if not failures else "FAILED"))
    return 0 if not failures else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    try:
        if args.self_test:
            return self_test(args)
        if not args.workload:
            parser.error("--workload is required")
        return run(args)
    except (RuntimeError, OSError, ValueError, KeyError,
            subprocess.SubprocessError) as e:
        log(f"perfbench: {e}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
