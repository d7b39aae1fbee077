#!/usr/bin/env python3
"""Build the DEDUKT libraries with the perfbench runner and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the repository root. The build goes to $CARGO_TARGET_DIR (default
.bench_build), relative to the root. Human-readable lines come first; the
last line of standard output is one JSON object with exactly the keys
correct, attempted, failed and metrics. The full record, with the run
manifest and supporting details, is written to <build>/results/.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return target if target.is_absolute() else ROOT / target


def run_quiet(cmd, timeout):
    """Run cmd with its output on stderr; raise on failure or timeout."""
    subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, check=True,
                   timeout=timeout)


def build(out_dir):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError(f"no DEDUKT sources under {ROOT / 'src'}")
    started = time.monotonic()
    if not (out_dir / "CMakeCache.txt").is_file():
        run_quiet(["cmake", "-S", str(BENCH_DIR), "-B", str(out_dir),
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], BUILD_TIMEOUT_S)
    remaining = BUILD_TIMEOUT_S - (time.monotonic() - started)
    jobs = str(min(4, os.cpu_count() or 1))
    run_quiet(["cmake", "--build", str(out_dir), "-j", jobs], remaining)
    return out_dir / "perfbench_runner"


def git_sha():
    """HEAD of the checkout when it is a git repository, else 'unavailable'."""
    if not (ROOT / ".git").exists():
        return "unavailable"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, env=env,
                             timeout=30, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unavailable"


def source_digest():
    """SHA-256 over the benchmarked sources, for checkouts without git."""
    digest = hashlib.sha256()
    for base in (ROOT / "src", BENCH_DIR):
        for path in sorted(p for p in base.rglob("*") if p.is_file()):
            if "__pycache__" in path.parts:
                continue
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="run the benchmark's own tests instead")
    parser.add_argument("--sim-threads", type=int, default=4,
                        help="DEDUKT_SIM_THREADS for the run (default 4)")
    args = parser.parse_args(argv)
    if not args.selftest and not args.workload:
        parser.error("--workload is required")
    return args


def main(argv):
    args = parse_args(argv)
    out_dir = build_dir()
    try:
        runner = build(out_dir)
    except (RuntimeError, OSError, subprocess.SubprocessError) as err:
        log(f"perfbench: build failed: {err}")
        return 2

    env = {k: v for k, v in os.environ.items()
           if k not in ("DEDUKT_TRACE", "DEDUKT_TRACE_CLOCK")}
    env["DEDUKT_SIM_THREADS"] = str(args.sim_threads)
    work_dir = out_dir / "work"
    cmd = [str(runner), "--work-dir", str(work_dir),
           "--sim-threads", str(args.sim_threads)]
    if args.selftest:
        return subprocess.run(cmd + ["--selftest"], env=env,
                              timeout=RUN_TIMEOUT_S).returncode

    cmd += ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", repr(args.seconds), "--trace", str(args.trace),
            "--git-sha", git_sha()]
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: the runner timed out")
        return 1
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"perfbench: the runner failed with exit code {proc.returncode}")
        return 1
    record = json.loads(lines[-1])
    record["manifest"]["source_sha256"] = source_digest()

    wanted = expected_metrics(args.trace)
    got = {name: m["unit"] for name, m in record["metrics"].items()}
    if got != wanted:
        units = sorted(n for n in got if n in wanted and got[n] != wanted[n])
        log(f"perfbench: metrics differ from BENCHMARK.json: "
            f"missing {sorted(set(wanted) - set(got))}, "
            f"extra {sorted(set(got) - set(wanted))}, units {units}")
        return 1

    results = out_dir / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=2) + "\n")

    print("manifest " + json.dumps(record["manifest"], sort_keys=True))
    for error in record["errors"]:
        print(f"error: {error}")
    for metric, m in record["metrics"].items():
        print(f"{metric:48s} {m['value']:>20.6g} {m['unit']}")
    print(json.dumps({key: record[key]
                      for key in ("correct", "attempted", "failed",
                                  "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
