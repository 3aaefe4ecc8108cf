#!/usr/bin/env python3
"""Repository benchmark: build perfbench_bin, run one workload, report.

Usage (from the repository root):

    python3 perfbench/run.py --workload plonky2-factorial --seed 1 \
        --seconds 30 --trace 0

The first run configures and builds the program's libraries and the
benchmark binary into .bench_build/perfbench (CMake, Release). The
binary measures the workload and prints raw samples as one JSON line;
this script reduces them to the metrics named in BENCHMARK.json, checks
the outputs (every operation succeeded, the proof fingerprint and SIMD
level match perfbench/expected.json), prints a human-readable report
and, as the last line, one JSON object with the keys correct,
attempted, failed and metrics. --trace 0 reports the end_to_end
metrics, --trace 1 the per_layer metrics.

Exit codes: 0 correct, 1 an operation or output check failed,
2 build or run error (no result line), 3 pinned configuration mismatch
(no result line).
"""

import argparse
import hashlib
import json
import math
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench_bin")
RUN_TIMEOUT_S = 170

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

# Per-layer metrics a workload does not exercise; they report 0. Any
# other metric missing from the raw output is a benchmark bug.
NOT_EXERCISED = {
    "plonky2-factorial": ("service.", "load.", "stark.", "sim.span_s"),
    "starky-sha256": ("service.", "load.", "plonk.", "sim.span_s"),
    "service-zipfian": (),
}


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def quantile(values, q):
    """Exact q-quantile of the samples (linear interpolation between
    order statistics, numpy's default), not a histogram estimate."""
    if not values:
        raise ValueError("quantile of no samples")
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must lie in [0, 1]")
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values):
    return quantile(values, 0.5)


def metric_value(name, raw):
    """(value, sample count) of one metric from the binary's output."""
    samples = raw.get("samples", {})
    values = raw.get("values", {})
    if name == "latency_p50_ms":
        xs = samples["request_ms"]
        return quantile(xs, 0.50), len(xs)
    if name == "latency_p95_ms":
        xs = samples["request_ms"]
        return quantile(xs, 0.95), len(xs)
    if name == "peak_rss_mb":
        return raw["peak_rss_mb"], 1
    if name == "obs.trace_overhead_ratio":
        traced, plain = samples["traced_prove_s"], samples["prove_s"]
        return median(traced) / median(plain) - 1.0, len(traced)
    if name in samples:
        return median(samples[name]), len(samples[name])
    if name in values:
        return values[name], 1
    raise KeyError(name)


def reduce_run(raw, spec, expected, default_seed):
    """Reduce raw measurements to the result object and report lines.

    Returns (result, lines). result["correct"] is False when any
    operation failed or the proof fingerprint at the default seed
    differs from the pinned one; a fingerprint mismatch counts every
    attempted operation as failed, since all proofs of a run are
    byte-identical to the one fingerprinted.
    """
    workload = raw["workload"]
    attempted = int(raw["attempted"])
    failed = int(raw["failed"])
    problems = list(raw.get("failures", []))
    if raw["seed"] == default_seed:
        pinned = expected["fingerprints"].get(workload)
        if pinned != raw["fingerprint"]:
            problems.append("proof fingerprint %s differs from the "
                            "pinned %s" % (raw["fingerprint"], pinned))
            failed = attempted
    if attempted < 1:
        problems.append("no operation was attempted")
        attempted = 1
        failed = 1

    section = "per_layer" if raw["trace"] else "end_to_end"
    metrics = {}
    lines = []
    for m in spec[section]:
        name, unit = m["name"], m["unit"]
        try:
            value, count = metric_value(name, raw)
        except KeyError:
            if not name.startswith(NOT_EXERCISED[workload]):
                raise
            value, count = 0.0, 0
        metrics[name] = {"value": value, "unit": unit}
        lines.append("  %-28s %16.6g %-8s (n=%d)" % (name, value, unit,
                                                     count))
    error_rate = failed / attempted
    lines.append("  %-28s %16.6g %-8s (%d of %d failed)" % (
        "error_rate", error_rate, "ratio", failed, attempted))
    for p in problems:
        lines.append("  FAILED: " + p)
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, lines


def revision():
    """Git revision if the checkout is a repository, and a digest of the
    program sources either way."""
    rev = "none"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            rev = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                capture_output=True, text=True, check=True,
                timeout=30).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for f in sorted(filenames):
            path = os.path.join(dirpath, f)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return rev, digest.hexdigest()[:12]


def build():
    """Configure (once) and build the benchmark binary; False on error."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target",
                  "perfbench_bin", "--parallel", "4"])
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  cwd=ROOT)
        except OSError as e:
            log("perfbench: cannot run %s: %s" % (cmd[0], e))
            return False
        if proc.returncode != 0:
            log("perfbench: build step failed: " + " ".join(cmd))
            return False
    return True


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    with open(os.path.join(HERE, "expected.json")) as fh:
        expected = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        log("perfbench: unknown workload %r" % args.workload)
        return 2
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: program sources (src/) not found next to "
            "perfbench/")
        return 2
    if not build():
        return 2

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
        return 2
    out = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not out:
        log("perfbench: perfbench_bin exited with %d" % proc.returncode)
        return 2
    raw = json.loads(out[-1])

    rev, src_digest = revision()
    log_config = ("config: workload=%s seed=%d seconds=%d trace=%d "
                  "threads=%d simd=%s ntt_cache=%s (UNIZK_NTT_CACHE=%r) "
                  "git=%s src=%s fingerprint=%s" % (
                      raw["workload"], raw["seed"], args.seconds,
                      args.trace, raw["threads"], raw["simd"],
                      raw["ntt_cache"], raw["ntt_cache_env"], rev,
                      src_digest, raw["fingerprint"]))
    print(log_config)
    if raw["simd"] != expected["simd"]:
        log("perfbench: SIMD level %s differs from the pinned %s; the "
            "hashing layers are not comparable, refusing to report"
            % (raw["simd"], expected["simd"]))
        return 3

    result, lines = reduce_run(raw, spec, expected,
                               expected["default_seed"])
    print("\n".join(lines))
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
