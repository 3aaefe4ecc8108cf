#!/usr/bin/env python3
"""Perf-regression harness: run the pinned benchmark set and compare
against a committed baseline.

Runs four suites from an existing build tree:

  * ``bench_ntt`` (engine vs seed scalar path, and the engine's lane
    kernels vs its scalar SIMD level) over a small sweep,
  * ``bench_poseidon`` (SIMD batch hashing vs the scalar sponge),
  * ``bench_poly`` (the Plonk quotient's lane kernel vs its scalar SIMD
    level), and
  * a pinned subset of the google-benchmark ``micro_kernels``,

each N times, taking the per-metric median, and emits a
``unizk-bench-v1`` JSON document (``BENCH_<rev>.json`` by default).

Gating policy: absolute times are machine-dependent, so they are
recorded but never gated. What is gated are *same-machine speedup
ratios* (engine vs scalar NTT, optimized vs naive Poseidon): those are
stable across hosts, so a committed baseline transfers to CI. Each gate
carries its own relative tolerance, chosen generously to sit well above
run-to-run noise while still catching real regressions (an injected 2x
slowdown of one side trips every affected gate).

Usage:
  run_benchmarks.py --build-dir build --runs 3 --output BENCH.json
  run_benchmarks.py --compare tools/bench/BASELINE.json
  run_benchmarks.py --runs 5 --output tools/bench/BASELINE.json

Exit status is non-zero when --compare finds a regression. Stdlib only.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

SCHEMA = "unizk-bench-v1"

# Pinned micro_kernels subset: one representative per substrate, small
# enough to keep the harness under a minute.
MICRO_FILTER = (
    "^(BM_FieldMul|BM_PoseidonPermutation|BM_PoseidonPermutationNaive|"
    "BM_HashLeaf135|BM_NttForward/16384|BM_VecMul/16384)$"
)

# Gate definitions: metric name -> (direction, relative tolerance).
# direction "higher" means larger is better (speedup ratios).
GATES = {
    "ntt.speedup_1t.2pow14": ("higher", 0.45),
    "lde.speedup_1t.2pow14": ("higher", 0.45),
    # The naive/optimized ratio is small (~1.3) and very stable, so a
    # tighter band is needed for the gate to mean anything.
    "poseidon.naive_over_opt": ("higher", 0.20),
    # AVX2 batch permutation vs the scalar sponge loop. With the lazily
    # reduced linear layers the baseline sits above 3x; the tolerance
    # puts the floor above the ~2.3x the kernel reached when it reduced
    # every product, so reverting the lazy kernel fails the gate.
    # On hosts without AVX2 the suite emits a waiver instead of the
    # metric (a scalar/scalar ratio of ~1.0 would be meaningless).
    "poseidon.batch_over_scalar": ("higher", 0.20),
    # The NTT engine at the dispatched SIMD level vs the same engine
    # forced to the scalar level (bench_ntt's lanes rows, 2^14 NTT^NR,
    # one thread). The floor stays well above 1.0, so routing the
    # butterflies back to the scalar core fails it. Waived, like the
    # Poseidon ratio, where the dispatched level is not avx2.
    "ntt.lanes_over_scalar": ("higher", 0.30),
    # The Plonk quotient's constraint kernel at the dispatched SIMD level
    # vs the scalar lanes (bench_poly, 2^15 points x 16 repetitions, one
    # thread). The floor stays above 1.0, so running the kernel on the
    # scalar lanes fails it. Waived where the dispatched level is not
    # avx2, like ntt.lanes_over_scalar.
    "poly.quotient_lanes_over_scalar": ("higher", 0.30),
}


def run(cmd, **kwargs):
    proc = subprocess.run(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, **kwargs
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr.decode(errors="replace"))
        raise RuntimeError(f"command failed: {' '.join(cmd)}")
    return proc.stdout.decode(errors="replace")


def git_revision():
    try:
        return run(["git", "rev-parse", "--short", "HEAD"]).strip()
    except Exception:
        return "unknown"


def run_ntt_bench(build_dir, runs, tmp_dir):
    """Median metrics from `runs` executions of bench_ntt.

    Returns (metrics, waivers); the lanes-vs-scalar gate is waived
    unless the dispatched SIMD level is avx2 (see run_poseidon_bench).
    """
    exe = os.path.join(build_dir, "bench", "bench_ntt")
    samples = {}
    simd = None
    for i in range(runs):
        out = os.path.join(tmp_dir, f"ntt_{i}.json")
        run([exe, "--min-log", "12", "--max-log", "14", "--threads",
             "2", "--stats-json", out])
        with open(out) as f:
            doc = json.load(f)
        for row in doc["rows"]:
            key = f"{row['kernel']}.2pow{row['log_size']}"
            samples.setdefault(f"{key}.engine_1t_seconds", []).append(
                row["engine_1t_seconds"])
            samples.setdefault(f"{key}.seed_scalar_seconds", []).append(
                row["seed_scalar_seconds"])
            samples.setdefault(f"{key}.speedup_1t", []).append(
                row["speedup_1t"])
        simd = doc.get("simd")
        for row in doc.get("lanes", []):
            key = f"{row['kernel']}.2pow{row['log_size']}"
            samples.setdefault(f"{key}.scalar_level_seconds", []).append(
                row["scalar_level_seconds"])
            samples.setdefault(f"{key}.lanes_seconds", []).append(
                row["lanes_seconds"])
            samples.setdefault(f"{key}.lanes_over_scalar", []).append(
                row["lanes_over_scalar"])
    metrics = {}
    for name, values in samples.items():
        unit = "seconds" if name.endswith("seconds") else "ratio"
        metrics[name] = {"value": statistics.median(values),
                         "unit": unit}
    # Gated aliases for the 2^14 rows.
    for kernel in ("ntt-nr", "lde"):
        src = f"{kernel}.2pow14.speedup_1t"
        if src in metrics:
            alias = ("ntt" if kernel == "ntt-nr" else "lde")
            metrics[f"{alias}.speedup_1t.2pow14"] = dict(metrics[src])
    waivers = {}
    src = "ntt-nr.2pow14.lanes_over_scalar"
    if simd == "avx2" and src in metrics:
        metrics["ntt.lanes_over_scalar"] = dict(metrics[src])
    else:
        waivers["ntt.lanes_over_scalar"] = (
            f"dispatched SIMD level is '{simd}', not avx2: "
            "lanes-vs-scalar gate only applies to AVX2 hosts")
    return metrics, waivers


def run_poseidon_bench(build_dir, runs, tmp_dir):
    """Median metrics from `runs` executions of bench_poseidon.

    Returns (metrics, waivers): when the dispatched SIMD level is not
    avx2, the gated batch_over_scalar metric is omitted and a waiver
    explains why, so --compare on a non-AVX2 host reports the gate as
    waived instead of failing it.
    """
    exe = os.path.join(build_dir, "bench", "bench_poseidon")
    samples = {}
    simd = None
    for i in range(runs):
        out = os.path.join(tmp_dir, f"poseidon_{i}.json")
        run([exe, "--states", "2048", "--reps", "3",
             "--stats-json", out])
        with open(out) as f:
            doc = json.load(f)
        simd = doc["simd"]
        for row in doc["rows"]:
            key = f"poseidon.{row['kernel']}"
            samples.setdefault(f"{key}.scalar_seconds", []).append(
                row["scalar_seconds"])
            samples.setdefault(f"{key}.batch_seconds", []).append(
                row["batch_seconds"])
            samples.setdefault(f"{key}.speedup", []).append(
                row["speedup"])
    metrics = {}
    for name, values in samples.items():
        unit = "seconds" if name.endswith("seconds") else "ratio"
        metrics[name] = {"value": statistics.median(values),
                         "unit": unit}
    waivers = {}
    src = "poseidon.permute.speedup"
    if simd == "avx2" and src in metrics:
        metrics["poseidon.batch_over_scalar"] = dict(metrics[src])
    else:
        waivers["poseidon.batch_over_scalar"] = (
            f"dispatched SIMD level is '{simd}', not avx2: "
            "batch-vs-scalar gate only applies to AVX2 hosts")
    return metrics, waivers


def run_poly_bench(build_dir, runs, tmp_dir):
    """Median metrics from `runs` executions of bench_poly.

    Returns (metrics, waivers); the lanes-vs-scalar gate is waived
    unless the dispatched SIMD level is avx2 (see run_poseidon_bench).
    """
    exe = os.path.join(build_dir, "bench", "bench_poly")
    samples = {}
    simd = None
    for i in range(runs):
        out = os.path.join(tmp_dir, f"poly_{i}.json")
        run([exe, "--stats-json", out])
        with open(out) as f:
            doc = json.load(f)
        simd = doc["simd"]
        for row in doc["lanes"]:
            key = f"poly.{row['kernel']}.2pow{row['log_size']}"
            for field in ("scalar_level_seconds", "lanes_seconds",
                          "lanes_over_scalar"):
                samples.setdefault(f"{key}.{field}", []).append(row[field])
    metrics = {}
    for name, values in samples.items():
        unit = "seconds" if name.endswith("seconds") else "ratio"
        metrics[name] = {"value": statistics.median(values),
                         "unit": unit}
    waivers = {}
    src = "poly.plonk-quotient.2pow15.lanes_over_scalar"
    if simd == "avx2" and src in metrics:
        metrics["poly.quotient_lanes_over_scalar"] = dict(metrics[src])
    else:
        waivers["poly.quotient_lanes_over_scalar"] = (
            f"dispatched SIMD level is '{simd}', not avx2: "
            "lanes-vs-scalar gate only applies to AVX2 hosts")
    return metrics, waivers


def run_micro(build_dir, runs, tmp_dir):
    """Median real_time per pinned micro benchmark."""
    exe = os.path.join(build_dir, "bench", "micro_kernels")
    samples = {}
    for i in range(runs):
        out = os.path.join(tmp_dir, f"micro_{i}.json")
        run([exe, f"--benchmark_filter={MICRO_FILTER}",
             "--benchmark_format=json", f"--benchmark_out={out}",
             "--benchmark_out_format=json"])
        with open(out) as f:
            doc = json.load(f)
        for b in doc["benchmarks"]:
            if b.get("run_type", "iteration") != "iteration":
                continue
            samples.setdefault(b["name"], []).append(b["real_time"])
    metrics = {}
    for name, values in samples.items():
        metrics[f"micro.{name}.real_time_ns"] = {
            "value": statistics.median(values), "unit": "ns"}
    opt = metrics.get("micro.BM_PoseidonPermutation.real_time_ns")
    naive = metrics.get("micro.BM_PoseidonPermutationNaive.real_time_ns")
    if opt and naive and opt["value"] > 0:
        metrics["poseidon.naive_over_opt"] = {
            "value": naive["value"] / opt["value"], "unit": "ratio"}
    return metrics


def build_document(metrics, waivers=None):
    gates = {}
    for name, (direction, tolerance) in GATES.items():
        if name in metrics:
            gates[name] = {
                "value": metrics[name]["value"],
                "direction": direction,
                "tolerance": tolerance,
            }
    return {
        "schema": SCHEMA,
        "revision": git_revision(),
        "metrics": metrics,
        "gates": gates,
        "waived": dict(waivers or {}),
    }


def compare(current, baseline):
    """Return a list of human-readable regression messages (empty =
    pass). Every gate in the baseline must be present and within its
    tolerance in the current document, unless the current document
    carries an explicit waiver for it (e.g. a hardware-conditional gate
    like the AVX2 batch ratio on a host without AVX2) -- waivers are
    printed, never silently swallowed."""
    failures = []
    for name, gate in baseline.get("gates", {}).items():
        waiver = current.get("waived", {}).get(name)
        if waiver is not None:
            print(f"  waived {name}: {waiver}")
            continue
        cur = current.get("gates", {}).get(name)
        if cur is None:
            cur = current.get("metrics", {}).get(name)
        if cur is None:
            failures.append(f"{name}: missing from current run")
            continue
        base_value = gate["value"]
        cur_value = cur["value"]
        tol = gate.get("tolerance", 0.25)
        if gate.get("direction", "higher") == "higher":
            floor = base_value * (1.0 - tol)
            if cur_value < floor:
                failures.append(
                    f"{name}: {cur_value:.4g} below floor {floor:.4g} "
                    f"(baseline {base_value:.4g}, tolerance {tol:.0%})")
        else:
            ceiling = base_value * (1.0 + tol)
            if cur_value > ceiling:
                failures.append(
                    f"{name}: {cur_value:.4g} above ceiling "
                    f"{ceiling:.4g} (baseline {base_value:.4g}, "
                    f"tolerance {tol:.0%})")
    return failures


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--build-dir", default="build")
    ap.add_argument("--runs", type=int, default=3,
                    help="repeat each suite N times; medians are kept")
    ap.add_argument("--output", default=None,
                    help="result path (default BENCH_<rev>.json)")
    ap.add_argument("--compare", default=None, metavar="BASELINE",
                    help="fail (exit 1) on regression vs this baseline")
    ap.add_argument("--skip-micro", action="store_true",
                    help="skip the google-benchmark subset")
    args = ap.parse_args(argv)

    tmp_dir = os.path.join(args.build_dir, "bench-harness")
    os.makedirs(tmp_dir, exist_ok=True)

    metrics, waivers = run_ntt_bench(args.build_dir, args.runs, tmp_dir)
    poseidon_metrics, poseidon_waivers = run_poseidon_bench(
        args.build_dir, args.runs, tmp_dir)
    metrics.update(poseidon_metrics)
    waivers.update(poseidon_waivers)
    poly_metrics, poly_waivers = run_poly_bench(
        args.build_dir, args.runs, tmp_dir)
    metrics.update(poly_metrics)
    waivers.update(poly_waivers)
    if not args.skip_micro:
        metrics.update(run_micro(args.build_dir, args.runs, tmp_dir))
    doc = build_document(metrics, waivers)

    output = args.output or f"BENCH_{doc['revision']}.json"
    with open(output, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"wrote {output} ({len(metrics)} metrics, "
          f"{len(doc['gates'])} gated)")

    if args.compare:
        with open(args.compare) as f:
            baseline = json.load(f)
        failures = compare(doc, baseline)
        if failures:
            print("PERF REGRESSION:")
            for msg in failures:
                print(f"  {msg}")
            return 1
        print(f"perf gates OK vs {args.compare} "
              f"(baseline rev {baseline.get('revision', '?')})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
