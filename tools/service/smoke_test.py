#!/usr/bin/env python3
"""End-to-end smoke test for the unizkd proving service.

Two legs:

  1. Steady state: start unizkd, drive unizk_load through 12 requests
     of the mixed Plonky2/Starky uniform-closed scenario over 4
     concurrent connections with --check (every served proof
     byte-compared against the in-process proof of its circuit key),
     then SIGTERM the daemon and assert a graceful drain: exit code 0,
     socket file unlinked, and a valid unizk-stats-v2 document whose
     histograms carry one service.request_latency_ns sample per
     completed request. Both protocols must appear in the run itself
     (load report and daemon stats), not be assumed from the seed.
     Every request looks up its shape in the daemon's prepared-circuit
     cache once: hits + misses == 12, and 0 < misses <= the number of
     distinct shapes in the schedule (read back from --schedule-out).

  2. Overload: a second daemon with --queue-capacity 0 rejects every
     request with the typed queue-full error (unizk_load reports them
     as backpressure, not failures). unizk_client answers a ping,
     refuses an old load-injector command line (usage, exit 2), then
     shuts the daemon down cleanly via the protocol Shutdown frame.

Registered as the `service_smoke` ctest; also run by CI's
service-smoke job. Stdlib-only by design.

Usage:
    python3 tools/service/smoke_test.py /path/to/unizkd \\
        /path/to/unizk_load /path/to/unizk_client
"""

from __future__ import annotations

import json
import os
import re
import signal
import struct
import subprocess
import sys
import tempfile
import time

sys.path.insert(
    0,
    os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "obs"),
)

import validate_obs_json  # noqa: E402

SUMMARY_RE = re.compile(
    r"unizk_load: ok=(\d+) queue_full=(\d+) shutting_down=(\d+) "
    r"errors=(\d+)"
)


def wait_for_socket(path: str, daemon: subprocess.Popen) -> None:
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        if os.path.exists(path):
            return
        if daemon.poll() is not None:
            raise SystemExit(
                f"unizkd exited early with {daemon.returncode}")
        time.sleep(0.05)
    raise SystemExit(f"unizkd never created {path}")


def run(binary: str, args: list, expect_code: int = 0) -> str:
    proc = subprocess.run(
        [binary] + args,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        timeout=600,
    )
    print(proc.stdout, end="")
    if proc.returncode != expect_code:
        raise SystemExit(
            f"{os.path.basename(binary)} {' '.join(args)} exited with "
            f"{proc.returncode}, expected {expect_code}")
    return proc.stdout


def run_load(load: str, args: list) -> dict:
    match = SUMMARY_RE.search(run(load, args))
    if not match:
        raise SystemExit("unizk_load printed no summary line")
    keys = ("ok", "queue_full", "shutting_down", "errors")
    return dict(zip(keys, (int(g) for g in match.groups())))


def stop_daemon(daemon: subprocess.Popen, sock: str, how: str) -> None:
    try:
        out, _ = daemon.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        daemon.kill()
        raise SystemExit(f"unizkd did not drain after {how}")
    print(out, end="")
    if daemon.returncode != 0:
        raise SystemExit(
            f"unizkd exited with {daemon.returncode} after {how}")
    if os.path.exists(sock):
        raise SystemExit(f"unizkd leaked its socket file {sock}")


def schedule_shapes(path: str) -> set:
    """Distinct request shapes of a unizk_load --schedule-out file.

    The encoding is scheduleBytes (src/load/generator.cpp): a u64 count,
    then ten little-endian u64 per request: key, protocol, app, rows,
    reps, fast, verify, traceId, arrivalNs, connection. A shape is what
    the daemon's cache keys on; Starky (protocol 1) ignores reps.
    """
    with open(path, "rb") as f:
        blob = f.read()
    (count,) = struct.unpack_from("<Q", blob, 0)
    if len(blob) != 8 + count * 80:
        raise SystemExit(f"schedule file {path} has a bad length")
    shapes = set()
    for i in range(count):
        fields = struct.unpack_from("<10Q", blob, 8 + i * 80)
        _, protocol, app, rows, reps, fast = fields[:6]
        shapes.add((protocol, app, rows, reps if protocol == 0 else 0,
                    fast))
    return shapes


def steady_state_leg(unizkd: str, load: str, workdir: str) -> None:
    sock = os.path.join(workdir, "unizkd.sock")
    stats_path = os.path.join(workdir, "service-stats.json")
    report_path = os.path.join(workdir, "load-report.json")
    schedule_path = os.path.join(workdir, "schedule.bin")
    daemon = subprocess.Popen(
        [unizkd, "--socket", sock, "--queue-capacity", "8",
         "--lanes", "2", "--threads", "2", "--stats-json", stats_path],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    try:
        wait_for_socket(sock, daemon)
        tally = run_load(
            load,
            ["--socket", sock, "--scenario", "uniform-closed",
             "--seed", "1", "--requests", "12", "--connections", "4",
             "--check", "--threads", "2", "--report", report_path,
             "--schedule-out", schedule_path],
        )
        if tally["ok"] != 12 or tally["errors"]:
            raise SystemExit(f"steady state: bad tally {tally}")
        daemon.send_signal(signal.SIGTERM)
        stop_daemon(daemon, sock, "SIGTERM")
    finally:
        if daemon.poll() is None:
            daemon.kill()

    with open(report_path, "r", encoding="utf-8") as f:
        report = json.load(f)
    served = {p["protocol"] for p in report["results"]["perApp"]
              if p["count"] > 0}
    if served != {"plonky2", "starky"}:
        raise SystemExit(f"expected a mixed run, load report has {served}")

    errors = validate_obs_json.validate_file(stats_path, "stats")
    if errors:
        raise SystemExit("\n".join(errors))
    with open(stats_path, "r", encoding="utf-8") as f:
        stats = json.load(f)
    if stats["schema"] != "unizk-stats-v2":
        raise SystemExit(f"schema is {stats['schema']!r}, expected v2")
    if len(stats["runs"]) != 12:
        raise SystemExit(f"expected 12 runs, got {len(stats['runs'])}")
    protocols = {run["protocol"] for run in stats["runs"]}
    if protocols != {"plonky2", "starky"}:
        raise SystemExit(f"expected a mixed workload, got {protocols}")
    latency = stats["histograms"].get("service.request_latency_ns")
    if not latency or latency["count"] != 12:
        raise SystemExit(
            f"bad service.request_latency_ns histogram: {latency}")
    completed = stats["counters"].get("service.requests_completed")
    if completed != 12:
        raise SystemExit(
            f"service.requests_completed is {completed}, expected 12")
    hits = stats["counters"].get("service.key_cache_hits", 0)
    misses = stats["counters"].get("service.key_cache_misses", 0)
    if hits + misses != 12:
        raise SystemExit(
            f"key cache hits {hits} + misses {misses} != 12 requests")
    shapes = len(schedule_shapes(schedule_path))
    if not 0 < misses <= shapes:
        raise SystemExit(
            f"key cache misses {misses}, expected 1..{shapes} (the "
            "schedule's distinct shapes)")
    print(f"service_smoke: steady-state leg OK (key cache {hits} hits, "
          f"{misses} misses, {shapes} shapes)")


def overload_leg(unizkd: str, load: str, client: str,
                 workdir: str) -> None:
    sock = os.path.join(workdir, "unizkd-overload.sock")
    daemon = subprocess.Popen(
        [unizkd, "--socket", sock, "--queue-capacity", "0",
         "--lanes", "1", "--threads", "2"],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    try:
        wait_for_socket(sock, daemon)
        tally = run_load(
            load,
            ["--socket", sock, "--scenario", "uniform-closed",
             "--seed", "1", "--requests", "8", "--connections", "4",
             "--threads", "2"],
        )
        if tally["queue_full"] != 8 or tally["ok"] or tally["errors"]:
            raise SystemExit(f"overload: bad tally {tally}")
        if "pong" not in run(client, ["--socket", sock, "--ping"]):
            raise SystemExit("unizk_client --ping printed no pong")
        # The old load-injector command line must fail loudly, not
        # exit 0 without sending anything.
        out = run(client,
                  ["--socket", sock, "--connections", "4",
                   "--requests", "3", "--check"],
                  expect_code=2)
        if "usage" not in out:
            raise SystemExit("unizk_client without an action printed "
                             "no usage")
        # Shut down over the protocol instead of a signal this time.
        run(client, ["--socket", sock, "--shutdown", "--threads", "2"])
        stop_daemon(daemon, sock, "protocol shutdown")
    finally:
        if daemon.poll() is None:
            daemon.kill()
    print("service_smoke: overload leg OK")


def main(argv) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    unizkd, load, client = argv
    with tempfile.TemporaryDirectory() as workdir:
        steady_state_leg(unizkd, load, workdir)
        overload_leg(unizkd, load, client, workdir)
    print("service_smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
