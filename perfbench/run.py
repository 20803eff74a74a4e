"""Seeded benchmark of swhid: identify, verify, description realization, verified fetch.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package under test is the
checkout's src/. The last line of stdout is one JSON object with correct,
attempted, failed and metrics. --trace 0 reports the end-to-end metrics of
BENCHMARK.json, --trace 1 a separate traced run's per-layer metrics. The
lines before it name every metric of the workload with its unit, and the
run's machine, versions and seed. See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

from spans import Tracer, low, median, tail

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# The workload's own names for its end-to-end numbers, printed by name.
DETAIL_UNITS = {
    "identify_s": "s", "identify_jobs2_s": "s", "identify_rss_mib": "MiB",
    "identify_jobs2_rss_mib": "MiB", "export_s": "s", "verify_s": "s",
    "verify_rss_mib": "MiB", "realize_s": "s", "realize_rss_mib": "MiB",
    "slice_s": "s", "resolve_cli_s": "s", "resolve_cli_rss_mib": "MiB",
    "lookup_s": "s", "round_s": "s", "calib_s": "s",
}


# calibrate()'s 10th percentile on the 2-vCPU Xeon VM the benchmark was
# tuned on, at a quiet time. Gated times are given at that host speed.
REFERENCE_S = 0.015


def calibrate(run) -> None:
    """Time fixed pure-Python work outside swhid three times: the host's speed now.

    Other tenants' load slowed everything on the tuning VM by 1.3-1.7x for
    minutes at a time (no steal time showed: the CPU itself was slower).
    In one ten-run set on history, dividing the op times by this work's
    time in the same run cut their spread between runs from 13-18 % to
    4-7 %. It follows the CPU's speed, not the file system's.
    """
    # Without the cyclic collector, which would walk the run's whole heap
    # (200 000 corpus ids on history) at times of its own choosing.
    gc.disable()
    try:
        for _ in range(3):
            start = time.perf_counter()
            _ = {f"k{i}": hashlib.sha1(b"%d" % i).digest() for i in range(20_000)}
            run.samples["calib_s"].append(time.perf_counter() - start)
    finally:
        gc.enable()


def machine() -> dict:
    def first(path: str, key: str) -> str:
        try:
            with open(path) as fh:
                for line in fh:
                    if line.startswith(key):
                        return line.split(":", 1)[1].strip()
        except OSError:
            pass
        return "unknown"

    git = subprocess.run(["git", "--version"], capture_output=True, text=True).stdout.strip()
    return {
        "nproc": os.cpu_count(),
        "cpu": first("/proc/cpuinfo", "model name"),
        "ram": first("/proc/meminfo", "MemTotal"),
        "python": platform.python_version(),
        "git": git,
        "page_cache": "warm: inputs are read right after they are written;"
        " caches cannot be dropped without privileges, so cold reads are not measured",
    }




def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # SIGTERM unwinds like an error, so the finally below stops every child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    if not (ROOT / "src" / "swhid" / "__init__.py").is_file():
        print(f"perfbench: no swhid sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    # BENCHMARK.json names the metrics, their units and each workload's reason.
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e_units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    sys.path.insert(0, str(ROOT / "src"))
    import swhid
    import workloads

    if Path(swhid.__file__).resolve().parent != ROOT / "src" / "swhid":
        print(f"perfbench: imported swhid from {swhid.__file__}, not this checkout", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    work = ROOT / ".perfbench" / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    run = workloads.Run()
    tracer = Tracer()
    state = None
    try:
        setups = 1 if args.trace else workload.setups
        for n in range(setups):
            start = time.perf_counter()
            state = workload.setup(args.seed, work / f"setup-{n}", run)
            run.samples["setup_s"].append(time.perf_counter() - start)
            calibrate(run)
            if n < setups - 1:
                workload.teardown(state, run)
                shutil.rmtree(state.work)
                state = None
        deadline = time.perf_counter() + args.seconds
        while not run.samples["round_s"] or time.perf_counter() < deadline:
            start = time.perf_counter()
            if args.trace:
                workload.traced_round(state, run, tracer)
            else:
                workload.round(state, run)
            run.samples["round_s"].append(time.perf_counter() - start)
            calibrate(run)
        workload.once(state, run, tracer if args.trace else None)
        workload.teardown(state, run)
        counters = getattr(state, "counters", None)
        state = None
    finally:
        if state is not None:
            workload.teardown(state, run)
        run.launcher.close()
        shutil.rmtree(work, ignore_errors=True)

    samples, values = run.samples, run.values
    if args.trace:
        metrics = per_layer(run, tracer, counters, layer_units)
        tracer.dump(ROOT / ".perfbench" / "traces" / f"{args.workload}-seed{args.seed}.jsonl")
        units = layer_units
    else:
        # Times are given at the reference host speed: each is divided by the
        # same statistic of this run's calibration times, over REFERENCE_S.
        quiet = low(samples["calib_s"]) / REFERENCE_S
        typical = median(samples["calib_s"]) / REFERENCE_S
        values["host_slowdown"] = quiet
        raw = workload.e2e(run)
        metrics = {
            "setup_s": median(samples["setup_s"]) / typical,
            "main_s": raw["main_s"] / quiet,
            "second_s": raw["second_s"] / quiet,
            "peak_rss_mib": raw["peak_rss_mib"],
        }
        units = e2e_units
    values["failed_ops_ratio"] = run.failed / max(run.attempted, 1)

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "why": next(w["why"] for w in spec["workloads"] if w["name"] == args.workload),
        "trace": args.trace,
        "machine": machine(),
        "samples": {k: len(v) for k, v in sorted(samples.items())},
        "detail": {
            **{k: {"p10": low(v), "median": median(v), "tail": tail(v), "unit": DETAIL_UNITS[k], "n": len(v)} for k, v in sorted(samples.items()) if k in DETAIL_UNITS},
            **{k: v for k, v in sorted(values.items())},
        },
        "errors": run.errors,
    }
    print(json.dumps(report, indent=1))
    for name, value in metrics.items():
        print(f"{args.workload:16} {name:34} {value:14.6g} {units[name]}")
    print(f"{args.workload:16} attempted {run.attempted}, failed {run.failed}")
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


def per_layer(run, tracer, counters, names) -> dict:
    s = run.samples
    out = {name: (median(s[name]) if s.get(name) else 0.0) for name in names}
    ms = lambda name: median(tracer.durations(name)) * 1000 if tracer.durations(name) else 0.0  # noqa: E731
    out["resolve.metadata_ms"] = ms("resolve.metadata")
    out["resolve.fetch_ms"] = ms("resolve.fetch")
    out["resolve.fetch_bytes"] = run.counts["fetch_bytes"]
    out["resolve.ok"] = run.counts["ok"]
    out["resolve.not_found"] = run.counts["not_found"]
    out["resolve.integrity_rejected"] = run.counts["corrupted"]
    if counters:
        requests = sum(v for k, v in counters.items() if k != "connections")
        out["archive.connections_per_request"] = counters.get("connections", 0) / max(requests, 1)
    for name in ("floor.read_sha1_s", "floor.git_hash_object_s"):
        out[name] = run.values.get(name, 0.0)
    traced = s.get("traced_s") or s.get("ingest.ingest_path_s")
    if s.get("untraced_s") and traced:
        out["trace.overhead_pct"] = (median(traced) / median(s["untraced_s"]) - 1) * 100
    out["trace.spans"] = len(tracer.spans)
    return out


if __name__ == "__main__":
    sys.exit(main())
