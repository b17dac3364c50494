"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload moment-grid --seed 1 --seconds 5 --trace 0

Run from the root of a checkout; the package is imported from its src/.
The workload runs in a fresh worker process so the package's in-process
caches start cold and peak_rss_mb is that workload's own.  With --trace 0
the last line carries the end-to-end metrics, with --trace 1 the per-layer
metrics named in BENCHMARK.json; the traced run also writes its spans and
every layer figure under perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKER_TIMEOUT_S = 170.0
IMPORT_SPAWNS = 5


def fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def worker_cmd(args, work: str, *extra: str) -> list[str]:
    return [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--work", work, *extra]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        return fail(f"unknown workload {args.workload}")
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "lfmoments", "__init__.py")):
        return fail(f"no package source under {src}")
    env = dict(os.environ, PYTHONPATH=src)
    work = os.path.join(OUT, f"work-{args.workload}-{os.getpid()}")
    deadline = time.monotonic() + WORKER_TIMEOUT_S

    try:
        import_s = []
        if args.workload == "sweep-cold":
            for _ in range(IMPORT_SPAWNS):
                t0 = time.perf_counter()
                subprocess.run(worker_cmd(args, work, "--import-only"), env=env, cwd=ROOT,
                               check=True, timeout=30)
                import_s.append(time.perf_counter() - t0)
        stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}")
        proc = subprocess.run(worker_cmd(args, work, "--spans", stem + "-spans.jsonl"),
                              env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        return fail(f"worker did not finish: {exc}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return fail(f"worker exited {proc.returncode}")
    raw = json.loads(proc.stdout.strip().splitlines()[-1])
    for line in raw["errors"] + raw["problems"]:
        print(f"perfbench: {line}", file=sys.stderr)

    if args.trace:
        layers = raw["layers"]
        with open(stem + "-layers.json", "w", encoding="utf-8") as fh:
            json.dump({"layers": layers, "absent": raw["absent"]}, fh, indent=1, sort_keys=True)
        for name in raw["absent"]:
            print(f"perfbench: absent, reported as 0: {name}", file=sys.stderr)
        metrics = {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]} for m in spec["per_layer"]}
        for name in sorted(set(layers) - set(metrics)):
            print(f"perfbench: {name} = {layers[name]:.6g}", file=sys.stderr)
    else:
        lat_ms = [1000.0 * s for s in raw["latencies_s"]]
        values = {
            "setup_s": statistics.median(import_s or raw["setup_s"]),
            "ops_per_s": raw["attempted"] / raw["measured_s"],
            "op_p50_ms": statistics.median(lat_ms),
            "op_p90_ms": statistics.quantiles(lat_ms, n=10)[8],
            "peak_rss_mb": raw["peak_rss_mb"],
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}
    print(json.dumps({
        "correct": not raw["problems"],
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
