"""One workload in a fresh process: set-up, measured phase, checks.

Run by run.py with the package's src/ on PYTHONPATH.  The last line of
standard output is a JSON object with the raw figures; run.py turns them
into metrics.  With --import-only the process imports the package and
exits, which is what sweep-cold's set-up time measures.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--spans", help="where the traced run writes its spans")
    ap.add_argument("--import-only", action="store_true")
    args = ap.parse_args()

    import lfmoments
    import lfmoments.cli  # noqa: F401  (not imported by the package itself)
    if args.import_only:
        return 0

    import tracer as tr
    from workloads import WORKLOADS

    tracer = tr.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install(lfmoments)
    wl = WORKLOADS[args.workload](lfmoments, args.seed, args.work)

    def phase(name):
        if tracer is not None:
            tracer.phase = name

    setup_s = []
    for i in range(wl.setups):
        directory = os.path.join(args.work, f"setup{i}")
        phase("setup")
        t0 = time.perf_counter()
        wl.setup(directory)
        setup_s.append(time.perf_counter() - t0)
    phase(None)

    latencies, outputs, errors = [], [], []
    rounds = 0
    phase("measure")
    begin = time.perf_counter()
    while rounds == 0 or time.perf_counter() - begin < args.seconds:
        for label, op in wl.ops(rounds):
            t0 = time.perf_counter()
            try:
                out = op()
            except Exception:  # noqa: BLE001 - a failed operation is counted, not fatal
                errors.append(f"{label}: {traceback.format_exc(limit=2)}")
                out = None
            latencies.append(time.perf_counter() - t0)
            if out is not None:
                outputs.append(out)
        rounds += 1
    measured_s = time.perf_counter() - begin
    phase(None)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems = wl.check(outputs)
    result = {
        "setup_s": setup_s,
        "latencies_s": latencies,
        "measured_s": measured_s,
        "rounds": rounds,
        "attempted": len(latencies),
        "failed": len(errors),
        "errors": errors[:5],
        "problems": problems[:20],
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer is not None:
        layers = tr.layer_metrics(tracer, wl.setups, rounds, measured_s, tr.per_span_overhead())
        layers["lvalue.afe_err_over_tol"] = wl.health(outputs)
        result["layers"] = layers
        result["absent"] = tracer.absent
        tracer.write_spans(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
