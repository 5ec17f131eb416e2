"""Run one step of a benchmark workload in a fresh interpreter.

    python3 sweepbench/worker.py setup --workload NAME --seed N --out PATH
    python3 sweepbench/worker.py sweep --workload NAME --seed N --out PATH
        [--trace-file PATH]

Both modes run the speed probe of refclock.py from the first lines on.
`setup` imports pdsemcom and builds the workload's config, then prints its
probes; the caller times the whole process and converts that time to
reference seconds with them. `sweep` calls run_sweep once (a resume when
PATH already holds results) and prints one JSON line with its time and the
time of each results row in reference seconds, its wall time, the records,
peak memory and, with --trace-file, the per-layer metrics; the spans go to
the trace file.
"""

import sys
import time

from refclock import ProbeSampler, ReferenceClock  # this script's directory

SAMPLER = ProbeSampler(0.02)
SAMPLER.start()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402


class RowClock:
    """Stand-in for stdout that stamps the perf_counter time of each
    progress line.

    run_sweep(progress=True) prints one line per cell after its results row
    is written; lines for cells found in the results file say so.
    """

    def __init__(self):
        self.rows = []
        self.skipped = 0
        self._partial = ""

    def write(self, text):
        now = time.perf_counter()
        self._partial += text
        *lines, self._partial = self._partial.split("\n")
        for line in lines:
            if not line.startswith("["):
                continue
            if line.endswith("already done"):
                self.skipped += 1
            else:
                self.rows.append(now)
        return len(text)

    def flush(self):
        pass


def _sweep(config, trace_file):
    from pdsemcom import run_sweep
    tracer = None
    if trace_file:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    rows = RowClock()
    real_stdout, sys.stdout = sys.stdout, rows
    t0 = time.perf_counter()
    try:
        if tracer:
            records = tracer.run(run_sweep, config, True)
        else:
            records = run_sweep(config, progress=True)
    finally:
        t1 = time.perf_counter()
        sys.stdout = real_stdout
        if tracer:
            tracer.uninstall()
        SAMPLER.stop()
    ref = ReferenceClock(SAMPLER.probes)
    out = {
        "sweep_s": ref(t1) - ref(t0),
        "rows": [ref(t) - ref(t0) for t in rows.rows],
        "wall_sweep_s": t1 - t0,
        "skipped": rows.skipped,
        "records": [{"pipeline": r.pipeline, "m": r.m, "alpha": r.alpha,
                     "code": r.code, "status": r.status,
                     "acc_mean": r.acc_mean, "error": r.error}
                    for r in records],
        "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    if tracer:
        out["layers"] = tracer.layer_metrics(ref)
        tracer.write_jsonl(trace_file, ref)
    return out


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "sweep"))
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace-file")
    args = parser.parse_args()
    import pdsemcom
    src = os.path.join(ROOT, "src")
    if not os.path.abspath(pdsemcom.__file__).startswith(src + os.sep):
        sys.exit(f"error: pdsemcom imported from {pdsemcom.__file__}, "
                 f"not from {src}")
    config = workloads.config(args.workload, args.seed, args.out)
    if args.mode == "sweep":
        print(json.dumps(_sweep(config, args.trace_file)))
    else:
        SAMPLER.stop()
        print(json.dumps({"probes": SAMPLER.probes}))


if __name__ == "__main__":
    main()
