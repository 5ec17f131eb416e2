"""Sweep benchmark: time whole pdsemcom sweeps and check what they produce.

    python3 sweepbench/run.py --workload NAME --seed N --seconds S --trace 0|1
        [--record]

Run from the root of a source checkout; pdsemcom is imported from its src/.
Every sweep and every set-up runs in a fresh interpreter (worker.py), one at
a time. A run repeats a fresh sweep followed by a resume of the finished
file for as long as the next pair still fits in --seconds (at least once).
Times are in reference seconds: wall time corrected for the machine's speed
at the moment, measured by a probe that runs alongside (refclock.py).

--trace 0 prints the end-to-end metrics; --trace 1 wraps the pdsemcom call
sites (spans.py), prints the per-layer metrics, and writes the spans to
.sweepbench_out/. --record stores the traced run's file digests and exact
counters in expected.json for that workload and seed; later runs of that
seed must reproduce them. The last line of stdout is one JSON object; a
human summary goes to stderr.
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

import workloads
from refclock import ReferenceClock

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".sweepbench_out")
EXPECTED = os.path.join(HERE, "expected.json")
SETUP_REPS = 7
CHILD_TIMEOUT_S = 150

END_TO_END_UNITS = {
    "setup_s": "s", "sweep_s": "s", "first_row_s": "s", "cell_s_p50": "s",
    "cell_s_tail": "s", "resume_s": "s", "peak_rss_mb": "MB",
    "ok_cell_share": "ratio",
}
RATIO_METRICS = ("homology.h1_yield", "codec.bch_failure_share",
                 "codec.huffman_decode_yield")
BIT_METRICS = ("codec.huffman_bits", "channel.bits", "channel.flips")


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name in RATIO_METRICS:
        return "ratio"
    if name in BIT_METRICS:
        return "bits"
    return "count"


def _child_env():
    env = dict(os.environ)
    # one worker, seeds from the workload: the documented overrides must not
    # leak in from the caller's environment
    env.pop("PDSEMCOM_SEED", None)
    env.pop("PDSEMCOM_WORKERS", None)
    # one thread: the speed probe sees the CPU the whole sweep runs on
    env["OPENBLAS_NUM_THREADS"] = "1"
    return env


def run_worker(mode, workload, seed, out, trace_file=None):
    """-> (parsed JSON line, wall seconds of the whole process).

    For `setup` the JSON holds "setup_s", the whole process's time in
    reference seconds, converted with the probes the worker recorded.
    """
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), mode,
           "--workload", workload, "--seed", str(seed), "--out", out]
    if trace_file:
        cmd += ["--trace-file", trace_file]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          env=_child_env(), timeout=CHILD_TIMEOUT_S)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"worker {mode} exited with {proc.returncode}:\n"
                           f"{proc.stderr.strip()}")
    result = json.loads(proc.stdout.splitlines()[-1])
    if mode == "setup":
        ref = ReferenceClock(result["probes"])
        result = {"setup_s": ref(t0 + wall) - ref(t0)}
    return result, wall


def digests(out):
    folds = os.path.splitext(out)[0] + "_folds.csv"
    result = {}
    for key, path in (("results", out), ("folds", folds)):
        with open(path, "rb") as f:
            result[key] = hashlib.sha256(f.read()).hexdigest()
    return result


def _as_written(records):
    """Records as the results file holds them (floats to 10 digits)."""
    return [dict(r, alpha="%.10g" % r["alpha"],
                 acc_mean="%.10g" % r["acc_mean"]) for r in records]


def exact_counters(layers: dict) -> dict:
    return {k: v for k, v in layers.items() if not k.endswith("_s")}


class Run:
    def __init__(self, workload, seed, workdir, traced, expected):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.traced = traced
        self.expected = expected
        self.problems = []
        self.fresh = []
        self.resumes = []
        self.files = []

    def _out(self, tag):
        path = os.path.join(self.workdir, tag, "results.csv")
        os.makedirs(os.path.dirname(path))
        return path

    def _trace_file(self, tag):
        if not self.traced:
            return None
        return os.path.join(
            OUT_DIR, f"trace-{self.workload}-s{self.seed}-{tag}.jsonl")

    def _check_fresh(self, fresh, files):
        n_cells = len(fresh["records"])
        self.problems += workloads.gate_failures(self.workload,
                                                 fresh["records"])
        if fresh["skipped"] or len(fresh["rows"]) != n_cells:
            self.problems.append(
                f"fresh sweep wrote {len(fresh['rows'])} rows for {n_cells} "
                f"cells and skipped {fresh['skipped']}")
        want = self.expected.get(self.workload, {}).get(str(self.seed))
        if want:
            for key in ("results", "folds"):
                if files[key] != want[key]:
                    self.problems.append(
                        f"{key} file digest {files[key][:16]} differs from "
                        f"the recorded {want[key][:16]} for seed {self.seed}")
            if self.traced:
                got = exact_counters(fresh["layers"])
                for key, value in want["counters"].items():
                    if got.get(key) != value:
                        self.problems.append(
                            f"counter {key} = {got.get(key)}, recorded "
                            f"{value} for seed {self.seed}")
        if self.traced:
            for base in workloads.COVERED[self.workload]:
                if fresh["layers"][base + "_calls"] == 0:
                    self.problems.append(
                        f"coverage: layer {base} recorded no calls")

    def _check_resume(self, fresh, resume, files, out):
        if resume["rows"] or resume["skipped"] != len(fresh["records"]):
            self.problems.append(
                f"resume recomputed {len(resume['rows'])} cells and skipped "
                f"{resume['skipped']} of {len(fresh['records'])}")
        if _as_written(resume["records"]) != _as_written(fresh["records"]):
            self.problems.append("resume returned different records")
        if digests(out) != files:
            self.problems.append("resume changed the results or folds file")
        if self.traced and resume["layers"]["harness.read_results_calls"] == 0:
            self.problems.append("coverage: resume never read the results")

    def pair(self):
        """One fresh sweep, then a resume of the finished file."""
        idx = len(self.fresh)
        out = self._out(f"pair{idx}")
        fresh, _ = run_worker("sweep", self.workload, self.seed, out,
                              self._trace_file(f"fresh{idx}"))
        files = digests(out)
        self._check_fresh(fresh, files)
        resume, _ = run_worker("sweep", self.workload, self.seed, out,
                               self._trace_file(f"resume{idx}"))
        self._check_resume(fresh, resume, files, out)
        if self.fresh and self.traced:
            if (exact_counters(fresh["layers"])
                    != exact_counters(self.fresh[0]["layers"])):
                self.problems.append("exact counters differ between sweeps "
                                     "of the same seed")
        self.fresh.append(fresh)
        self.resumes.append(resume)
        self.files.append(files)


def _tail(gaps):
    """Value with 10 gaps above it (the highest percentile with at least ten
    samples beyond it) when there are 20 or more gaps, else the largest."""
    g = sorted(gaps)
    return g[len(g) - 11] if len(g) >= 20 else g[-1]


def end_to_end(run: Run, setups) -> dict:
    median = statistics.median
    gaps_per_sweep = [[b - a for a, b in zip(f["rows"], f["rows"][1:])]
                      for f in run.fresh]
    cells = sum(len(f["records"]) for f in run.fresh)
    ok = sum(r["status"] == "ok" for f in run.fresh for r in f["records"])
    return {
        "setup_s": median(setups),
        "sweep_s": median(f["sweep_s"] for f in run.fresh),
        "first_row_s": median(f["rows"][0] for f in run.fresh),
        "cell_s_p50": median(g for gaps in gaps_per_sweep for g in gaps),
        "cell_s_tail": median(_tail(gaps) for gaps in gaps_per_sweep),
        "resume_s": median(r["sweep_s"] for r in run.resumes),
        "peak_rss_mb": max(x["maxrss_mb"] for x in run.fresh + run.resumes),
        "ok_cell_share": ok / cells,
    }


def per_layer(run: Run) -> dict:
    median = statistics.median
    out = {}
    for name, value in run.fresh[0]["layers"].items():
        if name.endswith("_s"):
            value = median(f["layers"][name] for f in run.fresh)
        out[name] = value
    out["harness.read_results_s"] = median(
        r["layers"]["harness.read_results_s"] for r in run.resumes)
    out["harness.read_results_calls"] = \
        run.resumes[0]["layers"]["harness.read_results_calls"]
    out["harness.resume_self_s"] = median(
        r["layers"]["harness.self_s"] for r in run.resumes)
    # the tracing overhead is this minus sweep_s of an untraced run
    out["trace.sweep_s"] = median(f["sweep_s"] for f in run.fresh)
    return out


def machine_context() -> str:
    import platform

    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return (f"nproc={os.cpu_count()} python={platform.python_version()} "
            f"numpy={numpy.__version__} blas={blas}")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="store digests and counters for this seed")
    args = parser.parse_args()
    if args.record and not args.trace:
        parser.error("--record needs --trace 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "pdsemcom",
                                       "__init__.py")):
        print(f"error: no pdsemcom sources under {ROOT}/src",
              file=sys.stderr)
        return 2
    with open(EXPECTED) as f:
        expected = json.load(f)
    # turn SIGTERM into an exception so subprocess.run kills its worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))

    workdir = os.path.join(OUT_DIR, f"{args.workload}-s{args.seed}-"
                                    f"{os.getpid()}")
    os.makedirs(workdir)
    start = time.perf_counter()
    try:
        run = Run(args.workload, args.seed, workdir, bool(args.trace),
                  expected)
        setups, setup_walls = [], []
        if not args.trace:
            for _ in range(SETUP_REPS):
                setup, wall = run_worker("setup", args.workload, args.seed,
                                         os.path.join(workdir, "setup.csv"))
                setups.append(setup["setup_s"])
                setup_walls.append(wall)
        while True:
            t0 = time.perf_counter()
            run.pair()
            last = time.perf_counter() - t0
            if time.perf_counter() - start + last > args.seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = per_layer(run) if args.trace else end_to_end(run, setups)
    units = END_TO_END_UNITS if not args.trace else {
        k: layer_unit(k) for k in metrics}
    for problem in run.problems:
        print("check failed:", problem, file=sys.stderr)
    n_gaps = len(run.fresh[0]["rows"]) - 1
    print(f"{args.workload} seed {args.seed}: {len(run.fresh)} sweep pair(s) "
          f"in {time.perf_counter() - start:.1f} s, {n_gaps} cell gaps per "
          f"sweep ({'tail = 10 gaps above' if n_gaps >= 20 else 'tail = max'}"
          f"); {machine_context()}", file=sys.stderr)
    median = statistics.median
    print(f"wall seconds (median): sweep "
          f"{median(f['wall_sweep_s'] for f in run.fresh):.3f}, resume "
          f"{median(r['wall_sweep_s'] for r in run.resumes):.3f}"
          + (f", setup {median(setup_walls):.3f}" if setup_walls else ""),
          file=sys.stderr)
    if args.record and run.problems:
        print("not recorded: the checks failed", file=sys.stderr)
    elif args.record:
        expected.setdefault(args.workload, {})[str(args.seed)] = dict(
            run.files[0], counters=exact_counters(run.fresh[0]["layers"]))
        with open(EXPECTED, "w") as f:
            json.dump(expected, f, indent=1, sort_keys=True)
            f.write("\n")
    attempted = sum(len(f["records"]) for f in run.fresh)
    failed = sum(r["status"] != "ok" for f in run.fresh for r in f["records"])
    print(json.dumps({
        "correct": not run.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
