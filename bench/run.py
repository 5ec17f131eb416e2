"""Measure this checkout and write the next free BENCH_<n>.json at its root.

    python3 bench/run.py

Every step runs in a fresh interpreter, one at a time, with pdsemcom
imported from this checkout's src/ and OPENBLAS_NUM_THREADS=1 set for it:
the classifier's matrix products are small, so a second OpenBLAS thread
only spins (43.1 s of CPU against 26.3 s for one default sweep). The file
records the machine, the line count of each package module (the files that
`wc -l src/pdsemcom/*.py src/pdsemcom/*/*.py` counts) and their total, the
`tracemalloc` peak of one `vr_diagram` call on the 3969-point grid of
`tests/test_homology.py` (points 2 apart at cap 1, a complex of vertices
only, so the peak is one block of distance arithmetic, two float arrays of
8.4 MB, just ahead of the n x n position table, 16 MB), the median wall ms
per diagram of `build_vr_filtration` and of `compute_persistence` over the
default dataset's 600 clouds, in interleaved rounds, and the SHA-256 of
those diagrams (so two files show whether the diagrams are identical), the
median wall ms of one `train_classifier` fit on the default dataset's pd
and raw features at the benchmark workloads' fold size (18 rows, 100
epochs) and at full size (300 rows, 300 epochs), the tier-1 suite's wall
time with its ten slowest entries, the default sweep's wall time, its time to the first
results row (the first progress line), the wall time of `run_sweep` on its
finished files (a resume, timed inside a fresh interpreter, so start-up
and imports are left out) and the SHA-256 of its results and folds files
after the resume, the criterion-11 coded sweep's wall time, and the
per-layer medians of `sweepbench/run.py --trace 1 --seed 1` on both
benchmark workloads. Wall times are plain wall seconds, not the sweep benchmark's
reference seconds, so compare only files measured on the same machine.
Nothing is written if a sweep fails; a failing tier-1 run is recorded with
its counts. It takes about five minutes on a 2-core machine.
"""

import hashlib
import json
import os
import platform
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parent.parent
# the tier-1 command of ROADMAP.md, plus the slowest entries
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors",
         "--durations=10"]
# the criterion-11 config of tests/test_acceptance.py
CRITERION_11 = ("pipelines = pd\nm_values = 10\nalphas = 0, 0.12\n"
                "codes = 1023:123:170\n")
# prints the tracemalloc peak, in MB, of one vr_diagram call on a
# 63 x 63 grid of points 2 apart at cap 1: a complex of vertices only, so
# the peak is one distance block of the filtration (two float arrays of
# 8.4 MB) or its n x n position table (uint8, 16 MB), not the complex
HOMOLOGY_PEAK = (
    "import tracemalloc\n"
    "import numpy as np\n"
    "from pdsemcom.homology import vr_diagram\n"
    "grid = np.arange(63) * 2.0\n"
    "pts = np.array([(x, y) for x in grid for y in grid])\n"
    "tracemalloc.start()\n"
    "vr_diagram(pts, gamma_max=1.0)\n"
    "print(tracemalloc.get_traced_memory()[1] / 1e6)\n")
# prints, as JSON, the median wall ms per diagram of build_vr_filtration
# and of compute_persistence over the default dataset's clouds, as the sweep
# calls them: one warm-up round, then 5 rounds, each one pass of every
# cloud through the filtration followed by one pass through the reduction;
# and the SHA-256 of the diagrams, hashed as tests/test_homology.py does
DIAGRAM_MS = """
import hashlib, json, statistics, time
import numpy as np
from pdsemcom import ExperimentConfig, synth_dataset
from pdsemcom.homology import build_vr_filtration, compute_persistence
cfg = ExperimentConfig()
clouds = [o.points for o in synth_dataset(
    per_class=cfg.per_class, n_points=cfg.n_points, noise=cfg.noise,
    seed=cfg.dataset_seed)]
times = {"filtration": [], "reduction": []}
for _ in range(6):
    t0 = time.perf_counter()
    filtrations = [build_vr_filtration(p, gamma_max=cfg.gamma_max)
                   for p in clouds]
    t1 = time.perf_counter()
    diagrams = [compute_persistence(f) for f in filtrations]
    t2 = time.perf_counter()
    times["filtration"].append(t1 - t0)
    times["reduction"].append(t2 - t1)
h = hashlib.sha256()
for pd in diagrams:
    for arr, dtype in ((pd.births, "<f8"), (pd.deaths, "<f8"),
                       (pd.dims, "<i8"), (pd.essential, "?")):
        h.update(np.ascontiguousarray(arr, dtype=dtype).tobytes())
out = {f"{layer}_ms": round(1e3 * statistics.median(t[1:]) / len(clouds), 3)
       for layer, t in times.items()}
print(json.dumps({**out, "clouds": len(clouds),
                  "diagrams_sha256": h.hexdigest()}))
"""
# prints the wall seconds of one run_sweep call on the config file argv[1]
RESUME_S = (
    "import sys, time\n"
    "from pdsemcom import load_config, run_sweep\n"
    "config = load_config(sys.argv[1])\n"
    "t0 = time.perf_counter()\n"
    "run_sweep(config)\n"
    "print(time.perf_counter() - t0)\n")
# prints, as JSON, the median wall ms of one train_classifier call on the
# default dataset's pd and raw features: on 6 training rows of each class
# for 100 epochs (the benchmark workloads' fold size and epochs) and on the
# whole first training fold (300 rows) for 300 epochs (the default sweep's)
FIT_MS = """
import json, statistics, time
import numpy as np
from pdsemcom import (CvSchedule, ExperimentConfig, perslay_vectorize,
                      rasterize_raw, synth_dataset, train_classifier,
                      vr_diagram)
cfg = ExperimentConfig()
objects = synth_dataset(per_class=cfg.per_class, n_points=cfg.n_points,
                        noise=cfg.noise, seed=cfg.dataset_seed)
labels = np.array([o.label for o in objects])
train = CvSchedule(n_objects=len(objects), T=1, seed=cfg.cv_seed).folds[0][0]
fold = np.concatenate([np.flatnonzero(labels[train] == c)[:6]
                       for c in (1, 2, 3)])
features = {
    "pd": np.array([perslay_vectorize(vr_diagram(
        objects[i].points, gamma_max=cfg.gamma_max), cfg.box_pd)
        for i in train]),
    "raw": np.array([rasterize_raw(objects[i].points, box_side=cfg.box_raw)
                     for i in train]),
}
out = {}
for kind, X in features.items():
    for rows, epochs, repeats in ((fold, 100, 9), (np.arange(len(train)),
                                                   cfg.epochs, 5)):
        args = (X[rows], labels[train][rows])
        train_classifier(*args, hidden_sizes=cfg.hidden, epochs=epochs,
                         seed=cfg.train_seed)
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            train_classifier(*args, hidden_sizes=cfg.hidden, epochs=epochs,
                             seed=cfg.train_seed)
            times.append(time.perf_counter() - t0)
        out[f"{kind}_{len(rows)}_rows_{epochs}_epochs"] = round(
            1e3 * statistics.median(times), 1)
print(json.dumps(out))
"""
TRACE_SECONDS = 50
BLAS_THREADS = "1"
DURATION = re.compile(r"^([\d.]+)s (setup|call|teardown) +(\S+)$", re.M)
OUTCOME = re.compile(r"(\d+) (passed|failed|errors?|skipped|deselected|"
                     r"xfailed|xpassed)")


def _env():
    env = dict(os.environ, OPENBLAS_NUM_THREADS=BLAS_THREADS)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


def _run(args, check=True):
    """-> (completed process, wall seconds, wall seconds to its first stdout
    line that starts with "[", or None) of one child interpreter."""
    t0 = time.perf_counter()
    first, out = None, []
    with tempfile.TemporaryFile("w+") as err:
        with subprocess.Popen([sys.executable, *args], cwd=ROOT, env=_env(),
                              stdout=subprocess.PIPE, stderr=err,
                              text=True) as child:
            for line in child.stdout:
                if first is None and line.startswith("["):
                    first = time.perf_counter() - t0
                out.append(line)
        wall = time.perf_counter() - t0
        err.seek(0)
        proc = subprocess.CompletedProcess(child.args, child.returncode,
                                           "".join(out), err.read())
    if check and proc.returncode != 0:
        raise RuntimeError(f"{' '.join(args)} exited with {proc.returncode}:"
                           f"\n{proc.stderr.strip()}")
    return proc, wall, first


def machine() -> dict:
    cpu = None
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "blas": blas,
            "OPENBLAS_NUM_THREADS": BLAS_THREADS}


def src_sha256() -> str:
    """One digest over the package sources, to tell which tree was measured."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "pdsemcom").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(ROOT)).encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def src_lines() -> dict:
    """Newline count of each module, as `wc -l` reports it, and the total."""
    pkg = ROOT / "src" / "pdsemcom"
    modules = {str(path.relative_to(pkg)): path.read_bytes().count(b"\n")
               for path in sorted([*pkg.glob("*.py"), *pkg.glob("*/*.py")])}
    return {"total": sum(modules.values()), "modules": modules}


def homology_peak_mb() -> float:
    proc, _, _ = _run(["-c", HOMOLOGY_PEAK])
    return round(float(proc.stdout), 1)


def diagram_ms() -> dict:
    proc, _, _ = _run(["-c", DIAGRAM_MS])
    return json.loads(proc.stdout)


def fit_ms() -> dict:
    proc, _, _ = _run(["-c", FIT_MS])
    return json.loads(proc.stdout)


def tier1() -> dict:
    proc, wall, _ = _run(TIER1, check=False)
    summary = proc.stdout.strip().splitlines()[-1] if proc.stdout else ""
    return {
        "wall_s": round(wall, 2),
        "exit_code": proc.returncode,
        "outcomes": {kind: int(n) for n, kind in OUTCOME.findall(summary)},
        "durations": [{"s": float(s), "phase": phase, "test": test}
                      for s, phase, test in DURATION.findall(proc.stdout)],
    }


def sweep(workdir: Path, name: str, config_text: str) -> dict:
    """Run one sweep through the CLI, then resume it; -> wall seconds, wall
    seconds to its first results row, the resume's seconds and file digests.

    The child runs unbuffered (-u), so each progress line, printed after
    its cell's results row is written, reaches the pipe when printed."""
    out = workdir / name / "results.csv"
    out.parent.mkdir()
    config = out.with_suffix(".cfg")
    config.write_text(config_text + f"out = {out}\n")
    _, wall, first = _run(["-u", "-m", "pdsemcom.cli", "sweep", "run",
                           "--config", str(config)])
    resume, _, _ = _run(["-c", RESUME_S, str(config)])
    folds = out.with_name(out.stem + "_folds.csv")
    return {"wall_s": round(wall, 2), "first_row_s": round(first, 2),
            "resume_s": round(float(resume.stdout), 4),
            "results_sha256": hashlib.sha256(out.read_bytes()).hexdigest(),
            "folds_sha256": hashlib.sha256(folds.read_bytes()).hexdigest()}


def traced(workload: str) -> dict:
    proc, wall, _ = _run(["sweepbench/run.py", "--workload", workload,
                       "--seed", "1", "--seconds", str(TRACE_SECONDS),
                       "--trace", "1"])
    result = json.loads(proc.stdout.splitlines()[-1])
    return {"wall_s": round(wall, 2), "correct": result["correct"],
            "layers": {k: v["value"] for k, v in result["metrics"].items()}}


def main() -> int:
    bench = {"date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
             "src_sha256": src_sha256(), "src_lines": src_lines(),
             "machine": machine()}
    print("homology peak ...", file=sys.stderr)
    bench["homology_peak_mb"] = homology_peak_mb()
    print("diagrams ...", file=sys.stderr)
    bench["diagram_ms"] = diagram_ms()
    print("classifier fits ...", file=sys.stderr)
    bench["fit_ms"] = fit_ms()
    print("tier-1 ...", file=sys.stderr)
    bench["tier1"] = tier1()
    with tempfile.TemporaryDirectory() as tmp:
        print("default sweep ...", file=sys.stderr)
        bench["default_sweep"] = sweep(Path(tmp), "default", "")
        print("criterion-11 sweep ...", file=sys.stderr)
        crit11 = sweep(Path(tmp), "criterion_11", CRITERION_11)
        bench["criterion_11_sweep"] = {"wall_s": crit11["wall_s"]}
    bench["per_layer_seed_1"] = {}
    for workload in ("clean_sweep", "coded_raw"):
        print(f"sweepbench {workload} --trace 1 ...", file=sys.stderr)
        bench["per_layer_seed_1"][workload] = traced(workload)
    n = 1
    while (ROOT / f"BENCH_{n}.json").exists():
        n += 1
    path = ROOT / f"BENCH_{n}.json"
    path.write_text(json.dumps(bench, indent=1) + "\n")
    print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
