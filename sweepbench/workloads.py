"""Benchmark workloads: one scaled-down sweep configuration per name.

Each workload is a closed loop with one client: the benchmark runs one
sweep at a time, with the default single worker. The seed sets the four
config seeds the way PDSEMCOM_SEED does (dataset s, cross-validation s+1,
training s+2, channel s+3).

Both workloads use T = 4 repetitions and 100 epochs instead of the
defaults of 10 and 300, and fewer objects. At full size one sweep takes
70-85 s on a 2-core machine, which does not fit the benchmark's run budget.
The scale keeps each workload's layer mix: homology is more than half of
clean_sweep, BCH decoding more than half of coded_raw.
"""

_SCALE = {"T": 4, "epochs": 100}

WORKLOADS = {
    # the default pd + raw sweep over m = 10..27, alpha 0, uncoded: the run
    # behind the dr/ad/ar curves; BCH never runs here
    "clean_sweep": dict(per_class=12, **_SCALE),
    # raw pipeline under two codes and a noisy channel; the t = 115 code
    # fails on many blocks at alpha 0.12, so the decoder's failure path runs;
    # homology never runs here
    "coded_raw": dict(pipelines=("raw",), m_values=(10, 18, 27),
                      alphas=(0.0, 0.12),
                      codes=((1023, 123, 170), (1023, 208, 115)),
                      per_class=10, **_SCALE),
}

_BASE_LAYERS = ("dataset.load", "inference.vectorize", "inference.train",
                "inference.classify", "quantizer.quantize",
                "infotheory.density", "infotheory.rate",
                "infotheory.distortion", "codec.huffman_build",
                "codec.huffman_encode", "codec.huffman_decode",
                "channel.transmit")
_HOMOLOGY = ("homology.filtration", "homology.reduction",
             "quantizer.dequantize")
_BCH = ("codec.bch_generator", "codec.bch_encode", "codec.bch_decode")

# layers a traced fresh sweep must call at least once (coverage guard)
COVERED = {
    "clean_sweep": _BASE_LAYERS + _HOMOLOGY,
    "coded_raw": _BASE_LAYERS + _BCH,
}

# (alpha, code) of the cell whose accuracy must match the clean cell's
CODED_GATE = (0.12, "1023:123:170")


def config(name: str, seed: int, out: str):
    """The workload's ExperimentConfig for one seed, writing to `out`."""
    from pdsemcom import ExperimentConfig
    return ExperimentConfig(out=out, dataset_seed=seed, cv_seed=seed + 1,
                            train_seed=seed + 2, channel_seed=seed + 3,
                            **WORKLOADS[name])


def gate_failures(name: str, records: list) -> list:
    """Criteria 10 and 11 on one sweep's records -> list of failed checks.

    `records` are dicts with pipeline, m, alpha, code, status, acc_mean and
    error.
    """
    problems = [f"cell {r['pipeline']} m={r['m']} alpha={r['alpha']} "
                f"code={r['code']}: {r['error']}"
                for r in records if r["status"] != "ok"]
    acc = {(r["pipeline"], r["m"], r["alpha"], r["code"]): r["acc_mean"]
           for r in records}
    if name == "clean_sweep":
        got = acc.get(("pd", 10, 0.0, "none"))
        if got is None or got < 0.80:
            problems.append(f"pd accuracy at m=10 is {got}, gate 0.80")
    else:
        alpha, code = CODED_GATE
        for (pipeline, m, a, c), clean in acc.items():
            if (a, c) != (0.0, "none"):
                continue
            coded = acc.get((pipeline, m, alpha, code))
            if coded is None or abs(coded - clean) > 0.02:
                problems.append(
                    f"{pipeline} m={m}: {code} at alpha={alpha} accuracy "
                    f"{coded} vs clean {clean}, gate 0.02")
    return problems
