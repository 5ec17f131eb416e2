"""Command line front end.

Subcommands mirror the pipeline stages: dataset generation, diagram
computation, source/channel coding, the binary symmetric channel, and the
sweep runner with its curve emitter. Bit files are ASCII '0'/'1' text;
ASCII whitespace is ignored and any other byte is an error.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from .channel import BscChannel, transmit_bits
from .codec import as_bits, build_huffman, load_code_table
from .config import ExperimentConfig, load_config
from .dataset import (load_grid_file, load_pointcloud_file, synth_dataset,
                      threshold_grid, write_pointcloud_file)
from .errors import write_file
from .harness import (CURVE_KINDS, build_bch, decode_payload, emit_curves,
                      encode_payload, read_results, run_sweep)
from .homology import (DEFAULT_GAMMA_MAX, DEFAULT_SIMPLEX_BUDGET, vr_diagram,
                       write_pd_file)
from .infotheory import quantizer_entropy


def _read_bits(path) -> np.ndarray:
    data = np.frombuffer(Path(path).read_bytes(), dtype=np.uint8)
    # any byte but ASCII whitespace, '0' and '1' wraps to a value above 1
    data = data[~np.isin(data, list(b" \t\n\r\v\f"))]
    return as_bits(data - ord("0"), "bit file")


def _write_bits(path, bits) -> None:
    write_file(path, (np.asarray(bits, dtype=np.uint8)
                      + ord("0")).tobytes() + b"\n")


def _cmd_dataset_synth(args) -> int:
    clouds = synth_dataset(per_class=args.per_class, n_points=args.n_points,
                           noise=args.noise, seed=args.seed)
    write_pointcloud_file(args.out, clouds)
    print(f"wrote {len(clouds)} objects to {args.out}")
    return 0


def _cmd_dataset_from_grid(args) -> int:
    grids, labels = load_grid_file(getattr(args, "in"))
    clouds = [threshold_grid(grid, args.threshold, label, object_id=i)
              for i, (grid, label) in enumerate(zip(grids, labels), start=1)]
    write_pointcloud_file(args.out, clouds)
    print(f"wrote {len(clouds)} objects to {args.out}")
    return 0


def _cmd_pd_compute(args) -> int:
    entries = {}
    for obj in load_pointcloud_file(getattr(args, "in")):
        d = vr_diagram(obj.points, gamma_max=args.gamma_max,
                       max_dim=args.max_dim, budget=args.budget)
        entries[obj.id] = d.drop_essential() if args.drop_essential else d
    write_pd_file(args.out, entries)
    total = sum(len(d) for d in entries.values())
    print(f"wrote {total} diagram points for {len(entries)} objects "
          f"to {args.out}")
    return 0


def _cmd_code_huffman(args) -> int:
    p = np.array([float(s) for s in args.probs.split(",")])
    code = build_huffman(p)
    for sym, bits in sorted(code.table().items()):
        print(f"{sym}\t{bits}")
    print(f"entropy   {quantizer_entropy(p):.6f} bits/symbol")
    print(f"avg length {code.expected_length(p):.6f}")
    return 0


def _lookup_t(n: int, k: int, t: int | None) -> int:
    if t is not None:
        return t
    for tn, tk, tt in load_code_table():
        if (tn, tk) == (n, k):
            return tt
    raise ValueError(f"({n}, {k}) is not in the packaged table; pass --t")


def _cmd_code_bch(args) -> int:
    code = build_bch((args.n, args.k, _lookup_t(args.n, args.k, args.t)))
    bits = _read_bits(getattr(args, "in"))
    if args.action == "encode":
        words = encode_payload(code, bits)
        blocks = len(words) // code.n
        if len(bits) % code.k:
            print(f"zero-padded message to {blocks * code.k} bits",
                  file=sys.stderr)
        _write_bits(args.out, words)
        print(f"encoded {blocks} block(s) to {args.out}")
    else:
        message, failures = decode_payload(code, bits)
        _write_bits(args.out, message)
        print(f"decoded {len(message) // code.k} block(s) to {args.out}; "
              f"{failures} failure(s)")
    return 0


def _cmd_channel_bsc(args) -> int:
    channel = BscChannel(alpha=args.alpha, seed=args.seed)
    bits = _read_bits(getattr(args, "in"))
    _write_bits(args.out, transmit_bits(channel, bits))
    print(f"passed {len(bits)} bits through alpha={args.alpha}")
    return 0


def _cmd_sweep_run(args) -> int:
    config = load_config(args.config)
    records = run_sweep(config, progress=not args.quiet)
    failures = sum(1 for r in records if r.status == "error")
    print(f"{len(records)} cells in {config.out} ({failures} failed)")
    return 0 if failures == 0 else 1


def _cmd_sweep_curves(args) -> int:
    _, records = read_results(getattr(args, "in"))
    csv_path, svg_path = emit_curves(records, args.kind, args.out_dir)
    print(f"wrote {csv_path} and {svg_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pdsemcom",
        description="goal-oriented semantic communication pipeline over "
                    "persistence diagrams")
    sub = parser.add_subparsers(dest="command", required=True)

    ds = sub.add_parser("dataset", help="generate or convert point clouds")
    ds_sub = ds.add_subparsers(dest="subcommand", required=True)
    synth = ds_sub.add_parser("synth", help="seeded 3-class loop generator")
    cfg = ExperimentConfig()  # the sweep's dataset settings
    synth.add_argument("--per-class", type=int, default=cfg.per_class)
    synth.add_argument("--n-points", type=int, default=cfg.n_points)
    synth.add_argument("--noise", type=float, default=cfg.noise)
    synth.add_argument("--seed", type=int, default=cfg.dataset_seed)
    synth.add_argument("--out", required=True)
    synth.set_defaults(func=_cmd_dataset_synth)
    fg = ds_sub.add_parser("from-grid",
                           help="threshold grayscale grids into clouds")
    fg.add_argument("--in", required=True)
    fg.add_argument("--threshold", type=float, default=0.70)
    fg.add_argument("--out", required=True)
    fg.set_defaults(func=_cmd_dataset_from_grid)

    pd = sub.add_parser("pd", help="persistence diagrams")
    pd_sub = pd.add_subparsers(dest="subcommand", required=True)
    comp = pd_sub.add_parser("compute", help="diagrams for every object")
    comp.add_argument("--in", required=True)
    comp.add_argument("--out", required=True)
    comp.add_argument("--gamma-max", type=float, default=DEFAULT_GAMMA_MAX)
    comp.add_argument("--max-dim", type=int, default=2, choices=(1, 2))
    comp.add_argument("--drop-essential", action="store_true")
    comp.add_argument("--budget", type=int, default=DEFAULT_SIMPLEX_BUDGET)
    comp.set_defaults(func=_cmd_pd_compute)

    code = sub.add_parser("code", help="source and channel codes")
    code_sub = code.add_subparsers(dest="subcommand", required=True)
    huff = code_sub.add_parser("huffman", help="print a code table")
    huff.add_argument("--probs", required=True,
                      help="comma separated probabilities")
    huff.set_defaults(func=_cmd_code_huffman)
    bch = code_sub.add_parser("bch", help="block encode or decode bits")
    bch.add_argument("action", choices=("encode", "decode"))
    bch.add_argument("--n", type=int, default=1023)
    bch.add_argument("--k", type=int, required=True)
    bch.add_argument("--t", type=int, default=None,
                     help="error capability; defaults to the table entry")
    bch.add_argument("--in", required=True)
    bch.add_argument("--out", required=True)
    bch.set_defaults(func=_cmd_code_bch)

    chan = sub.add_parser("channel", help="binary symmetric channel")
    chan_sub = chan.add_subparsers(dest="subcommand", required=True)
    bsc = chan_sub.add_parser("bsc", help="flip bits i.i.d.")
    bsc.add_argument("--alpha", type=float, required=True)
    bsc.add_argument("--seed", type=int, default=0)
    bsc.add_argument("--in", required=True)
    bsc.add_argument("--out", required=True)
    bsc.set_defaults(func=_cmd_channel_bsc)

    sweep = sub.add_parser("sweep", help="trade-off experiments")
    sweep_sub = sweep.add_subparsers(dest="subcommand", required=True)
    run = sweep_sub.add_parser("run", help="run or resume a sweep")
    run.add_argument("--config", required=True)
    run.add_argument("--quiet", action="store_true")
    run.set_defaults(func=_cmd_sweep_run)
    curves = sweep_sub.add_parser("curves", help="emit CSV + SVG charts")
    curves.add_argument("--kind", required=True, choices=CURVE_KINDS)
    curves.add_argument("--in", required=True)
    curves.add_argument("--out-dir", required=True)
    curves.set_defaults(func=_cmd_sweep_curves)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        # the command line boundary: every failure, expected or not (a
        # corrupt .npz raises zipfile.BadZipFile), ends as one error line,
        # named by its type when it has no message (MemoryError has none)
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
