"""Command line front end.

Subcommands mirror the pipeline stages: dataset generation, diagram
computation, source/channel coding, the binary symmetric channel, and the
sweep runner with its curve emitter. Bit files are ASCII '0'/'1' text.
"""

import argparse
import sys

import numpy as np

from .channel import BscChannel, transmit_bits
from .codec import (bch_generator, build_huffman, decode_or_passthrough,
                    bch_encode, load_code_table)
from .dataset import (LabeledDataset, load_grid_file, load_pointcloud_file,
                      synth_dataset, threshold_grid, write_pointcloud_file)
from .errors import ParseError
from .harness import CURVE_KINDS, emit_curves, load_config, read_results, run_sweep
from .homology import vr_diagram, write_pd_file
from .infotheory import quantizer_entropy


def _read_bits(path) -> np.ndarray:
    with open(path) as f:
        text = f.read()
    chars = [c for c in text if not c.isspace()]
    bad = [c for c in chars if c not in "01"]
    if bad:
        raise ParseError(f"bit file contains {bad[0]!r}; expected only 0/1")
    return np.array([int(c) for c in chars], dtype=np.uint8)


def _write_bits(path, bits) -> None:
    with open(path, "w") as f:
        f.write("".join(str(int(b)) for b in bits) + "\n")


def _cmd_dataset_synth(args) -> int:
    if args.classes != 3:
        print("only the 3-class generator is available", file=sys.stderr)
        return 2
    ds = synth_dataset(per_class=args.per_class, n_points=args.n_points,
                       noise=args.noise, seed=args.seed)
    write_pointcloud_file(args.out, ds)
    print(f"wrote {len(ds.objects)} objects to {args.out}")
    return 0


def _cmd_dataset_from_grid(args) -> int:
    entries = load_grid_file(getattr(args, "in"))
    clouds = []
    for i, (grid, label) in enumerate(entries, start=1):
        clouds.append(threshold_grid(grid, args.threshold, object_id=i,
                                     label=label))
    write_pointcloud_file(args.out, LabeledDataset(objects=tuple(clouds)))
    print(f"wrote {len(clouds)} objects to {args.out}")
    return 0


def _cmd_pd_compute(args) -> int:
    ds = load_pointcloud_file(getattr(args, "in"))
    entries = {}
    for obj in ds.objects:
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
    aligned = p[code.symbols - 1]
    for sym, bits in sorted(code.table().items()):
        print(f"{sym}\t{bits}")
    print(f"entropy   {quantizer_entropy(p / p.sum()):.6f} bits/symbol")
    print(f"avg length {code.expected_length(aligned / aligned.sum()):.6f}")
    return 0


def _lookup_t(n: int, k: int, t: int | None) -> int:
    if t is not None:
        return t
    for tn, tk, tt in load_code_table():
        if (tn, tk) == (n, k):
            return tt
    raise ValueError(f"({n}, {k}) is not in the packaged table; pass --t")


def _cmd_code_bch(args) -> int:
    t = _lookup_t(args.n, args.k, args.t)
    m_gf = (args.n + 1).bit_length() - 1
    code = bch_generator(m_gf, t)
    if code.n != args.n or code.k != args.k:
        print(f"construction at t={t} gives ({code.n}, {code.k}), "
              f"not ({args.n}, {args.k})", file=sys.stderr)
        return 2
    bits = _read_bits(getattr(args, "in"))
    if args.action == "encode":
        if len(bits) % code.k:
            pad = code.k - len(bits) % code.k
            bits = np.concatenate([bits, np.zeros(pad, dtype=np.uint8)])
            print(f"zero-padded message to {len(bits)} bits", file=sys.stderr)
        words = [bch_encode(code, bits[i:i + code.k])
                 for i in range(0, len(bits), code.k)]
        _write_bits(args.out, np.concatenate(words))
        print(f"encoded {len(words)} block(s) to {args.out}")
    else:
        if len(bits) % code.n:
            print(f"received length {len(bits)} is not a multiple of "
                  f"{code.n}", file=sys.stderr)
            return 2
        out, failures = [], 0
        for i in range(0, len(bits), code.n):
            msg, _, failed = decode_or_passthrough(code, bits[i:i + code.n])
            failures += int(failed)
            out.append(msg)
        _write_bits(args.out, np.concatenate(out))
        print(f"decoded {len(out)} block(s) to {args.out}; "
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
    synth.add_argument("--classes", type=int, default=3)
    synth.add_argument("--per-class", type=int, default=200)
    synth.add_argument("--n-points", type=int, default=48)
    synth.add_argument("--noise", type=float, default=0.2)
    synth.add_argument("--seed", type=int, default=7)
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
    comp.add_argument("--gamma-max", type=float, default=16.0)
    comp.add_argument("--max-dim", type=int, default=2, choices=(1, 2))
    comp.add_argument("--drop-essential", action="store_true")
    comp.add_argument("--budget", type=int, default=2_000_000)
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
        # corrupt .npz raises zipfile.BadZipFile), ends as one error line
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
