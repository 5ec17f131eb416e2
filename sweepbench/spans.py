"""In-memory spans around the pdsemcom functions a sweep calls.

The tracer replaces public module-level names at the places where the
harness looks them up, so the program itself is not changed. Each call
records a span (name, start, end, parent span, counters); spans are kept in
memory and written out once the sweep has ended. Spans record perf_counter
times; the metrics and the trace file give them in reference seconds
(refclock.py), converted once the sweep has ended.
"""

import functools
import json
import time

import numpy as np


def _filtration_counts(args, kwargs, filt):
    return {"simplices": filt.simplex_count, "triangles": len(filt.triangles)}


def _persistence_counts(args, kwargs, diagram):
    finite_h1 = (diagram.dims == 1) & ~diagram.essential
    return {"h1_finite_pairs": int(np.count_nonzero(finite_h1))}


def _decode_counts(args, kwargs, result):
    _, corrected, failed = result
    return {"failures": int(failed), "corrected_bits": int(corrected)}


def _encode_counts(args, kwargs, bits):
    return {"bits": len(bits)}


def _huffman_decode_counts(args, kwargs, symbols):
    return {"decoded": len(symbols), "expected": int(kwargs["max_symbols"])}


def _quantize_counts(args, kwargs, q):
    return {"symbols": len(q.indices)}


def _transmit_counts(args, kwargs, received):
    sent = args[1].bits
    return {"bits": len(sent),
            "flips": int(np.count_nonzero(sent != received.bits))}


def _transmit_bits_counts(args, kwargs, received):
    sent = np.asarray(args[1], dtype=np.uint8).ravel()
    return {"bits": len(sent),
            "flips": int(np.count_nonzero(sent != received))}


def _targets():
    """(module, attribute, span name, counter function) for every wrap."""
    import pdsemcom.codec.bch as bch
    import pdsemcom.harness as harness
    import pdsemcom.homology as homology
    import pdsemcom.quantizer as quantizer
    return [
        (harness, "synth_dataset", "dataset.synth_dataset", None),
        (harness, "read_results", "harness.read_results", None),
        (harness, "vr_diagram", "homology.vr_diagram", None),
        (homology, "build_vr_filtration", "homology.build_vr_filtration",
         _filtration_counts),
        (homology, "compute_persistence", "homology.compute_persistence",
         _persistence_counts),
        (harness, "quantize_diagram", "quantizer.quantize_diagram",
         _quantize_counts),
        (harness, "quantize_set", "quantizer.quantize_set", _quantize_counts),
        # imported lazily by the harness, so it is looked up here
        (quantizer, "diagram_from_symbols", "quantizer.diagram_from_symbols",
         None),
        (harness, "estimate_density", "infotheory.estimate_density", None),
        (harness, "cell_probabilities", "infotheory.cell_probabilities", None),
        (harness, "quantizer_entropy", "infotheory.quantizer_entropy", None),
        (harness, "semantic_rate", "infotheory.semantic_rate", None),
        (harness, "mse_distortion", "infotheory.mse_distortion", None),
        (harness, "bottleneck_style_distortion",
         "infotheory.bottleneck_style_distortion", None),
        (harness, "build_huffman", "codec.build_huffman", None),
        (harness, "huffman_encode", "codec.huffman_encode", _encode_counts),
        (harness, "huffman_decode", "codec.huffman_decode",
         _huffman_decode_counts),
        (harness, "bch_generator", "codec.bch_generator", None),
        (harness, "bch_encode", "codec.bch_encode", None),
        (harness, "decode_or_passthrough", "codec.decode_or_passthrough",
         _decode_counts),
        # nests under decode_or_passthrough, which calls it through bch
        (bch, "bch_decode", "codec.bch_decode", None),
        (harness, "transmit", "channel.transmit", _transmit_counts),
        (harness, "transmit_bits", "channel.transmit_bits",
         _transmit_bits_counts),
        (harness, "perslay_vectorize", "inference.perslay_vectorize", None),
        (harness, "rasterize_raw", "inference.rasterize_raw", None),
        (harness, "train_classifier", "inference.train_classifier", None),
        (harness, "evaluate_accuracy", "inference.evaluate_accuracy", None),
    ]


# per-layer metric base -> the span names whose time and calls it sums
LAYERS = {
    "dataset.load": ("dataset.synth_dataset",),
    "homology.filtration": ("homology.build_vr_filtration",),
    "homology.reduction": ("homology.compute_persistence",),
    "quantizer.quantize": ("quantizer.quantize_diagram",
                           "quantizer.quantize_set"),
    "quantizer.dequantize": ("quantizer.diagram_from_symbols",),
    "infotheory.density": ("infotheory.estimate_density",),
    "infotheory.rate": ("infotheory.cell_probabilities",
                        "infotheory.quantizer_entropy",
                        "infotheory.semantic_rate"),
    "infotheory.distortion": ("infotheory.mse_distortion",
                              "infotheory.bottleneck_style_distortion"),
    "codec.huffman_build": ("codec.build_huffman",),
    "codec.huffman_encode": ("codec.huffman_encode",),
    "codec.huffman_decode": ("codec.huffman_decode",),
    "codec.bch_generator": ("codec.bch_generator",),
    "codec.bch_encode": ("codec.bch_encode",),
    "codec.bch_decode": ("codec.decode_or_passthrough",),
    "channel.transmit": ("channel.transmit", "channel.transmit_bits"),
    "inference.vectorize": ("inference.perslay_vectorize",
                            "inference.rasterize_raw"),
    "inference.train": ("inference.train_classifier",),
    "inference.classify": ("inference.evaluate_accuracy",),
    "harness.read_results": ("harness.read_results",),
}

ROOT_SPAN = "harness.run_sweep"


class Tracer:
    """Wraps the pdsemcom call sites and records one span per call.

    A span is the list [name, start, end, parent index, counters]; the
    parent index is -1 for the root. Single-threaded sweeps only.
    """

    def __init__(self):
        self.spans = []
        self._stack = [-1]
        self._saved = []

    def _open(self, name):
        rec = [name, time.perf_counter(), 0.0, self._stack[-1], None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec):
        rec[2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if count is not None:
                rec[4] = count(args, kwargs, result)
            return result
        return traced

    def install(self):
        for module, attr, name, count in _targets():
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, count))

    def uninstall(self):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def run(self, fn, *args):
        """Call fn under the root span and return its result."""
        rec = self._open(ROOT_SPAN)
        try:
            return fn(*args)
        finally:
            self._close(rec)

    def write_jsonl(self, path, to_ref):
        """One JSON line per span; `to_ref` maps times to reference s."""
        with open(path, "w") as f:
            for idx, (name, start, end, parent, counts) in enumerate(
                    self.spans):
                row = {"id": idx, "parent": parent, "name": name,
                       "start": to_ref(start), "end": to_ref(end)}
                if counts:
                    row["counters"] = counts
                f.write(json.dumps(row) + "\n")

    def layer_metrics(self, to_ref) -> dict:
        """Busy time (reference seconds, through `to_ref`), calls and exact
        counters per layer, from the spans."""
        busy, calls, totals = {}, {}, {}
        root_time = children_time = 0.0
        for name, start, end, parent, counts in self.spans:
            start, end = to_ref(start), to_ref(end)
            busy[name] = busy.get(name, 0.0) + (end - start)
            calls[name] = calls.get(name, 0) + 1
            for key, value in (counts or {}).items():
                totals[name + ":" + key] = totals.get(
                    name + ":" + key, 0) + value
            if parent == -1:
                root_time += end - start
            elif self.spans[parent][3] == -1:
                children_time += end - start
        out = {}
        for base, names in LAYERS.items():
            out[base + "_s"] = sum(busy.get(n, 0.0) for n in names)
            out[base + "_calls"] = sum(calls.get(n, 0) for n in names)

        def total(key):
            return totals.get(key, 0)

        triangles = total("homology.build_vr_filtration:triangles")
        pairs = total("homology.compute_persistence:h1_finite_pairs")
        blocks = calls.get("codec.decode_or_passthrough", 0)
        failures = total("codec.decode_or_passthrough:failures")
        expected = total("codec.huffman_decode:expected")
        out.update({
            "homology.diagrams": calls.get("homology.vr_diagram", 0),
            "homology.simplices": total(
                "homology.build_vr_filtration:simplices"),
            "homology.triangles": triangles,
            "homology.h1_finite_pairs": pairs,
            "homology.h1_yield": pairs / triangles if triangles else 0.0,
            "codec.bch_blocks": blocks,
            "codec.bch_failures": failures,
            "codec.bch_failure_share": failures / blocks if blocks else 0.0,
            "codec.bch_corrected_bits": total(
                "codec.decode_or_passthrough:corrected_bits"),
            "codec.huffman_bits": total("codec.huffman_encode:bits"),
            "codec.huffman_decode_yield": (
                total("codec.huffman_decode:decoded") / expected
                if expected else 0.0),
            "quantizer.symbols": (total("quantizer.quantize_diagram:symbols")
                                  + total("quantizer.quantize_set:symbols")),
            "channel.bits": (total("channel.transmit:bits")
                             + total("channel.transmit_bits:bits")),
            "channel.flips": (total("channel.transmit:flips")
                              + total("channel.transmit_bits:flips")),
            "harness.self_s": root_time - children_time,
            "trace.spans": len(self.spans),
        })
        return out
