"""Goal-oriented transmission of persistence diagrams.

Point clouds are summarized by persistent homology, uniformly quantized,
entropy/channel coded, pushed through a binary symmetric channel, and
classified on the receiving side. The harness sweeps the quantizer
resolution, channel noise, and block codes to map the trade-offs between
distortion, rate, and inference accuracy.

Each exported name and submodule is loaded on first use (PEP 562):
`import pdsemcom` runs only this file, reading `pdsemcom.ExperimentConfig`
imports `config` and `errors` but no pipeline module, and a script that
computes diagrams (`from pdsemcom import vr_diagram`) loads none of the
codecs, the classifier or the sweep engine.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the names the package exports from it
_EXPORTS = {
    "channel": ("BscChannel", "flip_mask", "transmit", "transmit_bits"),
    "codec": ("BchCode", "BitStream", "Frame", "GaloisField", "HuffmanCode",
              "bch_decode", "bch_encode", "bch_generator", "bits_to_int",
              "build_huffman", "coded_rate", "decode_or_passthrough",
              "huffman_decode", "huffman_encode", "int_to_bits",
              "load_code_table", "pack_objects", "select_compatible_codes"),
    "config": ("ExperimentConfig", "load_config", "parse_config",
               "write_config"),
    "dataset": ("PointCloud", "load_grid_file", "load_pointcloud_file",
                "synth_dataset", "synth_loops", "threshold_grid",
                "write_pointcloud_file"),
    "errors": ("BudgetExceeded", "CapacityExceeded", "CorruptSymbol",
               "DecodeFailure", "EmptyDensity", "EmptyObject",
               "InconsistentLabel", "OutOfBox", "ParseError", "PipelineError",
               "ShapeError", "TrainingDiverged"),
    "harness": ("TradeoffRecord", "emit_curves", "read_results", "run_sweep"),
    "homology": ("Filtration", "PersistenceDiagram", "bottleneck_distance",
                 "build_vr_filtration", "compute_persistence", "load_pd_file",
                 "vr_diagram", "write_pd_file"),
    "inference": ("AccuracyReport", "Classifier", "CvSchedule",
                  "evaluate_accuracy", "load_checkpoint",
                  "loss_and_gradients", "perslay_vectorize", "rasterize_raw",
                  "save_checkpoint", "train_classifier"),
    "infotheory": ("EmpiricalDensity", "RateReport",
                   "bottleneck_style_distortion", "cell_probabilities",
                   "estimate_density", "mse_distortion", "quantizer_entropy",
                   "semantic_rate"),
    "quantizer": ("QuantizedPointSet", "QuantizerGrid", "diagram_from_symbols",
                  "load_symbol_stream", "quantize_diagram", "quantize_set",
                  "upper_triangle_cells", "write_symbol_stream"),
}
_OWNER = {name: module for module, names in _EXPORTS.items()
          for name in names}
__all__ = list(_OWNER)


def __getattr__(name):
    """Import the submodule that is `name` or owns it; keep the value here."""
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_OWNER[name]}", __name__),
                    name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
