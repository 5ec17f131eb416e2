"""Goal-oriented transmission of persistence diagrams.

Point clouds are summarized by persistent homology, uniformly quantized,
entropy/channel coded, pushed through a binary symmetric channel, and
classified on the receiving side. The harness sweeps the quantizer
resolution, channel noise, and block codes to map the trade-offs between
distortion, rate, and inference accuracy.
"""

__version__ = "0.1.0"

from .channel import BscChannel, flip_mask, transmit, transmit_bits
from .codec import (BchCode, BitStream, Frame, GaloisField, HuffmanCode,
                    bch_decode, bch_encode, bch_generator, bits_to_int,
                    build_huffman, coded_rate, decode_or_passthrough,
                    huffman_decode, huffman_encode, int_to_bits,
                    load_code_table, pack_objects, select_compatible_codes)
from .dataset import (GrayscaleGrid, LabeledDataset, PointCloud,
                      load_grid_file, load_pointcloud_file, synth_dataset,
                      synth_loops, threshold_grid, write_pointcloud_file)
from .errors import (BudgetExceeded, CapacityExceeded, CorruptSymbol,
                     DecodeError, DecodeFailure, EmptyDensity, EmptyObject,
                     InconsistentLabel, OutOfBox, ParseError, PipelineError,
                     ShapeError, TrainingDiverged)
from .harness import (ExperimentConfig, TradeoffRecord, emit_curves,
                      load_config, parse_config, read_results, run_sweep,
                      write_config)
from .homology import (Filtration, PersistenceDiagram, bottleneck_distance,
                       build_vr_filtration, compute_persistence, load_pd_file,
                       vr_diagram, write_pd_file)
from .inference import (AccuracyReport, Classifier, CvSchedule,
                        evaluate_accuracy, load_checkpoint,
                        loss_and_gradients, perslay_vectorize, rasterize_raw,
                        save_checkpoint, train_classifier)
from .infotheory import (EmpiricalDensity, RateReport,
                         bottleneck_style_distortion, cell_probabilities,
                         estimate_density, mse_distortion, quantizer_entropy,
                         semantic_rate)
from .quantizer import (QuantizedPointSet, QuantizerGrid,
                        diagram_from_symbols, load_symbol_stream,
                        quantize_diagram, quantize_set, upper_triangle_cells,
                        write_symbol_stream)
